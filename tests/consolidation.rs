//! What the repo retired stays retired.
//!
//! The north star is one of each: one hash, one split-network engine, one
//! conv lowering, one serving ladder. Each change that deleted a second copy
//! of something, or a knob nothing needed, left a row in [`RULES`] that
//! fails this test if the copy comes back; a change that retires something
//! adds its row. A row names the change that retired the item (`PR n` in
//! the git history), says why in one line, and makes one of three checks
//! over the paths it guards:
//!
//! - [`Check::Absent`]: no line of any file under the paths matches;
//! - [`Check::Exactly`]: above its tests, each file matches exactly `n`
//!   times ("defined once", "written once");
//! - [`Check::Gone`]: the path does not exist.
//!
//! Every path a row guards must exist (a `Gone` path's parent directory
//! must), so a moved file fails here instead of passing unchecked. The few
//! checks a row cannot say — a set of names derived from a file, the body
//! of one function — are the `#[test]`s after the table. The `checker_*`
//! tests feed the checker samples it must reject.
//!
//! Matching is plain text: a substring, a word (no identifier character on
//! either side), the suffix of an `fn` name, or a substring with case and
//! `_` folded away. This file is the one file under `tests/` never scanned:
//! its table spells every retired word.

use std::collections::HashSet;
use std::fs;
use std::ops::Range;
use std::path::Path;

use Check::{Absent, Exactly, Gone};
use Pat::{FnSuffix, Folded, Lit, Word};

/// This file, which the rules' walks skip.
const SELF: &str = "tests/consolidation.rs";

struct Rule {
    /// The change that retired the item: `PR n` in the git history.
    pr: u32,
    why: &'static str,
    /// Files or directories, relative to the repository root; a `*`
    /// component stands for every entry of the directory before it.
    paths: &'static [&'static str],
    /// Files or directories under `paths` the check skips.
    except: &'static [&'static str],
    check: Check,
}

enum Check {
    /// No line of any file under the paths matches any of these.
    Absent(&'static [Pat<'static>]),
    /// Above its tests, each file under the paths matches each of these
    /// exactly `n` times.
    Exactly(usize, &'static [Pat<'static>]),
    /// None of the paths exists.
    Gone,
}

#[derive(Clone, Copy)]
enum Pat<'a> {
    /// A substring.
    Lit(&'a str),
    /// A substring with no identifier character on either side.
    Word(&'a str),
    /// `fn` followed by a name that ends with this.
    FnSuffix(&'a str),
    /// A substring once case and `_` are folded away on both sides.
    Folded(&'a str),
}

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { pr: 12, why: "a retired API is deleted, not deprecated",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Lit("#[deprecated")]) },
    Rule { pr: 12, why: "FNV-1a is written once, in simclock::hash",
        paths: &["crates/*/src"], except: &["crates/sim-clock/src/hash.rs"],
        check: Absent(&[Folded("cbf2_9ce4_8422_2325")]) },
    Rule { pr: 13, why: "a layer has a training pass and an inference pass, not a mode flag",
        paths: &["crates/neural/src", "crates/core/src/apps"], except: &[],
        check: Absent(&[Lit("train: bool")]) },
    Rule { pr: 13, why: "library code runs on sim time; only the bench target's timed tables read the wall clock",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Lit("Instant::now")]) },
    Rule { pr: 14, why: "backprop is written in scneural; the applications compose layers",
        paths: &["crates/core/src"], except: &[],
        check: Absent(&[Lit(".backward(")]) },
    Rule { pr: 14, why: "one split-network engine, EarlyExitNet",
        paths: &["crates"], except: &[],
        check: Absent(&[Lit("fn forward_local"), Lit("fn forward_server")]) },
    Rule { pr: 15, why: "a Collection stores and hands out Arc<Doc> itself, so nothing grows a *_shared twin",
        paths: &["crates/nosql/src", "crates/serve/src"], except: &[],
        check: Absent(&[FnSuffix("_shared")]) },
    Rule { pr: 17, why: "the recording rules read ranges, never the whole series",
        paths: &["crates/tsdb/src/rules.rs"], except: &[],
        check: Absent(&[Lit(".samples(")]) },
    Rule { pr: 17, why: "a range is read through the cursor, not a Vec-returning twin",
        paths: &["crates/tsdb/src"], except: &[],
        check: Absent(&[Lit("fn samples_range")]) },
    Rule { pr: 17, why: "one implementation per query function, over samples in time order",
        paths: &["crates/tsdb/src/query.rs"], except: &[],
        check: Absent(&[FnSuffix("_iter")]) },
    Rule { pr: 18, why: "a fan-out's task size comes from ScparConfig::task_size; the tuner and its knobs stay gone",
        paths: &["crates/*/src", "crates/bench", "tests", "src", "examples"], except: &[],
        check: Absent(&[Folded("sctune"), Folded("with_tuner"), Folded(".tuner()"), Folded("tuning_table")]) },
    Rule { pr: 18, why: "the committed tuning table stays gone",
        paths: &["tuning_table.json"], except: &[],
        check: Gone },
    Rule { pr: 19, why: "the fog engine's stages take what they need, not a long argument list",
        paths: &["crates/fog/src", "crates/serve/src"], except: &[],
        check: Absent(&[Lit("allow(clippy::too_many_arguments)")]) },
    Rule { pr: 19, why: "the fog engine is staged: no feature-bytes special case, no annotation chain, no hash-ordered state",
        paths: &["crates/fog/src/sim.rs"], except: &[],
        check: Absent(&[Lit("feature_bytes =="), Lit("fn annotation_chain"), Lit("HashMap")]) },
    Rule { pr: 19, why: "the fog engine derives its plans; there is no per-tier pool setting",
        paths: &["crates/fog/src"], except: &[],
        check: Absent(&[Lit("fn par_config")]) },
    Rule { pr: 19, why: "the ISA is chosen once per process, not per context",
        paths: &["crates/*/src", "crates/bench", "tests"], except: &[],
        check: Absent(&[Lit("with_isa"), Lit(".isa()")]) },
    Rule { pr: 20, why: "one request path: each shared span name and the shed outcome are written once, by their stage",
        paths: &["crates/serve/src/server.rs"], except: &[],
        check: Exactly(1, &[Lit("\"cache/hit\""), Lit("\"cache/stale\""), Lit("\"admission/queue\""), Lit("outcome: Outcome::Shed")]) },
    Rule { pr: 20, why: "one request path: the per-kind stale fallbacks stay gone",
        paths: &["crates/serve/src/server.rs"], except: &[],
        check: Absent(&[Lit("fn stale_get"), Lit("fn stale_query"), Lit("fn stale_infer")]) },
    Rule { pr: 20, why: "sccompute fans out through scpar and hashes through simclock::hash",
        paths: &["crates/compute/src"], except: &[],
        check: Absent(&[Lit("DefaultHasher"), Lit("crossbeam::")]) },
    Rule { pr: 21, why: "a layer's passes take what they need, not a long argument list",
        paths: &["crates/neural/src"], except: &[],
        check: Absent(&[Lit("allow(clippy::too_many_arguments)")]) },
    Rule { pr: 21, why: "one conv lowering, per image: no batch-wide im2col/col2im",
        paths: &["crates/neural/src/layers/conv.rs"], except: &[],
        check: Absent(&[Lit("fn im2col("), Lit("fn col2im(")]) },
    Rule { pr: 21, why: "one conv lowering, per image: defined once, called once, for inference and training alike",
        paths: &["crates/neural/src/layers/conv.rs"], except: &[],
        check: Exactly(2, &[Lit("im2col_image("), Lit("col2im_image(")]) },
    Rule { pr: 21, why: "scsimd has only the backends CI builds",
        paths: &["crates/simd"], except: &[],
        check: Absent(&[Lit("Neon"), Lit("aarch64")]) },
    Rule { pr: 22, why: "one delivery audit: the day observes the broker's, it does not run its own",
        paths: &["crates/metro/src"], except: &[],
        check: Absent(&[Lit("audit_delivery(")]) },
    Rule { pr: 22, why: "one auto-index stage: the query stage and add_shard build indexes, nothing else",
        paths: &["crates/serve/src/server.rs"], except: &[],
        check: Exactly(2, &[Lit("create_index(")]) },
    Rule { pr: 22, why: "one auto-index stage, in server.rs",
        paths: &["crates/serve/src"], except: &["crates/serve/src/server.rs"],
        check: Absent(&[Lit("create_index(")]) },
    Rule { pr: 23, why: "scbench records seeded numbers only: the criterion shim stays gone",
        paths: &["shims/criterion"], except: &[],
        check: Gone },
    Rule { pr: 23, why: "scbench records seeded numbers only: nothing depends on criterion",
        paths: &["Cargo.toml", "crates/*/Cargo.toml", "crates/bench"], except: &[],
        check: Absent(&[Folded("criterion")]) },
    Rule { pr: 23, why: "scbench records seeded numbers only",
        paths: &["crates"], except: &[],
        check: Absent(&[Lit(".measured("), Lit("SCPROF_TEST_SLOWDOWN"), Lit("skip-measured"), Lit("metric_direction")]) },
    Rule { pr: 23, why: "ten public items nothing called",
        paths: &["crates"], except: &[],
        check: Absent(&[Word("tumbling_recorded"), Word("sliding_recorded"), Word("METRIC_WINDOW_FLUSHES"), Word("pending_requests"), Word("get_name"), Word("raw_topic_mut"), Word("incidents_mut"), Word("classifier_mut"), Word("into_topic"), Word("par_config")]) },
    Rule { pr: 25, why: "the Fig. 4 pipeline is five stages: no run_with body, no recorder option",
        paths: &["crates/core/src"], except: &[],
        check: Absent(&[Word("fn run_with"), Word("fn recorder")]) },
    Rule { pr: 25, why: "the dashboard reads the run's sim time instead of re-deriving it",
        paths: &["crates/core/src/artifacts.rs"], except: &[],
        check: Absent(&[Lit("items + 1")]) },
    Rule { pr: 25, why: "k-means++ seeding is written once for both k-means variants",
        paths: &["crates/compute/src/mllib.rs"], except: &[],
        check: Exactly(1, &[Lit("weighted_index(")]) },
    Rule { pr: 26, why: "the f32 matmul panel is one function per backend",
        paths: &["crates/simd/src/lib.rs", "crates/simd/src/avx2.rs", "crates/simd/src/scalar.rs"], except: &[],
        check: Exactly(1, &[Lit("fn matmul_panel_f32(")]) },
    Rule { pr: 26, why: "the panel blocks rows and columns inside itself: no *_blocked or *_v2 twin",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[FnSuffix("_blocked"), FnSuffix("_v2")]) },
    Rule { pr: 27, why: "five observability items nothing called",
        paths: &["crates"], except: &[],
        check: Absent(&[Word("inc"), Word("is_zero"), Word("maybe_scrape"), Word("last_value"), Word("all_complete")]) },
    Rule { pr: 27, why: "scsimd is f32-only",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("matmul_panel_f64"), Word("lanes_f32"), Word("lanes_f64")]) },
    Rule { pr: 27, why: "a product is one task: Tensor and Mat products run on the calling thread",
        paths: &["crates/neural/src/tensor.rs", "crates/neural/src/linalg.rs"], except: &[],
        check: Absent(&[Lit("scpar::")]) },
    Rule { pr: 27, why: "Mat has one product, a scalar loop",
        paths: &["crates/neural/src/linalg.rs"], except: &[],
        check: Exactly(1, &[Lit("fn matmul")]) },
    Rule { pr: 28, why: "one ingestion path: the Flume-style agent, its windows and the knobs only tests set stay gone",
        paths: &["crates"], except: &[],
        check: Absent(&[Word("MemoryChannel"), Word("ChannelError"), Word("VecSource"), Word("CollectingSink"), Word("PipelineStats"), Word("FilterInterceptor"), Word("HeaderInterceptor"), Word("WindowAggregate"), Word("try_histogram_with"), Word("with_cap"), Word("with_multiplier"), Word("with_buckets"), Word("DEFAULT_MIN_BOUND"), Word("DEFAULT_RATIO"), Word("DEFAULT_BUCKETS")]) },
    Rule { pr: 28, why: "one ingestion path: the agent's modules stay gone",
        paths: &["crates/stream/src/pipeline.rs", "crates/stream/src/channel.rs", "crates/stream/src/windows.rs"], except: &[],
        check: Gone },
    Rule { pr: 30, why: "the AVX2 panel has one tile kernel",
        paths: &["crates/simd/src/avx2.rs"], except: &[],
        check: Exactly(1, &[Lit("fn block_tile_f32")]) },
    Rule { pr: 30, why: "the plain loop lives inside the tile kernel: no *_plain or *_blend twin",
        paths: &["crates/simd/src"], except: &[],
        check: Absent(&[FnSuffix("_plain"), FnSuffix("_blend"), FnSuffix("_blended")]) },
    Rule { pr: 32, why: "three public accessors nothing called",
        paths: &["crates"], except: &[],
        check: Absent(&[Word("has_block"), Word("hidden_size"), Word("vocab_size")]) },
    Rule { pr: 34, why: "a send carries a typed (producer, seq) stamp, not two headers formatted and parsed back",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("HEADER_PRODUCER"), Word("HEADER_SEQ")]) },
    Rule { pr: 35, why: "a day runs through run() or run_observed(probe); optimizer knobs only their own tests set stay gone",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("run_with_flight"), Word("with_clip"), Word("with_decay"), Word("clip_global_norm")]) },
    Rule { pr: 35, why: "a run takes its recorder in one place, not from the simulator, the dataflow, the scheduler or the split network too",
        paths: &["crates/fog/src/sim.rs", "crates/metro/src/sim.rs", "crates/compute/src/dataflow.rs",
            "crates/compute/src/yarn.rs", "crates/neural/src/early_exit.rs"], except: &[],
        check: Absent(&[Lit("fn with_telemetry")]) },
    Rule { pr: 35, why: "a stream run takes its recorder in one place, the broker, not from each producer too",
        paths: &["crates/stream/src/broker.rs"], except: &[],
        check: Exactly(1, &[Lit("fn with_telemetry")]) },
    Rule { pr: 39, why: "the seeded bench keys are a test: one comparator, no gate binary, no knob nothing set, no one-field builder",
        paths: &["crates", "src", "tests", "examples", ".github/workflows/ci.yml"], except: &[],
        check: Absent(&[Word("perf_gate"), Word("compare_dirs"), Word("SCMETRO_USERS"), Word("SCBENCH_GIT_REV"),
            Word("CyberinfrastructureBuilder")]) },
    Rule { pr: 39, why: "the seeded bench keys are a test: the gate binary stays gone",
        paths: &["crates/bench/src/bin"], except: &[],
        check: Gone },
    Rule { pr: 41, why: "one inference entry: a layer infers in its infer_into alone, and escalated rows are gathered into the caller's workspace",
        paths: &["crates", "src", "tests", "examples"], except: &[],
        check: Absent(&[Word("infer_owned"), Word("select_batch")]) },
    Rule { pr: 42, why: "a loss is a function its training entry names: no loss trait, no target enum, no BCE",
        paths: &["crates/neural/src/loss.rs"], except: &[],
        check: Absent(&[Lit("trait Loss"), Word("LossTarget"), Word("BinaryCrossEntropy"), Word("SoftmaxCrossEntropy"),
            Word("MeanSquaredError")]) },
    Rule { pr: 42, why: "training takes Adam: no optimizer trait, no SGD",
        paths: &["crates/neural/src/optim.rs"], except: &[],
        check: Absent(&[Lit("trait Optimizer"), Word("Sgd")]) },
    Rule { pr: 42, why: "a training entry takes &mut Adam and names its loss",
        paths: &["crates", "src", "tests", "examples"], except: &[],
        check: Absent(&[Lit("dyn Loss"), Lit("dyn Optimizer")]) },
    Rule { pr: 42, why: "one exporter, Prometheus text; a trace is read through Telemetry::trace",
        paths: &["crates/telemetry/src"], except: &[],
        check: Absent(&[Word("json_snapshot"), Word("trace_json")]) },
    Rule { pr: 42, why: "a DQN setting no caller set is a constant",
        paths: &["crates/drl/src/agents.rs"], except: &[],
        check: Absent(&[Word("epsilon_start"), Word("epsilon_end"), Word("replay_capacity")]) },
    Rule { pr: 42, why: "an autoscaler setting no caller set is a constant",
        paths: &["crates/metro/src/autoscale.rs"], except: &[],
        check: Absent(&[Word("min_shards"), Word("scale_up_util"), Word("scale_down_util"), Word("shed_fraction"),
            Lit("pub slo:")]) },
    Rule { pr: 42, why: "a serving setting no caller set is a constant",
        paths: &["crates/serve/src/server.rs"], except: &[],
        check: Absent(&[Word("breaker_reset")]) },
    Rule { pr: 42, why: "a narrowing setting no caller set is a constant",
        paths: &["crates/social/src/narrowing.rs"], except: &[],
        check: Absent(&[Word("min_risk_score")]) },
    Rule { pr: 42, why: "a workload setting no caller set is a constant",
        paths: &["crates/serve/src/workload.rs"], except: &[],
        check: Absent(&[Word("feature_dim"), Word("row_pool")]) },
    Rule { pr: 43, why: "a serving workload arrives open-loop: the closed-loop mode only its own test built stays gone",
        paths: &["crates/serve/src/workload.rs"], except: &[],
        check: Absent(&[Word("ArrivalMode"), Word("ClosedLoop"), Word("closed_loop")]) },
    Rule { pr: 43, why: "a geofence is a circle: the polygon only its own tests built stays gone",
        paths: &["crates/geo/src/geofence.rs"], except: &[],
        check: Absent(&[Word("Polygon"), Word("point_in_polygon")]) },
    Rule { pr: 43, why: "a disabled telemetry handle holds no recorder, so no no-op recorder type",
        paths: &["crates/telemetry/src/trace.rs"], except: &[],
        check: Absent(&[Word("NoopRecorder")]) },
    Rule { pr: 43, why: "a variant nothing built: a folded stack weighs flops or items",
        paths: &["crates/prof/src/report.rs"], except: &[],
        check: Absent(&[Lit("CostDimension::Bytes"), Lit("    Bytes,")]) },
    Rule { pr: 43, why: "a variant nothing built: a recording rule is a rate, an increase, a quantile or a ratio",
        paths: &["crates/tsdb/src/rules.rs"], except: &[],
        check: Absent(&[Word("Agg"), Word("range_agg")]) },
    Rule { pr: 46, why: "E19 counts answered latencies in bucketed histograms: no per-request series, no sorted quantile",
        paths: &["crates/metro/src/sim.rs"], except: &[],
        check: Absent(&[Word("metro_latency_ms"), Word("quantile_over_time"), Word("Quantile")]) },
    Rule { pr: 46, why: "the flight schema carries no rollups key",
        paths: &["crates/tsdb/src/store.rs"], except: &[],
        check: Absent(&[Word("rollups")]) },
    Rule { pr: 47, why: "a capability no experiment runs goes: no tf-idf, no tweet collector, no anonymizer",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("TfIdf"), Word("TweetCollector"), Word("Anonymizer")]) },
    Rule { pr: 47, why: "MLlib is what the paper's analyses run: k-means, with linear regression and scaling for the opioid study",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("logistic_regression"), Word("naive_bayes"), Word("train_test_split")]) },
    Rule { pr: 47, why: "GraphX runs shortest paths for E8's 2-hop field: no ranking or crew discovery no experiment runs",
        paths: &["crates/*/src"], except: &[],
        check: Absent(&[Word("pagerank"), Word("connected_components"), Word("influence_ranking"), Word("discover_crews")]) },
    Rule { pr: 47, why: "the dataflow engine's one wide transformation is reduce-by-key",
        paths: &["crates/compute/src/dataflow.rs"], except: &[],
        check: Absent(&[Lit("fn join")]) },
    Rule { pr: 47, why: "the de-identification module and the influence module stay gone",
        paths: &["crates/data/src/privacy.rs", "crates/social/src/influence.rs"], except: &[],
        check: Gone },
];

/// The `.rs` files under these may name a public item of `crates/*/src` or
/// set a config field; [`is_shipped`] says which of them count as callers
/// of a `pub` item.
const CALLERS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// Public items only tests call that stay public, each a seam through which
/// a test checks shipped behaviour it cannot see from outside: `(path,
/// item, category)`, the category one of [`SEAM_CATEGORIES`]. An item is
/// `name` or `Type::name`; the guard matches the `name`.
#[rustfmt::skip]
const TEST_SEAMS: &[(&str, &str, &str)] = &[
    ("crates/bench/src/lib.rs", "compare_file", "baseline gate"),
    ("crates/bench/src/lib.rs", "compare_names", "baseline gate"),
    ("crates/compute/src/yarn.rs", "ResourceManager::check_invariants", "invariant check"),
    ("crates/serve/src/server.rs", "Server::shard_map", "invariant check"),
    ("crates/observe/src/tree.rs", "TraceTree::is_complete", "invariant check"),
    ("crates/observe/src/slo.rs", "burn_over_series", "reference implementation"),
    ("crates/nosql/src/wide_column.rs", "Table::recover_from", "fault recovery"),
    ("crates/drl/src/agents.rs", "DqnAgent::q_values", "reference implementation"),
    ("crates/neural/src/autoencoder.rs", "Autoencoder::reconstruct", "invariant check"),
    ("crates/neural/src/autoencoder.rs", "FusionAutoencoder::reconstruct", "invariant check"),
    ("crates/fog/src/sim.rs", "SimRunner::sweep_recorded", "reference implementation"),
];

/// What a [`TEST_SEAMS`] row may say its test checks.
const SEAM_CATEGORIES: &[&str] = &[
    "invariant check",
    "reference implementation",
    "fault recovery",
    "baseline gate",
];

/// Public fields of a `*Config` that no caller sets yet stay fields, each
/// for the ROADMAP item that reads or derives it; every other field only
/// its `Default` sets is a constant.
#[rustfmt::skip]
const UNSET_CONFIG_FIELDS: &[(&str, &str)] = &[
    ("MetroConfig::feature_dim", "ROADMAP item 2: citybench's day reads it to build its model and its rows"),
    ("MetroConfig::row_pool", "ROADMAP item 2: citybench's day reads it to build its rows"),
    ("AutoscaleConfig::min_pool", "ROADMAP item 2: citybench's day reads it as its starting pool"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn fold(s: &str) -> String {
    s.chars()
        .filter(|&c| c != '_')
        .flat_map(char::to_lowercase)
        .collect()
}

impl Pat<'_> {
    /// How many times the pattern matches `line`.
    fn count(self, line: &str) -> usize {
        match self {
            Lit(s) => line.matches(s).count(),
            Word(w) => line
                .match_indices(w)
                .filter(|&(at, _)| {
                    !line[..at].ends_with(is_ident) && !line[at + w.len()..].starts_with(is_ident)
                })
                .count(),
            FnSuffix(suffix) => line
                .match_indices("fn ")
                .filter(|&(at, _)| !line[..at].ends_with(is_ident))
                .filter(|&(at, _)| {
                    let rest = line[at + 3..].trim_start();
                    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
                    name.ends_with(suffix)
                })
                .count(),
            Folded(s) => fold(line).matches(&fold(s)).count(),
        }
    }
}

impl std::fmt::Display for Pat<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        match self {
            Lit(s) => write!(f, "`{s}`"),
            Word(w) => write!(f, "word `{w}`"),
            FnSuffix(s) => write!(f, "`fn *{s}`"),
            Folded(s) => write!(f, "`{s}` (any case, any `_`)"),
        }
    }
}

/// `src` above its tests: cut at the first unindented `#[cfg(test)]`. An
/// indented one gates a single item, not the rest of the file.
fn non_test(src: &str) -> &str {
    let mut at = 0;
    for line in src.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            return &src[..at];
        }
        at += line.len();
    }
    src
}

/// The paths `pattern` names that exist; a `*` component stands for every
/// entry of the directory before it.
fn expand(pattern: &str) -> Vec<String> {
    let mut found = vec![String::new()];
    for part in pattern.split('/') {
        let join = |dir: &str, name: &str| {
            if dir.is_empty() {
                name.to_string()
            } else {
                format!("{dir}/{name}")
            }
        };
        found = found
            .iter()
            .flat_map(|dir| match part {
                "*" => entries(dir).into_iter().map(|e| join(dir, &e)).collect(),
                _ => vec![join(dir, part)],
            })
            .filter(|p| root().join(p).exists())
            .collect();
    }
    found
}

/// The names in directory `dir`, sorted.
fn entries(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(dir))
        .map(|rd| {
            rd.map(|e| e.expect("a readable directory entry"))
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Every file under `path`, in name order, except this one.
fn files_under(path: &str, out: &mut Vec<String>) {
    if root().join(path).is_dir() {
        for name in entries(path) {
            files_under(&format!("{path}/{name}"), out);
        }
    } else if path != SELF {
        out.push(path.to_string());
    }
}

fn read(path: &str) -> String {
    let bytes = fs::read(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `path:line: …` for every line of `src` that matches one of `pats`.
fn absent(path: &str, src: &str, pats: &[Pat]) -> Vec<String> {
    let mut found = Vec::new();
    for (i, line) in src.lines().enumerate() {
        for pat in pats.iter().filter(|p| p.count(line) > 0) {
            found.push(format!(
                "{path}:{}: {pat} is retired: {}",
                i + 1,
                line.trim()
            ));
        }
    }
    found
}

/// `path:lines: …` unless `pat` matches exactly `n` times above the tests
/// in `src`.
fn exactly(path: &str, src: &str, n: usize, pat: Pat) -> Option<String> {
    let mut lines = Vec::new();
    let mut total = 0;
    for (i, line) in non_test(src).lines().enumerate() {
        let count = pat.count(line);
        if count > 0 {
            lines.push((i + 1).to_string());
            total += count;
        }
    }
    (total != n).then(|| {
        format!(
            "{path}:{}: {pat} appears {total} times above the tests, expected {n}",
            lines.join(",")
        )
    })
}

/// What `rule` finds wrong with the tree, one message per problem.
fn violations(rule: &Rule) -> Vec<String> {
    let mut problems = Vec::new();
    if let Gone = rule.check {
        for &path in rule.paths {
            let parent = Path::new(path).parent().expect("a relative path");
            if !root().join(parent).is_dir() {
                problems.push(format!(
                    "guarded directory {} does not exist",
                    parent.display()
                ));
            } else if root().join(path).exists() {
                problems.push(format!("{path} must not exist"));
            }
        }
    } else {
        let mut files = Vec::new();
        for &pattern in rule.paths {
            let found = expand(pattern);
            if found.is_empty() {
                problems.push(format!("guarded path {pattern} does not exist"));
            }
            found.iter().for_each(|p| files_under(p, &mut files));
        }
        for &except in rule.except {
            if !root().join(except).exists() {
                problems.push(format!("excepted path {except} does not exist"));
            }
        }
        files.sort();
        files.dedup();
        files.retain(|f| {
            !rule
                .except
                .iter()
                .any(|e| Path::new(f).starts_with(Path::new(e)))
        });
        for file in &files {
            let src = read(file);
            match rule.check {
                Absent(pats) => problems.extend(absent(file, &src, pats)),
                Exactly(n, pats) => {
                    problems.extend(pats.iter().filter_map(|&p| exactly(file, &src, n, p)))
                }
                Gone => unreachable!("handled above"),
            }
        }
    }
    problems
}

/// Each problem, prefixed by the change that retired the item and why.
fn named(pr: u32, why: &str, problems: Vec<String>) -> Vec<String> {
    problems
        .into_iter()
        .map(|p| format!("PR {pr} ({why}): {p}"))
        .collect()
}

fn report(problems: Vec<String>) {
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn every_rule_holds() {
    report(
        RULES
            .iter()
            .flat_map(|rule| named(rule.pr, rule.why, violations(rule)))
            .collect(),
    );
}

#[test]
fn tune_is_an_empty_shell() {
    let files = entries("crates/tune/src");
    report(named(
        18,
        "crates/tune stays an empty shell until the benchmark may drop it",
        (files != ["lib.rs"])
            .then(|| format!("crates/tune/src holds {files:?}, expected [\"lib.rs\"]"))
            .into_iter()
            .collect(),
    ));
}

#[test]
fn serve_writes_each_metric_name_once() {
    let path = "crates/serve/src/server.rs";
    let src = read(path);
    let mut names: Vec<&str> = non_test(&src)
        .match_indices("\"scserve_")
        .filter_map(|(at, _)| {
            let rest = &src[at + 1..];
            let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '_'))?;
            rest[end..].starts_with('"').then(|| &src[at..at + end + 2])
        })
        .collect();
    names.sort();
    names.dedup();
    let mut problems: Vec<String> = names
        .iter()
        .filter_map(|&name| exactly(path, &src, 1, Lit(name)))
        .collect();
    if names.is_empty() {
        problems.push(format!("{path}: no \"scserve_*\" metric name found"));
    }
    report(named(
        20,
        "one request path: every metric name is written once, by the stage that owns it",
        problems,
    ));
}

#[test]
fn pipeline_writes_each_metric_once() {
    let path = "crates/core/src/pipeline.rs";
    let src = read(path);
    let stages = non_test(&src);
    let names: Vec<&str> = stages
        .lines()
        .filter_map(|l| l.strip_prefix("const "))
        .filter(|l| l.starts_with("METRIC_"))
        .map(|l| &l[..l.find(|c| !is_ident(c)).unwrap_or(l.len())])
        .collect();
    let uses: String = stages
        .lines()
        .map(|l| {
            if l.starts_with("const METRIC_") {
                ""
            } else {
                l
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut problems: Vec<String> = names
        .iter()
        .filter_map(|&name| exactly(path, &uses, 1, Word(name)))
        .collect();
    if names.is_empty() {
        problems.push(format!("{path}: no `const METRIC_*` found"));
    }
    report(named(
        25,
        "each smartcity_pipeline_* metric is written once, by its stage",
        problems,
    ));
}

#[test]
fn conv_has_one_forward_path() {
    let path = "crates/neural/src/layers/conv.rs";
    let src = read(path);
    let lines: Vec<&str> = non_test(&src).lines().collect();
    let start = lines.iter().position(|l| l.starts_with("impl Conv2d {"));
    let end = lines
        .iter()
        .position(|l| l.starts_with("impl Layer for Conv2d"));
    let problems = match (start, end) {
        (Some(start), Some(end)) if start < end => (start..end)
            .filter(|&i| Lit("fn forward_impl").count(lines[i]) > 0)
            .map(|i| format!("{path}:{}: `fn forward_impl` inside `impl Conv2d`", i + 1))
            .collect(),
        _ => vec![format!(
            "{path}: `impl Conv2d {{` followed by `impl Layer for Conv2d` not found"
        )],
    };
    report(named(
        21,
        "one conv lowering, for inference and training alike",
        problems,
    ));
}

#[test]
fn find_returns_the_bucket() {
    let path = "crates/nosql/src/document.rs";
    let src = read(path);
    let lines: Vec<&str> = src.lines().collect();
    let mut problems = Vec::new();
    match lines.iter().position(|l| l.starts_with("    pub fn find(")) {
        Some(start) => {
            for (i, line) in lines.iter().enumerate().skip(start) {
                for pat in [Lit("dedup_by_key"), Lit("docs.get(")] {
                    if pat.count(line) > 0 {
                        problems.push(format!("{path}:{}: {pat} in `Collection::find`", i + 1));
                    }
                }
                if *line == "    }" {
                    break;
                }
            }
        }
        None => problems.push(format!("{path}: `    pub fn find(` not found")),
    }
    report(named(
        22,
        "an indexed find returns the covering bucket as it is",
        problems,
    ));
}

#[test]
fn the_only_neon_is_resolves_test() {
    let mut files = Vec::new();
    files_under("crates/simd", &mut files);
    let mut found: Vec<String> = files
        .iter()
        .flat_map(|f| absent(f, &read(f), &[Folded("neon")]))
        .collect();
    match found.len() {
        0 => found.push("crates/simd: no line spells `neon`, expected `resolve`'s test".into()),
        1 => found.clear(),
        _ => {}
    }
    report(named(
        21,
        "scsimd has only the backends CI builds; one test spells the retired SCSIMD_FORCE=neon",
        found,
    ));
}

/// `path:line: …` for each unindented line below the first unindented
/// `#[cfg(test)]` of `src` that is neither a test item nor part of one:
/// the checks above read a file only above that line, so an item below it
/// would pass them unseen.
fn items_below_the_tests(path: &str, src: &str) -> Vec<String> {
    let above = non_test(src);
    let first = above.lines().count();
    let mut gated = false;
    let mut found = Vec::new();
    for (i, line) in src[above.len()..].lines().enumerate() {
        if line.is_empty() || line.starts_with([' ', '\t', '}', ')', ']', '/']) {
            continue;
        }
        if line.starts_with("#[cfg(test)]") {
            gated = true;
        } else if !line.starts_with('#') {
            if !gated {
                found.push(format!(
                    "{path}:{}: below the tests: {}",
                    first + i + 1,
                    line.trim_end()
                ));
            }
            gated = false;
        }
    }
    found
}

/// A file ends with its tests. An item below a test module is invisible to
/// every check that reads a file above its tests, the retired words
/// included.
#[test]
fn every_file_ends_with_its_tests() {
    let mut files = Vec::new();
    for dir in expand("crates/*/src")
        .iter()
        .map(String::as_str)
        .chain(["src"])
    {
        files_under(dir, &mut files);
    }
    report(named(
        39,
        "a file ends with its tests, so the text checks see every item",
        files
            .iter()
            .filter(|f| f.ends_with(".rs"))
            .flat_map(|f| items_below_the_tests(f, &read(f)))
            .collect(),
    ));
}

/// The item kinds the `pub` rule covers, as the word after `pub `.
const PUB_KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// The kind and name of the item a line declares `pub` (`pub const fn` and
/// `pub unsafe fn` are functions).
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = match rest.strip_prefix("const ") {
        Some(r) if r.starts_with("fn ") || r.starts_with("unsafe ") => r,
        _ => rest,
    };
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let (kind, rest) = rest.split_once(' ')?;
    let kind = *PUB_KINDS.iter().find(|&&k| k == kind)?;
    let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some((kind, name))
}

/// Byte length of what starts `s`: a string literal (raw or not), a char
/// literal, or else one character. A lifetime's `'` is one character.
fn token_len(s: &str) -> usize {
    let hashes = s
        .strip_prefix('r')
        .map(|r| r.len() - r.trim_start_matches('#').len());
    if let Some(n) = hashes.filter(|&n| s[1 + n..].starts_with('"')) {
        let close = format!("\"{}", "#".repeat(n));
        return s[2 + n..]
            .find(&close)
            .map_or(s.len(), |e| 2 + n + e + close.len());
    }
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {
            let mut escaped = false;
            for (at, c) in chars {
                match c {
                    '"' if !escaped => return at + 1,
                    '\\' => escaped = !escaped,
                    _ => escaped = false,
                }
            }
            s.len()
        }
        Some((_, '\'')) => match (chars.next(), chars.next()) {
            (Some((_, '\\')), _) => s[3..].find('\'').map_or(s.len(), |e| e + 4),
            (Some(_), Some((at, '\''))) => at + 1,
            _ => 1,
        },
        Some((_, c)) => c.len_utf8(),
        None => 0,
    }
}

/// `src` with each span at which `blank` returns a length blanked out,
/// line breaks kept. String and char literals are copied whole, so a
/// `//` inside one starts nothing.
fn blanked(src: &str, blank: impl Fn(&str, &str) -> Option<usize>) -> String {
    let mut out = String::with_capacity(src.len());
    let mut at = 0;
    while at < src.len() {
        let rest = &src[at..];
        let len = match blank(&src[..at], rest) {
            Some(len) => {
                out.extend(rest[..len].chars().filter(|&c| c == '\n'));
                len
            }
            None => {
                let len = token_len(rest);
                out.push_str(&rest[..len]);
                len
            }
        };
        at += len;
    }
    out
}

/// `src` without its comments.
fn uncommented(src: &str) -> String {
    blanked(src, |_, rest| {
        if rest.starts_with("//") {
            Some(rest.find('\n').unwrap_or(rest.len()))
        } else if rest.starts_with("/*") {
            Some(rest.find("*/").map_or(rest.len(), |e| e + 2))
        } else {
            None
        }
    })
}

/// `src` without its comments, string literals and `pub use` statements:
/// the text in which code names an item. A comment or a string uses
/// nothing, and a re-export is a second path to an item, not a use of it.
fn code(src: &str) -> String {
    blanked(&uncommented(src), |before, rest| {
        if before.ends_with(is_ident) {
            None
        } else if rest.starts_with("pub use ") {
            Some(rest.find(';').map_or(rest.len(), |e| e + 1))
        } else {
            let len = token_len(rest);
            (rest.starts_with('"') || rest.starts_with('r') && len > 1).then_some(len)
        }
    })
}

/// The code of `src` that ships: its [`code`] above its tests, with each
/// item an indented `#[cfg(test)]` gates blanked. Line breaks are kept.
fn shipped_code(src: &str) -> String {
    let code = code(src);
    let mut out = String::with_capacity(code.len());
    // The line that closes the gated item being blanked, once it has begun.
    let mut gated: Option<Option<String>> = None;
    for line in non_test(&code).lines() {
        let trimmed = line.trim_start();
        gated = match gated {
            None if trimmed == "#[cfg(test)]" => Some(None),
            None => {
                out.push_str(line);
                None
            }
            Some(None) if trimmed.is_empty() || trimmed.starts_with("#[") => Some(None),
            Some(None) if trimmed.ends_with([';', '}']) => None,
            Some(None) => Some(Some(format!("{}}}", &line[..line.len() - trimmed.len()]))),
            Some(Some(close)) => (line != close).then_some(Some(close)),
        };
        out.push('\n');
    }
    out
}

/// Whether `path` holds shipped code: a crate's sources, benches or
/// examples, the facade, the examples, or citybench. A test file is not.
fn is_shipped(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("src" | "examples") => true,
        Some("benchmark") => parts.next() == Some("src"),
        Some("crates") => matches!(parts.nth(1), Some("src" | "benches" | "examples")),
        _ => false,
    }
}

/// Whether `code` names `name` in a public signature: a `pub fn`'s
/// parameters or return type, the type of a `pub` field, or a field of a
/// `pub enum`'s variant. A type there is public whoever names it, or the
/// compiler warns `private_interfaces`.
fn in_public_signature(code: &str, name: &str) -> bool {
    let names = |text: &str| Word(name).count(text) > 0;
    let lines: Vec<&str> = code.lines().collect();
    lines.iter().enumerate().any(|(n, line)| {
        let indent = &line[..line.len() - line.trim_start().len()];
        let line = line.trim_start();
        match pub_item(line) {
            Some(("fn", _)) => {
                let signature = lines[n..].join("\n");
                let end = signature.find(['{', ';']).unwrap_or(signature.len());
                names(&signature[..end])
            }
            Some(("enum", _)) => {
                let close = format!("{indent}}}");
                let body = lines[n + 1..].iter().take_while(|l| **l != close);
                body.into_iter().any(|l| names(l))
            }
            Some(_) => false,
            None => line
                .strip_prefix("pub ")
                .and_then(|rest| rest.split_once(':'))
                .is_some_and(|(field, ty)| field.chars().all(is_ident) && names(ty)),
        }
    })
}

/// `(path, name, "path:line: …")` for each `pub` item in the shipped code
/// of a `crates/*/src` file that is named in the code of no other file of
/// `files`, or that no shipped code names: not another file's, and not its
/// own file's outside the lines that declare a `pub` item of that name. A
/// type its own file names in a public signature passes.
fn unnamed_pub_items(files: &[(String, String)]) -> Vec<(String, String, String)> {
    let code: Vec<String> = files.iter().map(|(_, src)| code(src)).collect();
    let shipped: Vec<String> = files
        .iter()
        .map(|(path, src)| match is_shipped(path) {
            true => shipped_code(src),
            false => String::new(),
        })
        .collect();
    fn words(text: &[String]) -> Vec<HashSet<&str>> {
        text.iter()
            .map(|src| src.split(|c| !is_ident(c)).collect())
            .collect()
    }
    let (named_in, shipped_in) = (words(&code), words(&shipped));
    let mut found = Vec::new();
    for (i, (path, _)) in files.iter().enumerate() {
        let mut parts = path.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        let own = &shipped[i];
        for (n, line) in own.lines().enumerate() {
            let Some((kind, name)) = pub_item(line) else {
                continue;
            };
            let elsewhere =
                |sets: &[HashSet<&str>]| (0..files.len()).any(|j| j != i && sets[j].contains(name));
            let used_here = own
                .lines()
                .any(|l| pub_item(l).is_none_or(|(_, n)| n != name) && Word(name).count(l) > 0);
            let is_type = ["struct", "enum", "trait", "type"].contains(&kind);
            let why = if is_type && in_public_signature(own, name) || elsewhere(&shipped_in) {
                continue;
            } else if !elsewhere(&named_in) {
                "is named in no other file"
            } else if used_here {
                continue;
            } else {
                "is named only by tests"
            };
            let msg = format!("{path}:{}: `pub {kind} {name}` {why}", n + 1);
            found.push((path.clone(), name.to_string(), msg));
        }
    }
    found
}

/// What the rule "`pub` means shipped code in another file names it" finds
/// wrong with `files`: an unnamed `pub` item that is not a row of `seams`,
/// and a row of `seams` outside [`SEAM_CATEGORIES`] or naming no unnamed
/// item.
fn pub_item_problems(files: &[(String, String)], seams: &[(&str, &str, &str)]) -> Vec<String> {
    let unnamed = unnamed_pub_items(files);
    let is_seam = |&(path, item, _): &(&str, &str, &str),
                   (at, name, _): &(String, String, String)| {
        path == at && item.rsplit("::").next() == Some(name.as_str())
    };
    let mut problems: Vec<String> = unnamed
        .iter()
        .filter(|u| !seams.iter().any(|row| is_seam(row, u)))
        .map(|(_, _, msg)| msg.clone())
        .collect();
    if seams.len() > 12 {
        problems.push(format!("{} test seams, at most 12", seams.len()));
    }
    for row @ &(path, item, category) in seams {
        if !SEAM_CATEGORIES.contains(&category) {
            problems.push(format!(
                "{path}: `{item}` is a seam for `{category}`, which is not one of {SEAM_CATEGORIES:?}"
            ));
        }
        if !unnamed.iter().any(|u| is_seam(row, u)) {
            problems.push(format!(
                "{path}: seam `{item}` is not a `pub` item only tests name"
            ));
        }
    }
    problems
}

/// `(path, source)` of every `.rs` file under [`CALLERS`].
fn caller_files() -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for dir in CALLERS {
        files_under(dir, &mut paths);
    }
    paths
        .into_iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| {
            let src = read(&p);
            (p, src)
        })
        .collect()
}

/// `pub` means shipped code in another file names it, for every kind of
/// item. A function, type or constant only its own file names is private;
/// one only tests use is deleted with its tests, unless it is a
/// [`TEST_SEAMS`] row. A text check: a common name another item also has
/// passes here, so the compile sweep (DESIGN.md § Public means called
/// elsewhere) is the full check.
#[test]
fn every_pub_item_is_named_outside_its_file() {
    report(pub_item_problems(&caller_files(), TEST_SEAMS));
}

/// `path:line: …` for each `pub use m::…` in `src` that re-exports from a
/// `pub mod m` the same file declares: the item would have two public
/// paths.
fn exported_twice(path: &str, src: &str) -> Vec<String> {
    let code = uncommented(src);
    let public: Vec<&str> = code
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    code.lines()
        .enumerate()
        .filter_map(|(n, line)| {
            let module = line.strip_prefix("pub use ")?.split("::").next()?;
            public.contains(&module).then(|| {
                format!(
                    "{path}:{}: `pub use {module}::…` re-exports from `pub mod {module}`",
                    n + 1
                )
            })
        })
        .collect()
}

/// One public path per item: a crate root either re-exports a module's
/// items or makes the module public, not both.
#[test]
fn no_crate_exports_an_item_twice() {
    report(named(
        43,
        "an item has one public path",
        expand("crates/*/src/lib.rs")
            .iter()
            .flat_map(|f| exported_twice(f, &read(f)))
            .collect(),
    ));
}

/// The lines from `start` through the first later line that is a lone
/// `}`: an item's body, when `start` opens an unindented item.
fn item_lines(lines: &[&str], start: usize) -> Range<usize> {
    let end = lines[start..]
        .iter()
        .position(|l| *l == "}")
        .map_or(lines.len(), |n| start + n + 1);
    start..end
}

/// Whether `line` sets `field`: `field: value` or the shorthand `field,`
/// in a struct literal, or an assignment through `.field` (`cfg.field =`,
/// `cfg.field.inner =`). A `pub` declaration sets nothing.
fn sets_field(line: &str, field: &str) -> bool {
    let trimmed = line.trim_start();
    if trimmed.starts_with("pub ") {
        return false;
    }
    if trimmed == format!("{field},") {
        return true;
    }
    line.match_indices(field).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + field.len()..]);
        if before.ends_with(is_ident) || after.starts_with(is_ident) {
            return false;
        }
        if !before.ends_with('.') {
            let after = after.trim_start();
            return after.starts_with(':') && !after.starts_with("::");
        }
        let mut rest = after;
        while let Some(r) = rest.strip_prefix('.') {
            rest = r.trim_start_matches(is_ident);
        }
        let rest = rest.trim_start();
        rest.starts_with('=') && !rest.starts_with("==")
    })
}

/// `(Name::field, path:line)` for each `pub` field of a `pub struct
/// *Config` above the tests of a `crates/*/src` file of `files` that has an
/// `impl Default` in `files`, when no line of `files` outside that struct
/// and that `impl` sets it.
fn unset_config_fields(files: &[(String, String)]) -> Vec<(String, String)> {
    let lines: Vec<Vec<&str>> = files.iter().map(|(_, src)| src.lines().collect()).collect();
    let mut found = Vec::new();
    for (i, (path, src)) in files.iter().enumerate() {
        let mut parts = path.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        for (n, line) in non_test(src).lines().enumerate() {
            let Some(name) = line
                .strip_prefix("pub struct ")
                .and_then(|rest| rest.strip_suffix(" {"))
                .filter(|name| name.ends_with("Config"))
            else {
                continue;
            };
            let opens_default = format!("impl Default for {name} {{");
            let Some(default) = lines.iter().enumerate().find_map(|(j, ls)| {
                let at = ls.iter().position(|l| *l == opens_default)?;
                Some((j, item_lines(ls, at)))
            }) else {
                continue;
            };
            let body = item_lines(&lines[i], n);
            for k in body.clone() {
                let Some(field) = lines[i][k]
                    .strip_prefix("    pub ")
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(field, _)| field)
                    .filter(|field| field.chars().all(is_ident))
                else {
                    continue;
                };
                let set = lines.iter().enumerate().any(|(j, ls)| {
                    ls.iter().enumerate().any(|(l, line)| {
                        let inside = (j == i && body.contains(&l))
                            || (j == default.0 && default.1.contains(&l));
                        !inside && sets_field(line, field)
                    })
                });
                if !set {
                    found.push((format!("{name}::{field}"), format!("{path}:{}", k + 1)));
                }
            }
        }
    }
    found
}

/// What the rule "a setting with one value in use is a constant" finds
/// wrong with `files`: a config field only its `Default` sets, outside
/// `allowlist`; and a row of `allowlist` that cites no ROADMAP item 2 or 8,
/// or names no such field.
fn config_field_problems(files: &[(String, String)], allowlist: &[(&str, &str)]) -> Vec<String> {
    let unset = unset_config_fields(files);
    let mut problems: Vec<String> = unset
        .iter()
        .filter(|(field, _)| !allowlist.iter().any(|(allowed, _)| allowed == field))
        .map(|(field, at)| {
            format!("{at}: `{field}` is set only by its `Default`: make it a constant")
        })
        .collect();
    for &(field, why) in allowlist {
        if !(why.starts_with("ROADMAP item 2:") || why.starts_with("ROADMAP item 8:")) {
            problems.push(format!(
                "{field}: allowed for `{why}`, which cites neither ROADMAP item 2 nor 8"
            ));
        }
        if !unset.iter().any(|(f, _)| f == field) {
            problems.push(format!(
                "allowed field {field} is not a config field only its `Default` sets"
            ));
        }
    }
    problems
}

/// A setting with one value in use is a constant: every `pub` field of a
/// `*Config` with an `impl Default` is set somewhere else, or it is
/// allowlisted for the ROADMAP item that reads it. A text check, like the
/// `pub fn` one: a field name another struct also sets passes here.
#[test]
fn every_config_field_is_set_by_a_caller() {
    report(named(
        42,
        "a setting with one value in use is a constant",
        config_field_problems(&caller_files(), UNSET_CONFIG_FIELDS),
    ));
}

#[test]
fn checker_rejects_a_retired_word_but_not_a_longer_one() {
    let src = "fn incr(&self) {}\npub fn inc(&self) {}\n";
    assert_eq!(
        absent("metrics.rs", src, &[Word("inc")]),
        ["metrics.rs:2: word `inc` is retired: pub fn inc(&self) {}"]
    );
}

#[test]
fn checker_rejects_a_stamp_header_read_back_but_not_a_longer_name() {
    let src = "const HEADER_SEQUENCE: u8 = 0;\n\
               let seq = e.header_value(HEADER_SEQ).and_then(|s| s.parse().ok());\n";
    assert_eq!(
        absent(
            "broker.rs",
            src,
            &[Word("HEADER_PRODUCER"), Word("HEADER_SEQ")]
        ),
        ["broker.rs:2: word `HEADER_SEQ` is retired: \
          let seq = e.header_value(HEADER_SEQ).and_then(|s| s.parse().ok());"]
    );
}

#[test]
fn checker_rejects_a_second_run_entry_a_knob_and_a_recorder_setter() {
    let src = "pub fn run_with_flight(self) {}\nfn run_with_flights() {}\n\
               let opt = Sgd::new(0.1).with_decay(0.5);\n\
               pub fn with_telemetry(mut self, t: TelemetryHandle) -> Self {}\n";
    assert_eq!(
        absent(
            "sim.rs",
            src,
            &[
                Word("run_with_flight"),
                Word("with_decay"),
                Lit("fn with_telemetry")
            ]
        ),
        [
            "sim.rs:1: word `run_with_flight` is retired: pub fn run_with_flight(self) {}",
            "sim.rs:3: word `with_decay` is retired: let opt = Sgd::new(0.1).with_decay(0.5);",
            "sim.rs:4: `fn with_telemetry` is retired: \
             pub fn with_telemetry(mut self, t: TelemetryHandle) -> Self {}",
        ]
    );
}

#[test]
fn checker_rejects_a_twin_by_its_suffix_and_the_constant_in_any_spelling() {
    let src = "fn blocked_rows() {}\npub fn matmul_blocked(a: &[f32]) {}\n\
               const K: u64 = 0xCBF29CE4_84222325;\n";
    assert_eq!(
        absent(
            "lib.rs",
            src,
            &[FnSuffix("_blocked"), Folded("cbf2_9ce4_8422_2325")]
        ),
        [
            "lib.rs:2: `fn *_blocked` is retired: pub fn matmul_blocked(a: &[f32]) {}",
            "lib.rs:3: `cbf2_9ce4_8422_2325` (any case, any `_`) is retired: \
             const K: u64 = 0xCBF29CE4_84222325;",
        ]
    );
}

#[test]
fn checker_counts_above_the_first_unindented_cfg_test() {
    let kernel = Lit("fn block_tile_f32");
    // An indented `#[cfg(test)]` gates one item: the count goes on past it.
    let twice =
        "fn block_tile_f32() {}\n    #[cfg(test)]\n    fn probe() {}\nfn block_tile_f32() {}\n";
    assert_eq!(
        exactly("avx2.rs", twice, 1, kernel).as_deref(),
        Some("avx2.rs:1,4: `fn block_tile_f32` appears 2 times above the tests, expected 1")
    );
    let tested =
        "fn block_tile_f32() {}\n#[cfg(test)]\nmod tests {\n    fn block_tile_f32() {}\n}\n";
    assert_eq!(exactly("avx2.rs", tested, 1, kernel), None);
    assert_eq!(
        exactly("avx2.rs", "", 1, kernel).as_deref(),
        Some("avx2.rs:: `fn block_tile_f32` appears 0 times above the tests, expected 1")
    );
}

#[test]
fn checker_rejects_an_item_below_the_tests() {
    // Test modules, a gated helper, their closing braces and comments may
    // follow the first test module; nothing else may.
    let last = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\n\
                // more tests\n#[cfg(test)]\n#[allow(dead_code)]\nfn helper() {}\n\
                #[cfg(test)]\nmod more_tests;\n";
    assert_eq!(items_below_the_tests("lib.rs", last), Vec::<String>::new());
    let below = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\n\
                 /// Hidden.\n#[derive(Debug)]\npub struct Hidden;\n";
    assert_eq!(
        items_below_the_tests("lib.rs", below),
        ["lib.rs:9: below the tests: pub struct Hidden;"]
    );
}

#[test]
fn checker_rejects_a_retired_path_and_a_guarded_path_that_moved() {
    let gone = Rule {
        pr: 0,
        why: "sample",
        paths: &["Cargo.toml", "crates/no_such_crate/src/lib.rs"],
        except: &[],
        check: Gone,
    };
    assert_eq!(
        violations(&gone),
        [
            "Cargo.toml must not exist",
            "guarded directory crates/no_such_crate/src does not exist",
        ]
    );
    let moved = Rule {
        pr: 0,
        why: "sample",
        paths: &["crates/tsdb/src/no_such_rules.rs", "crates/*/no_such_dir"],
        except: &["crates/no_such_crate"],
        check: Absent(&[Lit("sample")]),
    };
    assert_eq!(
        violations(&moved),
        [
            "guarded path crates/tsdb/src/no_such_rules.rs does not exist",
            "guarded path crates/*/no_such_dir does not exist",
            "excepted path crates/no_such_crate does not exist",
        ]
    );
}

/// `(path, source)` pairs for the `pub` rule's checker.
fn sample(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|&(path, src)| (path.to_string(), src.to_string()))
        .collect()
}

#[test]
fn checker_rejects_a_pub_fn_named_only_in_its_own_file() {
    // `lonely` is called only by its own file's tests, `local` only by its
    // own file; an example calls `shared`. A longer word does not name
    // `lonely`, and a `pub fn` outside `crates/*/src` is not checked.
    let lib = "pub fn lonely() {}\npub fn shared() {}\n    pub const fn local() {}\n\
               fn caller() { local(); }\n\
               #[cfg(test)]\nmod tests {\n    fn t() { lonely(); }\n}\n";
    let files = sample(&[
        ("crates/a/src/lib.rs", lib),
        (
            "crates/a/examples/demo.rs",
            "pub fn helper() {}\nfn main() { a::shared(); }\n",
        ),
        ("examples/e.rs", "let lonely_total = 0;\n"),
    ]);
    assert_eq!(
        pub_item_problems(&files, &[]),
        [
            "crates/a/src/lib.rs:1: `pub fn lonely` is named in no other file",
            "crates/a/src/lib.rs:3: `pub fn local` is named in no other file",
        ]
    );
}

#[test]
fn checker_rejects_a_pub_item_only_tests_name() {
    // A test file names `tested`; another src file names `gated` only in
    // its test module and `probed` only in an item an indented
    // `#[cfg(test)]` gates, and a string names `quoted`. citybench names
    // `benched` and an example `shown`; `seam` is a test seam.
    let lib = "pub fn tested() {}\npub fn gated() {}\npub fn probed() {}\npub fn quoted() {}\n\
               pub fn benched() {}\npub fn shown() {}\npub fn seam() {}\n";
    let other = "pub fn run() {\n    let s = \"a::quoted\";\n}\n\
                 \x20   #[cfg(test)]\n    fn probe() {\n        a::probed();\n    }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { a::gated(); }\n}\n";
    let files = sample(&[
        ("crates/a/src/lib.rs", lib),
        ("crates/b/src/lib.rs", other),
        (
            "tests/x.rs",
            "#[test]\nfn t() { a::tested(); a::seam(); b::run(); }\n",
        ),
        ("benchmark/src/day.rs", "fn f() { a::benched(); }\n"),
        ("examples/e.rs", "fn main() { a::shown(); b::run(); }\n"),
    ]);
    assert_eq!(
        pub_item_problems(
            &files,
            &[("crates/a/src/lib.rs", "seam", "invariant check")]
        ),
        [
            "crates/a/src/lib.rs:1: `pub fn tested` is named only by tests",
            "crates/a/src/lib.rs:2: `pub fn gated` is named only by tests",
            "crates/a/src/lib.rs:3: `pub fn probed` is named only by tests",
            "crates/a/src/lib.rs:4: `pub fn quoted` is named in no other file",
        ]
    );
}

#[test]
fn checker_rejects_a_test_seam_row_without_a_category() {
    // `Probe::check` is only tested and its row names a category; `peek`'s
    // row names none of the four, and `used`'s row is stale: shipped code
    // calls it.
    let files = sample(&[
        (
            "crates/a/src/lib.rs",
            "pub fn check() {}\npub fn peek() {}\npub fn used() {}\n",
        ),
        ("src/lib.rs", "fn f() { a::used(); }\n"),
    ]);
    assert_eq!(
        pub_item_problems(
            &files,
            &[
                ("crates/a/src/lib.rs", "Probe::check", "fault recovery"),
                ("crates/a/src/lib.rs", "peek", "debugging aid"),
                ("crates/a/src/lib.rs", "used", "baseline gate"),
            ]
        ),
        [
            "crates/a/src/lib.rs: `peek` is a seam for `debugging aid`, which is not one of \
             [\"invariant check\", \"reference implementation\", \"fault recovery\", \"baseline gate\"]",
            "crates/a/src/lib.rs: seam `used` is not a `pub` item only tests name",
        ]
    );
}

#[test]
fn checker_rejects_a_pub_item_of_any_kind_named_only_in_its_own_file() {
    // Only `Lens`, `Hidden` and `Carried` are named elsewhere, by the test
    // file; `Handle`, `Slot` and `Shape` are named in their own file's
    // public signatures: a `pub fn`'s return type, a `pub` field and a
    // `pub enum`'s variant. A constant gets no such pass.
    let lib = "pub const LIMIT: usize = 8;\npub static NAME: &str = \"a\";\n\
               pub struct Lens;\npub enum Mode {\n    A,\n}\npub trait Probe {}\n\
               pub type Row = Vec<f32>;\npub struct Hidden;\n\
               pub struct Handle;\npub fn open(\n    n: usize,\n) -> Handle {\n    Handle\n}\n\
               pub struct Slot;\npub struct Holder {\n    pub slot: Slot,\n}\n\
               pub struct Shape;\npub enum Carried {\n    Boxed(Shape),\n}\n\
               pub struct Limit {\n    pub n: usize,\n}\nfn f(n: usize) -> usize { n.min(LIMIT) }\n";
    let files = sample(&[
        ("crates/a/src/lib.rs", lib),
        (
            "src/lib.rs",
            "use a::{open, Carried, Hidden, Holder, Lens, Limit};\n",
        ),
    ]);
    assert_eq!(
        pub_item_problems(&files, &[]),
        [
            "crates/a/src/lib.rs:1: `pub const LIMIT` is named in no other file",
            "crates/a/src/lib.rs:2: `pub static NAME` is named in no other file",
            "crates/a/src/lib.rs:4: `pub enum Mode` is named in no other file",
            "crates/a/src/lib.rs:7: `pub trait Probe` is named in no other file",
            "crates/a/src/lib.rs:8: `pub type Row` is named in no other file",
        ]
    );
}

#[test]
fn checker_rejects_a_pub_item_named_only_in_a_comment() {
    // A doc comment, a line comment and a block comment name `lonely`; a
    // `//` inside a string literal starts no comment, so `url` is named.
    let files = sample(&[
        (
            "crates/a/src/lib.rs",
            "pub fn lonely() {}\npub fn url() {}\n",
        ),
        (
            "crates/b/src/lib.rs",
            "/// See [`a::lonely`].\nfn f() {\n    // a::lonely();\n    /* a::lonely() */\n\
             \x20   let s = \"http://x\"; a::url();\n}\n",
        ),
    ]);
    assert_eq!(
        pub_item_problems(&files, &[]),
        ["crates/a/src/lib.rs:1: `pub fn lonely` is named in no other file"]
    );
}

#[test]
fn checker_rejects_a_pub_item_named_only_in_a_re_export() {
    // The crate root re-exports `local` and `shared`; only `shared` is
    // named by code elsewhere, so `local` is not called outside its file.
    let files = sample(&[
        (
            "crates/a/src/population.rs",
            "pub fn local() {}\npub fn shared() {}\n",
        ),
        (
            "crates/a/src/lib.rs",
            "mod population;\npub use population::{\n    local,\n    shared,\n};\n",
        ),
        ("benchmark/src/day.rs", "fn f() { a::shared(); }\n"),
    ]);
    assert_eq!(
        pub_item_problems(&files, &[]),
        ["crates/a/src/population.rs:1: `pub fn local` is named in no other file"]
    );
}

#[test]
fn checker_rejects_a_module_exported_twice() {
    // `server` is public and re-exported; `cache` is private, and a
    // comment re-exports nothing.
    let lib = "pub mod server;\nmod cache;\n\
               // pub use server::Stats;\npub use cache::QueryCache;\n\
               pub use server::{\n    Server,\n};\npub use scother::Row;\n";
    assert_eq!(
        exported_twice("crates/serve/src/lib.rs", lib),
        ["crates/serve/src/lib.rs:5: `pub use server::…` re-exports from `pub mod server`"]
    );
}

#[test]
fn checker_rejects_a_config_field_only_its_default_sets() {
    // A literal sets `hidden`, the shorthand `cooldown`, an assignment
    // `max_pool` and a nested one `inner`; `epsilon_start` is only read,
    // compared and declared by another struct, and `UnusedConfig` has no
    // `Default`.
    let lib = "pub struct DqnConfig {\n    pub hidden: usize,\n    pub epsilon_start: f64,\n\
               \x20   pub cooldown: u64,\n    pub max_pool: usize,\n    pub inner: Inner,\n}\n\
               pub struct UnusedConfig {\n    pub knob: u8,\n}\n\
               impl Default for DqnConfig {\n    fn default() -> Self {\n        DqnConfig {\n\
               \x20           hidden: 32,\n            epsilon_start: 1.0,\n            cooldown: 2,\n\
               \x20           max_pool: 8,\n            inner: Inner::default(),\n        }\n    }\n}\n";
    let test = "fn t(cooldown: u64) {\n    let mut cfg = DqnConfig {\n        hidden: 8,\n\
                \x20       cooldown,\n        ..DqnConfig::default()\n    };\n\
                \x20   cfg.max_pool = 1;\n    cfg.inner.lr = 0.1;\n\
                \x20   assert!(cfg.epsilon_start == 1.0);\n    let e = cfg.epsilon_start;\n}\n\
                pub struct Other {\n    pub epsilon_start: f64,\n}\n";
    let files = sample(&[("crates/a/src/lib.rs", lib), ("crates/a/tests/it.rs", test)]);
    assert_eq!(
        config_field_problems(&files, &[]),
        ["crates/a/src/lib.rs:3: `DqnConfig::epsilon_start` is set only by its `Default`: make it a constant"]
    );
    // An allowlist row must cite item 2 or 8 and name a field only its
    // `Default` sets.
    assert_eq!(
        config_field_problems(
            &files,
            &[("DqnConfig::epsilon_start", "a knob"), ("DqnConfig::hidden", "ROADMAP item 8: sample")]
        ),
        [
            "DqnConfig::epsilon_start: allowed for `a knob`, which cites neither ROADMAP item 2 nor 8",
            "allowed field DqnConfig::hidden is not a config field only its `Default` sets",
        ]
    );
}
