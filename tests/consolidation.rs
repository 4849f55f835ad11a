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
    Rule { pr: 13, why: "library code runs on sim time; only the benches read the wall clock",
        paths: &["crates/*/src"], except: &["crates/bench"],
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
    Rule { pr: 23, why: "scbench records seeded numbers only; the gate's test alone spells the retired flags",
        paths: &["crates"], except: &["crates/bench/tests/gate_cli.rs"],
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
];

/// The `.rs` files under these may name a public function of `crates/*/src`.
const CALLERS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// Files whose public functions stay public though no other file calls
/// them: each is the entry point of a capability a paper section or
/// DESIGN.md's substitution table names. Their helpers are private all the
/// same, and an accessor nothing calls is deleted.
#[rustfmt::skip]
const PUBLIC_CAPABILITIES: &[(&str, &str)] = &[
    ("crates/core/src/retention.rs", "§II-A4: the secure upload server and its 90-day purge"),
    ("crates/data/src/privacy.rs", "§V: de-identification before analytics"),
    ("crates/data/src/tweets.rs", "§II-A2: the keyword and region tweet collector"),
    ("crates/social/src/influence.rs", "§IV-B: influence ranking and crew discovery"),
    ("crates/social/src/nlp.rs", "§IV-B: tf-idf text similarity"),
    ("crates/core/src/apps/social.rs", "§IV-B: the investigation service's tweet ingestion"),
    ("crates/compute/src/mllib.rs", "DESIGN.md substitution table, MLlib: logistic regression, naive Bayes, train/test split"),
    ("crates/compute/src/graph.rs", "DESIGN.md substitution table, GraphX: shortest paths"),
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
        .filter_map(|l| l.strip_prefix("pub const "))
        .filter(|l| l.starts_with("METRIC_"))
        .map(|l| &l[..l.find(|c| !is_ident(c)).unwrap_or(l.len())])
        .collect();
    let uses: String = stages
        .lines()
        .map(|l| if l.contains("pub const") { "" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    let mut problems: Vec<String> = names
        .iter()
        .filter_map(|&name| exactly(path, &uses, 1, Word(name)))
        .collect();
    if names.is_empty() {
        problems.push(format!("{path}: no `pub const METRIC_*` found"));
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

/// The name a line declares as a `pub fn` (`const` or `unsafe` too).
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    Some(&rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())])
}

/// `path:line: …` for each `pub fn` above the tests of a `crates/*/src`
/// file that no other file of `files` names as a word.
fn unnamed_pub_fns(files: &[(String, String)]) -> Vec<String> {
    let words: Vec<HashSet<&str>> = files
        .iter()
        .map(|(_, src)| src.split(|c| !is_ident(c)).collect())
        .collect();
    let mut found = Vec::new();
    for (i, (path, src)) in files.iter().enumerate() {
        let mut parts = path.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        for (n, line) in non_test(src).lines().enumerate() {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            if !(0..files.len()).any(|j| j != i && words[j].contains(name)) {
                found.push(format!(
                    "{path}:{}: `pub fn {name}` is named in no other file",
                    n + 1
                ));
            }
        }
    }
    found
}

/// What the rule "`pub` means another file calls it" finds wrong with
/// `files`: an unnamed `pub fn` outside `allowlist`'s files, and a row of
/// `allowlist` that cites no paper section or substitution row, or names
/// no file of `files`.
fn pub_fn_problems(files: &[(String, String)], allowlist: &[(&str, &str)]) -> Vec<String> {
    let unnamed = unnamed_pub_fns(files);
    let in_file = |path: &str, msg: &str| msg.starts_with(&format!("{path}:"));
    let mut problems: Vec<String> = unnamed
        .iter()
        .filter(|msg| !allowlist.iter().any(|&(path, _)| in_file(path, msg)))
        .cloned()
        .collect();
    if allowlist.len() > 20 {
        problems.push(format!("{} allowlist rows, at most 20", allowlist.len()));
    }
    for &(path, why) in allowlist {
        if !(why.starts_with('§') || why.starts_with("DESIGN.md substitution table")) {
            problems.push(format!(
                "{path}: allowed for `{why}`, which cites no paper section or DESIGN.md substitution row"
            ));
        }
        if !files.iter().any(|(p, _)| p == path) {
            problems.push(format!("allowed path {path} does not exist"));
        }
    }
    problems
}

/// `pub` means another file calls it. A function only its own file calls
/// is private; one no code calls is deleted with its tests. A text check:
/// a common method name another type also has passes here, so the compile
/// sweep (DESIGN.md § Public means called elsewhere) is the full check.
#[test]
fn every_pub_fn_is_named_outside_its_file() {
    let mut paths = Vec::new();
    for dir in CALLERS {
        files_under(dir, &mut paths);
    }
    let files: Vec<(String, String)> = paths
        .into_iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| {
            let src = read(&p);
            (p, src)
        })
        .collect();
    report(pub_fn_problems(&files, PUBLIC_CAPABILITIES));
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
    // own file; another file's test names `shared`, and `capability` sits
    // in an allowed file. A longer word does not name `lonely`, and a
    // `pub fn` outside `crates/*/src` is not checked.
    let lib = "pub fn lonely() {}\npub fn shared() {}\n    pub const fn local() {}\n\
               fn caller() { local(); }\n\
               #[cfg(test)]\nmod tests {\n    fn t() { lonely(); }\n}\n";
    let files = sample(&[
        ("crates/a/src/lib.rs", lib),
        (
            "crates/a/tests/it.rs",
            "pub fn helper() {}\n#[test]\nfn uses() { a::shared(); }\n",
        ),
        ("crates/b/src/cap.rs", "pub fn capability() {}\n"),
        ("examples/e.rs", "let lonely_total = 0;\n"),
    ]);
    assert_eq!(
        pub_fn_problems(&files, &[("crates/b/src/cap.rs", "§IV-B: sample")]),
        [
            "crates/a/src/lib.rs:1: `pub fn lonely` is named in no other file",
            "crates/a/src/lib.rs:3: `pub fn local` is named in no other file",
        ]
    );
}

#[test]
fn checker_rejects_an_uncited_or_moved_allowlist_row() {
    let files = sample(&[("crates/b/src/cap.rs", "pub fn capability() {}\n")]);
    assert_eq!(
        pub_fn_problems(
            &files,
            &[("crates/a/src/gone.rs", "§V: sample"), ("crates/b/src/cap.rs", "a helper")]
        ),
        [
            "allowed path crates/a/src/gone.rs does not exist",
            "crates/b/src/cap.rs: allowed for `a helper`, which cites no paper section or DESIGN.md substitution row",
        ]
    );
}
