//! E3 (Fig. 3, §II-B1): fog-placement comparison. Regenerates the
//! latency/bandwidth/utilization table across the four placements and the
//! escalation-rate series.

use crate::{f3, header, table, BenchJson};
use scfog::{FogSimulator, Placement, Tier, Topology, Workload};

pub fn run(quick: bool) -> BenchJson {
    header(
        "E3",
        "Fig. 3 / §II-B1",
        "Computation placement across the four tiers: latency vs upstream bytes",
    );
    let jobs = if quick { 150 } else { 400 };
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let workload = Workload::with_escalation(jobs, 100_000, 20.0, 0.3, 3);
    let mut json = BenchJson::new("e3", quick);
    let mut rows = Vec::new();
    for (name, placement) in [
        ("all-edge", Placement::AllEdge),
        ("server-only", Placement::ServerOnly),
        ("all-cloud", Placement::AllCloud),
        (
            "early-exit",
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        ),
        (
            "fog-assisted",
            Placement::FogAssisted {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        ),
    ] {
        let r = sim.runner(&workload).placement(placement).run();
        json.det_f(&format!("{name}_mean_latency"), r.mean_latency_s)
            .det_u(&format!("{name}_upstream_bytes"), r.total_upstream_bytes());
        rows.push(vec![
            name.to_string(),
            f3(r.mean_latency_s),
            f3(r.p95_latency_s),
            f3(r.p99_latency_s),
            f3(r.total_upstream_bytes() as f64 / 1e6),
            f3(r.utilization_of(Tier::Edge)),
            f3(r.utilization_of(Tier::Fog)),
            f3(r.utilization_of(Tier::Server)),
        ]);
    }
    table(
        &[
            "placement",
            "mean_s",
            "p95_s",
            "p99_s",
            "upstream_MB",
            "edge_util",
            "fog_util",
            "server_util",
        ],
        &rows,
    );

    println!("\nEarly-exit escalation-rate series (Fig. 3's adaptive division):");
    let series_jobs = if quick { 100 } else { 300 };
    let mut rows = Vec::new();
    for esc in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let w = Workload::with_escalation(series_jobs, 100_000, 20.0, esc, 4);
        let r = sim
            .runner(&w)
            .placement(Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            })
            .run();
        rows.push(vec![
            format!("{esc:.2}"),
            f3(r.mean_latency_s),
            f3(r.fog_to_server_bytes as f64 / 1e6),
        ]);
    }
    table(&["escalation", "mean_s", "fog_to_server_MB"], &rows);
    json
}
