//! Fog-placement comparison (paper §II-B1, Fig. 3).
//!
//! Runs the same video-analysis workload under four computation placements
//! and prints the latency/bandwidth trade-off table the fog model is built
//! to win: early exit ships a fraction of the bytes of all-cloud while
//! avoiding all-edge's compute bottleneck.
//!
//! ```sh
//! cargo run --release --example fog_deployment
//! ```

use smartcity::fog::{FogSimulator, Placement, Topology, Workload};
use smartcity::telemetry::{prometheus_text, Telemetry};

fn main() {
    let telemetry = Telemetry::shared();
    let sim = FogSimulator::new(Topology::four_tier(8, 4, 2));
    let workload = Workload::with_escalation(400, 100_000, 20.0, 0.3, 51);
    println!(
        "workload: {} frames, 100 KB each, 30% escalation rate\n",
        workload.len()
    );
    println!(
        "{:<34} {:>10} {:>10} {:>12} {:>10}",
        "placement", "mean s", "p95 s", "upstream MB", "edge util"
    );
    for (name, placement) in [
        ("all-edge (full model on device)", Placement::AllEdge),
        ("server-only (ship raw frames)", Placement::ServerOnly),
        ("all-cloud (ship raw to cloud)", Placement::AllCloud),
        (
            "early-exit (paper, 30% local ops)",
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        ),
        (
            "fog-assisted (tiny model on fog)",
            Placement::FogAssisted {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        ),
    ] {
        let r = sim
            .runner(&workload)
            .placement(placement)
            .telemetry(telemetry.handle())
            .run();
        println!(
            "{:<34} {:>10.3} {:>10.3} {:>12.2} {:>10.2}",
            name,
            r.mean_latency_s,
            r.p95_latency_s,
            r.total_upstream_bytes() as f64 / 1e6,
            r.utilization_of(smartcity::fog::Tier::Edge),
        );
    }

    println!("\nearly-exit escalation-rate sweep (threshold quality proxy):");
    println!("{:>6} {:>10} {:>14}", "esc", "mean s", "fog→srv MB");
    for esc in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let w = Workload::with_escalation(300, 100_000, 20.0, esc, 52);
        let r = sim
            .runner(&w)
            .placement(Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            })
            .telemetry(telemetry.handle())
            .run();
        println!(
            "{esc:>6.1} {:>10.3} {:>14.2}",
            r.mean_latency_s,
            r.fog_to_server_bytes as f64 / 1e6
        );
    }

    // Every run above recorded into the same registry; dump the aggregate
    // scrape a Prometheus server would collect from this node.
    println!("\naggregate telemetry across all runs (Prometheus text format):");
    let prom = prometheus_text(telemetry.registry());
    for line in prom
        .lines()
        .filter(|l| l.starts_with("scfog_sim_jobs") || l.contains("_sum") || l.contains("_count"))
    {
        println!("  {line}");
    }
    println!("  ({} spans traced)", telemetry.trace_len());
}
