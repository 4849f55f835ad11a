//! The discrete-event engine, in three parts that can each be read and
//! tested alone.
//!
//! **Plan.** `Placement::stages` names the tiers that compute a job and the
//! operations each runs; `route` walks the uplinks from the job's edge to
//! the root, runs each stage at the node whose tier it names and takes one
//! hop per uplink. What a hop carries follows from how many stages ran
//! below it — `Payload::Raw` before the first, `Payload::Features` between
//! two, `Payload::Annotation` after the last — and is stored on the step,
//! because the fault rules ask *what* a transfer carries, never how large
//! it is.
//!
//! **Run.** `Run` pops `(job, step)` events in time order. Each goes through
//! the same stages: `start_compute` / `start_transfer` apply the fault plan
//! and say when the step may start and how long it holds its resource (or
//! re-schedule it, or `lose` the job), `Fifo::occupy` queues it on the node's
//! CPU or uplink, `trace_step` attributes it. `report` sums the run up and
//! mirrors it into the telemetry registry.
//!
//! **Step indices are part of the contract.** The partition backoff RNG is
//! seeded per `(job, step index)` and the trace goldens pin each job's
//! span sequence, so `route` must emit steps in bottom-up order — a node's
//! stage, then its uplink — and a degrade may only rewrite the plan from
//! the step that gave up onwards.

use scfault::{FaultPlan, LatencySpikes, OutageWindows, RetryPolicy, FOREVER};
use scpar::ScparConfig;
use sctelemetry::{
    prometheus_text, Report, SampleSummary, SpanContext, Telemetry, TelemetryHandle, TraceId,
    WorkDelta, STREAM_FOG,
};
use simclock::{EventQueue, SeededRng, SimDuration, SimTime};

use crate::topology::{FogNodeId, Tier, Topology};
use crate::workload::{Job, Placement, Workload};

/// Metric name of the exact per-job latency histogram.
const METRIC_JOB_LATENCY: &str = "scfog_sim_job_latency_seconds";
/// Metric name of the completed-jobs counter.
const METRIC_JOBS: &str = "scfog_sim_jobs_total";
/// Metric name of the exact makespan record (single observation per run).
const METRIC_MAKESPAN: &str = "scfog_sim_makespan_seconds";
/// Counter: jobs whose compute moved to a healthy sibling after a crash.
const METRIC_JOBS_REROUTED: &str = "scfog_fault_jobs_rerouted_total";
/// Counter: jobs abandoned because no node could ever run them.
const METRIC_JOBS_LOST: &str = "scfog_fault_jobs_lost_total";
/// Counter: escalating jobs that fell back to the edge exit under partition.
const METRIC_JOBS_DEGRADED: &str = "scfog_fault_jobs_degraded_total";
/// Counter: transfer retry probes issued while an uplink was partitioned.
const METRIC_FAULT_RETRIES: &str = "scfog_fault_retries_total";
/// Counter: steps re-queued to wait for a crashed node's restart.
const METRIC_FAULT_REQUEUES: &str = "scfog_fault_requeues_total";
/// Exact histogram: per-job sim-time stalled on faults (max = recovery time).
const METRIC_FAULT_RECOVERY: &str = "scfog_fault_recovery_seconds";

fn link_bytes_metric(from: Tier, to: Tier) -> String {
    format!("scfog_link_{}_to_{}_bytes_total", from.name(), to.name())
}

fn busy_metric(tier: Tier) -> String {
    format!("scfog_sim_busy_{}_seconds", tier.name())
}

fn nodes_metric(tier: Tier) -> String {
    format!("scfog_topology_{}_nodes", tier.name())
}

/// What a transfer carries, fixed when the plan is built by how many of the
/// job's stages ran below the hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// No stage has run yet: the raw input.
    Raw,
    /// Some stages ran and some are left: the intermediate feature map.
    Features,
    /// Every stage ran: the annotation.
    Annotation,
}

/// Why looking up a transfer's uplink cannot fail.
const NO_UPLINK: &str = "route plans transfers over uplinks only";

/// One step of a job's execution plan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Run `ops` operations on `node` (FIFO queueing on the node).
    Compute { node: FogNodeId, ops: f64 },
    /// Move `bytes` of `payload` over `from`'s uplink (FIFO queueing on the
    /// link).
    Transfer {
        from: FogNodeId,
        payload: Payload,
        bytes: u64,
    },
}

/// The plan that takes `job` from node `from` to the root: at each node the
/// next of `stages` if its tier matches, then one hop over the uplink.
/// An empty stage list ships annotations all the way — what is left of a
/// plan once the job degrades.
///
/// # Panics
///
/// Panics if a stage names a tier the path does not pass, bottom-up.
fn route(
    topology: &Topology,
    from: FogNodeId,
    stages: &[(Tier, f64)],
    job: &Job,
    feature_bytes: u64,
) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut done = 0;
    let mut node = from;
    loop {
        if let Some(&(_, ops)) = stages.get(done).filter(|s| s.0 == topology.tier(node)) {
            steps.push(Step::Compute { node, ops });
            done += 1;
        }
        let Some((parent, _)) = topology.parent(node) else {
            break;
        };
        let (payload, bytes) = if done == stages.len() {
            (Payload::Annotation, job.annotation_bytes)
        } else if done == 0 {
            (Payload::Raw, job.raw_bytes)
        } else {
            (Payload::Features, feature_bytes)
        };
        steps.push(Step::Transfer {
            from: node,
            payload,
            bytes,
        });
        node = parent;
    }
    assert_eq!(
        done,
        stages.len(),
        "a stage's tier is not on the uplink path"
    );
    steps
}

/// Busy-time utilization of one tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierUtilization {
    /// The tier.
    pub tier: Tier,
    /// Total busy seconds across the tier's nodes.
    pub busy_secs: f64,
    /// Busy / (nodes × makespan), in `[0, 1]`.
    pub utilization: f64,
}

impl TierUtilization {
    fn new(tier: Tier, busy_secs: f64, nodes: usize, makespan: f64) -> Self {
        TierUtilization {
            tier,
            busy_secs,
            utilization: if nodes == 0 || makespan <= 0.0 {
                0.0
            } else {
                (busy_secs / (nodes as f64 * makespan)).min(1.0)
            },
        }
    }
}

/// Results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Jobs completed.
    pub jobs: usize,
    /// Mean end-to-end latency (arrival → annotation at cloud) in seconds.
    pub mean_latency_s: f64,
    /// Median latency in seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile latency in seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile latency in seconds.
    pub p99_latency_s: f64,
    /// Maximum latency in seconds.
    pub max_latency_s: f64,
    /// Bytes crossing edge→fog links.
    pub edge_to_fog_bytes: u64,
    /// Bytes crossing fog→server links.
    pub fog_to_server_bytes: u64,
    /// Bytes crossing server→cloud links.
    pub server_to_cloud_bytes: u64,
    /// Per-tier utilization.
    pub tier_utilization: Vec<TierUtilization>,
    /// Completion time of the last job (makespan).
    pub makespan_s: f64,
    /// Jobs whose compute re-routed to a healthy sibling after a node crash.
    pub jobs_rerouted: usize,
    /// Jobs lost outright (their node never recovered and no sibling was up).
    pub jobs_lost: usize,
    /// Escalating jobs that degraded to the edge-exit answer under partition.
    pub jobs_degraded: usize,
    /// Longest fault-induced stall suffered by any job, in seconds — how long
    /// the system took to route around the worst injected failure.
    pub recovery_time_s: f64,
}

impl SimReport {
    /// Total bytes sent upstream across all tier boundaries.
    pub fn total_upstream_bytes(&self) -> u64 {
        self.edge_to_fog_bytes + self.fog_to_server_bytes + self.server_to_cloud_bytes
    }

    /// Utilization of one tier (0 if absent).
    pub fn utilization_of(&self, tier: Tier) -> f64 {
        self.tier_utilization
            .iter()
            .find(|u| u.tier == tier)
            .map(|u| u.utilization)
            .unwrap_or(0.0)
    }
}

impl Report for SimReport {
    fn kv(&self) -> Vec<(String, f64)> {
        let mut kv = vec![
            ("jobs".to_string(), self.jobs as f64),
            ("mean_latency_s".to_string(), self.mean_latency_s),
            ("p50_latency_s".to_string(), self.p50_latency_s),
            ("p95_latency_s".to_string(), self.p95_latency_s),
            ("p99_latency_s".to_string(), self.p99_latency_s),
            ("max_latency_s".to_string(), self.max_latency_s),
            (
                "edge_to_fog_bytes".to_string(),
                self.edge_to_fog_bytes as f64,
            ),
            (
                "fog_to_server_bytes".to_string(),
                self.fog_to_server_bytes as f64,
            ),
            (
                "server_to_cloud_bytes".to_string(),
                self.server_to_cloud_bytes as f64,
            ),
            ("makespan_s".to_string(), self.makespan_s),
            ("jobs_rerouted".to_string(), self.jobs_rerouted as f64),
            ("jobs_lost".to_string(), self.jobs_lost as f64),
            ("jobs_degraded".to_string(), self.jobs_degraded as f64),
            ("recovery_time_s".to_string(), self.recovery_time_s),
        ];
        for u in &self.tier_utilization {
            kv.push((
                format!("utilization_{:?}", u.tier).to_lowercase(),
                u.utilization,
            ));
        }
        kv
    }
}

/// The simulator: executes a [`Workload`] against a [`Topology`] under a
/// [`Placement`] policy.
#[derive(Debug)]
pub struct FogSimulator {
    topology: Topology,
}

impl FogSimulator {
    /// Creates a simulator over `topology`.
    pub fn new(topology: Topology) -> Self {
        FogSimulator { topology }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Starts building a configured run of `workload` on this simulator.
    ///
    /// The runner defaults to [`Placement::AllCloud`] (the paper's baseline),
    /// telemetry disabled, and the ambient
    /// [`ScparConfig`] (`SCPAR_THREADS` / available parallelism) for sweeps.
    ///
    /// ```
    /// # use scfog::{FogSimulator, Placement, Topology, Workload};
    /// let sim = FogSimulator::new(Topology::four_tier(4, 2, 1));
    /// let w = Workload::with_escalation(20, 100_000, 5.0, 0.3, 42);
    /// let report = sim
    ///     .runner(&w)
    ///     .placement(Placement::ServerOnly)
    ///     .run();
    /// assert_eq!(report.jobs, 20);
    /// ```
    pub fn runner<'a>(&'a self, workload: &'a Workload) -> SimRunner<'a> {
        SimRunner {
            sim: self,
            workload,
            placement: Placement::AllCloud,
            telemetry: TelemetryHandle::disabled(),
            par: ScparConfig::from_env(),
            faults: None,
            retry: RetryPolicy::new(4, SimDuration::from_millis(50)),
            trace_seed: 0,
        }
    }
}

/// A FIFO resource — a node's CPU or its uplink.
#[derive(Debug, Clone, Copy, Default)]
struct Fifo {
    free_at: SimTime,
    busy_secs: f64,
}

impl Fifo {
    /// Holds the resource for `duration`, from `ready` or from when the
    /// previous holder lets go, whichever is later. Returns `(start, finish)`.
    fn occupy(&mut self, ready: SimTime, duration: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at.max(ready);
        let finish = start + duration;
        self.free_at = finish;
        self.busy_secs += duration.as_secs_f64();
        (start, finish)
    }
}

/// Everything the engine keeps per job.
#[derive(Debug)]
struct JobState {
    plan: Vec<Step>,
    /// Root of the job's causal trace, at a seed-derived id; step `si`'s
    /// span is its child `si`.
    ctx: SpanContext,
    completion: Option<SimTime>,
    /// Sim-seconds spent waiting on injected faults.
    stall: f64,
    rerouted: bool,
    degraded: bool,
    lost: bool,
}

/// One simulation under a fault plan. Fault semantics (documented in
/// DESIGN.md "Fault model"):
///
/// - **Node crash** (crash-stop, step-atomic): a compute step cannot
///   *start* on a down node. It re-routes to the lowest-id healthy
///   sibling in the same tier (paying one uplink-latency re-dispatch
///   penalty; byte flows stay on the planned path), or re-queues until
///   the restart, or — if the node never restarts and no sibling is up —
///   the job is lost.
/// - **Link partition**: a transfer probes the uplink on the job's
///   deterministic retry schedule. If the schedule finds the link healed
///   the transfer proceeds; if it exhausts, a transfer carrying features
///   *degrades* its job (which accepts the local-exit answer, queueing only
///   annotations upstream once the partition heals), anything else
///   store-and-forwards at heal time.
/// - **Latency spike**: the link's propagation latency is multiplied for
///   the window's duration.
///
/// All fault-induced waiting is accounted per job; the max is the run's
/// `recovery_time_s`.
struct Run<'a> {
    topology: &'a Topology,
    workload: &'a Workload,
    telemetry: &'a TelemetryHandle,
    faults: Option<&'a FaultPlan>,
    retry: RetryPolicy,
    // Precomputed fault views: the hot loop never scans the schedule.
    node_outages: OutageWindows,
    link_outages: OutageWindows,
    spikes: LatencySpikes,
    /// `(job, step)` indices, ordered by when the step wants to start.
    queue: EventQueue<(usize, usize)>,
    // Each node's CPU and its one uplink, indexed by node id.
    cpu: Vec<Fifo>,
    uplink: Vec<Fifo>,
    /// Bytes over edge→fog, fog→server and server→cloud hops, indexed by the
    /// lower tier.
    boundary_bytes: [u64; 3],
    jobs: Vec<JobState>,
    fault_retries: u64,
    fault_requeues: u64,
    /// Per-tier metric names, formatted once (the event loop is hot).
    queue_wait_names: [String; 4],
}

impl<'a> Run<'a> {
    /// Plans every job of `runner`'s workload under `placement` and queues
    /// its first step at its arrival.
    fn new(runner: &SimRunner<'a>, placement: Placement, telemetry: &'a TelemetryHandle) -> Self {
        let (topology, workload, faults) = (&runner.sim.topology, runner.workload, runner.faults);
        assert!(!workload.is_empty(), "empty workload");
        let edges = topology.nodes_in_tier(Tier::Edge);
        assert!(!edges.is_empty(), "topology has no edge nodes");
        let feature_bytes = placement.feature_bytes();
        let mut queue = EventQueue::new();
        let jobs = workload
            .jobs()
            .iter()
            .enumerate()
            .map(|(ji, job)| {
                queue.schedule(job.arrival, (ji, 0));
                let edge = edges[job.edge_index % edges.len()];
                let trace = TraceId::derive(runner.trace_seed, STREAM_FOG, ji as u64);
                JobState {
                    plan: route(topology, edge, &placement.stages(job), job, feature_bytes),
                    ctx: SpanContext::root(trace),
                    completion: None,
                    stall: 0.0,
                    rerouted: false,
                    degraded: false,
                    lost: false,
                }
            })
            .collect();
        Run {
            topology,
            workload,
            telemetry,
            faults,
            retry: runner.retry,
            node_outages: faults.map(OutageWindows::node_crashes).unwrap_or_default(),
            link_outages: faults
                .map(OutageWindows::link_partitions)
                .unwrap_or_default(),
            spikes: faults.map(LatencySpikes::from_plan).unwrap_or_default(),
            queue,
            cpu: vec![Fifo::default(); topology.len()],
            uplink: vec![Fifo::default(); topology.len()],
            boundary_bytes: [0; 3],
            jobs,
            fault_retries: 0,
            fault_requeues: 0,
            queue_wait_names: Tier::ALL
                .map(|t| format!("scfog_sim_queue_wait_{}_seconds", t.name())),
        }
    }

    /// Drains the event queue and reports.
    fn execute(mut self) -> SimReport {
        while let Some((now, (ji, si))) = self.queue.pop() {
            self.step(now, ji, si);
        }
        self.report()
    }

    /// One event: clear the step to start, queue it on its resource, trace
    /// it, and schedule the job's next step for when it finishes.
    fn step(&mut self, now: SimTime, ji: usize, si: usize) {
        let step = self.jobs[ji].plan[si];
        let occupied = match step {
            Step::Compute { node, ops } => self
                .start_compute(now, ji, si, node, ops)
                .map(|(ready, duration)| self.cpu[node.0 as usize].occupy(ready, duration)),
            Step::Transfer {
                from,
                payload,
                bytes,
            } => self
                .start_transfer(now, ji, si, from, payload, bytes)
                .map(|(ready, duration)| self.uplink[from.0 as usize].occupy(ready, duration)),
        };
        let Some((start, finish)) = occupied else {
            return;
        };
        self.trace_step(now, ji, si, start, finish);
        let job = &mut self.jobs[ji];
        if si + 1 < job.plan.len() {
            self.queue.schedule(finish, (ji, si + 1));
        } else {
            job.completion = Some(finish);
        }
    }

    /// Clears a compute step against node crashes. Returns when it may
    /// start and its service time — or `None` once it has been re-routed to
    /// a sibling, re-queued for the restart, or its job lost.
    fn start_compute(
        &mut self,
        now: SimTime,
        ji: usize,
        si: usize,
        node: FogNodeId,
        ops: f64,
    ) -> Option<(SimTime, SimDuration)> {
        let Some(until) = self.node_outages.down_until(node.0, now) else {
            let flops = self.topology.spec(node).flops;
            return Some((now, SimDuration::from_secs_f64(ops / flops)));
        };
        let tier = self.topology.tier(node);
        let sibling = self
            .topology
            .nodes_in_tier(tier)
            .into_iter()
            .find(|n| *n != node && !self.node_outages.is_down(n.0, now));
        let job = &mut self.jobs[ji];
        if let Some(alt) = sibling {
            // Re-route: compute moves to the sibling after one re-dispatch
            // hop; byte flows keep the planned path.
            let penalty = self
                .topology
                .parent(node)
                .map(|(_, l)| l.latency)
                .unwrap_or(SimDuration::from_millis(1));
            job.rerouted = true;
            job.stall += penalty.as_secs_f64();
            job.plan[si] = Step::Compute { node: alt, ops };
            self.queue.schedule(now + penalty, (ji, si));
            self.fault_event(
                "reroute",
                now,
                ji,
                format_args!(" node={} alt={}", node.0, alt.0),
            );
        } else if until < FOREVER {
            // No healthy sibling: re-queue for the restart.
            self.fault_requeues += 1;
            job.stall += (until - now).as_secs_f64();
            self.queue.schedule(until, (ji, si));
            self.fault_event("requeue", now, ji, format_args!(" node={}", node.0));
        } else {
            self.lose(now, ji);
        }
        None
    }

    /// Clears a transfer against partitions and spikes on `from`'s uplink
    /// and counts its bytes. Returns when it may start and how long it holds
    /// the link — or `None` if the uplink never heals and the job is lost.
    fn start_transfer(
        &mut self,
        now: SimTime,
        ji: usize,
        si: usize,
        from: FogNodeId,
        payload: Payload,
        mut bytes: u64,
    ) -> Option<(SimTime, SimDuration)> {
        let mut ready = now;
        if self.link_outages.is_down(from.0, ready) {
            // Probe along the job-step-deterministic backoff schedule until
            // the partition heals or we give up.
            let mut rng = SeededRng::new(
                self.faults.map(FaultPlan::seed).unwrap_or(0)
                    ^ (ji as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (si as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let mut attempt = 1;
            while attempt < self.retry.max_attempts && self.link_outages.is_down(from.0, ready) {
                ready += self.retry.delay(attempt, &mut rng);
                self.fault_retries += 1;
                attempt += 1;
            }
            if let Some(heal) = self.link_outages.down_until(from.0, ready) {
                // Retries exhausted while still partitioned.
                if heal == FOREVER {
                    self.lose(now, ji);
                    return None;
                }
                if payload == Payload::Features {
                    // The rest of the model is out of reach: degrade to the
                    // local-exit answer; only annotations go upstream from
                    // here, queued until the link heals.
                    let job = &self.workload.jobs()[ji];
                    let state = &mut self.jobs[ji];
                    state.degraded = true;
                    state.plan.truncate(si);
                    state.plan.extend(route(self.topology, from, &[], job, 0));
                    bytes = job.annotation_bytes;
                    self.fault_event("degraded", now, ji, format_args!(" node={}", from.0));
                }
                // Store-and-forward: the payload moves at heal time.
                ready = heal;
            }
            self.jobs[ji].stall += ready.saturating_since(now).as_secs_f64();
        }
        let (to, link) = self.topology.parent(from).expect(NO_UPLINK);
        let tx = if link.bandwidth_bps.is_finite() {
            bytes as f64 / link.bandwidth_bps
        } else {
            0.0
        };
        let tier = self.topology.tier(from);
        if tier.upstream() == Some(self.topology.tier(to)) {
            self.boundary_bytes[tier as usize] += bytes;
        }
        let latency = link.latency.mul_f64(self.spikes.factor_at(from.0, ready));
        Some((ready, latency + SimDuration::from_secs_f64(tx)))
    }

    /// Attributes a started step: per-tier work and queue wait, and a child
    /// span of the job's trace.
    fn trace_step(&self, now: SimTime, ji: usize, si: usize, start: SimTime, finish: SimTime) {
        let t = self.telemetry;
        if !t.is_enabled() {
            return;
        }
        // Per-tier work attribution: the event loop is serial, so deltas
        // accumulate in one deterministic order regardless of
        // `SCPAR_THREADS`.
        let job = &self.jobs[ji];
        let (tier, kind, work, span) = match job.plan[si] {
            Step::Compute { node, ops } => {
                let tier = self.topology.tier(node);
                let span = format!("compute/{}", tier.name());
                (tier, "compute", WorkDelta::flops(ops as u64), span)
            }
            Step::Transfer { from, bytes, .. } => {
                let tier = self.topology.tier(from);
                let (to, _) = self.topology.parent(from).expect(NO_UPLINK);
                let span = format!("xfer/{}-{}", tier.name(), self.topology.tier(to).name());
                (tier, "transfer", WorkDelta::bytes(bytes), span)
            }
        };
        t.work(&format!("fog/{}/{kind}", tier.name()), work.with_items(1));
        t.observe(
            &self.queue_wait_names[tier as usize],
            "time each step waited for its node or link, by tier",
            start.saturating_since(now).as_secs_f64(),
        );
        // Child span of the job trace: covers resource wait plus service,
        // so consecutive children tile the job span and fault stalls
        // surface as parent self-time.
        t.span_in("scfog", &span, now, finish, job.ctx.child(si as u64));
    }

    /// A trace-tagged marker on the fault stream: `trace=<id><detail>`.
    fn fault_event(&self, name: &str, now: SimTime, ji: usize, detail: std::fmt::Arguments<'_>) {
        if self.telemetry.is_enabled() {
            let trace = self.jobs[ji].ctx.trace.as_hex();
            self.telemetry
                .event("scfog", name, now, format_args!("trace={trace}{detail}"));
        }
    }

    /// Abandons job `ji`. A lost job still closes its trace: a root span
    /// ending at the loss point plus a loss marker for SLO streams.
    fn lose(&mut self, now: SimTime, ji: usize) {
        self.jobs[ji].lost = true;
        if self.telemetry.is_enabled() {
            let arrival = self.workload.jobs()[ji].arrival;
            let ctx = self.jobs[ji].ctx;
            self.telemetry
                .span_in("scfog", &format!("job/{ji}"), arrival, now, ctx);
            self.fault_event("job/lost", now, ji, format_args!(""));
        }
    }

    /// Sums the finished run up and, when recording, mirrors it into the
    /// registry.
    fn report(&self) -> SimReport {
        // Latencies over completed jobs only, summarized by the
        // workspace-wide nearest-rank helper. Lost jobs have no latency.
        let latencies: Vec<f64> = self
            .workload
            .jobs()
            .iter()
            .zip(&self.jobs)
            .filter_map(|(j, s)| s.completion.map(|c| (c - j.arrival).as_secs_f64()))
            .collect();
        let stats = SampleSummary::from_sample(&latencies);
        let makespan = self
            .jobs
            .iter()
            .filter_map(|s| s.completion)
            .map(|c| c.as_secs_f64())
            .fold(0.0f64, f64::max);
        let tier_utilization = Tier::ALL
            .iter()
            .map(|&tier| {
                let nodes = self.topology.nodes_in_tier(tier);
                let busy = nodes.iter().map(|n| self.cpu[n.0 as usize].busy_secs).sum();
                TierUtilization::new(tier, busy, nodes.len(), makespan)
            })
            .collect();
        let count = |flag: fn(&JobState) -> bool| self.jobs.iter().filter(|s| flag(s)).count();
        let report = SimReport {
            jobs: latencies.len(),
            mean_latency_s: stats.as_ref().map_or(0.0, SampleSummary::mean),
            p50_latency_s: stats.as_ref().map_or(0.0, |s| s.p50),
            p95_latency_s: stats.as_ref().map_or(0.0, |s| s.p95),
            p99_latency_s: stats.as_ref().map_or(0.0, |s| s.p99),
            max_latency_s: stats.as_ref().map_or(0.0, |s| s.max),
            edge_to_fog_bytes: self.boundary_bytes[Tier::Edge as usize],
            fog_to_server_bytes: self.boundary_bytes[Tier::Fog as usize],
            server_to_cloud_bytes: self.boundary_bytes[Tier::Server as usize],
            tier_utilization,
            makespan_s: makespan,
            jobs_rerouted: count(|s| s.rerouted),
            jobs_lost: count(|s| s.lost),
            jobs_degraded: count(|s| s.degraded),
            recovery_time_s: self.jobs.iter().map(|s| s.stall).fold(0.0f64, f64::max),
        };
        if self.telemetry.is_enabled() {
            self.record_run(&report, &latencies);
            self.record_faults(&report);
        }
        report
    }

    /// Emits the report's end-of-run aggregates into the registry.
    fn record_run(&self, report: &SimReport, latencies: &[f64]) {
        let t = self.telemetry;
        t.counter_add(
            METRIC_JOBS,
            "jobs completed by the fog simulator",
            report.jobs as u64,
        );
        for &l in latencies {
            t.observe_exact(METRIC_JOB_LATENCY, "end-to-end job latency (exact)", l);
        }
        t.observe_exact(
            METRIC_MAKESPAN,
            "completion time of the last job",
            report.makespan_s,
        );
        for (ji, (job, state)) in self.workload.jobs().iter().zip(&self.jobs).enumerate() {
            // Lost jobs closed their trace in `lose`; completed jobs close
            // theirs here.
            if let Some(done) = state.completion {
                t.span_in("scfog", &format!("job/{ji}"), job.arrival, done, state.ctx);
            }
        }
        for u in &report.tier_utilization {
            t.observe_exact(
                &busy_metric(u.tier),
                "total busy seconds across the tier's nodes",
                u.busy_secs,
            );
            t.gauge_set(
                &nodes_metric(u.tier),
                "nodes in the tier",
                self.topology.nodes_in_tier(u.tier).len() as i64,
            );
        }
        for (&from, bytes) in Tier::ALL.iter().zip(self.boundary_bytes) {
            let to = from.upstream().expect("a boundary has a tier above it");
            t.counter_add(
                &link_bytes_metric(from, to),
                "bytes shipped across the tier boundary",
                bytes,
            );
        }
    }

    /// Emits fault-injection events and the report's fault columns into
    /// the registry.
    fn record_faults(&self, report: &SimReport) {
        let t = self.telemetry;
        for e in self.faults.into_iter().flat_map(FaultPlan::events) {
            // The fog layer applies node and link faults; message/block
            // faults belong to the stream and DFS layers.
            if matches!(
                e.kind,
                scfault::FaultKind::NodeCrash { .. }
                    | scfault::FaultKind::NodeRestart { .. }
                    | scfault::FaultKind::LinkPartition { .. }
                    | scfault::FaultKind::LinkLatencySpike { .. }
            ) {
                scfault::record_injection(t, e);
            }
        }
        for node in self.node_outages.targets() {
            for &(s, e) in self.node_outages.windows_for(node) {
                if e < FOREVER {
                    t.span("scfault", &format!("outage/node/{node}"), s, e);
                }
            }
        }
        t.counter_add(
            METRIC_JOBS_REROUTED,
            "jobs re-routed to a healthy sibling",
            report.jobs_rerouted as u64,
        );
        t.counter_add(
            METRIC_JOBS_LOST,
            "jobs lost to unrecoverable crashes",
            report.jobs_lost as u64,
        );
        t.counter_add(
            METRIC_JOBS_DEGRADED,
            "jobs degraded to the edge-exit answer",
            report.jobs_degraded as u64,
        );
        t.counter_add(
            METRIC_FAULT_RETRIES,
            "transfer retry probes under partition",
            self.fault_retries,
        );
        t.counter_add(
            METRIC_FAULT_REQUEUES,
            "steps re-queued for a node restart",
            self.fault_requeues,
        );
        for s in self.jobs.iter().map(|s| s.stall).filter(|&s| s > 0.0) {
            t.observe_exact(
                METRIC_FAULT_RECOVERY,
                "per-job sim-time stalled on injected faults",
                s,
            );
        }
    }
}

/// Builder for configured simulation runs — the redesigned run API.
///
/// Obtained from [`FogSimulator::runner`]. A single [`SimRunner::run`] stays
/// serial (the discrete-event engine is inherently sequential); placement
/// *sweeps* fan out across the `scpar` worker pool, one placement per task.
///
/// Every sweep run records into its own private recorder, so the shared
/// handle is never written from worker threads: per-placement reports and
/// Prometheus snapshots are byte-identical for any thread count.
#[derive(Debug)]
pub struct SimRunner<'a> {
    sim: &'a FogSimulator,
    workload: &'a Workload,
    placement: Placement,
    telemetry: TelemetryHandle,
    par: ScparConfig,
    faults: Option<&'a FaultPlan>,
    retry: RetryPolicy,
    trace_seed: u64,
}

impl<'a> SimRunner<'a> {
    /// Sets the placement policy (defaults to [`Placement::AllCloud`]).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Injects `plan`'s faults into the run (and into every sweep run):
    /// node crashes gate compute steps, link partitions gate transfers, and
    /// latency spikes stretch link propagation. See the DESIGN.md
    /// "Fault model" section for the exact semantics.
    ///
    /// ```
    /// # use scfog::{FogSimulator, Placement, Topology, Workload};
    /// use scfault::{FaultKind, FaultPlan};
    /// use simclock::{SimDuration, SimTime};
    ///
    /// let sim = FogSimulator::new(Topology::four_tier(4, 2, 2));
    /// let w = Workload::with_escalation(30, 100_000, 5.0, 0.3, 42);
    /// // Crash the first analysis server one second in; restart it at t=5 s.
    /// let server = sim.topology().nodes_in_tier(scfog::Tier::Server)[0];
    /// let plan = FaultPlan::empty()
    ///     .with_event(SimTime::from_secs(1), FaultKind::NodeCrash { node: server.0 })
    ///     .with_event(SimTime::from_secs(5), FaultKind::NodeRestart { node: server.0 });
    /// let report = sim
    ///     .runner(&w)
    ///     .placement(Placement::ServerOnly)
    ///     .faults(&plan)
    ///     .run();
    /// assert_eq!(report.jobs + report.jobs_lost, 30);
    /// assert!(report.recovery_time_s >= 0.0);
    /// ```
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replaces the transfer-retry policy used under link partitions
    /// (defaults to four attempts from 50 ms, doubling, ±10 % seeded jitter).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Routes this run's signals to `telemetry`: per-tier queue-wait/busy
    /// histograms, per-link byte counters, per-job spans, and an exact
    /// latency histogram.
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the seed from which job trace ids are derived
    /// (`TraceId::derive(seed, STREAM_FOG, job_index)`), namespacing this
    /// run's traces in a shared recorder. Defaults to 0.
    pub fn trace_seed(mut self, seed: u64) -> Self {
        self.trace_seed = seed;
        self
    }

    /// Caps the worker pool used by [`SimRunner::sweep`] at `threads`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.par = ScparConfig::with_threads(threads);
        self
    }

    /// Runs the configured workload/placement once, serially.
    ///
    /// # Panics
    ///
    /// Panics if the workload is empty or the topology has no edge tier.
    pub fn run(self) -> SimReport {
        Run::new(&self, self.placement, &self.telemetry).execute()
    }

    /// Runs the workload under each placement, fanning the runs out across
    /// the worker pool. Reports come back in `placements` order regardless
    /// of thread count; telemetry handles are not written to.
    pub fn sweep(&self, placements: &[Placement]) -> Vec<SimReport> {
        scpar::par_map(&self.par, placements, |p| {
            Run::new(self, *p, &TelemetryHandle::disabled()).execute()
        })
    }

    /// Like [`SimRunner::sweep`], but each run records into a fresh private
    /// recorder whose Prometheus rendering is returned alongside the report.
    ///
    /// Because recorders are per-run and reports are combined in submission
    /// order, the returned snapshots are byte-identical for any thread
    /// count — the property checked by the determinism suite.
    pub fn sweep_recorded(&self, placements: &[Placement]) -> Vec<(SimReport, String)> {
        scpar::par_map(&self.par, placements, |p| {
            let recorder = Telemetry::shared();
            let report = Run::new(self, *p, &recorder.handle()).execute();
            (report, prometheus_text(recorder.registry()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> FogSimulator {
        FogSimulator::new(Topology::four_tier(4, 2, 1))
    }

    fn workload(n: usize, esc: f64) -> Workload {
        Workload::with_escalation(n, 100_000, 5.0, esc, 7)
    }

    fn run(s: &FogSimulator, w: &Workload, p: Placement) -> SimReport {
        s.runner(w).placement(p).run()
    }

    #[test]
    fn all_placements_complete_all_jobs() {
        let s = sim();
        let w = workload(40, 0.3);
        for placement in [
            Placement::AllEdge,
            Placement::ServerOnly,
            Placement::AllCloud,
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        ] {
            let r = run(&s, &w, placement);
            assert_eq!(r.jobs, 40, "{placement:?}");
            assert!(r.mean_latency_s > 0.0);
            assert!(r.makespan_s >= r.max_latency_s * 0.5);
        }
    }

    #[test]
    fn all_edge_ships_fewest_bytes() {
        let s = sim();
        let w = workload(40, 0.3);
        let edge = run(&s, &w, Placement::AllEdge);
        let cloud = run(&s, &w, Placement::AllCloud);
        assert!(edge.total_upstream_bytes() < cloud.total_upstream_bytes() / 10);
    }

    #[test]
    fn all_edge_is_slow_compute() {
        // Edge FLOPS are 200x slower than the server: full models on the
        // edge take far longer than shipping raw data to the server.
        let s = sim();
        let w = workload(20, 0.3);
        let edge = run(&s, &w, Placement::AllEdge);
        let server = run(&s, &w, Placement::ServerOnly);
        assert!(
            edge.mean_latency_s > server.mean_latency_s,
            "edge {} vs server {}",
            edge.mean_latency_s,
            server.mean_latency_s
        );
    }

    #[test]
    fn early_exit_bytes_scale_with_escalation() {
        let s = sim();
        let policy = Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        };
        let low = run(&s, &workload(100, 0.1), policy);
        let high = run(&s, &workload(100, 0.9), policy);
        assert!(
            high.fog_to_server_bytes > low.fog_to_server_bytes * 3,
            "low {} vs high {}",
            low.fog_to_server_bytes,
            high.fog_to_server_bytes
        );
    }

    #[test]
    fn early_exit_beats_all_cloud_on_upstream_bytes() {
        let s = sim();
        let w = workload(60, 0.3);
        let ee = run(
            &s,
            &w,
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        let cloud = run(&s, &w, Placement::AllCloud);
        assert!(ee.total_upstream_bytes() < cloud.total_upstream_bytes());
    }

    #[test]
    fn latency_percentiles_ordered() {
        let s = sim();
        let r = run(&s, &workload(80, 0.3), Placement::ServerOnly);
        assert!(r.p50_latency_s <= r.p95_latency_s);
        assert!(r.p95_latency_s <= r.max_latency_s);
        assert!(r.mean_latency_s <= r.max_latency_s);
    }

    #[test]
    fn utilization_in_bounds() {
        let s = sim();
        let r = run(
            &s,
            &workload(60, 0.5),
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        for u in &r.tier_utilization {
            assert!((0.0..=1.0).contains(&u.utilization), "{u:?}");
        }
        // Early-exit keeps edges busy.
        assert!(r.utilization_of(Tier::Edge) > 0.0);
    }

    #[test]
    fn server_only_leaves_edges_idle() {
        let s = sim();
        let r = run(&s, &workload(40, 0.3), Placement::ServerOnly);
        assert_eq!(r.utilization_of(Tier::Edge), 0.0);
        assert!(r.utilization_of(Tier::Server) > 0.0);
    }

    #[test]
    fn queueing_grows_latency_under_load() {
        let s = sim();
        // Same jobs, 100x the arrival rate: queueing must raise p95.
        let slow = Workload::with_escalation(60, 100_000, 0.5, 0.3, 9);
        let fast = Workload::with_escalation(60, 100_000, 50.0, 0.3, 9);
        let r_slow = run(&s, &slow, Placement::AllEdge);
        let r_fast = run(&s, &fast, Placement::AllEdge);
        assert!(
            r_fast.p95_latency_s > r_slow.p95_latency_s,
            "fast {} vs slow {}",
            r_fast.p95_latency_s,
            r_slow.p95_latency_s
        );
    }

    #[test]
    fn deterministic_runs() {
        let s = sim();
        let w = workload(30, 0.3);
        let a = run(&s, &w, Placement::AllCloud);
        let b = run(&s, &w, Placement::AllCloud);
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(a.total_upstream_bytes(), b.total_upstream_bytes());
    }

    const SWEEP: [Placement; 4] = [
        Placement::AllEdge,
        Placement::ServerOnly,
        Placement::AllCloud,
        Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        },
    ];

    #[test]
    fn sweep_matches_individual_runs_in_order() {
        let s = sim();
        let w = workload(30, 0.3);
        let swept = s.runner(&w).threads(4).sweep(&SWEEP);
        assert_eq!(swept.len(), SWEEP.len());
        for (p, r) in SWEEP.iter().zip(&swept) {
            let solo = run(&s, &w, *p);
            assert_eq!(solo.mean_latency_s, r.mean_latency_s, "{p:?}");
            assert_eq!(solo.total_upstream_bytes(), r.total_upstream_bytes());
        }
    }

    #[test]
    fn sweep_recorded_snapshots_are_thread_count_independent() {
        let s = sim();
        let w = workload(20, 0.3);
        let serial = s.runner(&w).threads(1).sweep_recorded(&SWEEP);
        let parallel = s.runner(&w).threads(4).sweep_recorded(&SWEEP);
        for ((ra, ta), (rb, tb)) in serial.iter().zip(&parallel) {
            assert_eq!(ra.mean_latency_s, rb.mean_latency_s);
            assert_eq!(ta, tb, "prometheus snapshots must be byte-identical");
        }
    }
}

#[cfg(test)]
mod fog_assisted_tests {
    use super::*;

    fn sim() -> FogSimulator {
        FogSimulator::new(Topology::four_tier(4, 2, 1))
    }

    fn run(s: &FogSimulator, w: &Workload, p: Placement) -> SimReport {
        s.runner(w).placement(p).run()
    }

    #[test]
    fn fog_assisted_completes_and_uses_fog_tier() {
        let s = sim();
        let w = Workload::with_escalation(40, 100_000, 5.0, 0.3, 70);
        let r = run(
            &s,
            &w,
            Placement::FogAssisted {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        assert_eq!(r.jobs, 40);
        assert!(r.utilization_of(Tier::Fog) > 0.0, "fog runs the tiny model");
        assert_eq!(r.utilization_of(Tier::Edge), 0.0, "edges only forward");
    }

    #[test]
    fn fog_assisted_is_faster_than_edge_early_exit() {
        // The fog node has 10x the edge FLOPS, so running the tiny model
        // there beats the edge even after the extra raw-frame hop.
        let s = sim();
        let w = Workload::with_escalation(40, 100_000, 5.0, 0.3, 71);
        let edge = run(
            &s,
            &w,
            Placement::EarlyExit {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        let fog = run(
            &s,
            &w,
            Placement::FogAssisted {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        assert!(
            fog.mean_latency_s < edge.mean_latency_s,
            "fog {} vs edge {}",
            fog.mean_latency_s,
            edge.mean_latency_s
        );
    }

    #[test]
    fn fog_assisted_ships_raw_on_first_hop_only() {
        let s = sim();
        let w = Workload::with_escalation(30, 100_000, 5.0, 0.0, 72); // no escalation
        let r = run(
            &s,
            &w,
            Placement::FogAssisted {
                local_fraction: 0.3,
                feature_bytes: 20_000,
            },
        );
        assert_eq!(r.edge_to_fog_bytes, 30 * 100_000, "raw frames to the fog");
        assert_eq!(r.fog_to_server_bytes, 30 * 256, "only annotations upstream");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use scfault::{FaultKind, FaultSpec};

    fn busy(r: &SimReport, tier: Tier) -> f64 {
        let of_tier = r.tier_utilization.iter().find(|u| u.tier == tier);
        of_tier.expect("every tier is reported").busy_secs
    }

    /// `node`'s uplink partitioned for the first 30 s — longer than the
    /// default retry schedule (< 1 s) can wait out.
    pub(super) fn partition_30s(node: FogNodeId) -> FaultPlan {
        FaultPlan::empty().with_event(
            SimTime::ZERO,
            FaultKind::LinkPartition {
                node: node.0,
                duration: SimDuration::from_secs(30),
            },
        )
    }

    fn crash_window(node: FogNodeId, from: SimTime, to: SimTime) -> FaultPlan {
        FaultPlan::empty()
            .with_event(from, FaultKind::NodeCrash { node: node.0 })
            .with_event(to, FaultKind::NodeRestart { node: node.0 })
    }

    #[test]
    fn empty_plan_matches_plain_run() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        let w = Workload::with_escalation(40, 100_000, 5.0, 0.3, 7);
        let plain = s.runner(&w).placement(Placement::ServerOnly).run();
        let empty = FaultPlan::empty();
        let faulted = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&empty)
            .run();
        assert_eq!(plain.mean_latency_s, faulted.mean_latency_s);
        assert_eq!(faulted.jobs_rerouted, 0);
        assert_eq!(faulted.jobs_lost, 0);
        assert_eq!(faulted.recovery_time_s, 0.0);
    }

    #[test]
    fn server_crash_reroutes_to_sibling() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 2));
        let w = Workload::with_escalation(40, 100_000, 5.0, 0.3, 11);
        let victim = s.topology().nodes_in_tier(Tier::Server)[0];
        let plan = crash_window(victim, SimTime::ZERO, SimTime::from_secs(3600));
        let r = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        assert_eq!(r.jobs, 40, "re-routing loses nothing");
        assert_eq!(r.jobs_lost, 0);
        assert!(r.jobs_rerouted > 0, "victim's jobs moved to the sibling");
        assert!(r.recovery_time_s > 0.0);
    }

    #[test]
    fn crash_without_sibling_requeues_until_restart() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        let w = Workload::with_escalation(20, 100_000, 5.0, 0.3, 12);
        let server = s.topology().nodes_in_tier(Tier::Server)[0];
        let plan = crash_window(server, SimTime::ZERO, SimTime::from_secs(30));
        let baseline = s.runner(&w).placement(Placement::ServerOnly).run();
        let r = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        assert_eq!(r.jobs, 20, "jobs wait out the outage");
        assert_eq!(r.jobs_lost, 0);
        assert_eq!(r.jobs_rerouted, 0, "no sibling server exists");
        assert!(
            r.max_latency_s > baseline.max_latency_s,
            "waiting for the restart costs latency"
        );
        assert!(r.recovery_time_s > 0.0 && r.recovery_time_s <= 30.0);
    }

    #[test]
    fn permanent_cloud_crash_loses_jobs() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        let w = Workload::with_escalation(15, 100_000, 5.0, 0.3, 13);
        let cloud = s.topology().nodes_in_tier(Tier::Cloud)[0];
        let plan =
            FaultPlan::empty().with_event(SimTime::ZERO, FaultKind::NodeCrash { node: cloud.0 });
        let r = s
            .runner(&w)
            .placement(Placement::AllCloud)
            .faults(&plan)
            .run();
        assert_eq!(r.jobs, 0, "the only cloud never comes back");
        assert_eq!(r.jobs_lost, 15);
        assert_eq!(r.mean_latency_s, 0.0, "no completed jobs, no latency");
    }

    #[test]
    fn partition_store_and_forwards() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        let w = Workload::with_escalation(20, 100_000, 5.0, 0.3, 14);
        let edge = s.topology().nodes_in_tier(Tier::Edge)[0];
        let plan = FaultPlan::empty().with_event(
            SimTime::ZERO,
            FaultKind::LinkPartition {
                node: edge.0,
                duration: SimDuration::from_secs(20),
            },
        );
        let r = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        assert_eq!(r.jobs, 20);
        assert_eq!(r.jobs_lost, 0, "partitions heal; payloads are queued");
        assert!(r.recovery_time_s > 0.0);
    }

    #[test]
    fn partitioned_escalation_degrades_to_edge_exit() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        // Every job escalates, so every job needs the fog->server hop.
        let w = Workload::with_escalation(20, 100_000, 5.0, 1.0, 15);
        let placement = Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        };
        let fogs = s.topology().nodes_in_tier(Tier::Fog);
        let mut plan = FaultPlan::empty();
        for f in &fogs {
            plan = plan.with_event(
                SimTime::ZERO,
                FaultKind::LinkPartition {
                    node: f.0,
                    duration: SimDuration::from_secs(3600),
                },
            );
        }
        let healthy = s.runner(&w).placement(placement).run();
        let r = s.runner(&w).placement(placement).faults(&plan).run();
        assert_eq!(r.jobs, 20, "degraded jobs still complete");
        assert_eq!(r.jobs_degraded, 20, "every escalation fell back");
        assert_eq!(healthy.fog_to_server_bytes, 20 * 20_000);
        // Features crossed the healthy edge uplinks; from the fog hop that
        // gave up onwards every hop carries the annotation, and the server
        // never ran its share.
        assert_eq!(r.edge_to_fog_bytes, 20 * 20_000);
        assert_eq!(r.fog_to_server_bytes, 20 * 256);
        assert_eq!(r.server_to_cloud_bytes, 20 * 256);
        assert_eq!(busy(&r, Tier::Server), 0.0);
    }

    /// The first edge's uplink is partitioned for the first 30 s, no job
    /// escalates: every frame still runs its model and ships what it would
    /// have shipped, however the payload sizes happen to coincide.
    fn assert_waits_out_the_partition(placement: Placement, raw_bytes: u64, computes_at: Tier) {
        let s = FogSimulator::new(Topology::four_tier(2, 1, 1));
        let w = Workload::with_escalation(6, raw_bytes, 5.0, 0.0, 7);
        let plan = partition_30s(s.topology().nodes_in_tier(Tier::Edge)[0]);
        let clean = s.runner(&w).placement(placement).run();
        let r = s.runner(&w).placement(placement).faults(&plan).run();
        assert_eq!(r.jobs, 6);
        assert!(r.recovery_time_s > 0.0, "the partition was felt");
        assert_eq!(r.jobs_degraded, 0, "nothing escalated, nothing degrades");
        assert_eq!(r.edge_to_fog_bytes, clean.edge_to_fog_bytes);
        let (faulted, healthy) = (busy(&r, computes_at), busy(&clean, computes_at));
        assert!(healthy > 0.0 && (faulted - healthy).abs() < 1e-9);
    }

    #[test]
    fn raw_frames_sized_like_features_do_not_degrade() {
        let placement = Placement::FogAssisted {
            local_fraction: 0.3,
            feature_bytes: 20_000,
        };
        assert_waits_out_the_partition(placement, 20_000, Tier::Fog);
    }

    #[test]
    fn annotations_sized_like_features_do_not_degrade() {
        let placement = Placement::EarlyExit {
            local_fraction: 0.3,
            feature_bytes: 256,
        };
        assert_waits_out_the_partition(placement, 100_000, Tier::Edge);
    }

    #[test]
    fn latency_spike_stretches_transfers() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 1));
        let w = Workload::with_escalation(20, 100_000, 5.0, 0.3, 16);
        let mut plan = FaultPlan::empty();
        for e in &s.topology().nodes_in_tier(Tier::Edge) {
            plan = plan.with_event(
                SimTime::ZERO,
                FaultKind::LinkLatencySpike {
                    node: e.0,
                    factor: 50.0,
                    duration: SimDuration::from_secs(3600),
                },
            );
        }
        let healthy = s.runner(&w).placement(Placement::ServerOnly).run();
        let spiked = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        assert!(
            spiked.mean_latency_s > healthy.mean_latency_s,
            "spiked {} vs healthy {}",
            spiked.mean_latency_s,
            healthy.mean_latency_s
        );
        assert_eq!(spiked.jobs_lost, 0);
    }

    #[test]
    fn fault_metrics_roundtrip_through_registry() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 2));
        let w = Workload::with_escalation(30, 100_000, 5.0, 0.3, 17);
        let victim = s.topology().nodes_in_tier(Tier::Server)[0];
        let plan = crash_window(victim, SimTime::ZERO, SimTime::from_secs(3600));
        let rec = Telemetry::shared();
        let r = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .telemetry(rec.handle())
            .run();
        let counter = |name: &str| {
            rec.registry()
                .get(name)
                .and_then(|e| e.as_counter().map(|c| c.get()))
                .unwrap_or(0)
        };
        assert_eq!(counter(METRIC_JOBS_REROUTED), r.jobs_rerouted as u64);
        assert_eq!(counter(METRIC_JOBS_LOST), r.jobs_lost as u64);
        assert_eq!(counter(METRIC_JOBS_DEGRADED), r.jobs_degraded as u64);
        let recovery = rec.registry().get(METRIC_FAULT_RECOVERY);
        let recovery = recovery.and_then(|e| e.as_histogram().map(|h| h.snapshot().max));
        assert_eq!(recovery, Some(r.recovery_time_s));
        assert_eq!(
            counter(scfault::METRIC_INJECTED),
            2,
            "crash + restart recorded as injections"
        );
    }

    #[test]
    fn generated_plan_runs_are_deterministic() {
        let s = FogSimulator::new(Topology::four_tier(4, 2, 2));
        let w = Workload::with_escalation(40, 100_000, 5.0, 0.3, 18);
        let spec =
            FaultSpec::new(SimDuration::from_secs(30), s.topology().len() as u32).intensity(2.0);
        let plan = FaultPlan::generate(&spec, 99);
        let a = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        let b = s
            .runner(&w)
            .placement(Placement::ServerOnly)
            .faults(&plan)
            .run();
        assert_eq!(a.mean_latency_s, b.mean_latency_s);
        assert_eq!(a.jobs_rerouted, b.jobs_rerouted);
        assert_eq!(a.recovery_time_s, b.recovery_time_s);
    }
}

/// The plan walk and each engine stage, called alone.
#[cfg(test)]
mod stage_tests {
    use super::fault_tests::partition_30s;
    use super::*;
    use proptest::prelude::*;
    use sctelemetry::TraceRecord;

    const EARLY_EXIT: Placement = Placement::EarlyExit {
        local_fraction: 0.3,
        feature_bytes: 20_000,
    };
    const FOG_ASSISTED: Placement = Placement::FogAssisted {
        local_fraction: 0.3,
        feature_bytes: 20_000,
    };

    fn plan_for(
        topology: &Topology,
        edge: FogNodeId,
        placement: Placement,
        job: &Job,
    ) -> Vec<Step> {
        let stages = placement.stages(job);
        route(topology, edge, &stages, job, placement.feature_bytes())
    }

    /// `c:<tier>` per compute step, `x:<payload>` per hop.
    fn signature(topology: &Topology, plan: &[Step]) -> String {
        let words: Vec<String> = plan
            .iter()
            .map(|step| match step {
                Step::Compute { node, .. } => format!("c:{}", topology.tier(*node).name()),
                Step::Transfer { payload, .. } => format!("x:{payload:?}").to_lowercase(),
            })
            .collect();
        words.join(" ")
    }

    /// The rows are what the five hand-enumerated arms of the old
    /// `FogSimulator::plan` produced (captured from it before it was
    /// deleted; 100 000 / 20 000 / 256 B read as raw / features /
    /// annotation).
    #[test]
    fn route_reproduces_the_enumerated_plans() {
        let topology = Topology::four_tier(2, 2, 1);
        let edge = topology.nodes_in_tier(Tier::Edge)[0];
        for (placement, escalates, want) in [
            (
                Placement::AllEdge,
                false,
                "c:edge x:annotation x:annotation x:annotation",
            ),
            (
                Placement::AllEdge,
                true,
                "c:edge x:annotation x:annotation x:annotation",
            ),
            (
                Placement::ServerOnly,
                false,
                "x:raw x:raw c:server x:annotation",
            ),
            (
                Placement::ServerOnly,
                true,
                "x:raw x:raw c:server x:annotation",
            ),
            (Placement::AllCloud, false, "x:raw x:raw x:raw c:cloud"),
            (Placement::AllCloud, true, "x:raw x:raw x:raw c:cloud"),
            (
                EARLY_EXIT,
                false,
                "c:edge x:annotation x:annotation x:annotation",
            ),
            (
                EARLY_EXIT,
                true,
                "c:edge x:features x:features c:server x:annotation",
            ),
            (FOG_ASSISTED, false, "x:raw c:fog x:annotation x:annotation"),
            (
                FOG_ASSISTED,
                true,
                "x:raw c:fog x:features c:server x:annotation",
            ),
        ] {
            let job = Job {
                arrival: SimTime::ZERO,
                edge_index: 0,
                raw_bytes: 100_000,
                total_ops: 1e9,
                annotation_bytes: 256,
                escalates,
            };
            let plan = plan_for(&topology, edge, placement, &job);
            assert_eq!(
                signature(&topology, &plan),
                want,
                "{placement:?} {escalates}"
            );
        }
    }

    fn any_placement() -> impl Strategy<Value = Placement> {
        // Feature maps the size of an annotation or of a raw frame included.
        let split = || {
            (
                0.0f64..1.0,
                prop_oneof![Just(256u64), Just(20_000u64), 1u64..200_000],
            )
        };
        prop_oneof![
            Just(Placement::AllEdge),
            Just(Placement::ServerOnly),
            Just(Placement::AllCloud),
            split().prop_map(|(local_fraction, feature_bytes)| Placement::EarlyExit {
                local_fraction,
                feature_bytes,
            }),
            split().prop_map(|(local_fraction, feature_bytes)| Placement::FogAssisted {
                local_fraction,
                feature_bytes,
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the fan-outs, the job and the placement: one hop over
        /// every uplink from the job's edge to the root, in order; payloads
        /// read `Raw* Features* Annotation*` with the bytes of their kind;
        /// and the stages run once each, where their tier lies on the path.
        #[test]
        fn route_walks_every_uplink_once(
            fanout in (1usize..4, 1usize..4, 1usize..3),
            edge_pick in any::<usize>(),
            placement in any_placement(),
            raw_bytes in prop_oneof![Just(256u64), Just(20_000u64), 1u64..200_000],
            total_ops in 1e6f64..1e10,
            escalates in any::<bool>(),
        ) {
            let topology = Topology::four_tier(fanout.0, fanout.1, fanout.2);
            let edges = topology.nodes_in_tier(Tier::Edge);
            let edge = edges[edge_pick % edges.len()];
            let job = Job {
                arrival: SimTime::ZERO,
                edge_index: 0,
                raw_bytes,
                total_ops,
                annotation_bytes: 256,
                escalates,
            };
            let plan = plan_for(&topology, edge, placement, &job);

            let mut path = vec![edge];
            let upstream = std::iter::successors(topology.parent(edge), |&(n, _)| topology.parent(n));
            path.extend(upstream.map(|(node, _)| node));
            let mut hops = Vec::new();
            let mut computes = Vec::new();
            let mut last_rank = 0;
            for step in &plan {
                match *step {
                    Step::Compute { node, ops } => {
                        prop_assert!(path.contains(&node));
                        computes.push((topology.tier(node), ops));
                    }
                    Step::Transfer { from, payload, bytes } => {
                        hops.push(from);
                        let (rank, want) = match payload {
                            Payload::Raw => (0, job.raw_bytes),
                            Payload::Features => (1, placement.feature_bytes()),
                            Payload::Annotation => (2, job.annotation_bytes),
                        };
                        prop_assert!(rank >= last_rank, "{:?} after rank {}", payload, last_rank);
                        last_rank = rank;
                        prop_assert_eq!(bytes, want);
                    }
                }
            }
            prop_assert_eq!(&hops[..], &path[..path.len() - 1], "the root has no uplink");
            prop_assert_eq!(&computes, &placement.stages(&job));

            let local_share = match placement {
                Placement::EarlyExit { local_fraction, .. }
                | Placement::FogAssisted { local_fraction, .. } if !escalates => local_fraction,
                _ => 1.0,
            };
            let ops: f64 = computes.iter().map(|c| c.1).sum();
            let want = job.total_ops * local_share;
            prop_assert!((ops - want).abs() <= want * 1e-12, "{} ops, want {}", ops, want);
        }
    }

    #[test]
    fn occupy_is_fifo_per_resource() {
        let (at, ms) = (SimTime::from_millis, SimDuration::from_millis);
        let (mut cpu, mut uplink) = (Fifo::default(), Fifo::default());
        assert_eq!(cpu.occupy(at(10), ms(5)), (at(10), at(15)));
        // Ready while the first holder runs: waits its turn.
        assert_eq!(cpu.occupy(at(12), ms(5)), (at(15), at(20)));
        // Ready after the resource freed up: starts at once.
        assert_eq!(cpu.occupy(at(30), ms(1)), (at(30), at(31)));
        // Another resource is another queue.
        assert_eq!(uplink.occupy(at(12), ms(5)), (at(12), at(17)));
        assert!((cpu.busy_secs - 0.011).abs() < 1e-12);
    }

    /// One job on a 2-1-1 tree.
    fn one_job(escalation: f64) -> (FogSimulator, Workload) {
        let sim = FogSimulator::new(Topology::four_tier(2, 1, 1));
        (
            sim,
            Workload::with_escalation(1, 100_000, 5.0, escalation, 7),
        )
    }

    #[test]
    fn start_transfer_store_and_forwards_at_heal_time() {
        let (sim, w) = one_job(0.0);
        let edge = sim.topology().nodes_in_tier(Tier::Edge)[0];
        let (faults, off) = (partition_30s(edge), TelemetryHandle::disabled());
        let mut run = Run::new(&sim.runner(&w).faults(&faults), Placement::ServerOnly, &off);
        let now = SimTime::from_secs(1);
        let cleared = run.start_transfer(now, 0, 0, edge, Payload::Raw, 100_000);
        // 5 ms of latency plus 100 kB at 2 MB/s, once the partition heals.
        let (heal, on_the_wire) = (SimTime::from_secs(30), SimDuration::from_millis(55));
        assert_eq!(cleared, Some((heal, on_the_wire)));
        assert_eq!(run.fault_retries, 3, "four attempts: three more probes");
        assert_eq!(run.jobs[0].stall, 29.0);
        assert!(
            !run.jobs[0].degraded,
            "raw frames wait, they do not degrade"
        );
        assert_eq!(run.boundary_bytes, [100_000, 0, 0]);
    }

    #[test]
    fn a_partitioned_feature_hop_degrades_from_that_hop_on() {
        let (sim, w) = one_job(1.0);
        let topology = sim.topology();
        let fog = topology.nodes_in_tier(Tier::Fog)[0];
        let (faults, off) = (partition_30s(fog), TelemetryHandle::disabled());
        let mut run = Run::new(&sim.runner(&w).faults(&faults), EARLY_EXIT, &off);
        assert_eq!(
            signature(topology, &run.jobs[0].plan),
            "c:edge x:features x:features c:server x:annotation"
        );
        let now = SimTime::from_secs(1);
        let cleared = run.start_transfer(now, 0, 2, fog, Payload::Features, 20_000);
        // 10 ms of latency plus a 256 B annotation at 20 MB/s (12.8 µs).
        let on_the_wire = SimDuration::from_micros(10_013);
        assert_eq!(cleared, Some((SimTime::from_secs(30), on_the_wire)));
        assert!(run.jobs[0].degraded);
        assert_eq!(
            signature(topology, &run.jobs[0].plan),
            "c:edge x:features x:annotation x:annotation"
        );
        assert_eq!(run.boundary_bytes, [0, 256, 0]);
    }

    #[test]
    fn lose_closes_the_trace_once() {
        let sim = FogSimulator::new(Topology::four_tier(2, 1, 1));
        let w = Workload::with_escalation(2, 100_000, 5.0, 0.3, 7);
        let recorder = Telemetry::shared();
        let handle = recorder.handle();
        let mut run = Run::new(&sim.runner(&w), Placement::AllCloud, &handle);
        let now = SimTime::from_secs(9);
        run.lose(now, 1);
        assert!(run.jobs[1].lost && !run.jobs[0].lost);
        let ctx = run.jobs[1].ctx;
        let trace = recorder.trace();
        assert_eq!(trace.len(), 2, "one root span, one loss marker: {trace:?}");
        for record in &trace {
            match record {
                TraceRecord::Span(s) => {
                    assert_eq!((s.name.as_str(), s.ctx), ("job/1", Some(ctx)));
                    assert_eq!((s.start, s.end), (w.jobs()[1].arrival, now));
                }
                TraceRecord::Event(e) => {
                    assert_eq!((e.name.as_str(), e.at), ("job/lost", now));
                    assert_eq!(e.detail, format!("trace={}", ctx.trace.as_hex()));
                }
            }
        }
        let spans = trace.iter().filter(|r| matches!(r, TraceRecord::Span(_)));
        assert_eq!(spans.count(), 1);
    }
}
