//! Seed-driven, timed fault schedules.
//!
//! A [`FaultPlan`] is the single source of truth for *what goes wrong and
//! when* in a run: an immutable, time-sorted list of [`FaultEvent`]s
//! generated from a [`FaultSpec`] and a seed. Layers never roll dice while
//! they execute — they read the plan (or a precomputed view like
//! [`OutageWindows`]), which is why identical seeds give byte-identical
//! failure behaviour at any thread count.

use std::collections::{BTreeMap, BTreeSet};

use simclock::{SeededRng, SimDuration, SimTime};

/// Sentinel instant for "never recovers": an unmatched [`FaultKind::NodeCrash`]
/// keeps its target down until this far-future time.
pub const FOREVER: SimTime = SimTime::from_micros(u64::MAX);

/// One injectable fault. Targets are plain `u32` ids so the same plan can
/// drive fog nodes, DFS datanodes, or stream brokers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash-stop of `node`: it accepts no new work until a matching
    /// [`FaultKind::NodeRestart`] (or forever, if none follows).
    NodeCrash {
        /// Target node id.
        node: u32,
    },
    /// Restart of a previously crashed `node`.
    NodeRestart {
        /// Target node id.
        node: u32,
    },
    /// The uplink of `node` drops all traffic for `duration`.
    LinkPartition {
        /// Node whose uplink is severed.
        node: u32,
        /// How long the partition lasts.
        duration: SimDuration,
    },
    /// The uplink of `node` multiplies its latency by `factor` for
    /// `duration` (congestion, routing flaps).
    LinkLatencySpike {
        /// Node whose uplink degrades.
        node: u32,
        /// Latency multiplier (≥ 1.0).
        factor: f64,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// The `seq`-th message send is lost in flight (no ack, nothing stored).
    MessageDrop {
        /// Zero-based send sequence number the fault applies to.
        seq: u64,
    },
    /// The `seq`-th message send is stored but its ack is lost, so an
    /// at-least-once producer will resend and create a duplicate.
    MessageDuplicate {
        /// Zero-based send sequence number the fault applies to.
        seq: u64,
    },
    /// One replica of `block` on `node` is silently corrupted on disk.
    BlockCorrupt {
        /// Node holding the replica.
        node: u32,
        /// Block id (layer-specific meaning).
        block: u64,
    },
}

impl FaultKind {
    /// Short stable name for telemetry event labels.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::NodeRestart { .. } => "node_restart",
            FaultKind::LinkPartition { .. } => "link_partition",
            FaultKind::LinkLatencySpike { .. } => "link_latency_spike",
            FaultKind::MessageDrop { .. } => "message_drop",
            FaultKind::MessageDuplicate { .. } => "message_duplicate",
            FaultKind::BlockCorrupt { .. } => "block_corrupt",
        }
    }
}

/// One timed fault: *inject `kind` at sim-time `at`*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Tunable generator parameters for [`FaultPlan::generate`]. Counts are
/// *expected* event counts over the horizon; [`FaultSpec::intensity`] scales
/// them all at once, which is how the E16 sweep turns one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Time window faults are drawn from (`[0, horizon)`).
    pub horizon: SimDuration,
    /// Number of target nodes (ids `0..nodes`).
    pub nodes: u32,
    /// Expected crash/restart pairs.
    pub crashes: f64,
    /// Mean node outage before the restart (exponentially distributed).
    pub mean_outage: SimDuration,
    /// Expected link partitions.
    pub partitions: f64,
    /// Mean partition length (exponentially distributed).
    pub mean_partition: SimDuration,
    /// Expected latency spikes.
    pub latency_spikes: f64,
    /// Latency multiplier applied during a spike.
    pub spike_factor: f64,
    /// Mean spike length (exponentially distributed).
    pub mean_spike: SimDuration,
    /// Expected in-flight message faults (half drops, half lost acks).
    pub message_faults: f64,
    /// Sequence-number space message faults are drawn from.
    pub message_seq_space: u64,
    /// Expected silent block corruptions.
    pub corruptions: f64,
    /// Block-id space corruptions are drawn from.
    pub blocks: u64,
}

impl FaultSpec {
    /// A mild baseline over `horizon` and `nodes`: one crash, one partition,
    /// one spike, a couple of message faults, one corruption.
    pub fn new(horizon: SimDuration, nodes: u32) -> Self {
        FaultSpec {
            horizon,
            nodes,
            crashes: 1.0,
            mean_outage: SimDuration::from_secs_f64(horizon.as_secs_f64() * 0.1),
            partitions: 1.0,
            mean_partition: SimDuration::from_secs_f64(horizon.as_secs_f64() * 0.05),
            latency_spikes: 1.0,
            spike_factor: 5.0,
            mean_spike: SimDuration::from_secs_f64(horizon.as_secs_f64() * 0.05),
            message_faults: 2.0,
            message_seq_space: 1000,
            corruptions: 1.0,
            blocks: 64,
        }
    }

    /// Scales every expected event count by `x` (durations are unchanged).
    /// `intensity(0.0)` yields an empty plan; `intensity(2.0)` doubles the
    /// fault pressure.
    pub fn intensity(mut self, x: f64) -> Self {
        let x = x.max(0.0);
        self.crashes *= x;
        self.partitions *= x;
        self.latency_spikes *= x;
        self.message_faults *= x;
        self.corruptions *= x;
        self
    }
}

/// An immutable, time-sorted schedule of [`FaultEvent`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// A plan with no faults (the healthy baseline).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan from `spec` with the fault-domain RNG seeded by
    /// `seed`. The same `(spec, seed)` always yields the same schedule —
    /// checked by the determinism property tests.
    pub fn generate(spec: &FaultSpec, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed ^ 0xFA01_7101);
        let mut events = Vec::new();
        let horizon_us = spec.horizon.as_micros().max(1);
        let draw_at = |rng: &mut SeededRng| SimTime::from_micros(rng.range_u64(0, horizon_us));
        let exp_len = |rng: &mut SeededRng, mean: SimDuration| {
            let mean_s = mean.as_secs_f64().max(1e-6);
            SimDuration::from_secs_f64(rng.exponential(1.0 / mean_s).max(1e-3))
        };

        for _ in 0..spec.crashes.round() as usize {
            if spec.nodes == 0 {
                break;
            }
            let node = rng.range_u64(0, spec.nodes as u64) as u32;
            let at = draw_at(&mut rng);
            let outage = exp_len(&mut rng, spec.mean_outage);
            events.push(FaultEvent {
                at,
                kind: FaultKind::NodeCrash { node },
            });
            events.push(FaultEvent {
                at: at + outage,
                kind: FaultKind::NodeRestart { node },
            });
        }
        for _ in 0..spec.partitions.round() as usize {
            if spec.nodes == 0 {
                break;
            }
            let node = rng.range_u64(0, spec.nodes as u64) as u32;
            events.push(FaultEvent {
                at: draw_at(&mut rng),
                kind: FaultKind::LinkPartition {
                    node,
                    duration: exp_len(&mut rng, spec.mean_partition),
                },
            });
        }
        for _ in 0..spec.latency_spikes.round() as usize {
            if spec.nodes == 0 {
                break;
            }
            let node = rng.range_u64(0, spec.nodes as u64) as u32;
            events.push(FaultEvent {
                at: draw_at(&mut rng),
                kind: FaultKind::LinkLatencySpike {
                    node,
                    factor: spec.spike_factor.max(1.0),
                    duration: exp_len(&mut rng, spec.mean_spike),
                },
            });
        }
        for i in 0..spec.message_faults.round() as usize {
            if spec.message_seq_space == 0 {
                break;
            }
            let seq = rng.range_u64(0, spec.message_seq_space);
            let kind = if i % 2 == 0 {
                FaultKind::MessageDrop { seq }
            } else {
                FaultKind::MessageDuplicate { seq }
            };
            events.push(FaultEvent {
                at: draw_at(&mut rng),
                kind,
            });
        }
        for _ in 0..spec.corruptions.round() as usize {
            if spec.nodes == 0 || spec.blocks == 0 {
                break;
            }
            events.push(FaultEvent {
                at: draw_at(&mut rng),
                kind: FaultKind::BlockCorrupt {
                    node: rng.range_u64(0, spec.nodes as u64) as u32,
                    block: rng.range_u64(0, spec.blocks),
                },
            });
        }

        events.sort_by_key(|e| e.at); // stable: generation order breaks ties
        FaultPlan { events, seed }
    }

    /// Adds a hand-placed event, keeping the schedule time-sorted.
    pub fn with_event(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The time-sorted schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The seed the plan was generated from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a digest of the full schedule — a cheap identity for
    /// "same seed ⇒ same plan" assertions.
    pub fn fingerprint(&self) -> u64 {
        simclock::hash::fnv1a(format!("{:?}", self.events).as_bytes())
    }
}

fn merge_windows(mut windows: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    windows.sort_by_key(|w| w.0);
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
    for (s, e) in windows {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Per-target down-time windows, precomputed from a plan so the hot path
/// answers "is this node up at `t`?" without scanning the schedule.
#[derive(Debug, Clone, Default)]
pub struct OutageWindows {
    windows: BTreeMap<u32, Vec<(SimTime, SimTime)>>,
}

impl OutageWindows {
    /// Windows from [`FaultKind::NodeCrash`]/[`FaultKind::NodeRestart`]
    /// pairs. A crash with no later restart stays down until [`FOREVER`].
    pub fn node_crashes(plan: &FaultPlan) -> Self {
        let mut raw: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        let mut open: BTreeMap<u32, SimTime> = BTreeMap::new();
        for e in plan.events() {
            match e.kind {
                FaultKind::NodeCrash { node } => {
                    open.entry(node).or_insert(e.at);
                }
                FaultKind::NodeRestart { node } => {
                    if let Some(start) = open.remove(&node) {
                        raw.entry(node).or_default().push((start, e.at));
                    }
                }
                _ => {}
            }
        }
        for (node, start) in open {
            raw.entry(node).or_default().push((start, FOREVER));
        }
        OutageWindows {
            windows: raw
                .into_iter()
                .map(|(n, w)| (n, merge_windows(w)))
                .collect(),
        }
    }

    /// Windows from [`FaultKind::LinkPartition`] events (explicit durations,
    /// overlaps merged). Keyed by the node whose uplink is down.
    pub fn link_partitions(plan: &FaultPlan) -> Self {
        let mut raw: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for e in plan.events() {
            if let FaultKind::LinkPartition { node, duration } = e.kind {
                raw.entry(node).or_default().push((e.at, e.at + duration));
            }
        }
        OutageWindows {
            windows: raw
                .into_iter()
                .map(|(n, w)| (n, merge_windows(w)))
                .collect(),
        }
    }

    /// If `target` is down at `at`, the end of the enclosing window
    /// ([`FOREVER`] for unrecovered crashes); `None` when up.
    pub fn down_until(&self, target: u32, at: SimTime) -> Option<SimTime> {
        self.windows.get(&target).and_then(|ws| {
            ws.iter()
                .find(|(s, e)| *s <= at && at < *e)
                .map(|&(_, e)| e)
        })
    }

    /// Whether `target` is down at `at`.
    pub fn is_down(&self, target: u32, at: SimTime) -> bool {
        self.down_until(target, at).is_some()
    }

    /// All windows for `target`, time-sorted and non-overlapping.
    pub fn windows_for(&self, target: u32) -> &[(SimTime, SimTime)] {
        self.windows.get(&target).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Targets with at least one window, ascending.
    pub fn targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.windows.keys().copied()
    }
}

/// Per-target latency-spike windows with their multipliers.
#[derive(Debug, Clone, Default)]
pub struct LatencySpikes {
    windows: BTreeMap<u32, Vec<(SimTime, SimTime, f64)>>,
}

impl LatencySpikes {
    /// Collects [`FaultKind::LinkLatencySpike`] events from a plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let mut windows: BTreeMap<u32, Vec<(SimTime, SimTime, f64)>> = BTreeMap::new();
        for e in plan.events() {
            if let FaultKind::LinkLatencySpike {
                node,
                factor,
                duration,
            } = e.kind
            {
                windows
                    .entry(node)
                    .or_default()
                    .push((e.at, e.at + duration, factor.max(1.0)));
            }
        }
        LatencySpikes { windows }
    }

    /// Latency multiplier for `target`'s uplink at `at` (the max of
    /// overlapping spikes; `1.0` when healthy).
    pub fn factor_at(&self, target: u32, at: SimTime) -> f64 {
        self.windows
            .get(&target)
            .map(|ws| {
                ws.iter()
                    .filter(|(s, e, _)| *s <= at && at < *e)
                    .map(|&(_, _, f)| f)
                    .fold(1.0, f64::max)
            })
            .unwrap_or(1.0)
    }
}

/// Sequence-indexed message faults, precomputed for O(log n) lookup per send.
#[derive(Debug, Clone, Default)]
pub struct MessageFaults {
    drops: BTreeSet<u64>,
    dups: BTreeSet<u64>,
}

impl MessageFaults {
    /// Collects [`FaultKind::MessageDrop`]/[`FaultKind::MessageDuplicate`]
    /// events from a plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let mut f = MessageFaults::default();
        for e in plan.events() {
            match e.kind {
                FaultKind::MessageDrop { seq } => {
                    f.drops.insert(seq);
                }
                FaultKind::MessageDuplicate { seq } => {
                    f.dups.insert(seq);
                }
                _ => {}
            }
        }
        f
    }

    /// Whether send `seq` is lost in flight.
    pub fn is_dropped(&self, seq: u64) -> bool {
        self.drops.contains(&seq)
    }

    /// Whether send `seq` is stored but its ack is lost.
    pub fn is_ack_lost(&self, seq: u64) -> bool {
        self.dups.contains(&seq)
    }

    /// `(drops, lost acks)` counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.drops.len(), self.dups.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            crashes: 3.0,
            partitions: 3.0,
            latency_spikes: 2.0,
            message_faults: 4.0,
            corruptions: 2.0,
            ..FaultSpec::new(SimDuration::from_secs(100), 8)
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(&spec(), 42);
        let b = FaultPlan::generate(&spec(), 42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FaultPlan::generate(&spec(), 43);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), 0x5e48_34de_3f78_a7c8, "pinned digest");
    }

    #[test]
    fn events_time_sorted() {
        let p = FaultPlan::generate(&spec(), 7);
        assert!(p.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!p.is_empty());
    }

    #[test]
    fn intensity_zero_is_empty() {
        let p = FaultPlan::generate(&spec().intensity(0.0), 7);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn intensity_scales_event_count() {
        let low = FaultPlan::generate(&spec(), 7);
        let high = FaultPlan::generate(&spec().intensity(3.0), 7);
        assert!(high.len() > low.len());
    }

    #[test]
    fn crash_windows_pair_with_restarts() {
        let p = FaultPlan::empty()
            .with_event(SimTime::from_secs(10), FaultKind::NodeCrash { node: 1 })
            .with_event(SimTime::from_secs(20), FaultKind::NodeRestart { node: 1 })
            .with_event(SimTime::from_secs(30), FaultKind::NodeCrash { node: 2 });
        let w = OutageWindows::node_crashes(&p);
        assert!(!w.is_down(1, SimTime::from_secs(5)));
        assert_eq!(
            w.down_until(1, SimTime::from_secs(15)),
            Some(SimTime::from_secs(20))
        );
        assert!(!w.is_down(1, SimTime::from_secs(20)), "restart heals");
        assert_eq!(w.down_until(2, SimTime::from_secs(99)), Some(FOREVER));
        assert_eq!(w.targets().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn partition_windows_merge_overlaps() {
        let p = FaultPlan::empty()
            .with_event(
                SimTime::from_secs(10),
                FaultKind::LinkPartition {
                    node: 3,
                    duration: SimDuration::from_secs(10),
                },
            )
            .with_event(
                SimTime::from_secs(15),
                FaultKind::LinkPartition {
                    node: 3,
                    duration: SimDuration::from_secs(10),
                },
            );
        let w = OutageWindows::link_partitions(&p);
        assert_eq!(
            w.windows_for(3),
            &[(SimTime::from_secs(10), SimTime::from_secs(25))]
        );
    }

    #[test]
    fn spike_factor_defaults_to_one() {
        let p = FaultPlan::empty().with_event(
            SimTime::from_secs(5),
            FaultKind::LinkLatencySpike {
                node: 0,
                factor: 4.0,
                duration: SimDuration::from_secs(2),
            },
        );
        let s = LatencySpikes::from_plan(&p);
        assert_eq!(s.factor_at(0, SimTime::from_secs(6)), 4.0);
        assert_eq!(s.factor_at(0, SimTime::from_secs(8)), 1.0);
        assert_eq!(s.factor_at(9, SimTime::from_secs(6)), 1.0);
    }

    #[test]
    fn message_faults_indexed_by_seq() {
        let p = FaultPlan::empty()
            .with_event(SimTime::ZERO, FaultKind::MessageDrop { seq: 4 })
            .with_event(SimTime::ZERO, FaultKind::MessageDuplicate { seq: 9 });
        let f = MessageFaults::from_plan(&p);
        assert!(f.is_dropped(4));
        assert!(!f.is_dropped(9));
        assert!(f.is_ack_lost(9));
        assert_eq!(f.counts(), (1, 1));
    }
}
