//! `camera_infer`: Fig. 5 / §IV-A1, every frame through the full split
//! network (`smartcity_core::apps::vehicle::VehicleClassifier`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use scdata::vehicles::VehicleCatalog;
use scdata::video::{Frame, FrameGenerator};
use scneural::early_exit::{EarlyExitNet, ExitDecision, ExitPoint};
use scneural::exec::ExecCtx;
use scneural::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use scneural::net::Sequential;
use scneural::tensor::Tensor;
use scpar::ScparConfig;
use scprof::Profiler;
use scsimd::Isa;
use simclock::SeededRng;
use smartcity_core::apps::vehicle::{frames_to_tensor, VehicleClassifier};

use crate::harness::{time_for, timed, Budget, Metrics, Rep, ReplayTimes, Workload};
use crate::trace::{Off, OpDef, Probe, Trace, Tracer, HARNESS};

const CLASSES: usize = 8;
const SIDE: usize = 32;
const BATCH: usize = 64;
/// Parts of a run, and the batches of one: every batch is of frames of its
/// own, so the zero-skipping matmul sees many activation patterns.
const PARTS: usize = 4;
const PART_BATCHES: usize = 8;
const TRAIN_EPOCHS: usize = 10;
const WARMUP_BATCHES: usize = 20;
/// Above any probability: every frame is escalated to the server part.
const NEVER_EXIT_LOCALLY: f32 = 1.01;
/// Seed of the fleet, the classifier's weights and its training set; see
/// [`Camera::setup`].
const MODEL_SEED: u64 = 42;

pub struct Camera {
    seed: u64,
    part_batches: usize,
    threads: usize,
}

pub struct CameraState {
    classifier: VehicleClassifier,
    batches: Vec<Vec<Frame>>,
}

impl Camera {
    pub fn new(seed: u64, scale: u64, threads: usize) -> Self {
        Camera {
            seed,
            part_batches: (PART_BATCHES / scale as usize).max(1),
            threads,
        }
    }
}

/// `(exit, class)` of every frame; what must repeat exactly.
fn digest_into(out: &mut String, decisions: &[ExitDecision]) {
    for d in decisions {
        let exit = match d.exit {
            ExitPoint::Local => 'L',
            ExitPoint::Server => 'S',
        };
        write!(out, "{exit}{} ", d.class).expect("writing to a String");
    }
}

impl Workload for Camera {
    type State = CameraState;

    fn setup(&self) -> CameraState {
        // The fleet and the trained model are the workload, like its sizes:
        // they always come from `MODEL_SEED`, and `--seed` draws the frames
        // the camera sees. The matmul skips zero activations, so with the
        // weights drawn from the run's seed the work per frame moved with
        // it: 6 000 to 7 800 frames/s across ten seeds.
        let catalog = VehicleCatalog::generate(CLASSES, MODEL_SEED);
        let (training_set, labels) =
            FrameGenerator::new(catalog.clone(), SIDE, SIDE, MODEL_SEED + 1)
                .dataset(CLASSES, BATCH / CLASSES);
        let mut classifier = VehicleClassifier::new(CLASSES, SIDE, NEVER_EXIT_LOCALLY, MODEL_SEED);
        classifier.train(&training_set, &labels, TRAIN_EPOCHS, 0.01);
        let mut gen = FrameGenerator::new(catalog, SIDE, SIDE, self.seed);
        let batches: Vec<Vec<Frame>> = (0..PARTS * self.part_batches)
            .map(|_| gen.dataset(CLASSES, BATCH / CLASSES).0)
            .collect();
        for i in 0..WARMUP_BATCHES {
            black_box(classifier.classify(&batches[i % batches.len()]));
        }
        CameraState {
            classifier,
            batches,
        }
    }

    fn parts(&self) -> usize {
        PARTS
    }

    fn rep(&self, state: &mut CameraState, part: usize) -> Result<Rep, String> {
        // Every decision is kept for the digest; keeping them allocates
        // nothing inside the timed region.
        let mut kept = Vec::with_capacity(self.part_batches);
        let CameraState {
            classifier,
            batches,
        } = state;
        let batches = &batches[part * self.part_batches..][..self.part_batches];
        let ((), cost) = timed(|| {
            for batch in batches {
                kept.push(classifier.classify(batch));
            }
        });
        let mut digest = String::new();
        let mut decided = 0u64;
        for decisions in &kept {
            decided += decisions.len() as u64;
            digest_into(&mut digest, decisions);
        }
        let frames = (self.part_batches * BATCH) as u64;
        Ok(Rep {
            ops: frames,
            failed: frames - decided,
            answered_share: decided as f64 / frames as f64,
            digest,
            cost,
        })
    }

    fn traced(&self, state: &mut CameraState, seconds: f64) -> Result<(Metrics, Trace), String> {
        let CameraState {
            classifier,
            batches,
        } = state;
        // The first part of the run, over and over.
        let batches = &batches[..self.part_batches];
        let serial = ExecCtx::serial();
        let slice = seconds / 16.0;
        let mut m = Metrics::new();

        // `classify` one pass over the part, its replay untraced, its replay
        // traced, in turn; a phase is one batch.
        let mut tracer = Tracer::new("camera_infer", &OPS, 64 * PART_BATCHES);
        let mut times = ReplayTimes::default();
        let (mut reference, mut replica) = (String::new(), String::new());
        let mut batch_no = 0u32;
        let mut budget = Budget::new(4.0 * slice);
        while budget.another() {
            let first = times.traced.is_empty();
            let t = Instant::now();
            for batch in batches.iter() {
                let decisions = classifier.classify(batch);
                if first {
                    digest_into(&mut reference, &decisions);
                }
            }
            times.library.push(t.elapsed().as_secs_f64());

            let net = classifier.network_mut();
            let t = Instant::now();
            for batch in batches.iter() {
                black_box(replay(net, batch, &serial, &mut Off));
            }
            times.untraced.push(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for batch in batches.iter() {
                tracer.begin("batch", Some(batch_no));
                let decisions = replay(net, batch, &serial, &mut tracer);
                tracer.end();
                batch_no += 1;
                if first {
                    digest_into(&mut replica, &decisions);
                }
            }
            times.traced.push(t.elapsed().as_secs_f64());
        }
        let trace = tracer.finish();
        let shares = trace.shares()?;
        let frames = BATCH as f64;
        m.put(
            "smartcity-core.frames_to_tensor_ns_per_frame",
            trace.ns_per_call(TO_TENSOR) / frames,
        );
        m.put("smartcity-core.share", shares["smartcity-core"]);
        m.put("scneural.share", shares["scneural"]);
        m.put("harness.remainder_share", shares[HARNESS]);
        times.put_metrics(&mut m, reference == replica);

        // The split network by exit and by layer, on one batch.
        let x = frames_to_tensor(&batches[0]);
        classifier.set_threshold(0.0);
        let (local_ns, _) = time_for(slice, 1, || {
            black_box(classifier.network_mut().infer_ctx(&x, &serial));
        });
        classifier.set_threshold(NEVER_EXIT_LOCALLY);
        let (full_ns, _) = time_for(slice, 1, || {
            black_box(classifier.network_mut().infer_ctx(&x, &serial));
        });
        m.put("scneural.local_exit_ns_per_frame", local_ns / frames);
        m.put("scneural.full_net_ns_per_frame", full_ns / frames);
        m.put(
            "scneural.server_part_ns_per_frame",
            (full_ns - local_ns) / frames,
        );

        // Stand-alone copies of the classifier's three convolutions and two
        // heads (same shapes and seeds, untrained), each fed the activations
        // the one before it produces from a real batch.
        let (half, quarter) = (SIDE / 2, SIDE / 4);
        let relu = Relu::new();
        let conv1 = Conv2d::new(1, 6, 3, 2, 1, MODEL_SEED);
        let conv2 = Conv2d::new(6, 12, 3, 2, 1, MODEL_SEED + 2);
        let conv3 = Conv2d::new(12, 12, 3, 1, 1, MODEL_SEED + 3);
        let x2 = relu.infer(&conv1.infer(&x));
        let x3 = relu.infer(&conv2.infer(&x2));
        let x4 = relu.infer(&conv3.infer(&x3));
        for (name, conv, input) in [
            ("scneural.conv1_ns_per_frame", &conv1, &x),
            ("scneural.conv2_ns_per_frame", &conv2, &x2),
            ("scneural.conv3_ns_per_frame", &conv3, &x3),
        ] {
            let (ns, _) = time_for(slice, 1, || {
                black_box(conv.infer(input));
            });
            m.put(name, ns / frames);
        }
        let flatten = Flatten::new();
        let exit_head = Dense::new(6 * half * half, CLASSES, MODEL_SEED + 1);
        let final_head = Dense::new(12 * quarter * quarter, CLASSES, MODEL_SEED + 4);
        let (heads_ns, _) = time_for(slice, 1, || {
            black_box(exit_head.infer(&flatten.infer(&x2)));
            black_box(final_head.infer(&flatten.infer(&x4)));
        });
        m.put("scneural.dense_head_ns_per_frame", heads_ns / frames);

        let mut rng = SeededRng::new(self.seed ^ 0xCA);
        let mut operand = |shape: Vec<usize>| {
            let n = shape.iter().product();
            // Half zeros, like a post-ReLU feature map.
            let data = (0..n)
                .map(|_| (rng.next_f64() as f32 - 0.5).max(0.0))
                .collect();
            Tensor::from_vec(shape, data).expect("sized above")
        };
        // conv2 as the matmul it lowers to: [64·8·8, 6·3·3] × [54, 12].
        let (rows, k, n) = (BATCH * quarter * quarter, 6 * 3 * 3, 12);
        let flops = (2 * rows * k * n) as f64;
        let a = operand(vec![rows, k]);
        let b = operand(vec![k, n]);
        let (mm_ns, _) = time_for(slice, 1, || {
            black_box(a.matmul_ctx(&b, &serial).expect("shapes agree"));
        });
        m.put("scneural.im2col_matmul_gflops", flops / mm_ns);

        // scsimd: the same shape as one panel, native against scalar.
        let mut out = vec![0.0f32; rows * n];
        let native = Isa::detect_native();
        let mut panel = |isa: Isa| {
            time_for(slice, 1, || {
                out.fill(0.0);
                scsimd::matmul_panel_f32(a.data(), b.data(), k, n, &mut out, isa);
                black_box(&mut out);
            })
            .0
        };
        let (native_ns, scalar_ns) = (panel(native), panel(Isa::Scalar));
        m.put("scsimd.matmul_panel_f32_gflops", flops / native_ns);
        m.put("scsimd.matmul_native_over_scalar", scalar_ns / native_ns);
        let mut map = operand(vec![BATCH * 6 * half * half]).data().to_vec();
        let (relu_ns, _) = time_for(slice, 1, || {
            scsimd::relu_f32(&mut map, native);
            black_box(&mut map);
        });
        m.put("scsimd.relu_melem_per_s", map.len() as f64 / relu_ns * 1e3);

        // scprof: deterministic work counts of one full-network batch. A
        // net reports its layers' work to its own telemetry handle, not the
        // context's, so the stand-alone layers above are assembled into the
        // classifier's two paths with a profiler attached.
        let profiler = Profiler::shared();
        let server_path = Sequential::new()
            .with(conv1)
            .with(Relu::new())
            .with(conv2)
            .with(Relu::new())
            .with(conv3)
            .with(Relu::new())
            .with(Flatten::new())
            .with(final_head)
            .with_telemetry(profiler.handle());
        let local_exit = Sequential::new()
            .with(Flatten::new())
            .with(exit_head)
            .with_telemetry(profiler.handle());
        black_box((server_path.infer(&x), local_exit.infer(&x2)));
        let work = profiler.report().total;
        m.put("scprof.flops_per_frame", work.flops as f64 / frames);
        // Computed from tensor sizes by the layers' work accounting, not
        // measured on a memory bus.
        m.put("scprof.bytes_per_frame", work.bytes as f64 / frames);
        m.put("scneural.achieved_gflops", work.flops as f64 / full_ns);

        // scpar: the full network on the pool against serial.
        if self.threads > 1 {
            let pooled = ExecCtx::serial().with_par(ScparConfig::with_threads(self.threads));
            let (pooled_ns, _) = time_for(slice, 1, || {
                black_box(classifier.network_mut().infer_ctx(&x, &pooled));
            });
            m.put("scpar.speedup_2t", full_ns / pooled_ns);
        }
        Ok((m, trace))
    }
}

/// What `VehicleClassifier::classify` does, with `probe` around its two
/// calls.
fn replay<P: Probe>(
    net: &mut EarlyExitNet,
    batch: &[Frame],
    ctx: &ExecCtx,
    probe: &mut P,
) -> Vec<ExitDecision> {
    let x = probe.time(TO_TENSOR, || frames_to_tensor(batch));
    probe.time(FULL_NET, || net.infer_ctx(&x, ctx))
}

const TO_TENSOR: usize = 0;
const FULL_NET: usize = 1;

static OPS: [OpDef; 2] = [
    OpDef {
        layer: "smartcity-core",
        name: "smartcity-core.frames_to_tensor",
    },
    OpDef {
        layer: "scneural",
        name: "scneural.infer_ctx",
    },
];
