//! Execution context shared by every inference kernel.
//!
//! The context bundles all execution policy in one cheap, cloneable
//! value:
//!
//! * **Parallelism** — the [`scpar::ScparConfig`] a batch fans out on.
//! * **Telemetry** — the [`sctelemetry::TelemetryHandle`] kernels record
//!   work deltas to when enabled.
//!
//! The SIMD backend is not part of it: every kernel dispatches on the
//! process-wide [`scsimd::Isa::active`] (which honours `SCSIMD_FORCE`), so a
//! whole stack runs on one ISA.
//!
//! Each kernel has exactly one context-taking entry point
//! ([`crate::Tensor::matmul_ctx`], [`crate::Sequential::predict_ctx`], …).
//! A product is one task on the calling thread; what fans out is a batch
//! of independent rows.
//!
//! The determinism contract: results are byte-identical for any thread
//! count **and any ISA** (scsimd's strict profile), so both fields of the
//! context are pure performance/observability knobs. A fan-out takes its
//! task size from [`scpar::ScparConfig::task_size`] — one task per
//! worker — which only decides which independent rows share an scpar
//! task, never the per-element operation order; kernels keep their work
//! *accounting* on nominal panels and rows, so recorded telemetry is
//! byte-identical at any thread count too.
//!
//! # Examples
//!
//! ```
//! use scneural::exec::ExecCtx;
//! use scneural::tensor::Tensor;
//!
//! let ctx = ExecCtx::from_env(); // SCPAR_THREADS
//! let a = Tensor::full(vec![4, 4], 1.0);
//! let b = Tensor::full(vec![4, 4], 2.0);
//! let c = a.matmul_ctx(&b, &ctx)?;
//! assert!(c.data().iter().all(|&x| x == 8.0));
//! # Ok::<(), scneural::tensor::TensorError>(())
//! ```
//!
//! Same bits on two workers as on one — only the schedule differs:
//!
//! ```
//! use scneural::exec::ExecCtx;
//! use scneural::layers::Dense;
//! use scneural::net::Sequential;
//! use scneural::tensor::Tensor;
//!
//! let two = ExecCtx::serial().with_par(scpar::ScparConfig::with_threads(2));
//! let net = Sequential::new().with(Dense::new(16, 4, 7));
//! let batch = Tensor::ones(vec![64, 16]);
//! let fanned_out = net.predict_ctx(&batch, &two);
//! let serial = net.predict_ctx(&batch, &ExecCtx::serial());
//! assert_eq!(fanned_out.data(), serial.data());
//! ```

/// Bundled execution policy for inference kernels: parallelism and
/// telemetry.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    par: scpar::ScparConfig,
    telemetry: sctelemetry::TelemetryHandle,
}

impl Default for ExecCtx {
    /// Same as [`ExecCtx::serial`].
    fn default() -> Self {
        ExecCtx::serial()
    }
}

impl ExecCtx {
    /// Serial execution, disabled telemetry — the context equivalent of
    /// the plain `matmul` / `predict` methods.
    pub fn serial() -> Self {
        ExecCtx {
            par: scpar::ScparConfig::serial(),
            telemetry: sctelemetry::TelemetryHandle::disabled(),
        }
    }

    /// Environment-driven context: `SCPAR_THREADS` for parallelism,
    /// telemetry disabled.
    pub fn from_env() -> Self {
        ExecCtx {
            par: scpar::ScparConfig::from_env(),
            telemetry: sctelemetry::TelemetryHandle::disabled(),
        }
    }

    /// Replaces the parallelism config.
    pub fn with_par(mut self, par: scpar::ScparConfig) -> Self {
        self.par = par;
        self
    }

    /// Replaces the telemetry handle.
    pub fn with_telemetry(mut self, telemetry: sctelemetry::TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The parallelism config.
    pub fn par(&self) -> &scpar::ScparConfig {
        &self.par
    }

    /// The telemetry handle.
    pub fn telemetry(&self) -> &sctelemetry::TelemetryHandle {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ctx_is_serial_and_silent() {
        let ctx = ExecCtx::serial();
        assert!(!ctx.par().is_parallel());
        assert!(!ctx.telemetry().is_enabled());
    }

    #[test]
    fn builders_replace_fields() {
        let recorder = sctelemetry::Telemetry::shared();
        let ctx = ExecCtx::serial()
            .with_par(scpar::ScparConfig::with_threads(4))
            .with_telemetry(recorder.handle());
        assert!(ctx.par().is_parallel());
        assert!(ctx.telemetry().is_enabled());
    }

    #[test]
    fn default_is_usable() {
        let ctx = ExecCtx::default();
        assert!(!ctx.telemetry().is_enabled());
    }
}
