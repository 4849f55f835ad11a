//! A caller's seam into an engine's run: one call per layer call, and the
//! phases those calls fall in.
//!
//! An engine that runs a whole stack (the city day, the Fig. 4 pipeline)
//! takes a [`Probe`] and hands it every call it makes into a layer, named
//! by the engine's own fieldless op enum, and the start and end of each
//! phase of the run. What the probe does with them — read a clock, count
//! allocations, count calls — is the caller's business: the engine owns no
//! clock, so its output cannot depend on one.
//!
//! Every method does nothing by default, and `()` is the probe that is not
//! there: `run()` on an engine is `run_observed(&mut ())`, and the calls
//! compile away.
//!
//! # Examples
//!
//! ```
//! use sctelemetry::Probe;
//!
//! #[derive(Clone, Copy)]
//! enum Op {
//!     Load,
//!     Save,
//! }
//!
//! /// Counts calls per op.
//! #[derive(Default)]
//! struct Calls([u64; 2]);
//!
//! impl Probe<Op> for Calls {
//!     fn time<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
//!         self.0[op as usize] += 1;
//!         f()
//!     }
//! }
//!
//! fn engine(p: &mut impl Probe<Op>) -> u32 {
//!     p.begin("work", None);
//!     let x = p.time(Op::Load, || 20);
//!     p.time(Op::Save, || ());
//!     p.end();
//!     x + p.time(Op::Load, || 1)
//! }
//!
//! let mut calls = Calls::default();
//! assert_eq!(engine(&mut calls), engine(&mut ()));
//! assert_eq!(calls.0, [2, 1]);
//! ```

/// Observes an engine's run; see the module docs.
///
/// `Op` is the engine's op enum: fieldless, so `op as usize` indexes the
/// engine's table of op names.
pub trait Probe<Op: Copy> {
    /// Wraps one call `f` into a layer, as operation `op`. Returns what
    /// `f` returns; calls never nest.
    #[inline(always)]
    fn time<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let _ = op;
        f()
    }

    /// Opens phase `phase` of the run (`window` numbers a repeated one).
    #[inline(always)]
    fn begin(&mut self, phase: &'static str, window: Option<u32>) {
        let _ = (phase, window);
    }

    /// Closes the phase [`Probe::begin`] opened last.
    #[inline(always)]
    fn end(&mut self) {}
}

/// No probe: every call is the bare call.
impl<Op: Copy> Probe<Op> for () {}
