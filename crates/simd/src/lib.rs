//! # scsimd — portable SIMD kernels with runtime ISA dispatch
//!
//! The vectorized substrate under scneural's inference kernels (ROADMAP
//! open item 1, modelled after rten's `rten-simd` trait dispatch and
//! wasnn-vecmath's bounded-error transcendentals): the blocked f32 matmul
//! panel and the `exp` / `sigmoid` / `tanh` / `softmax` family, each
//! available as an AVX2 (x86_64) or scalar kernel selected at runtime by
//! [`Isa`] — the two backends CI builds and holds to the same bits. Every
//! other host runs the scalar kernels. Every kernel is f32: the small f64
//! algebra under CCA (scneural's `linalg`) is a plain scalar loop.
//!
//! ## The strict profile: bits first, speed second
//!
//! The repository's headline guarantee is byte-identical results at any
//! `SCPAR_THREADS`, gated by committed goldens. scsimd extends that
//! guarantee across ISAs instead of weakening it:
//!
//! * **Matmul panels** vectorize across the *output column* dimension and
//!   accumulate with separate multiply and add (no FMA contraction).
//!   Every output element therefore sees exactly the IEEE-754
//!   operation sequence of the scalar reference — ascending-`k`
//!   multiply-adds with the same zero-skip — so the AVX2 and scalar
//!   kernels agree bit for bit. Register blocks of 4 rows × 16 columns
//!   buy the speedup (each `b` vector is loaded once for four rows, and
//!   eight accumulators run side by side), which changes no arithmetic.
//!   Under blocking the zero-skip is decided once per block of rows: a
//!   block whose `a` entries hold no `±0.0` — always conv's filter rows —
//!   runs plain multiply-adds, broadcasting each `a` entry from memory. A
//!   block with a zero decides per step of `k`: a step where none of its
//!   four `a` entries is `0.0` is plain multiply-adds; at any other step
//!   every lane computes `acc + a·b`, and the rows whose `a` entry is
//!   `±0.0` keep `acc`. Either way a NaN `a` is computed, as the scalar
//!   `av == 0.0` test computes it. The 1–3 rows after the last whole block
//!   are one shorter block by the same kernel; for a lone row with a zero
//!   that is one branch per entry, as in the scalar loop.
//! * **NaN is the exception.** Every backend produces NaN in the same
//!   outputs, but not always with the same sign and payload: IEEE 754
//!   leaves open which NaN an operation on two NaNs returns. "Bit-identical"
//!   is about every output that is not NaN, and `tests/ulp.rs` compares
//!   NaN as NaN.
//! * **Transcendentals** are polynomial range-reduction kernels
//!   ([`scalar::exp`] and friends) built only from operations whose
//!   vector forms are IEEE-exact per lane (mul/add/sub/div/min/max,
//!   round-to-nearest-even, exponent-bit assembly). The vector kernels
//!   replay the identical operation sequence lane-wise, so they are
//!   bit-identical to the scalar reference — there are no per-ISA
//!   goldens to pin; one golden set is valid for every backend.
//!
//! The consequence: `SCSIMD_FORCE=scalar` and `SCSIMD_FORCE=native` must
//! produce byte-identical artifacts, and CI runs the suite under both to
//! prove it.
//!
//! ## Accuracy policy
//!
//! Versus a correctly rounded (f64-computed) reference, the polynomial
//! kernels carry documented worst-case error bounds, enforced by proptests
//! in `tests/ulp.rs`:
//!
//! | kernel            | max ULP vs correctly rounded | domain            |
//! |-------------------|------------------------------|-------------------|
//! | [`scalar::exp`]     | ≤ 2                          | clamped to [[`scalar::EXP_LO`], [`scalar::EXP_HI`]] |
//! | [`scalar::sigmoid`] | ≤ 3                          | \|x\| ≤ 87 (saturates monotonically outside) |
//! | [`scalar::tanh`]    | ≤ 3                          | all finite f32    |
//! | softmax           | rows sum to 1 within 16 ULP  | non-NaN rows      |
//!
//! ## Dispatch
//!
//! ```
//! use scsimd::Isa;
//!
//! let isa = Isa::active(); // honors SCSIMD_FORCE, else detects the host
//! let mut xs = vec![0.0f32, 1.0, -2.0];
//! scsimd::exp_f32(&mut xs, isa);
//! assert!((xs[1] - std::f32::consts::E).abs() < 1e-6);
//! ```

// One kernel, one function: a backend that needs a longer body is two kernels.
#![warn(clippy::too_many_lines)]

use std::sync::OnceLock;

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Env var forcing the dispatched ISA: `scalar`, `native`, `avx2`.
///
/// `native` (and unset) means "best ISA the host supports". Forcing an ISA
/// the host cannot execute falls back to [`Isa::Scalar`] — a safe,
/// deterministic choice — rather than faulting.
const FORCE_ENV: &str = "SCSIMD_FORCE";

/// An instruction-set backend for the kernels in this crate.
///
/// All backends are bit-identical under the strict profile (see the crate
/// docs), so the choice is a pure performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar reference kernels ([`scalar`]).
    Scalar,
    /// 256-bit AVX2 kernels (x86_64; 8 × f32 lanes).
    Avx2,
}

impl Isa {
    /// The best ISA the host actually supports.
    pub fn detect_native() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }

    /// The process-wide ISA: `SCSIMD_FORCE` if set (unsupported or unknown
    /// values fall back to [`Isa::Scalar`]), otherwise
    /// [`Isa::detect_native`]. Cached after the first call.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| Isa::resolve(std::env::var(FORCE_ENV).ok().as_deref()))
    }

    /// What a [`FORCE_ENV`] value (`None`: unset) selects on this host.
    fn resolve(forced: Option<&str>) -> Isa {
        match forced.map(str::to_ascii_lowercase).as_deref() {
            None | Some("" | "native") => Isa::detect_native(),
            Some("avx2") if Isa::detect_native() == Isa::Avx2 => Isa::Avx2,
            Some(_) => Isa::Scalar,
        }
    }

    /// A short stable name for logs and bench tables.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Whether this ISA can run on the current host.
    fn is_supported(self) -> bool {
        self == Isa::Scalar || self == Isa::detect_native()
    }
}

/// Guards an ISA request against the host: anything the host cannot run
/// degrades to [`Isa::Scalar`] so every call site is safe by construction.
fn usable(isa: Isa) -> Isa {
    if isa.is_supported() {
        isa
    } else {
        Isa::Scalar
    }
}

// ---------------------------------------------------------------------------
// Element-wise transcendentals (in place)
// ---------------------------------------------------------------------------

/// In-place vectorized `exp` over a slice. Bit-identical to mapping
/// [`scalar::exp`] on every backend.
pub fn exp_f32(xs: &mut [f32], isa: Isa) {
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::exp_slice(xs) },
        _ => {
            for x in xs {
                *x = scalar::exp(*x);
            }
        }
    }
}

/// In-place vectorized logistic sigmoid. Bit-identical to mapping
/// [`scalar::sigmoid`] on every backend.
pub fn sigmoid_f32(xs: &mut [f32], isa: Isa) {
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::sigmoid_slice(xs) },
        _ => {
            for x in xs {
                *x = scalar::sigmoid(*x);
            }
        }
    }
}

/// In-place vectorized `tanh`. Bit-identical to mapping [`scalar::tanh`]
/// on every backend.
pub fn tanh_f32(xs: &mut [f32], isa: Isa) {
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::tanh_slice(xs) },
        _ => {
            for x in xs {
                *x = scalar::tanh(*x);
            }
        }
    }
}

/// In-place vectorized `x > 0 ? x : 0`, so `-0.0` and NaN map to `+0.0`.
/// Bit-identical on every backend.
pub fn relu_f32(xs: &mut [f32], isa: Isa) {
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::relu_slice(xs) },
        _ => {
            for x in xs {
                // Not `x.max(0.0)`: which zero an equal-zero `max` returns
                // is unspecified, and a debug build returns `-0.0`.
                *x = if *x > 0.0 { *x } else { 0.0 };
            }
        }
    }
}

/// In-place row-wise numerically stable softmax over a `rows × cols`
/// row-major buffer (`data.len()` must be a multiple of `cols`).
///
/// The max scan and the per-element `exp` are vectorized; the
/// normalizing sum is accumulated **in element order on every backend**,
/// which is what keeps scalar and SIMD outputs bit-identical (a lane-wise
/// horizontal sum would reassociate the additions).
///
/// # Panics
///
/// Panics if `cols == 0` while `data` is non-empty, or if `data.len()`
/// is not a multiple of `cols`.
pub fn softmax_rows_f32(data: &mut [f32], cols: usize, isa: Isa) {
    if data.is_empty() {
        return;
    }
    assert!(cols > 0, "softmax over zero columns");
    assert_eq!(data.len() % cols, 0, "buffer is not whole rows");
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::softmax_rows(data, cols) },
        _ => scalar::softmax_rows(data, cols),
    }
}

// ---------------------------------------------------------------------------
// Matmul panels
// ---------------------------------------------------------------------------

/// Accumulates an f32 row panel `a` (`rows × k`, `rows = a.len() / k`)
/// times `b` (`k × n`) into `out` (`rows × n`).
///
/// Semantics on every backend: for each output element, ascending-`k`
/// multiply-adds with entries of `a` equal to `0.0` (either sign) skipped —
/// the operation sequence of the classic ikj loop — so results are
/// bit-identical across ISAs wherever they are not NaN. The AVX2 kernel
/// computes blocks of 4 rows × 16 columns in registers and scans each
/// block's `a` for `±0.0` once: a block without one (conv's filter rows)
/// runs plain multiply-adds, a block with one blends the skip in per step
/// of `k` (see the crate docs).
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `k` and `n`.
pub fn matmul_panel_f32(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32], isa: Isa) {
    check_panel(a.len(), b.len(), out.len(), k, n);
    if k == 0 || n == 0 {
        return;
    }
    match usable(isa) {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::matmul_panel_f32(a, b, k, n, out) },
        _ => scalar::matmul_panel_f32(a, b, k, n, out),
    }
}

fn check_panel(a_len: usize, b_len: usize, out_len: usize, k: usize, n: usize) {
    if k == 0 {
        assert_eq!(a_len, 0, "k = 0 requires an empty panel");
        return;
    }
    assert_eq!(a_len % k, 0, "panel is not whole rows of width k");
    assert_eq!(b_len, k * n, "b must be k × n");
    assert_eq!(out_len, (a_len / k) * n, "out must be rows × n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_native_is_supported() {
        assert!(Isa::detect_native().is_supported());
        assert!(Isa::Scalar.is_supported());
    }

    #[test]
    fn active_is_stable() {
        assert_eq!(Isa::active(), Isa::active());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
    }

    #[test]
    fn force_env_values_resolve() {
        let native = Isa::detect_native();
        for unforced in [None, Some(""), Some("native"), Some("NATIVE")] {
            assert_eq!(Isa::resolve(unforced), native, "{unforced:?}");
        }
        assert_eq!(Isa::resolve(Some("scalar")), Isa::Scalar);
        // Forcing AVX2 on a host without it is the scalar kernels, not a fault.
        assert_eq!(Isa::resolve(Some("avx2")), native);
        assert_eq!(Isa::resolve(Some("AVX2")), native);
        for unknown in ["neon", "garbage"] {
            assert_eq!(Isa::resolve(Some(unknown)), Isa::Scalar, "{unknown}");
        }
    }

    #[test]
    fn native_matches_scalar_on_all_ops() {
        // The strict-profile contract, checked directly on this host.
        let native = Isa::detect_native();
        let xs: Vec<f32> = (-40..40).map(|i| i as f32 * 0.37).collect();

        let mut a = xs.clone();
        let mut b = xs.clone();
        exp_f32(&mut a, Isa::Scalar);
        exp_f32(&mut b, native);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "exp must be bit-identical across ISAs"
        );

        let mut a = xs.clone();
        let mut b = xs.clone();
        tanh_f32(&mut a, Isa::Scalar);
        tanh_f32(&mut b, native);
        assert_eq!(a, b, "tanh must be bit-identical across ISAs");

        let mut a = xs.clone();
        let mut b = xs.clone();
        sigmoid_f32(&mut a, Isa::Scalar);
        sigmoid_f32(&mut b, native);
        assert_eq!(a, b, "sigmoid must be bit-identical across ISAs");

        let mut a = xs.clone();
        let mut b = xs.clone();
        softmax_rows_f32(&mut a, 8, Isa::Scalar);
        softmax_rows_f32(&mut b, 8, native);
        assert_eq!(a, b, "softmax must be bit-identical across ISAs");
    }

    #[test]
    fn panel_shape_checks() {
        let a = vec![0.0f32; 6];
        let b = vec![0.0f32; 6];
        let mut out = vec![0.0f32; 4];
        matmul_panel_f32(&a, &b, 3, 2, &mut out, Isa::Scalar);
        assert_eq!(out, vec![0.0; 4]);
        // k = 0 with empty slices is a no-op.
        matmul_panel_f32(&[], &[], 0, 2, &mut [], Isa::Scalar);
    }

    #[test]
    #[should_panic(expected = "b must be k × n")]
    fn panel_rejects_bad_b() {
        let a = vec![0.0f32; 4];
        let b = vec![0.0f32; 3];
        let mut out = vec![0.0f32; 4];
        matmul_panel_f32(&a, &b, 2, 2, &mut out, Isa::Scalar);
    }
}
