//! Scalar reference kernels — the bit-level ground truth for every
//! vector backend.
//!
//! The transcendentals are polynomial range-reduction kernels built only
//! from operations whose vector counterparts are IEEE-754-exact per lane:
//! multiply, add, subtract, divide, min/max, round-to-nearest-even (via
//! int conversion), and exponent-bit assembly. A vector lane replaying
//! the operation sequence written here lands on exactly the same bits,
//! which is what lets one golden set cover every ISA.
//!
//! Coefficients follow the classic Cephes single-precision `expf` /
//! `tanhf` kernels — the same lineage wasnn-vecmath uses — with measured
//! worst-case error ≤ 2 ULP (`exp`) and ≤ 3 ULP (`sigmoid`, `tanh`)
//! versus a correctly rounded f64 reference (enforced in `tests/ulp.rs`).

// The Cephes coefficients are written with their full decimal expansions
// so the exact bit patterns shared with the vector backends stay visible;
// trimming digits (as clippy suggests) would obscure that contract.
#![allow(clippy::excessive_precision)]

/// Inputs below this are clamped before exponentiation; `exp(EXP_LO)` is
/// on the order of the smallest normal f32.
pub const EXP_LO: f32 = -87.336_55;

/// Inputs above this are clamped before exponentiation, keeping the
/// scaled exponent within the normal range (no infinity from the
/// exponent-bit assembly).
pub const EXP_HI: f32 = 88.376_26;

const LOG2E: f32 = std::f32::consts::LOG2_E;
// ln(2) split hi/lo so `x - n*ln2` stays accurate without FMA.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;

const EXP_C5: f32 = 1.987_569_2e-4;
const EXP_C4: f32 = 1.398_2e-3;
const EXP_C3: f32 = 8.333_452e-3;
const EXP_C2: f32 = 4.166_579_6e-2;
const EXP_C1: f32 = 1.666_666_6e-1;
const EXP_C0: f32 = 5.000_000_3e-1;

const TANH_P0: f32 = -5.704_988_7e-3;
const TANH_P1: f32 = 2.063_908_9e-2;
const TANH_P2: f32 = -5.373_971_6e-2;
const TANH_P3: f32 = 1.333_144_2e-1;
const TANH_P4: f32 = -3.333_328_2e-1;

/// Below this magnitude `tanh` uses the odd polynomial; above, the
/// exp-based identity (the Cephes split point).
pub const TANH_SMALL: f32 = 0.625;

/// Polynomial `exp` with inputs clamped to `[EXP_LO, EXP_HI]`.
///
/// Algorithm: `n = round(x·log2 e)` (round half to even), `r = x − n·ln 2`
/// via a hi/lo split, degree-7 polynomial for `exp(r)`, then scaling by
/// `2^n` assembled directly into the exponent bits. Every step is a
/// plain IEEE op — no FMA, no table lookups — so vector lanes reproduce
/// it exactly.
#[inline]
// Not `clamp`: `min(HI).max(LO)` maps NaN to a bound (the semantics the
// AVX2 `min_ps`/`max_ps` sequence reproduces), while `clamp` returns NaN.
#[allow(clippy::manual_clamp)]
pub fn exp(x: f32) -> f32 {
    let x = x.min(EXP_HI).max(EXP_LO);
    // Round-to-nearest-even, matching the vector int-conversion rounding.
    let n = (x * LOG2E).round_ties_even();
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_C5;
    p = p * r + EXP_C4;
    p = p * r + EXP_C3;
    p = p * r + EXP_C2;
    p = p * r + EXP_C1;
    p = p * r + EXP_C0;
    let e = p * (r * r) + r + 1.0;
    // 2^n for n in [-126, 127]: exponent bits only, mantissa zero.
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    e * scale
}

/// Logistic sigmoid `1 / (1 + exp(−x))` on the polynomial [`exp`].
///
/// Saturates cleanly at both ends thanks to the `exp` clamp: large
/// positive inputs return exactly `1.0`, large negative inputs a
/// positive value on the order of the smallest normal.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Polynomial `tanh`.
///
/// `|x| < TANH_SMALL` uses the odd polynomial `x + x³·P(x²)` (no
/// cancellation near zero); larger magnitudes use
/// `1 − 2/(exp(2|x|) + 1)` with the sign reapplied bitwise. The vector
/// kernels evaluate both paths and blend, which selects exactly the
/// value the taken scalar branch computes.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let sign = x.to_bits() & 0x8000_0000;
    let r = if ax < TANH_SMALL {
        let s = ax * ax;
        let mut p = TANH_P0;
        p = p * s + TANH_P1;
        p = p * s + TANH_P2;
        p = p * s + TANH_P3;
        p = p * s + TANH_P4;
        (p * s) * ax + ax
    } else {
        let e = exp(ax + ax);
        1.0 - 2.0 / (e + 1.0)
    };
    f32::from_bits(r.to_bits() | sign)
}

/// Row-wise numerically stable softmax over a row-major buffer; the
/// scalar form of [`crate::softmax_rows_f32`].
///
/// Per row: order-independent max scan, `exp(x − max)` per element, a
/// **strictly element-ordered** normalizing sum (the one reduction whose
/// order matters for bits), then an element-wise divide.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    for row in data.chunks_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in row.iter_mut() {
            *x = exp(*x - max);
        }
        let mut sum = 0.0f32;
        for &x in row.iter() {
            sum += x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Scalar f32 matmul panel: ascending-`k` multiply-adds into each output
/// element, skipping `a` entries that are exactly `0.0` (the fast path
/// for one-hot and padded inputs). This operation sequence is the
/// contract every vector backend reproduces.
pub fn matmul_panel_f32(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = a.len() / k;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_exact_points() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!((exp(1.0) - std::f32::consts::E).abs() < 1e-6);
        assert!(exp(EXP_HI).is_finite());
        assert!(exp(1000.0).is_finite(), "clamped, never inf");
        assert!(exp(-1000.0) > 0.0, "clamped, never zero");
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(100.0), 1.0);
        assert!(sigmoid(-100.0) > 0.0 && sigmoid(-100.0) < 1e-30);
        for i in -50..=50 {
            let x = i as f32 * 0.3;
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn tanh_odd_and_saturating() {
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(20.0), 1.0);
        assert_eq!(tanh(-20.0), -1.0);
        for i in 1..60 {
            let x = i as f32 * 0.17;
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "odd at {x}");
        }
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut data = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut data, 3);
        for row in data.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut data = vec![1000.0f32, 0.0];
        softmax_rows(&mut data, 2);
        assert!((data[0] - 1.0).abs() < 1e-6);
        assert!(data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn panel_matches_naive_triple_loop() {
        let (rows, k, n) = (3, 5, 7);
        let a: Vec<f32> = (0..rows * k).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.1 - 1.5).collect();
        let mut got = vec![0.0f32; rows * n];
        matmul_panel_f32(&a, &b, k, n, &mut got);
        let mut want = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                for p in 0..k {
                    want[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        assert_eq!(got, want);
    }
}
