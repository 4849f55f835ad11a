//! Accuracy and bit-stability proptests for the scsimd kernels.
//!
//! Two families of properties:
//!
//! 1. **ULP bounds** — the polynomial kernels stay within the documented
//!    worst-case distance of a correctly rounded reference (computed in
//!    f64, then rounded once to f32).
//! 2. **Bit-identity** — the native backend (AVX2 where the host has it)
//!    produces exactly the scalar reference's bits for every kernel,
//!    which is the contract that lets one golden set cover every ISA. A
//!    NaN output is compared as NaN (see [`bits_nan_as_nan`]).

use proptest::prelude::*;
use scsimd::{scalar, Isa};

/// Distance in units-in-the-last-place between two finite f32 values
/// (`u32::MAX` if either is NaN). Adjacent floats are 1 apart; equal
/// values (including `+0.0` vs `-0.0`) are 0 apart.
fn ulp_diff_f32(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    // Map the float line onto a monotone integer line (sign-magnitude to
    // offset encoding), then take the absolute difference.
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        let k = if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        };
        k as i64
    }
    let d = (key(a) - key(b)).unsigned_abs();
    u32::try_from(d).unwrap_or(u32::MAX)
}

#[test]
fn ulp_distance_basics() {
    assert_eq!(ulp_diff_f32(1.0, 1.0), 0);
    assert_eq!(ulp_diff_f32(0.0, -0.0), 0);
    assert_eq!(ulp_diff_f32(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
    assert_eq!(ulp_diff_f32(f32::NAN, 1.0), u32::MAX);
    // Straddling zero: smallest positive and negative subnormals are
    // two ULPs apart (one step to ±0 each).
    assert_eq!(ulp_diff_f32(f32::from_bits(1), -f32::from_bits(1)), 2);
}

/// Correctly rounded f32 exp: evaluate in f64, round once.
fn exp_ref(x: f32) -> f32 {
    (x as f64).exp() as f32
}

fn sigmoid_ref(x: f32) -> f32 {
    (1.0 / (1.0 + (-(x as f64)).exp())) as f32
}

fn tanh_ref(x: f32) -> f32 {
    (x as f64).tanh() as f32
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`], with every NaN read as one value. The panels agree on which
/// outputs are NaN, but not on a NaN's sign and payload: IEEE 754 leaves
/// open which NaN an operation on two NaNs returns, x86 returns its first
/// operand, and the compiler may commute the scalar reference's `o + a·b`.
/// (A 1-row product with inf inputs read `0xffc00000` on the scalar
/// reference and `0x7fc00000` on AVX2.) "Bit-identical" is about every
/// output that is not NaN.
fn bits_nan_as_nan(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// A seeded stream of panel operands.
struct Lcg(u64);

impl Lcg {
    /// 24 random bits.
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    /// Uniform in `[-2, 2)`.
    fn finite(&mut self) -> f32 {
        (self.next() as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
    }

    fn nonzero(&mut self) -> f32 {
        let v = self.finite();
        if v == 0.0 {
            1.0
        } else {
            v
        }
    }

    fn signed_zero(&mut self) -> f32 {
        if self.below(2) == 0 {
            0.0
        } else {
            -0.0
        }
    }

    /// An entry of an `a` row of `kind` 0 (no zero), 1 (a half zeros of
    /// either sign) or 2 (all zeros). A non-zero entry may be NaN or ±inf,
    /// which the zero-skip must compute.
    fn a_entry(&mut self, kind: u32) -> f32 {
        match kind {
            0 => self.special_or(Self::nonzero),
            1 if self.below(2) == 0 => self.signed_zero(),
            1 => self.special_or(Self::nonzero),
            _ => self.signed_zero(),
        }
    }

    fn b_entry(&mut self) -> f32 {
        self.special_or(Self::finite)
    }

    /// A NaN, `+inf` or `-inf` one time in twenty-one, else `value`.
    fn special_or(&mut self, value: fn(&mut Self) -> f32) -> f32 {
        match self.below(64) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => value(self),
        }
    }

    /// What `out` holds before the product is added: `±0.0` or finite.
    fn out_entry(&mut self) -> f32 {
        match self.below(3) {
            0 => self.signed_zero(),
            _ => self.finite(),
        }
    }
}

proptest! {
    #[test]
    fn exp_within_2_ulp(x in scalar::EXP_LO..scalar::EXP_HI) {
        let got = scalar::exp(x);
        let want = exp_ref(x);
        prop_assert!(
            ulp_diff_f32(got, want) <= 2,
            "exp({x}) = {got} vs {want}: {} ulp", ulp_diff_f32(got, want)
        );
    }

    #[test]
    fn sigmoid_within_3_ulp(x in -87.0f32..87.0) {
        // Beyond |x| ≈ 87.3 the exp clamp saturates the output into the
        // subnormal range (checked separately in `sigmoid_tail_saturates`);
        // the ULP bound holds on the normal-result domain.
        let got = scalar::sigmoid(x);
        let want = sigmoid_ref(x);
        prop_assert!(
            ulp_diff_f32(got, want) <= 3,
            "sigmoid({x}) = {got} vs {want}: {} ulp", ulp_diff_f32(got, want)
        );
    }

    #[test]
    fn tanh_within_3_ulp(x in -20.0f32..20.0) {
        let got = scalar::tanh(x);
        let want = tanh_ref(x);
        prop_assert!(
            ulp_diff_f32(got, want) <= 3,
            "tanh({x}) = {got} vs {want}: {} ulp", ulp_diff_f32(got, want)
        );
    }

    #[test]
    fn softmax_rows_sum_to_one_within_16_ulp(
        rows in 1usize..5,
        cols in 1usize..33,
        seed in any::<u64>(),
    ) {
        // Deterministic pseudo-random logits in a realistic range.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 20.0
        };
        let mut data: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
        scsimd::softmax_rows_f32(&mut data, cols, Isa::Scalar);
        for row in data.chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!(
                ulp_diff_f32(sum, 1.0) <= 16,
                "row sum {sum} is {} ulp from 1", ulp_diff_f32(sum, 1.0)
            );
            prop_assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    // ---- bit-identity: native backend vs scalar reference ----

    #[test]
    fn unary_kernels_bit_identical_across_isas(
        xs in proptest::collection::vec(-90.0f32..90.0, 0..67),
    ) {
        let native = Isa::detect_native();
        for op in [
            scsimd::exp_f32,
            scsimd::sigmoid_f32,
            scsimd::tanh_f32,
            scsimd::relu_f32,
        ] {
            let mut a = xs.clone();
            let mut b = xs.clone();
            op(&mut a, Isa::Scalar);
            op(&mut b, native);
            prop_assert_eq!(bits(&a), bits(&b), "{} differs from scalar", native.name());
        }
    }

    #[test]
    fn softmax_bit_identical_across_isas(
        rows in 1usize..4,
        cols in 1usize..41,
        lo in -30.0f32..0.0,
        hi in 0.0f32..30.0,
    ) {
        let n = rows * cols;
        let mut a: Vec<f32> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f32 / n.max(1) as f32))
            .collect();
        let mut b = a.clone();
        scsimd::softmax_rows_f32(&mut a, cols, Isa::Scalar);
        scsimd::softmax_rows_f32(&mut b, cols, Isa::detect_native());
        prop_assert_eq!(bits(&a), bits(&b));
    }

    // Rows 1..=13: no whole block, one to three whole blocks of four, and
    // every remainder after them (a shorter block of 1–3 rows). Widths
    // 1..=72: each count of whole 16-column tiles, whole vectors and masked
    // tail lanes. Every row of `a` is none-zero, mixed (both signs of
    // zero) or all-zero, so blocks of every kind occur; `b` holds NaN and
    // ±inf, and `out` starts as `-0.0`, `+0.0` and non-zero values, as
    // conv's `dW` accumulates into what it holds.
    #[test]
    fn matmul_f32_bit_identical_across_isas(
        rows in 1usize..=13,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut lcg = Lcg(seed | 1);
        for n in 1..=72 {
            let a: Vec<f32> = (0..rows)
                .flat_map(|_| {
                    let kind = lcg.below(3);
                    (0..k).map(|_| lcg.a_entry(kind)).collect::<Vec<_>>()
                })
                .collect();
            let b: Vec<f32> = (0..k * n).map(|_| lcg.b_entry()).collect();
            let mut out_s: Vec<f32> = (0..rows * n).map(|_| lcg.out_entry()).collect();
            let mut out_v = out_s.clone();
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_s, Isa::Scalar);
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_v, Isa::detect_native());
            prop_assert_eq!(bits_nan_as_nan(&out_s), bits_nan_as_nan(&out_v), "n = {}", n);
        }
    }
}

#[test]
fn exp_edge_bits() {
    // Exhaustive near the clamp edges and around zero: these regions are
    // where the exponent-bit assembly and the hi/lo reduction are most
    // fragile, so pin them with exact comparisons.
    let probes = [
        scalar::EXP_LO,
        scalar::EXP_LO + 1e-3,
        -1.0,
        -f32::MIN_POSITIVE,
        -0.0,
        0.0,
        f32::MIN_POSITIVE,
        1.0,
        scalar::EXP_HI - 1e-3,
        scalar::EXP_HI,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for &x in &probes {
        let y = scalar::exp(x);
        assert!(
            y.is_finite(),
            "exp({x}) must be finite after clamping, got {y}"
        );
        assert!(y > 0.0, "exp({x}) must be positive, got {y}");
    }
    // NaN behaves like the clamp floor (Rust min/max semantics): still
    // finite, never poisons downstream sums.
    assert!(scalar::exp(f32::NAN).is_finite());
}

#[test]
fn sigmoid_tail_saturates() {
    // Outside the ULP-bounded domain the kernel still behaves: monotone
    // saturation to exactly 1.0 on the right and a positive value on the
    // order of the smallest normal on the left — never 0, inf, or NaN.
    assert_eq!(scalar::sigmoid(100.0), 1.0);
    let left = scalar::sigmoid(-100.0);
    assert!(left > 0.0 && left < 1e-37, "got {left}");
}

#[test]
fn tanh_branch_seam_is_bit_stable() {
    // Walk a fine grid across the small/large split point; the blended
    // vector kernel must agree with the branched scalar kernel exactly.
    let native = Isa::detect_native();
    let xs: Vec<f32> = (0..2000)
        .map(|i| scalar::TANH_SMALL - 0.01 + i as f32 * 1e-5)
        .flat_map(|x| [x, -x])
        .collect();
    let mut a = xs.clone();
    let mut b = xs;
    scsimd::tanh_f32(&mut a, Isa::Scalar);
    scsimd::tanh_f32(&mut b, native);
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn relu_special_values_bit_identical_across_isas() {
    // `x > 0 ? x : +0.0` on every backend, for the values a `max` leaves to
    // the platform. Nine of each: eight through the vector body, one
    // through the scalar tail.
    let specials = [
        -0.0,
        0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        1.5,
        -1.5,
    ];
    for x in specials {
        let want = if x > 0.0 { x } else { 0.0 };
        for isa in [Isa::Scalar, Isa::detect_native()] {
            let mut xs = [x; 9];
            scsimd::relu_f32(&mut xs, isa);
            assert_eq!(bits(&xs), bits(&[want; 9]), "relu({x:?}) on {}", isa.name());
        }
    }
}

#[test]
fn a_zero_column_of_a_keeps_b_s_row_out_of_the_product() {
    // Every row of `a` is `±0.0` at p = 1 and 3, and b's rows 1 and 3 are
    // NaN and ±inf: no output may see them. Row 2 is all zeros, so its
    // outputs keep what `out` held, `-0.0` included. With no NaN to read,
    // every output must be bit-identical, at every row count (whole blocks
    // and remainders) and every width.
    let k = 5;
    for rows in 1..=13 {
        for n in 1..=72 {
            let mut lcg = Lcg((rows * 100 + n) as u64);
            let a: Vec<f32> = (0..rows * k)
                .map(|i| match (i / k, i % k) {
                    (2, _) | (_, 1 | 3) => lcg.signed_zero(),
                    _ => lcg.nonzero(),
                })
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| match (i / n, i % 3) {
                    (1 | 3, 0) => f32::NAN,
                    (1 | 3, 1) => f32::INFINITY,
                    (1 | 3, _) => f32::NEG_INFINITY,
                    _ => lcg.finite(),
                })
                .collect();
            let mut out_s: Vec<f32> = (0..rows * n).map(|_| lcg.out_entry()).collect();
            let mut out_v = out_s.clone();
            let held = out_s.clone();
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_s, Isa::Scalar);
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_v, Isa::detect_native());
            assert!(out_s.iter().all(|x| x.is_finite()), "rows {rows}, n {n}");
            assert_eq!(bits(&out_s), bits(&out_v), "rows {rows}, n {n}");
            if rows > 2 {
                let row2 = 2 * n..3 * n;
                assert_eq!(bits(&out_v[row2.clone()]), bits(&held[row2]), "n {n}");
            }
        }
    }
}

#[test]
fn one_zero_anywhere_in_a_block_routes_it_to_the_skip() {
    // The AVX2 panel scans a block's `R × k` entries of `a` for `±0.0` once
    // and runs a plain multiply-add loop when there is none. Each block
    // here holds one zero, in its last row at the last step or in its
    // first row at step 0, and `b`'s row at that step is ±inf: the skip
    // keeps `acc`, a plain loop would add `0 · inf` = NaN. A third block
    // has no zero and one NaN, which every backend computes. `R` = 1..=4
    // rows (a whole block and every shorter one), n = 8 and 16 (whole
    // tiles) and 12 and 20 (masked tails).
    for rows in 1..=4 {
        for n in [8, 12, 16, 20] {
            for k in 1..=5 {
                let last = (rows - 1) * k + k - 1;
                for (case, special) in [("last", last), ("first", 0), ("nan", last)] {
                    let mut lcg = Lcg((rows * 1000 + n * 10 + k) as u64);
                    let mut a: Vec<f32> = (0..rows * k).map(|_| lcg.nonzero()).collect();
                    a[special] = match case {
                        "nan" => f32::NAN,
                        _ => lcg.signed_zero(),
                    };
                    let step = special % k;
                    let b: Vec<f32> = (0..k * n)
                        .map(|i| match (i / n == step && case != "nan", i % 2) {
                            (true, 0) => f32::INFINITY,
                            (true, _) => f32::NEG_INFINITY,
                            _ => lcg.finite(),
                        })
                        .collect();
                    let mut out_s: Vec<f32> = (0..rows * n).map(|_| lcg.out_entry()).collect();
                    let mut out_v = out_s.clone();
                    scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_s, Isa::Scalar);
                    scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_v, Isa::detect_native());
                    let row = special / k * n..(special / k + 1) * n;
                    let want_nan = case == "nan";
                    assert!(
                        out_s[row].iter().all(|x| x.is_nan() == want_nan),
                        "{case}: rows {rows}, n {n}, k {k}"
                    );
                    assert_eq!(
                        bits_nan_as_nan(&out_s),
                        bits_nan_as_nan(&out_v),
                        "{case}: rows {rows}, n {n}, k {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn forced_scalar_env_is_safe() {
    // Whatever `Isa` a caller holds, the call is safe: one the host cannot
    // run (AVX2 without the feature, or off x86_64) degrades to scalar
    // rather than faulting. Which `SCSIMD_FORCE` names resolve to which
    // `Isa` is unit-tested beside `Isa::active`.
    let mut xs = vec![1.0f32, -1.0, 0.5];
    let mut ys = xs.clone();
    scsimd::exp_f32(&mut xs, Isa::Avx2);
    scsimd::exp_f32(&mut ys, Isa::Scalar);
    assert_eq!(bits(&xs), bits(&ys));
}
