//! Accuracy and bit-stability proptests for the scsimd kernels.
//!
//! Two families of properties:
//!
//! 1. **ULP bounds** — the polynomial kernels stay within the documented
//!    worst-case distance of a correctly rounded reference (computed in
//!    f64, then rounded once to f32).
//! 2. **Bit-identity** — the native backend (AVX2 where the host has it)
//!    produces exactly the scalar reference's bits for every kernel,
//!    which is the contract that lets one golden set cover every ISA.

use proptest::prelude::*;
use scsimd::{scalar, ulp_diff_f32, Isa};

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

    // Every width up to two full tiles and a tail: each count of whole
    // tiles, whole vectors and masked tail lanes occurs.
    #[test]
    fn matmul_f32_bit_identical_across_isas(
        rows in 1usize..5,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5;
            // Sprinkle exact zeros to exercise the zero-skip path.
            if v.abs() < 0.05 { 0.0 } else { v * 4.0 }
        };
        for n in 1..=72 {
            let a: Vec<f32> = (0..rows * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let mut out_s = vec![0.25f32; rows * n];
            let mut out_v = out_s.clone();
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_s, Isa::Scalar);
            scsimd::matmul_panel_f32(&a, &b, k, n, &mut out_v, Isa::detect_native());
            prop_assert_eq!(bits(&out_s), bits(&out_v), "n = {}", n);
        }
    }

    #[test]
    fn matmul_f64_bit_identical_across_isas(
        rows in 1usize..5,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 40) as f64 / (1u32 << 24) as f64 - 0.5;
            if v.abs() < 0.05 { 0.0 } else { v * 4.0 }
        };
        for n in 1..=40 {
            let a: Vec<f64> = (0..rows * k).map(|_| next()).collect();
            let b: Vec<f64> = (0..k * n).map(|_| next()).collect();
            let mut out_s = vec![0.5f64; rows * n];
            let mut out_v = out_s.clone();
            scsimd::matmul_panel_f64(&a, &b, k, n, &mut out_s, Isa::Scalar);
            scsimd::matmul_panel_f64(&a, &b, k, n, &mut out_v, Isa::detect_native());
            let bs: Vec<u64> = out_s.iter().map(|x| x.to_bits()).collect();
            let bv: Vec<u64> = out_v.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(bs, bv, "n = {}", n);
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
