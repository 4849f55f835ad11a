//! AVX2 kernels (x86_64, 256-bit registers: 8 × f32 / 4 × f64).
//!
//! Every function here replays, lane-wise, the exact operation sequence
//! of its [`crate::scalar`] counterpart — separate multiply and add, the
//! same clamp operand order (matching Rust's `min`/`max` NaN behaviour),
//! the same round-to-nearest-even reduction — so outputs are
//! bit-identical to the scalar reference. Safety: all functions are
//! `#[target_feature(enable = "avx2")]` and must only be called after
//! runtime detection (the dispatcher in `lib.rs` guarantees this).

#![allow(clippy::missing_safety_doc)] // module-private; contract stated above
#![allow(clippy::excessive_precision)] // Cephes coefficients keep their exact decimal expansions

use core::arch::x86_64::*;

use crate::scalar;

const ABS_MASK: i32 = 0x7fff_ffff;
const SIGN_MASK: u32 = 0x8000_0000;

/// exp over one vector; the lane-wise mirror of [`scalar::exp`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_v(x: __m256) -> __m256 {
    let hi = _mm256_set1_ps(scalar::EXP_HI);
    let lo = _mm256_set1_ps(scalar::EXP_LO);
    // Same operand order as `x.min(EXP_HI).max(EXP_LO)`: min/max return
    // the second operand when the first is NaN, exactly like Rust.
    let x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

    let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
    // cvtps rounds to nearest even under the default MXCSR mode —
    // identical to the scalar `round_ties_even`.
    let n_i = _mm256_cvtps_epi32(_mm256_mul_ps(x, log2e));
    let n = _mm256_cvtepi32_ps(n_i);

    let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(0.693_359_375)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(-2.121_944_4e-4)));

    let mut p = _mm256_set1_ps(1.987_569_2e-4);
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.398_2e-3));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.333_452e-3));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.166_579_6e-2));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.666_666_6e-1));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.000_000_3e-1));
    let e = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
        _mm256_set1_ps(1.0),
    );

    let bias = _mm256_set1_epi32(127);
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n_i, bias)));
    _mm256_mul_ps(e, scale)
}

/// sigmoid over one vector; mirror of [`scalar::sigmoid`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_v(x: __m256) -> __m256 {
    let neg = _mm256_xor_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(SIGN_MASK as i32)));
    let one = _mm256_set1_ps(1.0);
    _mm256_div_ps(one, _mm256_add_ps(one, exp_v(neg)))
}

/// tanh over one vector; mirror of [`scalar::tanh`] with both branches
/// evaluated and blended (the selected lane equals the scalar branch).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tanh_v(x: __m256) -> __m256 {
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK));
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN_MASK as i32));
    let ax = _mm256_and_ps(x, abs_mask);
    let sign = _mm256_and_ps(x, sign_mask);

    // Small path: x + x³·P(x²).
    let s = _mm256_mul_ps(ax, ax);
    let mut p = _mm256_set1_ps(-5.704_988_7e-3);
    p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(2.063_908_9e-2));
    p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(-5.373_971_6e-2));
    p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(1.333_144_2e-1));
    p = _mm256_add_ps(_mm256_mul_ps(p, s), _mm256_set1_ps(-3.333_328_2e-1));
    let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, s), ax), ax);

    // Large path: 1 − 2/(exp(2|x|) + 1).
    let one = _mm256_set1_ps(1.0);
    let e = exp_v(_mm256_add_ps(ax, ax));
    let large = _mm256_sub_ps(
        one,
        _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)),
    );

    // ax < TANH_SMALL selects the small path; NaN compares false and
    // takes the large path, like the scalar branch.
    let take_small = _mm256_cmp_ps::<_CMP_LT_OQ>(ax, _mm256_set1_ps(scalar::TANH_SMALL));
    let r = _mm256_blendv_ps(large, small, take_small);
    _mm256_or_ps(r, sign)
}

/// Applies a vector kernel over a slice, finishing the tail with the
/// bit-identical scalar kernel.
macro_rules! map_slice {
    ($xs:expr, $vec_fn:expr, $scalar_fn:expr) => {{
        let xs: &mut [f32] = $xs;
        let mut i = 0;
        while i + 8 <= xs.len() {
            let p = xs.as_mut_ptr().add(i);
            _mm256_storeu_ps(p, $vec_fn(_mm256_loadu_ps(p)));
            i += 8;
        }
        for x in &mut xs[i..] {
            *x = $scalar_fn(*x);
        }
    }};
}

/// In-place exp; see [`crate::exp_f32`].
#[target_feature(enable = "avx2")]
pub unsafe fn exp_slice(xs: &mut [f32]) {
    map_slice!(xs, |v| exp_v(v), scalar::exp);
}

/// In-place sigmoid; see [`crate::sigmoid_f32`].
#[target_feature(enable = "avx2")]
pub unsafe fn sigmoid_slice(xs: &mut [f32]) {
    map_slice!(xs, |v| sigmoid_v(v), scalar::sigmoid);
}

/// In-place tanh; see [`crate::tanh_f32`].
#[target_feature(enable = "avx2")]
pub unsafe fn tanh_slice(xs: &mut [f32]) {
    map_slice!(xs, |v| tanh_v(v), scalar::tanh);
}

/// In-place relu (`x > 0 ? x : 0`, so `-0.0` and NaN map to `+0.0` on
/// every backend); see [`crate::relu_f32`].
#[target_feature(enable = "avx2")]
pub unsafe fn relu_slice(xs: &mut [f32]) {
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= xs.len() {
        let p = xs.as_mut_ptr().add(i);
        // max_ps returns the second operand on NaN or signed-zero ties.
        _mm256_storeu_ps(p, _mm256_max_ps(_mm256_loadu_ps(p), zero));
        i += 8;
    }
    for x in &mut xs[i..] {
        *x = if *x > 0.0 { *x } else { 0.0 };
    }
}

/// Horizontal max of a vector (for non-NaN inputs).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hmax(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let m = _mm_max_ps(lo, hi);
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
    _mm_cvtss_f32(m)
}

/// Row-wise softmax; see [`crate::softmax_rows_f32`]. The normalizing
/// sum stays strictly element-ordered (scalar) so the result is
/// bit-identical to [`scalar::softmax_rows`].
#[target_feature(enable = "avx2")]
pub unsafe fn softmax_rows(data: &mut [f32], cols: usize) {
    for row in data.chunks_mut(cols) {
        // Max scan: order-independent for non-NaN rows, so lanes + tail
        // agree with the scalar fold.
        let mut j = 0;
        let mut max = f32::NEG_INFINITY;
        if cols >= 8 {
            let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
            while j + 8 <= cols {
                vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row.as_ptr().add(j)));
                j += 8;
            }
            max = hmax(vmax);
        }
        for &x in &row[j..] {
            max = max.max(x);
        }

        // exp(x − max), vectorized.
        let vmaxb = _mm256_set1_ps(max);
        let mut j = 0;
        while j + 8 <= cols {
            let p = row.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, exp_v(_mm256_sub_ps(_mm256_loadu_ps(p), vmaxb)));
            j += 8;
        }
        for x in &mut row[j..] {
            *x = scalar::exp(*x - max);
        }

        // Element-ordered sum: the one reduction whose order fixes bits.
        let mut sum = 0.0f32;
        for &x in row.iter() {
            sum += x;
        }

        // Divide, vectorized (division is lane-exact).
        let vsum = _mm256_set1_ps(sum);
        let mut j = 0;
        while j + 8 <= cols {
            let p = row.as_mut_ptr().add(j);
            _mm256_storeu_ps(p, _mm256_div_ps(_mm256_loadu_ps(p), vsum));
            j += 8;
        }
        for x in &mut row[j..] {
            *x /= sum;
        }
    }
}

/// The last `rem` (1..32) columns of one output row in a single pass over
/// `k`: `V = ⌈rem / 8⌉` accumulators, the last under a lane mask. Lanes at
/// or past `rem` are neither loaded nor stored; every other lane does what
/// a full tile's does. One pass, because each pass pays the zero-skip's
/// branch again — at `n = 12` a second pass cost more than the arithmetic.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_tail_f32<const V: usize>(
    a_row: &[f32],
    b: *const f32,
    n: usize,
    op: *mut f32,
    rem: usize,
) {
    let last = 8 * (V - 1);
    let mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((rem - last) as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let mut acc = [_mm256_setzero_ps(); V];
    for (v, acc) in acc[..V - 1].iter_mut().enumerate() {
        *acc = _mm256_loadu_ps(op.add(8 * v));
    }
    acc[V - 1] = _mm256_maskload_ps(op.add(last), mask);
    for (p, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let va = _mm256_set1_ps(av);
        let bp = b.add(p * n);
        for (v, acc) in acc[..V - 1].iter_mut().enumerate() {
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8 * v))));
        }
        let vb = _mm256_maskload_ps(bp.add(last), mask);
        acc[V - 1] = _mm256_add_ps(acc[V - 1], _mm256_mul_ps(va, vb));
    }
    for (v, acc) in acc[..V - 1].iter().enumerate() {
        _mm256_storeu_ps(op.add(8 * v), *acc);
    }
    _mm256_maskstore_ps(op.add(last), mask, acc[V - 1]);
}

/// f64 counterpart of [`row_tail_f32`]: the last `rem` (1..16) columns,
/// `V = ⌈rem / 4⌉`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_tail_f64<const V: usize>(
    a_row: &[f64],
    b: *const f64,
    n: usize,
    op: *mut f64,
    rem: usize,
) {
    let last = 4 * (V - 1);
    let mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x((rem - last) as i64),
        _mm256_setr_epi64x(0, 1, 2, 3),
    );
    let mut acc = [_mm256_setzero_pd(); V];
    for (v, acc) in acc[..V - 1].iter_mut().enumerate() {
        *acc = _mm256_loadu_pd(op.add(4 * v));
    }
    acc[V - 1] = _mm256_maskload_pd(op.add(last), mask);
    for (p, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let va = _mm256_set1_pd(av);
        let bp = b.add(p * n);
        for (v, acc) in acc[..V - 1].iter_mut().enumerate() {
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(va, _mm256_loadu_pd(bp.add(4 * v))));
        }
        let vb = _mm256_maskload_pd(bp.add(last), mask);
        acc[V - 1] = _mm256_add_pd(acc[V - 1], _mm256_mul_pd(va, vb));
    }
    for (v, acc) in acc[..V - 1].iter().enumerate() {
        _mm256_storeu_pd(op.add(4 * v), *acc);
    }
    _mm256_maskstore_pd(op.add(last), mask, acc[V - 1]);
}

/// f32 matmul panel: ascending-`k` multiply-adds with zero-skip, column
/// dimension tiled 32-wide (4 registers) so accumulators live in
/// registers across the whole `k` loop, the columns past the last whole
/// tile in one more pass ([`row_tail_f32`]). Bit-identical to
/// [`scalar::matmul_panel_f32`].
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_panel_f32(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let rows = a.len() / k;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 32 <= n {
            let op = o_row.as_mut_ptr().add(j);
            let mut acc0 = _mm256_loadu_ps(op);
            let mut acc1 = _mm256_loadu_ps(op.add(8));
            let mut acc2 = _mm256_loadu_ps(op.add(16));
            let mut acc3 = _mm256_loadu_ps(op.add(24));
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8))));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(16))));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(24))));
            }
            _mm256_storeu_ps(op, acc0);
            _mm256_storeu_ps(op.add(8), acc1);
            _mm256_storeu_ps(op.add(16), acc2);
            _mm256_storeu_ps(op.add(24), acc3);
            j += 32;
        }
        let (bp, op, rem) = (b.as_ptr().add(j), o_row.as_mut_ptr().add(j), n - j);
        match rem.div_ceil(8) {
            0 => {}
            1 => row_tail_f32::<1>(a_row, bp, n, op, rem),
            2 => row_tail_f32::<2>(a_row, bp, n, op, rem),
            3 => row_tail_f32::<3>(a_row, bp, n, op, rem),
            _ => row_tail_f32::<4>(a_row, bp, n, op, rem),
        }
    }
}

/// f64 matmul panel (4 lanes, 16-column tiles, then [`row_tail_f64`]).
/// Bit-identical to [`scalar::matmul_panel_f64`].
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_panel_f64(a: &[f64], b: &[f64], k: usize, n: usize, out: &mut [f64]) {
    let rows = a.len() / k;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 16 <= n {
            let op = o_row.as_mut_ptr().add(j);
            let mut acc0 = _mm256_loadu_pd(op);
            let mut acc1 = _mm256_loadu_pd(op.add(4));
            let mut acc2 = _mm256_loadu_pd(op.add(8));
            let mut acc3 = _mm256_loadu_pd(op.add(12));
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_pd(av);
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(bp)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(bp.add(4))));
                acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(bp.add(8))));
                acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(bp.add(12))));
            }
            _mm256_storeu_pd(op, acc0);
            _mm256_storeu_pd(op.add(4), acc1);
            _mm256_storeu_pd(op.add(8), acc2);
            _mm256_storeu_pd(op.add(12), acc3);
            j += 16;
        }
        let (bp, op, rem) = (b.as_ptr().add(j), o_row.as_mut_ptr().add(j), n - j);
        match rem.div_ceil(4) {
            0 => {}
            1 => row_tail_f64::<1>(a_row, bp, n, op, rem),
            2 => row_tail_f64::<2>(a_row, bp, n, op, rem),
            3 => row_tail_f64::<3>(a_row, bp, n, op, rem),
            _ => row_tail_f64::<4>(a_row, bp, n, op, rem),
        }
    }
}
