//! AVX2 kernels (x86_64, 256-bit registers: 8 × f32).
//!
//! Every function here replays, lane-wise, the exact operation sequence
//! of its [`crate::scalar`] counterpart — separate multiply and add, the
//! same clamp operand order (matching Rust's `min`/`max` NaN behaviour),
//! the same round-to-nearest-even reduction — so outputs are
//! bit-identical to the scalar reference, except for the sign and payload
//! of a NaN. The f32 matmul panel walks blocks of rows × columns and
//! decides its zero-skip once per row block ([`row_block_f32`]): a block
//! whose `a` holds no `±0.0` runs a plain multiply-add loop that
//! broadcasts `a` from memory, and only a block with a zero pays the
//! per-step compare and blends the skip in rather than branching per
//! entry ([`block_tile_f32`]). Each output lane still sees the scalar's
//! operations in the scalar's order. Safety: all functions are
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

/// A lane mask of the first `lanes` (0..=8) f32 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_mask(lanes: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(lanes as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Output rows a whole block of [`matmul_panel_f32`] computes together: the
/// four lanes of the `__m128` compare that decides a step's zero-skip.
const BLOCK_ROWS: usize = 4;

/// Vector `v` of `V` from `p`, the last under `mask` when `MASKED`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_lanes<const V: usize, const MASKED: bool>(
    p: *const f32,
    v: usize,
    mask: __m256i,
) -> __m256 {
    if MASKED && v == V - 1 {
        _mm256_maskload_ps(p.add(8 * v), mask)
    } else {
        _mm256_loadu_ps(p.add(8 * v))
    }
}

/// Store counterpart of [`load_lanes`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_lanes<const V: usize, const MASKED: bool>(
    p: *mut f32,
    v: usize,
    mask: __m256i,
    x: __m256,
) {
    if MASKED && v == V - 1 {
        _mm256_maskstore_ps(p.add(8 * v), mask, x);
    } else {
        _mm256_storeu_ps(p.add(8 * v), x);
    }
}

/// `R` (1..=[`BLOCK_ROWS`]) output rows × `V` vectors of columns (`a` and
/// `op` at the block's first row, `b` and `op` at its first column) in one
/// pass over `k`: each `b` vector is loaded once for every row, and the
/// block keeps `R · V` independent accumulators. Under `MASKED` the last
/// vector's lanes outside `mask` are neither loaded nor stored.
///
/// `zeros` says whether any of the block's `R × k` entries of `a` is `±0.0`
/// ([`row_block_f32`] scans once per block). A block without one (always
/// conv's filter rows) runs a plain loop: each step is one
/// `_mm256_broadcast_ss` per row straight from `a` — a load-port µop, where
/// a register broadcast would compete with the shuffles for port 5 — and a
/// multiply-add per accumulator. A block with one decides per step of `k`:
/// when none of that step's `R` entries is zero every row is a plain
/// multiply-add; otherwise each row computes `acc + a·b` and blends it back
/// over `acc` under its `_CMP_NEQ_UQ` mask, so `±0.0` keeps `acc` and NaN
/// is computed, like the scalar `av == 0.0` test. A lone row (`R = 1`)
/// skips its zero steps instead, the scalar loop's one branch per entry:
/// its accumulators are one chain per vector, which a blend only lengthens.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn block_tile_f32<const R: usize, const V: usize, const MASKED: bool>(
    a: *const f32,
    k: usize,
    b: *const f32,
    n: usize,
    op: *mut f32,
    mask: __m256i,
    zeros: bool,
) {
    let zero = _mm256_setzero_ps();
    let mut acc = [[zero; V]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = load_lanes::<V, MASKED>(op.add(r * n), v, mask);
        }
    }
    if !zeros {
        for p in 0..k {
            let mut vb = [zero; V];
            for (v, vb) in vb.iter_mut().enumerate() {
                *vb = load_lanes::<V, MASKED>(b.add(p * n), v, mask);
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let va = _mm256_broadcast_ss(&*a.add(r * k + p));
                for (acc, &vb) in acc.iter_mut().zip(&vb) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
                }
            }
        }
    } else {
        let rows = (1 << R) - 1;
        for p in 0..k {
            // The block's `a` entries are the first `R` lanes of one compare.
            let av: [f32; BLOCK_ROWS] =
                core::array::from_fn(|r| if r < R { *a.add(r * k + p) } else { 0.0 });
            let nonzero = _mm_cmp_ps::<_CMP_NEQ_UQ>(_mm_loadu_ps(av.as_ptr()), _mm_setzero_ps());
            let skips = _mm_movemask_ps(nonzero) != rows;
            if R == 1 && skips {
                // One chain is latency-bound: a blend would lengthen it.
                continue;
            }
            let mut vb = [zero; V];
            for (v, vb) in vb.iter_mut().enumerate() {
                *vb = load_lanes::<V, MASKED>(b.add(p * n), v, mask);
            }
            for (acc, &av) in acc.iter_mut().zip(&av) {
                let va = _mm256_set1_ps(av);
                if skips {
                    let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(va, zero);
                    for (acc, &vb) in acc.iter_mut().zip(&vb) {
                        let sum = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
                        *acc = _mm256_blendv_ps(*acc, sum, keep);
                    }
                } else {
                    for (acc, &vb) in acc.iter_mut().zip(&vb) {
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, vb));
                    }
                }
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (v, &acc) in acc.iter().enumerate() {
            store_lanes::<V, MASKED>(op.add(r * n), v, mask, acc);
        }
    }
}

/// One block of `R` rows across all `n` columns: 16-column tiles, then the
/// last 1..16 columns as one more (masked) tile. One tile, not one per
/// stray vector, because each pass over `k` re-reads the block's `a` and,
/// in a block with a zero, pays the zero-skip's branch again — at `n = 12`
/// a second pass cost more than the arithmetic. The zero scan runs once,
/// here, for every tile of the block: `±0.0 == 0.0` and NaN is not zero,
/// so a NaN entry is computed, as `_CMP_NEQ_UQ` decides per step.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_block_f32<const R: usize>(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let zeros = a[..R * k].contains(&0.0);
    let (a, full) = (a.as_ptr(), _mm256_set1_epi32(-1));
    let mut j = 0;
    while j + 16 <= n {
        let (bp, op) = (b.as_ptr().add(j), out.as_mut_ptr().add(j));
        block_tile_f32::<R, 2, false>(a, k, bp, n, op, full, zeros);
        j += 16;
    }
    let (bp, op, rem) = (b.as_ptr().add(j), out.as_mut_ptr().add(j), n - j);
    match rem {
        0 => {}
        8 => block_tile_f32::<R, 1, false>(a, k, bp, n, op, full, zeros),
        1..8 => block_tile_f32::<R, 1, true>(a, k, bp, n, op, lane_mask(rem), zeros),
        _ => block_tile_f32::<R, 2, true>(a, k, bp, n, op, lane_mask(rem - 8), zeros),
    }
}

/// f32 matmul panel: ascending-`k` multiply-adds with zero-skip, blocked
/// rows × columns ([`row_block_f32`]). Whole blocks of [`BLOCK_ROWS`] rows,
/// then the 1..4 rows after the last one (a 1-row `Dense` batch) as one
/// shorter block. Bit-identical to [`scalar::matmul_panel_f32`] wherever
/// the output is not NaN.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_panel_f32(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let blocked = a.len() / k / BLOCK_ROWS * BLOCK_ROWS;
    let (a_blocks, a_rest) = a.split_at(blocked * k);
    let (o_blocks, o_rest) = out.split_at_mut(blocked * n);
    let blocks = a_blocks.chunks_exact(BLOCK_ROWS * k);
    for (a_block, o_block) in blocks.zip(o_blocks.chunks_exact_mut(BLOCK_ROWS * n)) {
        row_block_f32::<BLOCK_ROWS>(a_block, b, k, n, o_block);
    }
    match a_rest.len() / k {
        0 => {}
        1 => row_block_f32::<1>(a_rest, b, k, n, o_rest),
        2 => row_block_f32::<2>(a_rest, b, k, n, o_rest),
        _ => row_block_f32::<3>(a_rest, b, k, n, o_rest),
    }
}
