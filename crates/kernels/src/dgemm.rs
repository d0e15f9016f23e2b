//! Double-precision general matrix multiply.
//!
//! Three implementations share one contract (`C ← alpha·A·B + beta·C`):
//! a [`naive`] triple loop (the baseline the ablation bench compares
//! against), a cache-[`blocked`] version used by the blocked LU
//! factorisation, and [`blocked_parallel`], which runs the same packed
//! block algorithm with the column tiles fanned out over a
//! [`WorkerPool`].
//!
//! # Packing
//!
//! The blocked paths pack each `A` sub-block (`ii..i_end` × `pp..p_end`)
//! into a contiguous scratch buffer once per block step, so the
//! register-blocked microkernel streams unit-stride data regardless of
//! the parent matrix's leading dimension. Scratch buffers are recycled
//! through a small mutex-guarded arena instead of being reallocated every
//! block step.
//!
//! # Determinism
//!
//! Every element `C[i, j]` is owned by exactly one column tile, and the
//! per-element update order (outer `pp` blocks ascending, `p` ascending
//! within a block) is identical in the serial and parallel paths — so
//! [`blocked`] and [`blocked_parallel`] produce bit-identical results at
//! any worker count.

use std::sync::Mutex;

use crate::matrix::Matrix;
use crate::pool::WorkerPool;

/// Default blocking factor for [`blocked`]; sized so three blocks fit in
/// the FU740's 2 MiB L2 (3 · 64² · 8 B ≈ 96 KiB leaves generous margin for
/// other hosts too).
pub const DEFAULT_BLOCK: usize = 64;

/// Columns the microkernel updates per register block: four packed-`A`
/// reloads amortised across four accumulating columns.
const COL_UNROLL: usize = 4;

/// Recycled pack buffers, shared process-wide. Entry point for every
/// packed kernel (DGEMM and the LU trailing update) so repeated block
/// steps reuse warm allocations.
static PACK_ARENA: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// Takes a scratch buffer of at least `len` elements from the arena
/// (contents unspecified).
pub(crate) fn take_scratch(len: usize) -> Vec<f64> {
    let mut buf = PACK_ARENA
        .lock()
        .expect("pack arena poisoned")
        .pop()
        .unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// Returns a scratch buffer to the arena for reuse.
pub(crate) fn put_scratch(buf: Vec<f64>) {
    const MAX_POOLED: usize = 64;
    let mut arena = PACK_ARENA.lock().expect("pack arena poisoned");
    if arena.len() < MAX_POOLED {
        arena.push(buf);
    }
}

/// Naive `C ← alpha·A·B + beta·C` (jik loops, no blocking).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn naive(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions differ");
    assert_eq!(a.rows(), c.rows(), "output rows differ");
    assert_eq!(b.cols(), c.cols(), "output cols differ");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

/// Packs the `rows`×`cols` sub-block of column-major `src` starting at
/// `(r0, c0)` into the head of `dst`, column-major and contiguous.
pub(crate) fn pack_block(
    dst: &mut [f64],
    src: &[f64],
    ld: usize,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
) {
    for c in 0..cols {
        let src_col = &src[(c0 + c) * ld + r0..(c0 + c) * ld + r0 + rows];
        dst[c * rows..(c + 1) * rows].copy_from_slice(src_col);
    }
}

/// Cache-blocked, packed `C ← alpha·A·B + beta·C`.
///
/// `A` sub-blocks are packed into contiguous buffers once per block step
/// and streamed against `B` with a four-column register-blocked kernel.
/// The mutable borrow of `C`'s backing slice is taken once, outside the
/// block loops.
///
/// # Panics
///
/// Panics on dimension mismatch or a zero block size.
pub fn blocked(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix, block: usize) {
    check_dims(a, b, c, block);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Hoisted: one borrow of C's storage for the whole multiply.
    let c_data = c.as_mut_slice();
    scale(c_data, beta);
    gemm_cols(alpha, a.as_slice(), b.as_slice(), c_data, m, k, 0, n, block);
}

/// Minimum retired FLOPs each worker must receive before
/// [`blocked_parallel`] engages the pool. Below this the fork/join
/// latency and the per-worker re-packing of `A` cost more than the tile
/// compute they buy back: calibrated on the n=384 square case, where the
/// fan-out ran 0.88–0.93x of serial, while n=512 (≈67 MFLOP per worker
/// at four workers) breaks even or better.
pub const MIN_PARALLEL_FLOPS_PER_WORKER: f64 = 48e6;

/// [`blocked`] with the column tiles of `C` fanned out over `pool`.
///
/// Bit-identical to the serial path at any worker count: tiles are
/// disjoint contiguous column ranges and each tile runs the identical
/// packed kernel. Problems too small to amortise the fan-out (per-worker
/// work under [`MIN_PARALLEL_FLOPS_PER_WORKER`]) run the serial kernel
/// directly — same result, none of the regression.
///
/// # Panics
///
/// Panics on dimension mismatch or a zero block size.
pub fn blocked_parallel(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    block: usize,
    pool: &WorkerPool,
) {
    check_dims(a, b, c, block);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let c_data = c.as_mut_slice();
    scale(c_data, beta);
    let tiles = pool.even_chunks(n);
    let per_worker_flops = 2.0 * m as f64 * k as f64 * n as f64 / tiles.len().max(1) as f64;
    if tiles.len() <= 1 || per_worker_flops < MIN_PARALLEL_FLOPS_PER_WORKER {
        gemm_cols(alpha, a.as_slice(), b.as_slice(), c_data, m, k, 0, n, block);
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    pool.scope(|scope| {
        let mut rest = c_data;
        let mut offset = 0;
        for &(j0, j1) in &tiles {
            let (tile, tail) = rest.split_at_mut((j1 - offset) * m);
            rest = tail;
            offset = j1;
            scope.spawn(move || {
                gemm_cols(alpha, a_data, b_data, tile, m, k, j0, j1, block);
            });
        }
    });
}

fn check_dims(a: &Matrix, b: &Matrix, c: &Matrix, block: usize) {
    assert!(block > 0, "block size must be positive");
    assert_eq!(a.cols(), b.rows(), "inner dimensions differ");
    assert_eq!(a.rows(), c.rows(), "output rows differ");
    assert_eq!(b.cols(), c.cols(), "output cols differ");
}

fn scale(c_data: &mut [f64], beta: f64) {
    if beta != 1.0 {
        for v in c_data {
            *v *= beta;
        }
    }
}

/// The packed block kernel over columns `j0..j1` of `C`. `c_cols` holds
/// exactly those columns (contiguous, leading dimension `m`); `j0`/`j1`
/// index into `B`'s columns.
#[allow(clippy::too_many_arguments)]
fn gemm_cols(
    alpha: f64,
    a_data: &[f64],
    b_data: &[f64],
    c_cols: &mut [f64],
    m: usize,
    k: usize,
    j0: usize,
    j1: usize,
    block: usize,
) {
    debug_assert_eq!(c_cols.len(), (j1 - j0) * m);
    let ldb = k;
    let mut a_pack = take_scratch(block * block);
    let mut f_pack = take_scratch(COL_UNROLL * block);
    for pp in (0..k).step_by(block) {
        let p_end = (pp + block).min(k);
        let kb = p_end - pp;
        for ii in (0..m).step_by(block) {
            let i_end = (ii + block).min(m);
            let rows = i_end - ii;
            // Pack A(ii..i_end, pp..p_end) once per block step.
            pack_block(&mut a_pack, a_data, m, ii, rows, pp, kb);
            let mut j = j0;
            while j < j1 {
                let jcols = COL_UNROLL.min(j1 - j);
                // Multipliers for this column group: f[q·kb + p] = alpha·B[pp+p, j+q].
                for q in 0..jcols {
                    let b_col = &b_data[(j + q) * ldb + pp..(j + q) * ldb + p_end];
                    for (fq, &bv) in f_pack[q * kb..(q + 1) * kb].iter_mut().zip(b_col) {
                        *fq = alpha * bv;
                    }
                }
                let base = (j - j0) * m;
                let cols_region = &mut c_cols[base..base + jcols * m];
                if jcols == COL_UNROLL {
                    // Split the four columns into disjoint row windows.
                    let (c0, rest) = cols_region.split_at_mut(m);
                    let (c1, rest) = rest.split_at_mut(m);
                    let (c2, c3) = rest.split_at_mut(m);
                    accum_group(
                        &a_pack[..rows * kb],
                        rows,
                        rows,
                        kb,
                        &f_pack[..COL_UNROLL * kb],
                        &mut c0[ii..i_end],
                        &mut c1[ii..i_end],
                        &mut c2[ii..i_end],
                        &mut c3[ii..i_end],
                    );
                } else {
                    for (q, c_col) in cols_region.chunks_exact_mut(m).enumerate().take(jcols) {
                        accum_col(
                            &a_pack[..rows * kb],
                            rows,
                            rows,
                            kb,
                            &f_pack[q * kb..(q + 1) * kb],
                            &mut c_col[ii..i_end],
                        );
                    }
                }
                j += jcols;
            }
        }
    }
    put_scratch(f_pack);
    put_scratch(a_pack);
}

/// Rows each register tile covers. 4 columns × 16 rows of `f64`
/// accumulators give eight independent AVX-512 add chains (sixteen on
/// AVX2) — enough to hide the floating-point add latency — while leaving
/// registers for the streamed `A` column and broadcasts.
const ROW_TILE: usize = 16;

/// The register-tiled accumulate kernel for a four-column group:
/// `c_q[i] ← ((c_q[i] + a[i,0]·f_q[0]) + a[i,1]·f_q[1]) + …` with the
/// chain held in registers, so `C` is loaded and stored once per call
/// instead of once per `p`.
///
/// The per-element operation sequence (`p` ascending, multiply then add,
/// each individually rounded — `#[target_feature]` widens the vectors
/// but never licenses FMA contraction) is identical to a scalar
/// `for p { c[i] += f[p]·a[i,p] }` loop, which is what makes every
/// dispatch target below bit-identical to the others and to the serial
/// reference kernels.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accum_group_body(
    a_pack: &[f64],
    ld: usize,
    rows: usize,
    kb: usize,
    f: &[f64],
    c0: &mut [f64],
    c1: &mut [f64],
    c2: &mut [f64],
    c3: &mut [f64],
) {
    assert!(rows <= ld && a_pack.len() >= (kb - 1) * ld + rows && f.len() >= 4 * kb);
    let (c0, c1) = (&mut c0[..rows], &mut c1[..rows]);
    let (c2, c3) = (&mut c2[..rows], &mut c3[..rows]);
    let (f0, f1) = (&f[..kb], &f[kb..2 * kb]);
    let (f2, f3) = (&f[2 * kb..3 * kb], &f[3 * kb..4 * kb]);
    let mut i0 = 0;
    while i0 + ROW_TILE <= rows {
        let mut acc0 = [0.0; ROW_TILE];
        let mut acc1 = [0.0; ROW_TILE];
        let mut acc2 = [0.0; ROW_TILE];
        let mut acc3 = [0.0; ROW_TILE];
        acc0.copy_from_slice(&c0[i0..i0 + ROW_TILE]);
        acc1.copy_from_slice(&c1[i0..i0 + ROW_TILE]);
        acc2.copy_from_slice(&c2[i0..i0 + ROW_TILE]);
        acc3.copy_from_slice(&c3[i0..i0 + ROW_TILE]);
        for p in 0..kb {
            let a_col = &a_pack[p * ld + i0..p * ld + i0 + ROW_TILE];
            let (v0, v1, v2, v3) = (f0[p], f1[p], f2[p], f3[p]);
            for r in 0..ROW_TILE {
                let av = a_col[r];
                acc0[r] += v0 * av;
                acc1[r] += v1 * av;
                acc2[r] += v2 * av;
                acc3[r] += v3 * av;
            }
        }
        c0[i0..i0 + ROW_TILE].copy_from_slice(&acc0);
        c1[i0..i0 + ROW_TILE].copy_from_slice(&acc1);
        c2[i0..i0 + ROW_TILE].copy_from_slice(&acc2);
        c3[i0..i0 + ROW_TILE].copy_from_slice(&acc3);
        i0 += ROW_TILE;
    }
    for i in i0..rows {
        let (mut s0, mut s1) = (c0[i], c1[i]);
        let (mut s2, mut s3) = (c2[i], c3[i]);
        for p in 0..kb {
            let av = a_pack[p * ld + i];
            s0 += f0[p] * av;
            s1 += f1[p] * av;
            s2 += f2[p] * av;
            s3 += f3[p] * av;
        }
        c0[i] = s0;
        c1[i] = s1;
        c2[i] = s2;
        c3[i] = s3;
    }
}

/// `c[i] += f·a[i]` — the streamed axpy behind the shared panel rank-1
/// update (see `lu::factor_panel`).
#[inline(always)]
fn axpy_body(c: &mut [f64], a: &[f64], f: f64) {
    let n = c.len().min(a.len());
    let (c, a) = (&mut c[..n], &a[..n]);
    for i in 0..n {
        c[i] += f * a[i];
    }
}

/// Single-column variant of [`accum_group_body`] for group remainders.
#[inline(always)]
fn accum_col_body(a_pack: &[f64], ld: usize, rows: usize, kb: usize, f: &[f64], c: &mut [f64]) {
    assert!(rows <= ld && a_pack.len() >= (kb - 1) * ld + rows && f.len() >= kb);
    let c = &mut c[..rows];
    let f = &f[..kb];
    let mut i0 = 0;
    while i0 + ROW_TILE <= rows {
        let mut acc = [0.0; ROW_TILE];
        acc.copy_from_slice(&c[i0..i0 + ROW_TILE]);
        for (p, &fp) in f.iter().enumerate() {
            let a_col = &a_pack[p * ld + i0..p * ld + i0 + ROW_TILE];
            for r in 0..ROW_TILE {
                acc[r] += fp * a_col[r];
            }
        }
        c[i0..i0 + ROW_TILE].copy_from_slice(&acc);
        i0 += ROW_TILE;
    }
    for i in i0..rows {
        let mut s = c[i];
        for (p, &fp) in f.iter().enumerate() {
            s += fp * a_pack[p * ld + i];
        }
        c[i] = s;
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Wider-vector instantiations of the accumulate kernels.
    //!
    //! `#[target_feature]` re-compiles the identical Rust body with wider
    //! registers; Rust never enables floating-point contraction, so the
    //! multiply and add stay separately rounded and the results are
    //! bit-identical to the scalar build (see `accum_group_body`).
    use super::{accum_col_body, accum_group_body, axpy_body};

    macro_rules! instantiate {
        ($col:ident, $axpy:ident, $feat:literal) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $col(
                a_pack: &[f64],
                ld: usize,
                rows: usize,
                kb: usize,
                f: &[f64],
                c: &mut [f64],
            ) {
                accum_col_body(a_pack, ld, rows, kb, f, c);
            }

            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $axpy(c: &mut [f64], a: &[f64], f: f64) {
                axpy_body(c, a, f);
            }
        };
    }

    instantiate!(accum_col_avx512, axpy_avx512, "avx512f");
    instantiate!(accum_col_avx2, axpy_avx2, "avx2");

    /// Auto-vectorised group kernel for AVX2-only hosts.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` is available.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn accum_group_avx2(
        a_pack: &[f64],
        ld: usize,
        rows: usize,
        kb: usize,
        f: &[f64],
        c0: &mut [f64],
        c1: &mut [f64],
        c2: &mut [f64],
        c3: &mut [f64],
    ) {
        accum_group_body(a_pack, ld, rows, kb, f, c0, c1, c2, c3);
    }

    /// [`accum_group_body`] with explicit 512-bit intrinsics. LLVM's
    /// `prefer-vector-width=256` default keeps the auto-vectorised
    /// `avx512f` instantiation on 256-bit registers; spelling out the
    /// `vmulpd`/`vaddpd` chain doubles the width. Per lane the operation
    /// sequence is unchanged (`p` ascending, multiply then add, each
    /// individually rounded), so results stay bit-identical to the
    /// scalar body.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` is available.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn accum_group_zmm(
        a_pack: &[f64],
        ld: usize,
        rows: usize,
        kb: usize,
        f: &[f64],
        c0: &mut [f64],
        c1: &mut [f64],
        c2: &mut [f64],
        c3: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        const W: usize = 8;
        assert!(rows <= ld && a_pack.len() >= (kb - 1) * ld + rows && f.len() >= 4 * kb);
        let (c0, c1) = (&mut c0[..rows], &mut c1[..rows]);
        let (c2, c3) = (&mut c2[..rows], &mut c3[..rows]);
        let mut i0 = 0;
        while i0 + 2 * W <= rows {
            // 4 columns × 16 rows = 8 zmm accumulators.
            let mut acc: [[__m512d; 2]; 4] = [[_mm512_setzero_pd(); 2]; 4];
            for (q, cq) in [&*c0, &*c1, &*c2, &*c3].into_iter().enumerate() {
                acc[q][0] = _mm512_loadu_pd(cq.as_ptr().add(i0));
                acc[q][1] = _mm512_loadu_pd(cq.as_ptr().add(i0 + W));
            }
            for p in 0..kb {
                let ap = a_pack.as_ptr().add(p * ld + i0);
                let a0 = _mm512_loadu_pd(ap);
                let a1 = _mm512_loadu_pd(ap.add(W));
                for (q, accq) in acc.iter_mut().enumerate() {
                    let fq = _mm512_set1_pd(*f.get_unchecked(q * kb + p));
                    accq[0] = _mm512_add_pd(accq[0], _mm512_mul_pd(a0, fq));
                    accq[1] = _mm512_add_pd(accq[1], _mm512_mul_pd(a1, fq));
                }
            }
            for (q, cq) in [&mut *c0, &mut *c1, &mut *c2, &mut *c3]
                .into_iter()
                .enumerate()
            {
                _mm512_storeu_pd(cq.as_mut_ptr().add(i0), acc[q][0]);
                _mm512_storeu_pd(cq.as_mut_ptr().add(i0 + W), acc[q][1]);
            }
            i0 += 2 * W;
        }
        // Remainder rows: the scalar chain (same per-element sequence).
        for i in i0..rows {
            let (mut s0, mut s1) = (c0[i], c1[i]);
            let (mut s2, mut s3) = (c2[i], c3[i]);
            for p in 0..kb {
                let av = a_pack[p * ld + i];
                s0 += f[p] * av;
                s1 += f[kb + p] * av;
                s2 += f[2 * kb + p] * av;
                s3 += f[3 * kb + p] * av;
            }
            c0[i] = s0;
            c1[i] = s1;
            c2[i] = s2;
            c3[i] = s3;
        }
    }
}

/// Runtime-dispatched [`accum_group_body`] (AVX-512 → AVX2 → portable).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn accum_group(
    a_pack: &[f64],
    ld: usize,
    rows: usize,
    kb: usize,
    f: &[f64],
    c0: &mut [f64],
    c1: &mut [f64],
    c2: &mut [f64],
    c3: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::accum_group_zmm(a_pack, ld, rows, kb, f, c0, c1, c2, c3) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::accum_group_avx2(a_pack, ld, rows, kb, f, c0, c1, c2, c3) };
        }
    }
    accum_group_body(a_pack, ld, rows, kb, f, c0, c1, c2, c3);
}

/// Runtime-dispatched [`accum_col_body`] (AVX-512 → AVX2 → portable).
#[inline]
pub(crate) fn accum_col(
    a_pack: &[f64],
    ld: usize,
    rows: usize,
    kb: usize,
    f: &[f64],
    c: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::accum_col_avx512(a_pack, ld, rows, kb, f, c) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::accum_col_avx2(a_pack, ld, rows, kb, f, c) };
        }
    }
    accum_col_body(a_pack, ld, rows, kb, f, c);
}

/// Runtime-dispatched `c += f·a` (AVX-512 → AVX2 → portable). Used by the
/// panel factorisation, which is shared verbatim by the serial and
/// threaded LU paths.
#[inline]
pub(crate) fn axpy(c: &mut [f64], a: &[f64], f: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::axpy_avx512(c, a, f) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { simd::axpy_avx2(c, a, f) };
        }
    }
    axpy_body(c, a, f);
}

/// FLOPs performed by a `m×k · k×n` GEMM (multiply + add per element).
pub fn flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b) < tol
    }

    #[test]
    fn blocked_matches_naive_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(5, 7, 3), (16, 16, 16), (33, 65, 17), (128, 64, 96)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let mut c1 = Matrix::random(m, n, &mut rng);
            let mut c2 = c1.clone();
            naive(1.5, &a, &b, 0.5, &mut c1);
            blocked(1.5, &a, &b, 0.5, &mut c2, 32);
            assert!(close(&c1, &c2, 1e-12), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        for threads in [1, 2, 3, 5, 8] {
            let pool = WorkerPool::new(threads);
            for (m, k, n) in [(5, 7, 3), (33, 65, 17), (96, 64, 80)] {
                let a = Matrix::random(m, k, &mut rng);
                let b = Matrix::random(k, n, &mut rng);
                let mut c1 = Matrix::random(m, n, &mut rng);
                let mut c2 = c1.clone();
                blocked(1.25, &a, &b, 0.75, &mut c1, 32);
                blocked_parallel(1.25, &a, &b, 0.75, &mut c2, 32, &pool);
                assert_eq!(
                    c1.as_slice(),
                    c2.as_slice(),
                    "bitwise divergence at {m}x{k}x{n} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Matrix::random(10, 10, &mut rng);
        let i = Matrix::identity(10);
        let mut c = Matrix::zeros(10, 10);
        blocked(1.0, &a, &i, 0.0, &mut c, DEFAULT_BLOCK);
        assert!(close(&a, &c, 1e-15));
    }

    #[test]
    fn beta_scales_existing_contents() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 4);
        let mut c = Matrix::from_fn(4, 4, |_, _| 2.0);
        blocked(1.0, &a, &b, 0.25, &mut c, 2);
        assert!(c.as_slice().iter().all(|&v| (v - 0.5).abs() < 1e-15));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(flops(10, 20, 30), 12_000.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        blocked(1.0, &a, &b, 0.0, &mut c, 2);
    }

    #[test]
    fn block_size_larger_than_matrix_is_fine() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random(6, 6, &mut rng);
        let b = Matrix::random(6, 6, &mut rng);
        let mut c1 = Matrix::zeros(6, 6);
        let mut c2 = Matrix::zeros(6, 6);
        naive(1.0, &a, &b, 0.0, &mut c1);
        blocked(1.0, &a, &b, 0.0, &mut c2, 999);
        assert!(close(&c1, &c2, 1e-13));
    }

    #[test]
    fn scratch_arena_recycles_buffers() {
        let buf = take_scratch(128);
        assert!(buf.len() >= 128);
        put_scratch(buf);
        let again = take_scratch(64);
        assert!(again.len() >= 64);
        put_scratch(again);
    }
}
