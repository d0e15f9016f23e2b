//! Blocked LU factorisation with partial pivoting — the computational core
//! of HPL.
//!
//! The factorisation is right-looking, as in LAPACK's `dgetrf`: an
//! unblocked panel factorisation with row pivoting, a unit-lower triangular
//! solve for the block row of `U`, and a GEMM-shaped trailing-submatrix
//! update that dominates the FLOP count.
//!
//! Two trailing-update paths share one numerical contract:
//! [`LuFactorization::factor`] walks the update with the reference
//! per-element loops, while [`LuFactorization::factor_parallel`] packs
//! `L21` into a contiguous buffer and fans the trailing columns out over a
//! [`WorkerPool`] with a register-blocked axpy kernel. Each trailing
//! column is updated by the identical per-element operation sequence
//! (`p` ascending, `c −= l·mult` with one rounding per multiply and one
//! per subtract) in both paths, so the factors are **bit-identical** at
//! any worker count.

use std::fmt;

use crate::dgemm::{accum_col, accum_group, axpy, pack_block, put_scratch, take_scratch};
use crate::matrix::{vec_norm_inf, Matrix};
use crate::pool::WorkerPool;

/// The factorisation `P·A = L·U` stored compactly (unit-lower `L` below
/// the diagonal, `U` on and above it).
///
/// # Examples
///
/// ```
/// use cimone_kernels::lu::LuFactorization;
/// use cimone_kernels::matrix::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = Matrix::random(32, 32, &mut rng);
/// let b = vec![1.0; 32];
/// let lu = LuFactorization::factor(a.clone(), 8)?;
/// let x = lu.solve(&b);
/// let r = cimone_kernels::lu::hpl_residual(&a, &x, &b);
/// assert!(r < 16.0);
/// # Ok::<(), cimone_kernels::lu::LuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuFactorization {
    lu: Matrix,
    pivots: Vec<usize>,
    block: usize,
}

/// Errors from the LU factorisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// An exactly zero pivot was encountered.
    Singular {
        /// The column at which factorisation broke down.
        column: usize,
    },
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::NotSquare { rows, cols } => {
                write!(f, "LU requires a square matrix, got {rows}x{cols}")
            }
            LuError::Singular { column } => {
                write!(f, "matrix is singular: zero pivot at column {column}")
            }
        }
    }
}

impl std::error::Error for LuError {}

impl LuFactorization {
    /// Factors `a` in place with partial pivoting and block size `block`.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] for rectangular inputs and
    /// [`LuError::Singular`] when an exact zero pivot appears.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn factor(mut a: Matrix, block: usize) -> Result<Self, LuError> {
        assert!(block > 0, "block size must be positive");
        let n = a.rows();
        if a.cols() != n {
            return Err(LuError::NotSquare {
                rows: n,
                cols: a.cols(),
            });
        }
        let mut pivots = vec![0usize; n];

        for k in (0..n).step_by(block) {
            let kb = block.min(n - k);
            factor_panel(&mut a, k, kb, &mut pivots)?;
            if k + kb < n {
                solve_block_row(&mut a, k, kb);
                update_trailing(&mut a, k, kb);
            }
        }
        apply_deferred_swaps(&mut a, &pivots, block);

        Ok(LuFactorization {
            lu: a,
            pivots,
            block,
        })
    }

    /// [`factor`](LuFactorization::factor) with the trailing-submatrix
    /// update fanned out over `pool` as packed column tiles.
    ///
    /// Bit-identical to the serial path at any worker count (see the
    /// module docs for the argument).
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] for rectangular inputs and
    /// [`LuError::Singular`] when an exact zero pivot appears.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn factor_parallel(
        mut a: Matrix,
        block: usize,
        pool: &WorkerPool,
    ) -> Result<Self, LuError> {
        assert!(block > 0, "block size must be positive");
        let n = a.rows();
        if a.cols() != n {
            return Err(LuError::NotSquare {
                rows: n,
                cols: a.cols(),
            });
        }
        let mut pivots = vec![0usize; n];

        for k in (0..n).step_by(block) {
            let kb = block.min(n - k);
            factor_panel(&mut a, k, kb, &mut pivots)?;
            if k + kb < n {
                update_trailing_parallel(&mut a, k, kb, pool);
            }
        }
        apply_deferred_swaps(&mut a, &pivots, block);

        Ok(LuFactorization {
            lu: a,
            pivots,
            block,
        })
    }

    /// The packed `L`/`U` factors.
    pub fn packed(&self) -> &Matrix {
        &self.lu
    }

    /// The pivot row chosen at each elimination step.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// The block size used.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.order();
        assert_eq!(b.len(), n, "right-hand side length must match order");
        let mut x = b.to_vec();
        // Apply the row interchanges in factorisation order.
        for (j, &p) in self.pivots.iter().enumerate() {
            x.swap(j, p);
        }
        // Forward substitution with unit-diagonal L.
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                let col = self.lu.col(j);
                for i in j + 1..n {
                    x[i] -= col[i] * xj;
                }
            }
        }
        // Backward substitution with U.
        for j in (0..n).rev() {
            let col = self.lu.col(j);
            x[j] /= col[j];
            let xj = x[j];
            if xj != 0.0 {
                for i in 0..j {
                    x[i] -= col[i] * xj;
                }
            }
        }
        x
    }

    /// Packages factors computed elsewhere (the steppable/checkpointable
    /// path in [`crate::checkpoint`]).
    pub(crate) fn from_parts(lu: Matrix, pivots: Vec<usize>, block: usize) -> Self {
        LuFactorization { lu, pivots, block }
    }

    /// Reconstructs `P·A` from the factors (test helper; O(n³)).
    pub fn reconstruct_permuted(&self) -> Matrix {
        let n = self.order();
        let mut pa = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                let kmax = i.min(j);
                for k in 0..=kmax {
                    let l = if i == k { 1.0 } else { self.lu[(i, k)] };
                    let u = if k <= j { self.lu[(k, j)] } else { 0.0 };
                    acc += l * u;
                }
                pa[(i, j)] = acc;
            }
        }
        pa
    }
}

/// Unblocked panel factorisation over columns `k..k+kb`, full row height.
/// Pivot swaps apply immediately to the panel and (batched) to the
/// trailing columns; columns left of the panel are settled at the end of
/// the factorisation by [`apply_deferred_swaps`].
pub(crate) fn factor_panel(
    a: &mut Matrix,
    k: usize,
    kb: usize,
    pivots: &mut [usize],
) -> Result<(), LuError> {
    let n = a.rows();
    for j in k..k + kb {
        // Partial pivoting: largest magnitude in column j at/below the diagonal.
        let (piv, best) = {
            let col = a.col(j);
            let mut piv = j;
            let mut best = col[j].abs();
            for (i, v) in col.iter().enumerate().skip(j + 1) {
                let v = v.abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            (piv, best)
        };
        if best == 0.0 {
            return Err(LuError::Singular { column: j });
        }
        pivots[j] = piv;
        // Swap only the panel columns now; the rank-1 updates below never
        // read outside the panel, so the remaining columns take their
        // swaps in one cache-friendly batch at the end (LAPACK's deferred
        // `laswp`). The final matrix is element-for-element the same as
        // with immediate full-row swaps.
        if piv != j {
            let data = a.as_mut_slice();
            for c in k..k + kb {
                data.swap(c * n + j, c * n + piv);
            }
        }

        {
            let col = a.col_mut(j);
            let diag = col[j];
            for v in &mut col[j + 1..] {
                *v /= diag;
            }
        }
        // Rank-1 update restricted to the remaining panel columns
        // (`c − l·mult` as `c + l·(−mult)`, exact under IEEE 754).
        for jj in j + 1..k + kb {
            let (lcol, ccol) = a.col_pair_mut(j, jj);
            let mult = ccol[j];
            if mult == 0.0 {
                continue;
            }
            axpy(&mut ccol[j + 1..], &lcol[j + 1..], -mult);
        }
    }
    // Deferred row interchanges for the *trailing* columns only (the
    // block-row solve and trailing update read them next), one column at a
    // time so each column stays cache-resident for its whole swap
    // sequence. Columns left of the panel are finished factors that
    // nothing reads again until the factorisation completes; they take
    // every later panel's swaps in one final [`apply_deferred_swaps`]
    // pass.
    let data = a.as_mut_slice();
    for col in data[(k + kb) * n..].chunks_exact_mut(n) {
        for (j, &piv) in pivots[k..k + kb].iter().enumerate() {
            col.swap(k + j, piv);
        }
    }
    Ok(())
}

/// Applies, to every factored column, the row interchanges recorded by
/// all panels *after* its own — the left-of-panel half of LAPACK's
/// `laswp` that [`factor_panel`] defers so each column is revisited once
/// instead of once per later panel. Swaps apply in ascending pivot-row
/// order, exactly the order immediate swapping would have used, so the
/// final matrix is element-for-element identical.
pub(crate) fn apply_deferred_swaps(a: &mut Matrix, pivots: &[usize], block: usize) {
    let n = a.rows();
    let data = a.as_mut_slice();
    for (jj, col) in data.chunks_exact_mut(n).enumerate() {
        let own_panel_end = ((jj / block) * block + block).min(n);
        for (j, &piv) in pivots.iter().enumerate().skip(own_panel_end) {
            col.swap(j, piv);
        }
    }
}

/// Computes `U12 = L11⁻¹ · A12` (unit-lower triangular solve applied to
/// each trailing column's panel rows).
pub(crate) fn solve_block_row(a: &mut Matrix, k: usize, kb: usize) {
    let n = a.rows();
    for jj in k + kb..n {
        for j in k..k + kb {
            let mult = a[(j, jj)];
            for i in j + 1..k + kb {
                let lij = a[(i, j)];
                a[(i, jj)] -= lij * mult;
            }
        }
    }
}

/// Trailing update `A22 ← A22 − L21 · U12` (the GEMM that dominates HPL).
///
/// This is the unpacked reference walk (one streamed axpy per `(p, jj)`
/// pair); [`update_trailing_parallel`] performs the same per-element
/// operation chain through the packed register-tiled kernel.
pub(crate) fn update_trailing(a: &mut Matrix, k: usize, kb: usize) {
    let n = a.rows();
    let rows = n;
    // Split borrows manually through raw column offsets on the backing slice.
    for jj in k + kb..n {
        for p in k..k + kb {
            let mult = a[(p, jj)];
            let (l_col_off, c_col_off) = (p * rows, jj * rows);
            let data = a.as_mut_slice();
            // L21 lives in rows k+kb..n of column p; C in the same rows of column jj.
            for i in k + kb..n {
                let lv = data[l_col_off + i];
                data[c_col_off + i] -= lv * mult;
            }
        }
    }
}

/// Fused block-row solve + packed trailing update, fanned out over
/// `pool` as disjoint column tiles.
///
/// Both phases of the right-looking step are *column-local*: solving
/// `U12[:, jj] = L11⁻¹·A12[:, jj]` touches rows `k..k+kb` of column `jj`,
/// and the trailing update touches rows `k+kb..n` of the same column,
/// reading only the (already final) panel columns. Fusing them per tile
/// therefore preserves the exact per-column operation sequence of
/// `solve_block_row` + `update_trailing`, while `L21` is packed once into
/// a contiguous buffer and streamed by a register-blocked axpy kernel.
pub(crate) fn update_trailing_parallel(a: &mut Matrix, k: usize, kb: usize, pool: &WorkerPool) {
    let n = a.rows();
    let trailing = n - (k + kb);
    if trailing == 0 {
        return;
    }
    // Pack L21 (rows k+kb.., panel columns) once per block step.
    let mut l_buf = take_scratch(trailing * kb);
    pack_block(&mut l_buf, a.as_slice(), n, k + kb, trailing, k, kb);
    let l_pack: &[f64] = &l_buf[..trailing * kb];

    let tiles = pool.even_chunks(trailing);
    let data = a.as_mut_slice();
    // Columns 0..k+kb (including the factored panel) are read-only from
    // here; the trailing columns are written, one disjoint tile per task.
    let (head, tail) = data.split_at_mut((k + kb) * n);
    let panel = &head[k * n..];
    pool.scope(|scope| {
        let mut rest = tail;
        let mut offset = 0;
        for &(_, c1) in &tiles {
            let (tile, remaining) = rest.split_at_mut((c1 - offset) * n);
            rest = remaining;
            offset = c1;
            scope.spawn(move || update_tile(panel, l_pack, tile, n, k, kb));
        }
    });
    put_scratch(l_buf);
}

/// Block-row solve + trailing update for one tile of trailing columns
/// (`cols` holds whole columns, leading dimension `n`).
///
/// The update runs `c − l·mult` as `c + l·(−mult)` through the shared
/// register-tiled accumulate kernel — bit-for-bit the serial chain,
/// since IEEE 754 defines subtraction as addition of the negation.
fn update_tile(panel: &[f64], l_pack: &[f64], cols: &mut [f64], n: usize, k: usize, kb: usize) {
    /// Rows of packed `L21` processed per pass; 48·64·8 B ≈ 24 KiB keeps a
    /// tile L1-resident while every column group streams against it.
    const ROW_PASS: usize = 48;
    let trailing = n - (k + kb);
    let ncols = cols.len() / n;
    // Solve U12 for every tile column first; the update below reads the
    // solved tops only through the negated multiplier pack.
    solve_cols_grouped(panel, cols, n, k, kb);
    // Negated multipliers for the whole tile: f[c·kb + p] = −U12[p, c].
    let mut f_pack = take_scratch(ncols * kb);
    for (c, col) in cols.chunks_exact(n).enumerate() {
        for p in 0..kb {
            f_pack[c * kb + p] = -col[k + p];
        }
    }
    let mut bottoms: Vec<&mut [f64]> = cols
        .chunks_exact_mut(n)
        .map(|col| col.split_at_mut(k + kb).1)
        .collect();
    // Row-tiled update: each L21 row pass stays cache-resident while all
    // column groups stream against it. Per element the `p`-ascending
    // accumulate chain is unchanged, so the factors stay bit-identical.
    let mut i0 = 0;
    while i0 < trailing {
        let ir = ROW_PASS.min(trailing - i0);
        let l_tile = &l_pack[i0..];
        let mut c = 0;
        for group in bottoms.chunks_mut(4) {
            if let [b0, b1, b2, b3] = group {
                accum_group(
                    l_tile,
                    trailing,
                    ir,
                    kb,
                    &f_pack[c * kb..(c + 4) * kb],
                    &mut b0[i0..i0 + ir],
                    &mut b1[i0..i0 + ir],
                    &mut b2[i0..i0 + ir],
                    &mut b3[i0..i0 + ir],
                );
            } else {
                for (q, b) in group.iter_mut().enumerate() {
                    accum_col(
                        l_tile,
                        trailing,
                        ir,
                        kb,
                        &f_pack[(c + q) * kb..(c + q + 1) * kb],
                        &mut b[i0..i0 + ir],
                    );
                }
            }
            c += group.len();
        }
        i0 += ir;
    }
    put_scratch(f_pack);
}

/// Lanes solved together by the transposed block-row solve: sixteen
/// columns ride one SIMD register row pair, each lane running its own
/// column's exact scalar recurrence.
const SOLVE_LANES: usize = 16;

/// Block-row solve for a tile of whole columns (leading dimension `n`):
/// full [`SOLVE_LANES`]-column groups go through the transposed lane
/// kernel, the remainder through the scalar per-column solve. Both run
/// the identical per-element recurrence, so the choice of path never
/// changes a bit.
fn solve_cols_grouped(panel: &[f64], cols: &mut [f64], n: usize, k: usize, kb: usize) {
    let mut t = take_scratch(SOLVE_LANES * kb);
    let mut groups = cols.chunks_exact_mut(SOLVE_LANES * n);
    for group in groups.by_ref() {
        // Transpose the panel rows of the group: t[p·LANES + q] = col_q[k+p].
        for (q, col) in group.chunks_exact(n).enumerate() {
            for p in 0..kb {
                t[p * SOLVE_LANES + q] = col[k + p];
            }
        }
        solve_tops(panel, &mut t[..SOLVE_LANES * kb], n, k, kb);
        for (q, col) in group.chunks_exact_mut(n).enumerate() {
            for p in 0..kb {
                col[k + p] = t[p * SOLVE_LANES + q];
            }
        }
    }
    for col in groups.into_remainder().chunks_exact_mut(n) {
        solve_col(panel, col, n, k, kb);
    }
    put_scratch(t);
}

/// The lane solve over a transposed `kb`×[`SOLVE_LANES`] block of column
/// tops. Lane `q` performs exactly the ops [`solve_col`] would: `j`
/// ascending, then `i` ascending, `t ← t + l·(−mult)`.
#[inline(always)]
fn solve_tops_body(panel: &[f64], t: &mut [f64], n: usize, k: usize, kb: usize) {
    for j in 0..kb {
        let mut m = [0.0f64; SOLVE_LANES];
        m.copy_from_slice(&t[j * SOLVE_LANES..(j + 1) * SOLVE_LANES]);
        for v in &mut m {
            *v = -*v;
        }
        let lcol = &panel[j * n..(j + 1) * n];
        for i in j + 1..kb {
            let l = lcol[k + i];
            let row = &mut t[i * SOLVE_LANES..(i + 1) * SOLVE_LANES];
            for q in 0..SOLVE_LANES {
                row[q] += l * m[q];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod solve_simd {
    use super::{solve_tops_body, SOLVE_LANES};

    /// Explicit 512-bit lane solve: the multiplier row `m` stays in two
    /// `zmm` registers across the whole inner sweep, negated by an exact
    /// sign-bit flip (bitwise identical to the scalar `-x`).
    ///
    /// # Safety
    ///
    /// Caller must have detected `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn solve_tops_zmm(
        panel: &[f64],
        t: &mut [f64],
        n: usize,
        k: usize,
        kb: usize,
    ) {
        use std::arch::x86_64::*;
        const { assert!(SOLVE_LANES == 16) };
        assert!(t.len() >= SOLVE_LANES * kb);
        assert!(kb == 0 || panel.len() >= (kb - 1) * n + k + kb);
        let sign = _mm512_set1_epi64(i64::MIN);
        let tp = t.as_mut_ptr();
        for j in 0..kb {
            let m0 = _mm512_loadu_pd(tp.add(j * SOLVE_LANES));
            let m1 = _mm512_loadu_pd(tp.add(j * SOLVE_LANES + 8));
            let m0 = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(m0), sign));
            let m1 = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(m1), sign));
            for i in j + 1..kb {
                let l = _mm512_set1_pd(*panel.get_unchecked(j * n + k + i));
                let rp = tp.add(i * SOLVE_LANES);
                let r0 = _mm512_add_pd(_mm512_loadu_pd(rp), _mm512_mul_pd(l, m0));
                let r1 = _mm512_add_pd(_mm512_loadu_pd(rp.add(8)), _mm512_mul_pd(l, m1));
                _mm512_storeu_pd(rp, r0);
                _mm512_storeu_pd(rp.add(8), r1);
            }
        }
    }

    /// # Safety
    ///
    /// Caller must have detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn solve_tops_avx2(
        panel: &[f64],
        t: &mut [f64],
        n: usize,
        k: usize,
        kb: usize,
    ) {
        solve_tops_body(panel, t, n, k, kb);
    }
}

/// Feature-dispatched [`solve_tops_body`]. Wider registers change only
/// how many lanes move per instruction, never the per-lane arithmetic, so
/// every dispatch target produces identical bits.
fn solve_tops(panel: &[f64], t: &mut [f64], n: usize, k: usize, kb: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { solve_simd::solve_tops_zmm(panel, t, n, k, kb) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { solve_simd::solve_tops_avx2(panel, t, n, k, kb) };
        }
    }
    solve_tops_body(panel, t, n, k, kb);
}

/// `col[k..k+kb] ← L11⁻¹ · col[k..k+kb]` for one trailing column, reading
/// the unit-lower panel from `panel` (columns `k..k+kb`, leading
/// dimension `n`). Per-element identical to `solve_block_row`'s inner
/// loops for that column.
fn solve_col(panel: &[f64], col: &mut [f64], n: usize, k: usize, kb: usize) {
    for j in 0..kb {
        let mult = col[k + j];
        let l_col = &panel[j * n..(j + 1) * n];
        axpy(
            &mut col[k + j + 1..k + kb],
            &l_col[k + j + 1..k + kb],
            -mult,
        );
    }
}

/// FLOPs of an `n×n` LU factorisation plus triangular solves, per the HPL
/// convention: `2/3·n³ + 3/2·n²`.
pub fn hpl_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 / 3.0 * n * n * n + 1.5 * n * n
}

/// The HPL correctness metric:
/// `‖A·x − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · n)`; runs pass below 16.
pub fn hpl_residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(axi, bi)| axi - bi).collect();
    let eps = f64::EPSILON;
    let denom = eps * (a.norm_inf() * vec_norm_inf(x) + vec_norm_inf(b)) * a.rows() as f64;
    let num = vec_norm_inf(&r);
    if denom == 0.0 {
        // Degenerate all-zero system: exact solve counts as a pass.
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    num / denom
}

/// Threshold below which HPL declares a run numerically correct.
pub const HPL_RESIDUAL_THRESHOLD: f64 = 16.0;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_system(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        (a, b)
    }

    #[test]
    fn factor_solve_passes_hpl_residual() {
        for (n, nb) in [(1, 1), (7, 3), (50, 8), (96, 32), (130, 192)] {
            let (a, b) = random_system(n, n as u64);
            let lu = LuFactorization::factor(a.clone(), nb).unwrap();
            let x = lu.solve(&b);
            let r = hpl_residual(&a, &x, &b);
            assert!(
                r < HPL_RESIDUAL_THRESHOLD,
                "n={n} nb={nb}: residual {r} too large"
            );
        }
    }

    /// A solution holding a NaN (or a NaN beside an ∞) fails the
    /// residual, however many of its entries are finite.
    #[test]
    fn a_non_finite_solution_fails_hpl_residual() {
        let (a, b) = random_system(24, 11);
        let x = LuFactorization::factor(a.clone(), 8).unwrap().solve(&b);
        for bad in [vec![(3, f64::NAN)], vec![(0, f64::NAN), (7, f64::INFINITY)]] {
            let mut x = x.clone();
            for &(i, v) in &bad {
                x[i] = v;
            }
            let r = hpl_residual(&a, &x, &b);
            let passed = r < HPL_RESIDUAL_THRESHOLD;
            assert!(!passed, "{bad:?}: residual {r} passes");
        }
        let all_nan = vec![f64::NAN; 24];
        assert!(hpl_residual(&a, &all_nan, &b).is_nan());
    }

    #[test]
    fn blocked_and_unblocked_factors_agree() {
        let (a, _) = random_system(40, 99);
        let lu1 = LuFactorization::factor(a.clone(), 1).unwrap();
        let lu40 = LuFactorization::factor(a.clone(), 64).unwrap();
        assert!(lu1.packed().max_abs_diff(lu40.packed()) < 1e-11);
        assert_eq!(lu1.pivots(), lu40.pivots());
    }

    #[test]
    fn reconstruction_matches_permuted_input() {
        let (a, _) = random_system(24, 5);
        let lu = LuFactorization::factor(a.clone(), 8).unwrap();
        // Apply recorded pivots to a copy of A and compare with L·U.
        let mut pa = a.clone();
        for (j, &p) in lu.pivots().iter().enumerate() {
            pa.swap_rows(j, p);
        }
        assert!(lu.reconstruct_permuted().max_abs_diff(&pa) < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::zeros(5, 5);
        let err = LuFactorization::factor(a, 2).unwrap_err();
        assert_eq!(err, LuError::Singular { column: 0 });
    }

    #[test]
    fn rectangular_input_is_rejected() {
        let a = Matrix::zeros(4, 5);
        let err = LuFactorization::factor(a, 2).unwrap_err();
        assert_eq!(err, LuError::NotSquare { rows: 4, cols: 5 });
    }

    #[test]
    fn pivoting_handles_zero_leading_element() {
        // A matrix whose (0,0) is zero but is nonsingular overall.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let lu = LuFactorization::factor(a.clone(), 1).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        // A = [0 1; 1 0] -> x = [3, 2].
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn hpl_flops_formula() {
        assert!((hpl_flops(10) - (2000.0 / 3.0 + 150.0)).abs() < 1e-9);
    }

    #[test]
    fn solve_identity_returns_rhs() {
        let lu = LuFactorization::factor(Matrix::identity(6), 2).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(lu.solve(&b), b);
    }
}
