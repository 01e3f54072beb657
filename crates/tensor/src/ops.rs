//! Linear-algebra and element-wise kernels.
//!
//! These are the arithmetic primitives behind the Mamba2 projections
//! ([`Tensor::matmul`]/[`Tensor::matvec`]), the SSM recurrence (element-wise
//! outer products), and the rotation fusions of the quantization algorithm
//! (dense matrix products with Hadamard factors).

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Dense matrix product `self @ rhs` for rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not a
    /// matrix and [`TensorError::MatmulDimMismatch`] when the inner
    /// dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use lightmamba_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), lightmamba_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (m, k) = self.as_matrix_dims()?;
        let (k2, n) = rhs.as_matrix_dims()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        let a = self.data();
        let b = rhs.data();
        let o = out.data_mut();
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut o[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (ov, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *ov += av * bv;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self @ x` where `self` is `(m, k)` and `x`
    /// has `k` elements; returns a length-`m` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix
    /// and [`TensorError::MatmulDimMismatch`] when lengths disagree.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>> {
        let (m, _) = self.as_matrix_dims()?;
        let mut out = vec![0.0f32; m];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matvec`] writing into a caller-provided buffer of length
    /// `m` — the allocation-free variant decode hot paths use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matvec`], plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong length.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        let (m, k) = self.as_matrix_dims()?;
        if x.len() != k {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: x.len(),
            });
        }
        if out.len() != m {
            return Err(TensorError::ShapeMismatch {
                left: vec![m],
                right: vec![out.len()],
            });
        }
        matvec_rows(self.data(), k, x, out);
        Ok(())
    }

    /// Row-batched [`Tensor::matvec_into`]: `xs` holds `rows` vectors of
    /// `k` elements back to back and `out` receives `rows` results of
    /// `m` elements. Each weight block is loaded once and applied to
    /// every row while it is cache-hot — the weight-stationary form of
    /// the tied LM head. Every output is still one serial `k`-term sum
    /// in index order, so row `r` is bit-identical to
    /// `matvec_into(&xs[r*k..], ..)`.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] when `self` is not a matrix,
    /// [`TensorError::MatmulDimMismatch`] when `xs` is not a whole
    /// number of `k`-rows, and [`TensorError::ShapeMismatch`] when `out`
    /// does not hold the same number of `m`-rows.
    pub fn matvec_rows_into(&self, xs: &[f32], out: &mut [f32]) -> Result<()> {
        let (m, k) = self.as_matrix_dims()?;
        check_rows(xs.len(), k, out.len(), m)?;
        matvec_rows(self.data(), k, xs, out);
        Ok(())
    }

    /// Vector–matrix product `x @ self` where `self` is `(k, n)` and `x`
    /// has `k` elements; returns a length-`n` vector.
    ///
    /// This is the natural orientation for activations-times-weights with
    /// row-major weight storage `(in_features, out_features)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix
    /// and [`TensorError::MatmulDimMismatch`] when lengths disagree.
    pub fn vecmat(&self, x: &[f32]) -> Result<Vec<f32>> {
        let (_, n) = self.as_matrix_dims()?;
        let mut out = vec![0.0f32; n];
        self.vecmat_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::vecmat`] writing into a caller-provided buffer of length
    /// `n` — the allocation-free variant decode hot paths use. The buffer
    /// is overwritten, not accumulated into.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::vecmat`], plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong length.
    pub fn vecmat_into(&self, x: &[f32], out: &mut [f32]) -> Result<()> {
        let (k, n) = self.as_matrix_dims()?;
        if x.len() != k {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: x.len(),
                right_rows: k,
            });
        }
        if out.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![n],
                right: vec![out.len()],
            });
        }
        vecmat_rows(self.data(), k, n, x, out);
        Ok(())
    }

    /// Row-batched [`Tensor::vecmat_into`]: `xs` holds `rows` vectors of
    /// `k` elements back to back and `out` receives `rows` results of
    /// `n` elements. The weight is streamed once, a column tile at a
    /// time, and each tile row is applied to every input row while it
    /// is cache-hot. Every output still accumulates its `k` terms in
    /// index order, skipping zero activations, so row `r` is
    /// bit-identical to `vecmat_into(&xs[r*k..], ..)`.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] when `self` is not a matrix,
    /// [`TensorError::MatmulDimMismatch`] when `xs` is not a whole
    /// number of `k`-rows, and [`TensorError::ShapeMismatch`] when `out`
    /// does not hold the same number of `n`-rows.
    pub fn vecmat_rows_into(&self, xs: &[f32], out: &mut [f32]) -> Result<()> {
        let (k, n) = self.as_matrix_dims()?;
        check_rows(xs.len(), k, out.len(), n)?;
        vecmat_rows(self.data(), k, n, xs, out);
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not a matrix.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = self.as_matrix_dims()?;
        let a = self.data();
        let mut out = Tensor::zeros(&[n, m]);
        let o = out.data_mut();
        for i in 0..m {
            for j in 0..n {
                o[j * m + i] = a[i * n + j];
            }
        }
        Ok(out)
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product — the `⊙` of the paper's Eq. 1a.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Frobenius (L2) norm over all elements.
    pub fn frobenius_norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Checks that `xs_len` and `out_len` hold the same whole number of
/// rows of `k` inputs and `n` outputs respectively.
fn check_rows(xs_len: usize, k: usize, out_len: usize, n: usize) -> Result<()> {
    let rows = match (k, n) {
        (0, 0) => 0,
        (0, n) => out_len / n,
        (k, _) => xs_len / k,
    };
    if xs_len != rows * k {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: xs_len,
        });
    }
    if out_len != rows * n {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows, n],
            right: vec![out_len],
        });
    }
    Ok(())
}

/// `out[r][i] = Σ_p a[i][p] · xs[r][p]` for `a` holding `m` rows of `k`
/// weights and `xs` holding `rows` inputs of `k` — the row-batched
/// matrix–vector product behind [`Tensor::matvec_rows_into`], also used
/// on raw slices (the SSM's `y = h·C` is one such product per head).
///
/// Every output is one serial `k`-term sum in index order, exactly as a
/// plain dot-product loop computes it; speed comes from running many of
/// those chains side by side. Rows go in tiles of up to four, the
/// tile's inputs transposed so the rows are the vector lanes and each
/// weight is loaded once per tile; a last single row runs four outputs
/// at a time instead.
///
/// # Panics
///
/// When `k` is zero while `a` is not empty, or when `xs` and `out` do
/// not hold the same number of rows of `k` and `m` values.
pub fn matvec_rows(a: &[f32], k: usize, xs: &[f32], out: &mut [f32]) {
    if k == 0 {
        assert!(a.is_empty(), "matvec_rows: zero-width rows");
        out.fill(0.0);
        return;
    }
    let m = a.len() / k;
    let rows = xs.len() / k;
    assert!(
        xs.len() == rows * k && out.len() == rows * m && a.len() == m * k,
        "matvec_rows: shape mismatch"
    );
    if m == 0 {
        return;
    }
    for (xs, out) in xs.chunks(ROW_TILE * k).zip(out.chunks_mut(ROW_TILE * m)) {
        if xs.len() == k {
            matvec_one(a, k, xs, out);
        } else {
            matvec_tile(a, k, xs, out);
        }
    }
}

/// Rows per tile of [`matvec_rows`] (one f32 vector of lanes).
const ROW_TILE: usize = 4;

/// Outputs per block of [`matvec_tile`].
const TILE_OUTPUTS: usize = 8;

/// Input positions transposed at a time by [`matvec_tile`] (a stack
/// buffer, so the kernel needs no scratch).
const TILE_DEPTH: usize = 256;

/// Outputs per register block of the single-row path: that many
/// independent chains keep the adder pipeline full.
const DOT_BLOCK: usize = 4;

/// [`matvec_rows`] for one input row: [`DOT_BLOCK`] outputs at a time,
/// remainder one at a time.
fn matvec_one(a: &[f32], k: usize, x: &[f32], out: &mut [f32]) {
    let full = out.len() - out.len() % DOT_BLOCK;
    let (head, tail) = out.split_at_mut(full);
    let (a_head, a_tail) = a.split_at(full * k);
    for (o, w) in head
        .chunks_exact_mut(DOT_BLOCK)
        .zip(a_head.chunks_exact(DOT_BLOCK * k))
    {
        let w: [&[f32]; DOT_BLOCK] = std::array::from_fn(|j| &w[j * k..(j + 1) * k]);
        o.copy_from_slice(&dot_block(w, x));
    }
    for (o, w) in tail.iter_mut().zip(a_tail.chunks_exact(k)) {
        *o = dot_block([w], x)[0];
    }
}

/// `B` dot products of the weight rows `w` with `x`, as `B` independent
/// serial chains. Weights are read as `B × 4` tiles and consumed column
/// by column, which the compiler turns into vector lanes (one output per
/// lane) while each chain still adds its terms in index order.
#[inline(always)]
fn dot_block<const B: usize>(w: [&[f32]; B], x: &[f32]) -> [f32; B] {
    let k = x.len();
    let w = w.map(|row| &row[..k]);
    let full = k - k % 4;
    let mut acc = [0.0f32; B];
    for (q, xq) in x[..full].chunks_exact(4).enumerate() {
        let tile: [[f32; 4]; B] = std::array::from_fn(|j| std::array::from_fn(|t| w[j][4 * q + t]));
        for (t, &xv) in xq.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&tile) {
                *a += row[t] * xv;
            }
        }
    }
    for (p, &xv) in x.iter().enumerate().skip(full) {
        for (a, row) in acc.iter_mut().zip(&w) {
            *a += row[p] * xv;
        }
    }
    acc
}

/// [`matvec_rows`] for a tile of two to [`ROW_TILE`] rows: the rows'
/// inputs are transposed, [`TILE_DEPTH`] positions at a time, so that
/// each weight is broadcast once against all rows, up to
/// [`TILE_OUTPUTS`] outputs at a time. Partial sums park in `out`
/// between depth chunks (an exact f32 store and reload), so each output
/// is still one serial chain.
fn matvec_tile(a: &[f32], k: usize, xs: &[f32], out: &mut [f32]) {
    let m = a.len() / k;
    let rows = xs.len() / k;
    for p0 in (0..k).step_by(TILE_DEPTH) {
        let depth = TILE_DEPTH.min(k - p0);
        let mut xt = [[0.0f32; ROW_TILE]; TILE_DEPTH];
        for (r, x) in xs.chunks_exact(k).enumerate() {
            for (lanes, &v) in xt.iter_mut().zip(&x[p0..p0 + depth]) {
                lanes[r] = v;
            }
        }
        let mut i = 0;
        while i < m {
            let block = TILE_OUTPUTS.min(m - i);
            let mut acc = [[0.0f32; ROW_TILE]; TILE_OUTPUTS];
            if p0 > 0 {
                for r in 0..rows {
                    for j in 0..block {
                        acc[j][r] = out[r * m + i + j];
                    }
                }
            }
            let w: [&[f32]; TILE_OUTPUTS] = std::array::from_fn(|j| {
                let row = (i + j.min(block - 1)) * k + p0;
                &a[row..row + depth]
            });
            for p in 0..depth {
                let xv = &xt[p];
                for j in 0..TILE_OUTPUTS {
                    let wv = w[j][p];
                    for r in 0..ROW_TILE {
                        acc[j][r] += wv * xv[r];
                    }
                }
            }
            for r in 0..rows {
                for j in 0..block {
                    out[r * m + i + j] = acc[j][r];
                }
            }
            i += block;
        }
    }
}

/// Output columns per tile of [`vecmat_rows`]: every row's slice of the
/// tile stays in L1 while the weight tile streams past.
const VECMAT_TILE: usize = 256;

/// `out[r] = xs[r] @ a` for `a` of shape `(k, n)`: per column tile, each
/// weight row slice is applied to every input row (zero activations
/// skipped), so the weight is read once per call however many rows.
fn vecmat_rows(a: &[f32], k: usize, n: usize, xs: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    if k == 0 || n == 0 {
        return;
    }
    for j0 in (0..n).step_by(VECMAT_TILE) {
        let j1 = (j0 + VECMAT_TILE).min(n);
        for p in 0..k {
            let w = &a[p * n + j0..p * n + j1];
            for (x, o) in xs.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let xv = x[p];
                if xv == 0.0 {
                    continue;
                }
                for (ov, &wv) in o[j0..j1].iter_mut().zip(w) {
                    *ov += xv * wv;
                }
            }
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Outer product accumulate: `out[i][j] += scale * a[i] * b[j]`.
///
/// This is the `(Δ·B)⊗x` update at the heart of the SSM state recurrence,
/// written against raw slices so the quantized path can reuse it.
///
/// # Panics
///
/// Panics when `out.len() != a.len() * b.len()`.
pub fn outer_accumulate(out: &mut [f32], a: &[f32], b: &[f32], scale: f32) {
    assert_eq!(
        out.len(),
        a.len() * b.len(),
        "outer product output length mismatch"
    );
    let n = b.len();
    for (i, &av) in a.iter().enumerate() {
        let row = &mut out[i * n..(i + 1) * n];
        let s = av * scale;
        for (o, &bv) in row.iter_mut().zip(b.iter()) {
            *o += s * bv;
        }
    }
}

/// In-place AXPY: `y[i] += alpha * x[i]`.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yo, &xv) in y.iter_mut().zip(x.iter()) {
        *yo += alpha * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_vecmat_agree_with_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = [1.0, -1.0, 2.0];
        let mv = a.matvec(&x).unwrap();
        assert_eq!(mv, vec![5.0, 11.0]);
        let y = [1.0, -1.0];
        let vm = a.vecmat(&y).unwrap();
        assert_eq!(vm, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn row_products_reject_partial_rows() {
        let a = Tensor::zeros(&[2, 3]);
        let mut out = [0.0; 4];
        assert!(a.matvec_rows_into(&[1.0; 5], &mut out).is_err());
        assert!(a.matvec_rows_into(&[1.0; 6], &mut out[..3]).is_err());
        a.matvec_rows_into(&[1.0; 6], &mut out).unwrap();
        let mut out = [0.0; 6];
        assert!(a.vecmat_rows_into(&[1.0; 3], &mut out).is_err());
        assert!(a.vecmat_rows_into(&[1.0; 4], &mut out[..5]).is_err());
        a.vecmat_rows_into(&[1.0; 4], &mut out).unwrap();
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -3.0]);
        assert_eq!(a.mul_elem(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dot_outer_axpy() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut out = vec![0.0; 4];
        outer_accumulate(&mut out, &[1.0, 2.0], &[3.0, 4.0], 1.0);
        assert_eq!(out, vec![3.0, 4.0, 6.0, 8.0]);
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, 2.0, &[1.0, 3.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
