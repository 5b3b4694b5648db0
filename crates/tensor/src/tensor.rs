use crate::error::ShapeError;
use crate::rng::XorShiftRng;
use crate::{elementwise, scratch};

/// An owned, row-major, N-dimensional `f32` array.
///
/// `Tensor` is the single data type flowing through the whole workspace:
/// weight matrices, activations, gradients, conductance matrices, and
/// dataset batches. It is deliberately simple — owned storage, row-major
/// layout, shape-checked operations — because the simulation workloads here
/// are small enough that views/strides would add complexity without paying
/// for themselves.
///
/// # Example
///
/// ```
/// use xbar_tensor::Tensor;
///
/// # fn main() -> Result<(), xbar_tensor::ShapeError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    /// Pooled deep copy: draws the destination buffer from the
    /// thread-local [`crate::scratch`] pool when a same-size buffer is
    /// parked, so steady-state clones (weight snapshots, layer caches,
    /// replica broadcasts) skip the allocator just like
    /// [`Tensor::zeros`] does.
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            data: scratch::take_copied(&self.data),
        }
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// Draws the backing buffer from the thread-local [`crate::scratch`]
    /// pool when a previously dropped tensor of the same size is
    /// available, so steady-state loops (training steps, sweep cells)
    /// stop hitting the allocator after their first iteration.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value` (pooled, see [`Tensor::zeros`]).
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: scratch::take_filled(shape.iter().product(), value),
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the product of
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(ShapeError::new(
                "from_vec",
                format!("buffer length {} != shape product {expected}", data.len()),
            ));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor with elements drawn from `f(index)`.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Creates a tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut XorShiftRng) -> Self {
        Self::from_fn(shape, |_| rng.uniform(lo, hi))
    }

    /// Creates a tensor with i.i.d. normal entries.
    pub fn rand_normal(shape: &[usize], mean: f32, std_dev: f32, rng: &mut XorShiftRng) -> Self {
        Self::from_fn(shape, |_| rng.normal_with(mean, std_dev))
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds
    /// (debug-checked per dimension).
    fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            debug_assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            off = off * s + i;
        }
        off
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match [`Tensor::ndim`].
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match [`Tensor::ndim`].
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(ShapeError::new(
                "reshape",
                format!(
                    "cannot reshape {:?} ({} elems) to {:?} ({expected} elems)",
                    self.shape,
                    self.data.len(),
                    shape
                ),
            ));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the tensor is not 2-D.
    pub fn transpose(&self) -> Result<Self, ShapeError> {
        if self.ndim() != 2 {
            return Err(ShapeError::new(
                "transpose",
                format!("expected 2-D tensor, got {:?}", self.shape),
            ));
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            // `f` moves into the iterator rather than being borrowed, so
            // the values it captures stay in registers and the loop can
            // vectorise.
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, ShapeError> {
        self.check_same_shape("zip", other)?;
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    fn check_same_shape(&self, op: &'static str, other: &Self) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                op,
                format!("shapes {:?} and {:?} differ", self.shape, other.shape),
            ));
        }
        Ok(())
    }

    /// Elementwise sum of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, ShapeError> {
        self.zip(other, |a, b| a * b)
    }

    /// Adds `other * scale` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes differ.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) -> Result<(), ShapeError> {
        self.check_same_shape("add_scaled", other)?;
        elementwise::axpy(&mut self.data, &other.data, scale);
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute element (`0.0` for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Clamps every element to `[lo, hi]` in place.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        self.map_inplace(|x| x.clamp(lo, hi));
    }

    /// Copies row `r` of a 2-D tensor into a new 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> Self {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(r < self.shape[0], "row {r} out of bounds");
        Self {
            shape: vec![cols],
            data: self.data[r * cols..(r + 1) * cols].to_vec(),
        }
    }

    /// Copies column `c` of a 2-D tensor into a new 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `c` is out of bounds.
    pub fn col(&self, c: usize) -> Self {
        assert_eq!(self.ndim(), 2, "col() requires a 2-D tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        assert!(c < cols, "col {c} out of bounds");
        Self {
            shape: vec![rows],
            data: (0..rows).map(|r| self.data[r * cols + c]).collect(),
        }
    }

    /// Copies the `rows × cols` block of a 2-D tensor whose top-left
    /// element is `(r0, c0)` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the block runs past its edges.
    pub fn block(&self, r0: usize, rows: usize, c0: usize, cols: usize) -> Self {
        assert_eq!(self.ndim(), 2, "block() requires a 2-D tensor");
        let width = self.shape[1];
        assert!(
            r0 + rows <= self.shape[0] && c0 + cols <= width,
            "block out of bounds"
        );
        let src = (r0..r0 + rows).map(|r| &self.data[r * width + c0..][..cols]);
        Self {
            shape: vec![rows, cols],
            data: scratch::take_gathered(rows * cols, src),
        }
    }

    /// Writes the 2-D tensor `src` into this one with its top-left element
    /// at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or `src` runs past this tensor's
    /// edges.
    pub fn write_block(&mut self, r0: usize, c0: usize, src: &Self) {
        assert!(
            self.ndim() == 2 && src.ndim() == 2,
            "write_block() requires 2-D tensors"
        );
        let width = self.shape[1];
        let (rows, cols) = (src.shape[0], src.shape[1]);
        assert!(
            r0 + rows <= self.shape[0] && c0 + cols <= width,
            "block out of bounds"
        );
        for r in 0..rows {
            self.data[(r0 + r) * width + c0..][..cols]
                .copy_from_slice(&src.data[r * cols..(r + 1) * cols]);
        }
    }

    /// Reorders the rows of a 2-D tensor: row `p` of the result is row
    /// `perm[p]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or an index is out of bounds.
    pub fn permute_rows(&self, perm: &[usize]) -> Self {
        assert_eq!(self.ndim(), 2, "permute_rows() requires a 2-D tensor");
        let cols = self.shape[1];
        let src = perm.iter().map(|&r| &self.data[r * cols..(r + 1) * cols]);
        Self {
            shape: vec![perm.len(), cols],
            data: scratch::take_gathered(perm.len() * cols, src),
        }
    }

    /// True when every pairwise element difference is at most `tol`.
    ///
    /// Shapes must match exactly; mismatched shapes return `false`.
    pub fn all_close(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Index of the maximum element of a 1-D tensor (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl Drop for Tensor {
    /// Parks the data buffer in the thread-local [`crate::scratch`] pool
    /// so the next same-size [`Tensor::zeros`]/[`Tensor::full`] skips the
    /// allocator.
    fn drop(&mut self) {
        if !self.data.is_empty() {
            scratch::give(std::mem::take(&mut self.data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_values() {
        assert!(Tensor::zeros(&[2, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
        let eye = Tensor::eye(3);
        assert_eq!(eye.at(&[0, 0]), 1.0);
        assert_eq!(eye.at(&[0, 1]), 0.0);
        assert_eq!(eye.sum(), 3.0);
    }

    #[test]
    fn from_vec_rejects_bad_lengths() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn at_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 0]) = 5.0;
        assert_eq!(t.data(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn reshape_checks_element_count() {
        let t = Tensor::zeros(&[2, 6]);
        assert!(t.reshape(&[3, 4]).is_ok());
        assert!(t.reshape(&[5, 2]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.transpose().unwrap(), t);
    }

    #[test]
    fn transpose_rejects_non_2d() {
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn arithmetic_matches_manual_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, 1.5, 2.5, 3.5], &[2, 2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[1.5, 3.5, 5.5, 7.5]);
        assert_eq!(a.sub(&b).unwrap().data(), &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(a.mul(&b).unwrap().data(), &[0.5, 3.0, 7.5, 14.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.add_scaled(&b, -0.5).unwrap();
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn reductions_match_manual_computation() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn clamp_bounds_all_elements() {
        let mut t = Tensor::from_vec(vec![-2.0, 0.5, 9.0], &[3]).unwrap();
        t.clamp_inplace(0.0, 1.0);
        assert_eq!(t.data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn row_and_col_extract_correctly() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.row(1).data(), &[4.0, 5.0, 6.0]);
        assert_eq!(t.col(2).data(), &[3.0, 6.0]);
    }

    #[test]
    fn blocks_and_row_permutations_copy_exactly() {
        let t = Tensor::from_fn(&[3, 4], |i| i as f32);
        let b = t.block(1, 2, 1, 3);
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.data(), &[5.0, 6.0, 7.0, 9.0, 10.0, 11.0]);
        let mut dst = Tensor::zeros(&[3, 4]);
        dst.write_block(1, 1, &b);
        assert_eq!(dst.block(1, 2, 1, 3), b);
        assert_eq!(dst.block(0, 1, 0, 4).data(), &[0.0; 4]);
        assert_eq!(dst.block(0, 3, 0, 1).data(), &[0.0; 3]);
        let p = t.permute_rows(&[2, 0]);
        assert_eq!(p.data(), &[8.0, 9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_returns_first_max() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 2.0], &[4]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn all_close_tolerates_small_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0 - 1e-7], &[2]).unwrap();
        assert!(a.all_close(&b, 1e-6));
        assert!(!a.all_close(&b, 1e-9));
        assert!(!a.all_close(&Tensor::zeros(&[3]), 1.0));
    }

    #[test]
    fn random_tensors_are_deterministic_per_seed() {
        let mut r1 = XorShiftRng::new(11);
        let mut r2 = XorShiftRng::new(11);
        let a = Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut r1);
        let b = Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
