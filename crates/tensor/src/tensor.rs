//! The dense tensor type: contiguous row-major `f32` storage over a
//! refcounted, copy-on-write slab.

use crate::shape::Shape;
use bytes::BufMut;
use std::fmt;
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the unit of model state in flor-rs: weights, gradients, optimizer
/// moment buffers, activations and batches are all `Tensor`s. Checkpoints
/// serialize tensors with [`Tensor::to_bytes`] / [`Tensor::write_payload`].
///
/// Storage is a refcounted slab (`Arc<Vec<f32>>`) with **copy-on-write**
/// mutation: cloning a tensor is an `Arc` bump, and [`Tensor::data_mut`]
/// copies the slab only when another handle still references it. This is
/// the userspace analogue of the paper's `fork()` checkpointing — a
/// snapshot taken by the background materializer holds the slab for free,
/// and the training thread pays one copy per slab only if it mutates that
/// state while the snapshot is in flight. Value semantics are preserved:
/// mutation through one handle is never visible through another.
///
/// Operations allocate their results; in-place variants (`*_inplace`,
/// [`Tensor::axpy`]) exist for the optimizer hot path.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![value; n]),
        }
    }

    /// Rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(Vec::new()),
            data: Arc::new(vec![value]),
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([values.len()]),
            data: Arc::new(values.to_vec()),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major). Copy-on-write: if a
    /// snapshot (or any other handle) still shares this slab, it is copied
    /// once here before mutation — the fork()-style page-copy moment.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with shape {}",
            self.shape
        );
        self.data[0]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} ({} elems) to {} ({} elems)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    // ---- elementwise -----------------------------------------------------

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// `self += alpha * other`, the optimizer hot path (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy on mismatched shapes {} vs {}",
            self.shape, other.shape
        );
        for (x, &y) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Adds a bias vector to every row of a `[rows, cols]` matrix.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2 and `bias` is rank-1 of length `cols`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "add_row_broadcast requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(
            bias.shape.dims(),
            &[cols],
            "bias shape {} incompatible with {} columns",
            bias.shape,
            cols
        );
        let mut data = self.data().to_vec();
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] += bias.data[c];
            }
        }
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(data),
        }
    }

    // ---- reductions ------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of all elements. This is the quantity Alice probes in the
    /// paper's §2.1 scenario ("magnitudes of the weights and gradients").
    ///
    /// Each square is exact in `f64` (an `f32` has a 24-bit significand),
    /// and the squares accumulate in `f64` in a fixed order: element `i`
    /// of the first `8 * (n / 8)` goes to lane `i % 8`, the remaining
    /// `n % 8` elements go in index order to a ninth accumulator, and the
    /// result is `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, plus
    /// that tail, then the square root, rounded to `f32`. One add chain
    /// waits on each add's latency; eight independent lanes do not (about
    /// twice the throughput on x86-64). The order is fixed, so the result
    /// is deterministic on every target.
    pub fn norm(&self) -> f32 {
        const LANES: usize = 8;
        let chunks = self.data.chunks_exact(LANES);
        let mut tail = 0.0f64;
        for &x in chunks.remainder() {
            tail += f64::from(x) * f64::from(x);
        }
        let mut lanes = [0.0f64; LANES];
        for chunk in chunks {
            for (acc, &x) in lanes.iter_mut().zip(chunk) {
                *acc += f64::from(x) * f64::from(x);
            }
        }
        let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
        let sum = (((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))) + tail;
        sum.sqrt() as f32
    }

    /// Maximum element; `-inf` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Column-wise sum of a `[rows, cols]` matrix, yielding a `[cols]` vector.
    /// Used by bias gradients.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "sum_rows requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::new([cols], out)
    }

    /// Index of the maximum element in each row of a `[rows, cols]` matrix.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2 with at least one column.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(cols > 0, "argmax_rows requires at least one column");
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                // First index of the maximum (ties break low, like argmax).
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // ---- linear algebra ---------------------------------------------------

    /// Matrix product of `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    /// Panics unless both operands are rank-2 with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matmul lhs must be a matrix");
        assert_eq!(other.shape.rank(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dims differ: {} vs {}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        // ikj loop order: streams over rhs rows, friendly to the cache.
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &other.data[p * n..(p + 1) * n];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Tensor::new([m, n], out)
    }

    /// Matrix transpose `[m, n] → [n, m]`.
    ///
    /// # Panics
    /// Panics unless `self` is rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::new([n, m], out)
    }

    // ---- serialization ----------------------------------------------------

    /// Exact length in bytes of the [`Tensor::to_bytes`] /
    /// [`Tensor::write_payload`] encoding, computed without serializing.
    pub fn payload_len(&self) -> usize {
        4 + self.shape.dims().len() * 4 + self.data.len() * 4
    }

    /// Appends the [`Tensor::to_bytes`] encoding to `out` — the
    /// `Bytes`-backed export path: the background materializer calls this
    /// with a pooled buffer, so the training thread only ever hands over a
    /// refcounted slab handle and never serializes. On little-endian
    /// targets the data section is a single `memcpy` of the slab.
    pub fn write_payload(&self, out: &mut impl BufMut) {
        let dims = self.shape.dims();
        out.put_u32_le(dims.len() as u32);
        for &d in dims {
            out.put_u32_le(d as u32);
        }
        #[cfg(target_endian = "little")]
        {
            let f: &[f32] = &self.data;
            // Sound: f32 has no padding or invalid bit patterns as bytes,
            // u8 alignment is 1, and on little-endian the in-memory bytes
            // are exactly the wire (LE) encoding.
            let raw: &[u8] = unsafe {
                std::slice::from_raw_parts(f.as_ptr() as *const u8, std::mem::size_of_val(f))
            };
            out.put_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        for &x in self.data.iter() {
            out.put_slice(&x.to_le_bytes());
        }
    }

    /// Encodes the tensor as bytes: rank, dims (little-endian u32), then raw
    /// little-endian f32 data. Stable across platforms.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = bytes::BytesMut::with_capacity(self.payload_len());
        self.write_payload(&mut out);
        out.into_vec()
    }

    /// Decodes a tensor previously produced by [`Tensor::to_bytes`].
    ///
    /// Returns `None` if the buffer is truncated or inconsistent.
    pub fn from_bytes(bytes: &[u8]) -> Option<Tensor> {
        let enc = TensorBytes::parse(bytes)?;
        let mut data = vec![0.0; enc.shape.numel()];
        le_to_f32(&mut data, enc.data);
        Some(Tensor {
            shape: enc.shape,
            data: Arc::new(data),
        })
    }

    /// Overwrites this tensor with `enc`'s shape and values, and says
    /// whether it kept its slab. The slab is kept — the values converted
    /// straight into it, no allocation — when no other handle shares it
    /// and its length matches; otherwise the tensor gets a fresh slab and
    /// every other handle keeps the values it had (copy-on-write).
    pub fn load(&mut self, enc: &TensorBytes<'_>) -> bool {
        let n = enc.shape.numel();
        self.shape = enc.shape.clone();
        if let Some(slab) = Arc::get_mut(&mut self.data).filter(|s| s.len() == n) {
            le_to_f32(slab, enc.data);
            return true;
        }
        let mut data = vec![0.0; n];
        le_to_f32(&mut data, enc.data);
        self.data = Arc::new(data);
        false
    }
}

/// A tensor's [`Tensor::to_bytes`] encoding, checked but not yet
/// converted: [`Tensor::load`] converts it into a tensor's own slab.
#[derive(Debug, Clone)]
pub struct TensorBytes<'a> {
    shape: Shape,
    /// `shape.numel()` little-endian `f32`s.
    data: &'a [u8],
}

impl<'a> TensorBytes<'a> {
    /// Checks an encoding; `None` if it is truncated, carries trailing
    /// bytes, or declares an implausible rank.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut pos = 0usize;
        let read_u32 = |pos: &mut usize| -> Option<u32> {
            let end = pos.checked_add(4)?;
            let v = u32::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
            *pos = end;
            Some(v)
        };
        let rank = read_u32(&mut pos)? as usize;
        if rank > 8 {
            return None; // corrupt: we never build tensors this deep
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut pos)? as usize);
        }
        let shape = Shape::new(dims);
        let need = shape.numel().checked_mul(4)?;
        if pos.checked_add(need)? != bytes.len() {
            return None; // truncated, or trailing garbage
        }
        Some(TensorBytes {
            shape,
            data: &bytes[pos..],
        })
    }

    /// The encoded tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

/// Converts little-endian `f32` bytes into `dst` (`src.len() == 4 *
/// dst.len()`). On little-endian targets the wire bytes are the
/// in-memory bytes, so this is one `memcpy` — the mirror of
/// [`Tensor::write_payload`]'s fast path.
fn le_to_f32(dst: &mut [f32], src: &[u8]) {
    assert_eq!(src.len(), std::mem::size_of_val(dst), "payload length");
    #[cfg(target_endian = "little")]
    {
        // Sound: the lengths match (asserted), the regions cannot overlap
        // (`dst` is borrowed mutably), every bit pattern is a valid f32,
        // and u8 alignment is 1.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr() as *mut u8, src.len())
        };
    }
    #[cfg(not(target_endian = "little"))]
    for (x, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *x = f32::from_le_bytes(c.try_into().unwrap());
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{}, {}, … ({} elems), norm={:.4}]",
                self.data[0],
                self.data[1],
                self.numel(),
                self.norm()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::new([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.numel(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_length_mismatch_panics() {
        Tensor::new([2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_ones_full_scalar() {
        assert_eq!(Tensor::zeros([3]).sum(), 0.0);
        assert_eq!(Tensor::ones([3]).sum(), 3.0);
        assert_eq!(Tensor::full([2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new([2, 2], vec![3., -1., 4., 2.]);
        let eye = Tensor::new([2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye).data(), a.data());
        assert_eq!(eye.matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[0, 1]), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1., 1., 1.]);
        let g = Tensor::from_slice(&[1., 2., 3.]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.sum_rows().data(), &[4., 6.]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::new([2, 3], vec![0.1, 0.9, 0.5, 0.7, 0.2, 0.7]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn add_row_broadcast() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_slice(&[10., 20.]);
        assert_eq!(a.add_row_broadcast(&b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = a.reshape([3, 2]);
        assert_eq!(b.at(&[2, 1]), 6.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Tensor::new([2, 3], vec![1., -2.5, 3., 0., 5., 6.75]);
        let bytes = a.to_bytes();
        let b = Tensor::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(a, b);
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let a = Tensor::new([4], vec![1., 2., 3., 4.]);
        let bytes = a.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Tensor::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = Tensor::from_slice(&[1.0]).to_bytes();
        bytes.push(0);
        assert!(Tensor::from_bytes(&bytes).is_none());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        // Clone shares the slab (no copy yet).
        assert!(std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
        b.data_mut()[0] = 9.0;
        // Mutation through one handle never leaks into the other.
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
        assert!(!std::ptr::eq(a.data().as_ptr(), b.data().as_ptr()));
    }

    #[test]
    fn unshared_mutation_does_not_copy() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let before = a.data().as_ptr();
        a.map_inplace(|x| x * 2.0);
        a.axpy(1.0, &Tensor::from_slice(&[1.0, 1.0]));
        assert!(
            std::ptr::eq(before, a.data().as_ptr()),
            "sole owner mutates in place"
        );
        assert_eq!(a.data(), &[3.0, 5.0]);
    }

    #[test]
    fn write_payload_matches_to_bytes() {
        let t = Tensor::new([2, 3], vec![1.0, -2.5, 3.0, 0.0, f32::MIN, 6.75]);
        let mut buf = bytes::BytesMut::new();
        t.write_payload(&mut buf);
        assert_eq!(buf.as_ref(), t.to_bytes().as_slice());
        assert_eq!(buf.len(), t.payload_len());
        // Appends — must not clear what's already in the buffer.
        t.write_payload(&mut buf);
        assert_eq!(buf.len(), 2 * t.payload_len());
    }

    /// The serial reference `norm` replaced: one `f64` add chain in
    /// index order.
    fn serial_norm(t: &Tensor) -> f32 {
        t.data()
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt() as f32
    }

    #[test]
    fn lane_norm_equals_the_serial_reference_in_f32() {
        let mut rng = crate::Pcg64::seeded(0x4E0E);
        let mut checked = 0;
        for n in [0, 1, 7, 8, 9, 4096, 37_764, 250_000] {
            for scale in [1e-3f32, 0.1, 1.0, 30.0] {
                for _ in 0..if n < 10_000 { 16 } else { 2 } {
                    let t = crate::init::normal([n], 0.0, scale, &mut rng);
                    // Bit-equal, except that std's float `sum` starts from
                    // -0.0, so the serial norm of nothing is -0.0.
                    let (lanes, serial) = (t.norm(), serial_norm(&t));
                    if n == 0 {
                        assert_eq!((lanes, serial), (0.0, 0.0));
                    } else {
                        assert_eq!(
                            lanes.to_bits(),
                            serial.to_bits(),
                            "n = {n}, scale = {scale}"
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 4 * (6 * 16 + 2 * 2));
        assert_eq!(Tensor::zeros([0]).norm(), 0.0);
        assert_eq!(Tensor::from_slice(&[3.0, 4.0]).norm(), 5.0);
    }

    #[test]
    fn lane_norm_propagates_nan_and_infinity_from_any_position() {
        for n in [1, 7, 8, 9, 4096, 37_764] {
            for at in [0, n / 2, n - 1] {
                for (bad, want_nan) in [
                    (f32::NAN, true),
                    (f32::INFINITY, false),
                    (f32::NEG_INFINITY, false),
                ] {
                    let mut t = Tensor::ones([n]);
                    t.data_mut()[at] = bad;
                    let (lanes, serial) = (t.norm(), serial_norm(&t));
                    assert_eq!(lanes.is_nan(), want_nan, "n = {n}, at = {at}, {bad}");
                    assert_eq!(serial.is_nan(), want_nan);
                    if !want_nan {
                        assert_eq!((lanes, serial), (f32::INFINITY, f32::INFINITY));
                    }
                }
            }
        }
        // An infinity and a NaN together are NaN, as in the serial sum.
        let t = Tensor::from_slice(&[f32::INFINITY, 1.0, f32::NAN, 2.0, 0.0, 0.0, 0.0, 0.0, 5.0]);
        assert!(t.norm().is_nan() && serial_norm(&t).is_nan());
    }

    #[test]
    fn load_converts_into_an_unshared_slab_and_allocates_for_a_shared_one() {
        let src = Tensor::new([2, 3], vec![1.0, -2.5, 3.0, 0.0, f32::MIN, 6.75]);
        let bytes = src.to_bytes();
        let enc = TensorBytes::parse(&bytes).unwrap();
        assert_eq!(enc.shape().dims(), &[2, 3]);

        // Unshared, same length (a different shape): converted in place.
        let mut dst = Tensor::zeros([6]);
        let slab = dst.data().as_ptr();
        assert!(dst.load(&enc));
        assert_eq!((dst.data().as_ptr(), &dst), (slab, &src));

        // Shared: a fresh slab, and the other handle keeps its values.
        let other = dst.clone();
        let mut again = Tensor::zeros([2, 3]);
        again.data_mut()[0] = 9.0;
        let mut shared = again.clone();
        assert!(!shared.load(&enc));
        assert_eq!(shared, src);
        assert_eq!(again.data()[0], 9.0, "the sharer is untouched");
        assert!(!std::ptr::eq(again.data().as_ptr(), shared.data().as_ptr()));
        drop(other);

        // Another length: a fresh slab of the right size.
        let mut short = Tensor::zeros([2]);
        assert!(!short.load(&enc));
        assert_eq!(short, src);
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
