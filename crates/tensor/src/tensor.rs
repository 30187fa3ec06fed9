//! The dense `f32` tensor type.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{AlignedBuf, Arena, DType, Layout, Shape, TensorError};

/// Physical storage behind a [`Tensor`]: an owned aligned buffer, or a
/// planned view into a shared execution [`Arena`].
enum Storage {
    /// Exclusively owned buffer (the default for user-facing tensors).
    Owned(AlignedBuf),
    /// A view of `len` elements at `offset` into a shared arena. The
    /// memory planner guarantees that simultaneously-live views never
    /// overlap unless all of them are read-only.
    View {
        arena: Arc<Arena>,
        offset: usize,
        len: usize,
    },
}

/// A dense `f32` tensor: logical shape + physical layout + aligned buffer.
///
/// The shape is always logical (`[N, C, H, W]` for activations, `[O, I, H,
/// W]` for weights) regardless of physical blocking; the [`Layout`]
/// describes how elements are arranged in the buffer. Fast kernels work on
/// the raw slice with layout-specialized loops; the indexed accessors here
/// are the slow general path used by transforms and tests.
///
/// A tensor either **owns** its buffer or **views** a planned range of a
/// shared execution [`Arena`] (see [`Tensor::arena_view`]); the distinction
/// is invisible to kernels, which only see `data()`/`data_mut()` slices.
/// Cloning always detaches: the clone owns a fresh copy of the data.
///
/// Storage is always counted in 4-byte `f32` slots; a non-`f32` tensor
/// (see [`DType`]) occupies `DType::slots(n)` slots and reinterprets the
/// bytes through the typed accessors ([`Tensor::data_u8`],
/// [`Tensor::data_i8`]). That keeps the arena, the
/// planner, and the alignment guarantees dtype-oblivious.
pub struct Tensor {
    shape: Shape,
    layout: Layout,
    dtype: DType,
    buf: Storage,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout (wrong
    /// rank, or a blocked dimension not divisible by the block size).
    pub fn zeros(shape: impl Into<Shape>, layout: Layout) -> Result<Self, TensorError> {
        Self::zeros_dtyped(shape, layout, DType::F32)
    }

    /// Creates a zero-filled tensor of the given element type (all-zero
    /// bytes are the zero value of every supported dtype).
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout.
    pub fn zeros_dtyped(
        shape: impl Into<Shape>,
        layout: Layout,
        dtype: DType,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        layout.physical_dims(&shape)?;
        let buf = AlignedBuf::zeroed(dtype.slots(shape.num_elements()));
        Ok(Self { shape, layout, dtype, buf: Storage::Owned(buf) })
    }

    /// Creates a tensor whose contents are **unspecified** (no memset).
    ///
    /// The buffer is allocated but not initialized: every element must be
    /// written before it is meaningfully read. Use this for kernel outputs
    /// that are fully overwritten (conv, pool, dense, concat, softmax);
    /// [`Tensor::zeros`] remains the right call for padding and accumulator
    /// buffers whose untouched cells must read as zero.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout.
    pub fn uninit(shape: impl Into<Shape>, layout: Layout) -> Result<Self, TensorError> {
        Self::uninit_dtyped(shape, layout, DType::F32)
    }

    /// [`Tensor::uninit`] for an arbitrary element type.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout.
    pub fn uninit_dtyped(
        shape: impl Into<Shape>,
        layout: Layout,
        dtype: DType,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        layout.physical_dims(&shape)?;
        let buf = AlignedBuf::uninit(dtype.slots(shape.num_elements()));
        Ok(Self { shape, layout, dtype, buf: Storage::Owned(buf) })
    }

    /// Creates a tensor viewing `shape.num_elements()` elements of `arena`
    /// starting at element `offset`, without copying or allocating.
    ///
    /// This is the executor-side handle the static memory planner hands
    /// out: node outputs become arena views at planned offsets, so
    /// steady-state inference allocates nothing.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that, whenever this view is read or
    /// written (via [`Tensor::data`] / [`Tensor::data_mut`]), no other
    /// simultaneously-accessed view of the same arena overlaps the range
    /// `offset .. offset + num_elements` — except that any number of
    /// overlapping views may be *read* concurrently. The memory planner
    /// establishes this invariant by construction.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout or the
    /// range does not fit in the arena.
    pub unsafe fn arena_view(
        arena: Arc<Arena>,
        offset: usize,
        shape: impl Into<Shape>,
        layout: Layout,
    ) -> Result<Self, TensorError> {
        // SAFETY: forwarded caller contract.
        unsafe { Self::arena_view_dtyped(arena, offset, shape, layout, DType::F32) }
    }

    /// [`Tensor::arena_view`] for an arbitrary element type; the view spans
    /// `DType::slots(num_elements)` arena slots.
    ///
    /// # Safety
    ///
    /// As [`Tensor::arena_view`].
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout or the
    /// range does not fit in the arena.
    pub unsafe fn arena_view_dtyped(
        arena: Arc<Arena>,
        offset: usize,
        shape: impl Into<Shape>,
        layout: Layout,
        dtype: DType,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        layout.physical_dims(&shape)?;
        let len = dtype.slots(shape.num_elements());
        if offset.checked_add(len).is_none_or(|end| end > arena.len()) {
            return Err(TensorError::LengthMismatch {
                expected: offset.saturating_add(len),
                actual: arena.len(),
            });
        }
        Ok(Self { shape, layout, dtype, buf: Storage::View { arena, offset, len } })
    }

    /// Whether this tensor views a shared arena (planned storage) rather
    /// than owning its buffer.
    pub fn is_view(&self) -> bool {
        matches!(self.buf, Storage::View { .. })
    }

    /// Creates a tensor from existing data (moved into an aligned buffer).
    ///
    /// # Errors
    ///
    /// Returns an error if the data length does not match the shape or the
    /// shape is incompatible with the layout.
    pub fn from_vec(
        data: Vec<f32>,
        shape: impl Into<Shape>,
        layout: Layout,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        layout.physical_dims(&shape)?;
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Self {
            shape,
            layout,
            dtype: DType::F32,
            buf: Storage::Owned(AlignedBuf::from_slice(&data)),
        })
    }

    /// Creates a tensor with deterministic pseudo-random values in
    /// `[-scale, scale)`.
    ///
    /// Used in place of pretrained weights: the reproduction validates
    /// optimizations by reference-vs-optimized output equivalence, for which
    /// any fixed weights work (see DESIGN.md substitutions).
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is incompatible with the layout.
    pub fn random(
        shape: impl Into<Shape>,
        layout: Layout,
        seed: u64,
        scale: f32,
    ) -> Result<Self, TensorError> {
        let shape = shape.into();
        layout.physical_dims(&shape)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.num_elements();
        let mut buf = AlignedBuf::uninit(n);
        for v in buf.iter_mut() {
            *v = rng.gen_range(-scale..scale);
        }
        Ok(Self { shape, layout, dtype: DType::F32, buf: Storage::Owned(buf) })
    }

    /// Logical shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Physical layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Read-only view of the raw buffer in physical order.
    pub fn data(&self) -> &[f32] {
        match &self.buf {
            Storage::Owned(b) => b,
            // SAFETY: upheld by the `arena_view` caller contract — no
            // overlapping mutable view is accessed while this one lives.
            Storage::View { arena, offset, len } => unsafe { arena.slice(*offset, *len) },
        }
    }

    /// Mutable view of the raw buffer in physical order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        match &mut self.buf {
            Storage::Owned(b) => b,
            // SAFETY: upheld by the `arena_view` caller contract — no other
            // view overlapping this range is accessed while this one lives.
            Storage::View { arena, offset, len } => unsafe { arena.slice_mut(*offset, *len) },
        }
    }

    /// Asserts the tensor holds elements of `expected` type.
    ///
    /// # Panics
    ///
    /// Panics (with the would-be [`TensorError::DTypeMismatch`] message) if
    /// the dtype differs. Kernels call this once at entry so a mis-wired
    /// graph fails loudly instead of silently misreading bytes.
    pub fn assert_dtype(&self, expected: DType) {
        assert_eq!(
            self.dtype, expected,
            "{}",
            TensorError::DTypeMismatch { expected, actual: self.dtype }
        );
    }

    /// Read-only `u8` view of the raw buffer in physical order.
    ///
    /// The slice has exactly `num_elements()` entries; the tail bytes of the
    /// last storage slot (if any) are not exposed.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's dtype is not [`DType::U8`].
    pub fn data_u8(&self) -> &[u8] {
        self.assert_dtype(DType::U8);
        let raw = self.data();
        // SAFETY: `raw` covers `slots(n)` 4-byte slots ≥ n bytes; u8 has no
        // validity or alignment requirements.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<u8>(), self.num_elements()) }
    }

    /// Mutable `u8` view of the raw buffer in physical order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's dtype is not [`DType::U8`].
    pub fn data_u8_mut(&mut self) -> &mut [u8] {
        self.assert_dtype(DType::U8);
        let n = self.num_elements();
        let raw = self.data_mut();
        // SAFETY: as `data_u8`, and the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(raw.as_mut_ptr().cast::<u8>(), n) }
    }

    /// Read-only `i8` view of the raw buffer in physical order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's dtype is not [`DType::I8`].
    pub fn data_i8(&self) -> &[i8] {
        self.assert_dtype(DType::I8);
        let raw = self.data();
        // SAFETY: as `data_u8`; i8 is a 1-byte plain-old-data type.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<i8>(), self.num_elements()) }
    }

    /// Mutable `i8` view of the raw buffer in physical order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor's dtype is not [`DType::I8`].
    pub fn data_i8_mut(&mut self) -> &mut [i8] {
        self.assert_dtype(DType::I8);
        let n = self.num_elements();
        let raw = self.data_mut();
        // SAFETY: as `data_u8_mut`.
        unsafe { std::slice::from_raw_parts_mut(raw.as_mut_ptr().cast::<i8>(), n) }
    }

    /// Element at a logical multi-index (slow general path).
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data()[self.layout.offset(&self.shape, idx)]
    }

    /// Writes an element at a logical multi-index (slow general path).
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.layout.offset(&self.shape, idx);
        self.data_mut()[off] = value;
    }

    /// Largest absolute element-wise difference between two tensors compared
    /// at *logical* indices, so the operands may be in different layouts.
    ///
    /// # Panics
    ///
    /// Panics if logical shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        let rank = self.shape.rank();
        let dims = self.shape.dims().to_vec();
        let mut idx = vec![0usize; rank];
        let mut worst = 0f32;
        if self.num_elements() == 0 {
            return 0.0;
        }
        loop {
            let d = (self.at(&idx) - other.at(&idx)).abs();
            if d > worst {
                worst = d;
            }
            // Odometer increment over the logical index space.
            let mut k = rank;
            loop {
                if k == 0 {
                    return worst;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < dims[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
    }

    /// Whether two tensors agree element-wise within `tol` at logical
    /// indices (layouts may differ).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl Clone for Tensor {
    /// Deep copy. Cloning a view **detaches** it: the clone owns a fresh
    /// buffer holding a snapshot of the viewed arena range, so it stays
    /// valid after the arena is reused for the next inference.
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            layout: self.layout,
            dtype: self.dtype,
            buf: Storage::Owned(AlignedBuf::from_slice(self.data())),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("layout", &format_args!("{}", self.layout))
            .field("dtype", &format_args!("{}", self.dtype))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros([1, 4, 2, 2], Layout::Nchw).unwrap();
        t.set(&[0, 3, 1, 1], 7.5);
        assert_eq!(t.at(&[0, 3, 1, 1]), 7.5);
        assert_eq!(t.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(t.data()[15], 7.5);
    }

    #[test]
    #[allow(clippy::identity_op)] // spell out (chunk*H + h)*W + w for clarity
    fn blocked_layout_logical_indexing() {
        let mut t = Tensor::zeros([1, 32, 2, 2], Layout::NchwC(16)).unwrap();
        t.set(&[0, 17, 0, 1], 3.0);
        // Physically: chunk 1, h 0, w 1, inner 1.
        let off = ((1 * 2 + 0) * 2 + 1) * 16 + 1;
        assert_eq!(t.data()[off], 3.0);
        assert_eq!(t.at(&[0, 17, 0, 1]), 3.0);
    }

    #[test]
    fn zeros_rejects_indivisible_block() {
        assert!(Tensor::zeros([1, 30, 2, 2], Layout::NchwC(16)).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![0.0; 5], [1, 2, 2, 2], Layout::Nchw).is_err());
        assert!(Tensor::from_vec(vec![0.0; 8], [1, 2, 2, 2], Layout::Nchw).is_ok());
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random([2, 4, 3, 3], Layout::Nchw, 42, 1.0).unwrap();
        let b = Tensor::random([2, 4, 3, 3], Layout::Nchw, 42, 1.0).unwrap();
        let c = Tensor::random([2, 4, 3, 3], Layout::Nchw, 43, 1.0).unwrap();
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert!(a.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn approx_eq_across_layouts() {
        let nchw = Tensor::random([1, 32, 4, 4], Layout::Nchw, 7, 1.0).unwrap();
        let blocked = crate::transform::to_layout(&nchw, Layout::NchwC(8)).unwrap();
        assert!(nchw.approx_eq(&blocked, 0.0));
    }

    #[test]
    fn arena_view_reads_and_writes_planned_range() {
        let arena = crate::Arena::new(64);
        // SAFETY: the two views are disjoint (16..32 and 32..48).
        let mut a =
            unsafe { Tensor::arena_view(arena.clone(), 16, [1, 1, 4, 4], Layout::Nchw) }.unwrap();
        let b =
            unsafe { Tensor::arena_view(arena.clone(), 32, [1, 1, 4, 4], Layout::Nchw) }.unwrap();
        assert!(a.is_view() && b.is_view());
        a.set(&[0, 0, 0, 0], 5.0);
        assert_eq!(a.at(&[0, 0, 0, 0]), 5.0);
        assert_eq!(b.at(&[0, 0, 0, 0]), 0.0);
        // Out-of-range view is rejected.
        assert!(unsafe { Tensor::arena_view(arena, 56, [1, 1, 4, 4], Layout::Nchw) }.is_err());
    }

    #[test]
    fn cloning_a_view_detaches_it() {
        let arena = crate::Arena::new(16);
        // SAFETY: sole view of the arena.
        let mut v =
            unsafe { Tensor::arena_view(arena, 0, [1, 1, 4, 4], Layout::Nchw) }.unwrap();
        v.set(&[0, 0, 0, 0], 3.0);
        let snap = v.clone();
        assert!(!snap.is_view());
        v.set(&[0, 0, 0, 0], 9.0);
        assert_eq!(snap.at(&[0, 0, 0, 0]), 3.0);
    }

    #[test]
    fn dtyped_tensor_sizes_round_up_to_slots() {
        let t = Tensor::zeros_dtyped([1, 1, 3, 3], Layout::Nchw, DType::U8).unwrap();
        assert_eq!(t.dtype(), DType::U8);
        // 9 u8 elements fit in 3 four-byte slots.
        assert_eq!(t.data().len(), 3);
        assert_eq!(t.data_u8().len(), 9);
        let f = Tensor::zeros([1, 1, 3, 3], Layout::Nchw).unwrap();
        assert_eq!(f.dtype(), DType::F32);
        assert_eq!(f.data().len(), 9);
    }

    #[test]
    fn typed_accessors_round_trip() {
        let mut t = Tensor::zeros_dtyped([8], Layout::Flat, DType::I8).unwrap();
        t.data_i8_mut().copy_from_slice(&[-3, 5, 127, -128, 0, 1, 2, 3]);
        assert_eq!(t.data_i8()[3], -128);
        let snap = t.clone();
        assert_eq!(snap.dtype(), DType::I8);
        assert_eq!(snap.data_i8(), t.data_i8());

    }

    #[test]
    #[should_panic(expected = "expected dtype u8")]
    fn typed_accessor_rejects_wrong_dtype() {
        let t = Tensor::zeros([4], Layout::Flat).unwrap();
        let _ = t.data_u8();
    }

    #[test]
    fn dtyped_arena_view_spans_slot_count() {
        let arena = crate::Arena::new(4);
        // 16 u8 elements = 4 slots: exactly fills the arena.
        // SAFETY: sole view of the arena.
        let mut v = unsafe {
            Tensor::arena_view_dtyped(arena.clone(), 0, [16], Layout::Flat, DType::U8)
        }
        .unwrap();
        assert_eq!(v.data_u8().len(), 16);
        v.data_u8_mut()[15] = 42;
        assert_eq!(v.data_u8()[15], 42);
        // 17 u8 elements need 5 slots: rejected.
        assert!(unsafe {
            Tensor::arena_view_dtyped(arena, 0, [17], Layout::Flat, DType::U8)
        }
        .is_err());
    }

    #[test]
    fn max_abs_diff_reports_worst_case() {
        let a = Tensor::zeros([1, 2, 2, 2], Layout::Nchw).unwrap();
        let mut b = a.clone();
        b.set(&[0, 1, 1, 0], -0.25);
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.approx_eq(&b, 0.25));
    }
}
