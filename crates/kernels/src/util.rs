//! Small internal helpers shared by kernels.

/// Raw mutable pointer wrapper so disjoint-range parallel writers can share
/// an output buffer.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub *mut T);

// SAFETY: every user partitions writes by the disjoint ranges handed out by
// `Parallelism::run`, so no two threads write the same element, and the
// buffer outlives the region (the caller blocks until the join). Other
// threads write `T`s through the pointer, hence `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Offsets the pointer (no bounds knowledge; callers uphold validity).
    ///
    /// # Safety
    ///
    /// Same contract as [`<*mut T>::add`].
    pub unsafe fn add(self, off: usize) -> *mut T {
        self.0.add(off)
    }
}
