//! Data layouts for activations and convolution weights.
//!
//! The paper's notation: `NCHW[x]c` splits the channel dimension `C` into a
//! super-dimension of `C / x` chunks and an innermost sub-dimension `c` of
//! size `x`, so the physical arrangement of a logical `[N, C, H, W]` tensor
//! is `[N, C/x, H, W, x]`. Convolution kernels in `KCRS` (a.k.a. `OIHW`) are
//! likewise blocked to `OIHW[x]i[y]o` — physically
//! `[O/y, I/x, H, W, x, y]` — so that `y` output channels are contiguous for
//! a single vector load (`OIHW16i16o` in Figure 2).

use std::fmt;

use crate::{Shape, TensorError};

/// Physical data layout of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Batch, channel, height, width — the framework default.
    Nchw,
    /// Channel-blocked activations: physically `[N, C/x, H, W, x]`.
    NchwC(usize),
    /// Convolution weights: out-channel, in-channel, kernel-h, kernel-w
    /// (the paper's `KCRS`).
    Oihw,
    /// Blocked convolution weights: physically `[O/o, I/i, H, W, i, o]`.
    OihwIo {
        /// Input-channel block size (the paper's `x`).
        i: usize,
        /// Output-channel block size (the paper's `y`).
        o: usize,
    },
    /// Quad-packed int8 convolution weights: physically
    /// `[O/o, I/i, H, W, i/4, o, 4]` — four consecutive input channels sit
    /// innermost so a `maddubs`-style kernel loads `o × 4` contiguous bytes
    /// per tap. Requires `i % 4 == 0`.
    OihwIo4 {
        /// Input-channel block size (must be a multiple of 4).
        i: usize,
        /// Output-channel block size.
        o: usize,
    },
    /// Rank-2 activations (batch, feature) for dense layers.
    Nc,
    /// Rank-2 dense weights (out-feature, in-feature).
    Oi,
    /// Rank-1 data (biases, BN parameters).
    Flat,
}

impl Layout {
    /// Logical rank of tensors carried in this layout.
    pub fn logical_rank(&self) -> usize {
        match self {
            Self::Nchw
            | Self::NchwC(_)
            | Self::Oihw
            | Self::OihwIo { .. }
            | Self::OihwIo4 { .. } => 4,
            Self::Nc | Self::Oi => 2,
            Self::Flat => 1,
        }
    }

    /// Physical dimension extents for a logical `shape` stored in this
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns an error if the logical rank does not match the layout or a
    /// blocked dimension is not divisible by its block size.
    pub fn physical_dims(&self, shape: &Shape) -> Result<Vec<usize>, TensorError> {
        if shape.rank() != self.logical_rank() {
            return Err(TensorError::RankMismatch {
                expected: self.logical_rank(),
                actual: shape.rank(),
            });
        }
        let d = shape.dims();
        match *self {
            Self::Nchw | Self::Oihw => Ok(d.to_vec()),
            Self::NchwC(x) => {
                if x == 0 || !d[1].is_multiple_of(x) {
                    return Err(TensorError::NotDivisible { dim: "channel", size: d[1], block: x });
                }
                Ok(vec![d[0], d[1] / x, d[2], d[3], x])
            }
            Self::OihwIo { i, o } => {
                if o == 0 || !d[0].is_multiple_of(o) {
                    return Err(TensorError::NotDivisible {
                        dim: "out_channel",
                        size: d[0],
                        block: o,
                    });
                }
                if i == 0 || !d[1].is_multiple_of(i) {
                    return Err(TensorError::NotDivisible {
                        dim: "in_channel",
                        size: d[1],
                        block: i,
                    });
                }
                Ok(vec![d[0] / o, d[1] / i, d[2], d[3], i, o])
            }
            Self::OihwIo4 { i, o } => {
                if o == 0 || !d[0].is_multiple_of(o) {
                    return Err(TensorError::NotDivisible {
                        dim: "out_channel",
                        size: d[0],
                        block: o,
                    });
                }
                if i == 0 || !i.is_multiple_of(4) || !d[1].is_multiple_of(i) {
                    return Err(TensorError::NotDivisible {
                        dim: "in_channel",
                        size: d[1],
                        block: i,
                    });
                }
                Ok(vec![d[0] / o, d[1] / i, d[2], d[3], i / 4, o, 4])
            }
            Self::Nc | Self::Oi | Self::Flat => Ok(d.to_vec()),
        }
    }

    /// Flat physical offset of the logical multi-index `idx` for a tensor of
    /// logical `shape` in this layout.
    ///
    /// This is the slow, fully general addressing path used by transforms
    /// and tests; kernels address data with layout-specialized loops.
    ///
    /// # Panics
    ///
    /// Panics if `shape`/`idx` are inconsistent with the layout; callers
    /// validate with [`Layout::physical_dims`] first.
    pub fn offset(&self, shape: &Shape, idx: &[usize]) -> usize {
        let d = shape.dims();
        match *self {
            Self::Nchw | Self::Oihw | Self::Nc | Self::Oi | Self::Flat => shape.offset(idx),
            Self::NchwC(x) => {
                let (n, c, h, w) = (idx[0], idx[1], idx[2], idx[3]);
                let (co, ci) = (c / x, c % x);
                (((n * (d[1] / x) + co) * d[2] + h) * d[3] + w) * x + ci
            }
            Self::OihwIo { i, o } => {
                let (oc, ic, kh, kw) = (idx[0], idx[1], idx[2], idx[3]);
                let (oco, oci) = (oc / o, oc % o);
                let (ico, ici) = (ic / i, ic % i);
                ((((oco * (d[1] / i) + ico) * d[2] + kh) * d[3] + kw) * i + ici) * o + oci
            }
            Self::OihwIo4 { i, o } => {
                let (oc, ic, kh, kw) = (idx[0], idx[1], idx[2], idx[3]);
                let (oco, oci) = (oc / o, oc % o);
                let (ico, ici) = (ic / i, ic % i);
                let (quad, lane) = (ici / 4, ici % 4);
                (((((oco * (d[1] / i) + ico) * d[2] + kh) * d[3] + kw) * (i / 4) + quad) * o
                    + oci)
                    * 4
                    + lane
            }
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Nchw => write!(f, "NCHW"),
            Self::NchwC(x) => write!(f, "NCHW{x}c"),
            Self::Oihw => write!(f, "OIHW"),
            Self::OihwIo { i, o } => write!(f, "OIHW{i}i{o}o"),
            Self::OihwIo4 { i, o } => write!(f, "OIHW{i}i{o}oq4"),
            Self::Nc => write!(f, "NC"),
            Self::Oi => write!(f, "OI"),
            Self::Flat => write!(f, "FLAT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_dims_blocked() {
        let s = Shape::from([1, 64, 56, 56]);
        assert_eq!(
            Layout::NchwC(16).physical_dims(&s).unwrap(),
            vec![1, 4, 56, 56, 16]
        );
        let w = Shape::from([128, 64, 3, 3]);
        assert_eq!(
            Layout::OihwIo { i: 16, o: 32 }.physical_dims(&w).unwrap(),
            vec![4, 4, 3, 3, 16, 32]
        );
    }

    #[test]
    fn physical_dims_rejects_indivisible() {
        let s = Shape::from([1, 30, 5, 5]);
        assert!(Layout::NchwC(16).physical_dims(&s).is_err());
    }

    #[test]
    fn quad_packed_offsets_are_a_permutation() {
        let s = Shape::from([16, 8, 2, 2]);
        let l = Layout::OihwIo4 { i: 8, o: 8 };
        assert_eq!(l.physical_dims(&s).unwrap(), vec![2, 1, 2, 2, 2, 8, 4]);
        let n = s.num_elements();
        let mut seen = vec![false; n];
        for oc in 0..16 {
            for ic in 0..8 {
                for h in 0..2 {
                    for w in 0..2 {
                        let off = l.offset(&s, &[oc, ic, h, w]);
                        assert!(!seen[off], "duplicate offset {off}");
                        seen[off] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
        // Four consecutive input channels of one (oc, tap) are adjacent.
        let base = l.offset(&s, &[3, 4, 1, 0]);
        for lane in 1..4 {
            assert_eq!(l.offset(&s, &[3, 4 + lane, 1, 0]), base + lane);
        }
    }

    #[test]
    fn quad_packed_requires_divisible_quads() {
        // i must be a multiple of 4.
        let s = Shape::from([8, 6, 1, 1]);
        assert!(Layout::OihwIo4 { i: 6, o: 8 }.physical_dims(&s).is_err());
    }

    #[test]
    fn offsets_agree_with_physical_iteration() {
        // Walk every logical index of a small NCHW16c tensor and check the
        // computed offsets are a permutation of 0..len.
        let s = Shape::from([2, 32, 3, 2]);
        let l = Layout::NchwC(16);
        let n = s.num_elements();
        let mut seen = vec![false; n];
        for b in 0..2 {
            for c in 0..32 {
                for h in 0..3 {
                    for w in 0..2 {
                        let off = l.offset(&s, &[b, c, h, w]);
                        assert!(!seen[off], "duplicate offset {off}");
                        seen[off] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }
}
