//! Element data types carried by tensors.
//!
//! Storage stays `f32`-slot based everywhere (aligned buffers, the
//! execution arena, the memory planner all count in 4-byte slots); a
//! non-`f32` tensor simply occupies `ceil(n · size_bytes / 4)` slots and
//! reinterprets the bytes. That keeps every existing alignment and
//! disjointness invariant intact while letting the int8 inference path
//! view the same arena as `u8`/`i8` data.

use std::fmt;
use std::str::FromStr;

use crate::TensorError;

/// Element type of a [`crate::Tensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE float — the default everywhere.
    #[default]
    F32,
    /// Unsigned 8-bit — quantized activations (asymmetric, zero-point in
    /// `[0, 255]`).
    U8,
    /// Signed 8-bit — quantized weights (symmetric per output channel).
    I8,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            Self::F32 => 4,
            Self::U8 | Self::I8 => 1,
        }
    }

    /// Number of 4-byte `f32` storage slots needed for `n` elements of this
    /// type (rounded up, so byte views never run past the slot range).
    pub fn slots(self, n: usize) -> usize {
        (n * self.size_bytes()).div_ceil(4)
    }

    /// Short lowercase name (`f32`, `u8`, `i8`) — also the
    /// scheme-database key suffix spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::U8 => "u8",
            Self::I8 => "i8",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DType {
    type Err = TensorError;

    fn from_str(s: &str) -> Result<Self, TensorError> {
        match s {
            "f32" => Ok(Self::F32),
            "u8" => Ok(Self::U8),
            "i8" => Ok(Self::I8),
            _ => Err(TensorError::ParseDType(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round_up() {
        assert_eq!(DType::F32.slots(7), 7);
        assert_eq!(DType::U8.slots(0), 0);
        assert_eq!(DType::U8.slots(1), 1);
        assert_eq!(DType::U8.slots(4), 1);
        assert_eq!(DType::U8.slots(5), 2);
        assert_eq!(DType::I8.slots(16), 4);
    }

    #[test]
    fn name_round_trips() {
        for d in [DType::F32, DType::U8, DType::I8] {
            assert_eq!(d.name().parse::<DType>().unwrap(), d);
        }
        assert!("f16".parse::<DType>().is_err());
    }
}
