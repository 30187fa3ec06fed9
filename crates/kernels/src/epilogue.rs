//! The fused store of the blocked convolution templates: what happens to
//! the `oc_bn`-wide pixels a strip has just produced, in one pass while they
//! are hot — load, + bias, + residual, ReLU, then an f32 store in place or,
//! when the epilogue requantizes, [`quantize_value`] of the result as a byte.
//!
//! [`RowEpilogue::apply`] states that order once, over a register type
//! ([`Lanes`]). The strip dispatch table of `conv::microkernel` compiles it
//! for each of its tiers beside that tier's strips, and a convolution call
//! runs the body of the tier its strips run on (plain `f32` lanes where they
//! run scalar).
//!
//! [`quantize_value`]: crate::quantize::quantize_value

use neocpu_tensor::Tensor;

use crate::conv::Epilogue;
use crate::quantize::Lanes;

/// An [`Epilogue`] bound to one convolution call.
#[derive(Clone, Copy)]
pub(crate) struct RowEpilogue<'a> {
    bias: Option<&'a [f32]>,
    relu: bool,
    residual: Option<&'a [f32]>,
    requant: Option<(f32, u8)>,
}

impl<'a> RowEpilogue<'a> {
    pub(crate) fn new(e: &Epilogue<'a>) -> Self {
        Self {
            bias: e.bias,
            relu: e.relu,
            residual: e.residual.map(Tensor::data),
            requant: e.requant,
        }
    }

    /// Whether the strips' own store already is the result.
    pub(crate) fn is_identity(&self) -> bool {
        self.bias.is_none() && self.residual.is_none() && !self.relu && self.requant.is_none()
    }

    /// Finishes `px` — whole pixels of the `bn` channels (the call's output
    /// block) from channel `chunk * bn`, `off` elements into the output tensor —
    /// register by register: bias, residual, ReLU, requantize, in the order
    /// [`Epilogue`] documents. In place, or into `bytes` when the epilogue
    /// requantizes.
    ///
    /// # Safety
    ///
    /// The CPU features of `V` are enabled and `V::LANES` divides `bn`.
    ///
    /// # Panics
    ///
    /// Panics if `px` is not whole pixels or, when requantizing, `bytes` is
    /// not as long as `px`.
    #[inline(always)]
    pub(crate) unsafe fn apply<V: Lanes>(
        &self,
        bn: usize,
        px: &mut [f32],
        bytes: &mut [u8],
        chunk: usize,
        off: usize,
    ) {
        assert!(px.len().is_multiple_of(bn), "a strip is whole pixels");
        assert!(self.requant.is_none() || bytes.len() == px.len(), "one byte per staged value");
        let bias = self.bias.map(|b| b[chunk * bn..(chunk + 1) * bn].as_ptr());
        let residual = self.residual.map(|r| r[off..off + px.len()].as_ptr());
        let requant = self.requant.map(|(scale, zero_point)| V::qparams(scale, zero_point));
        let (len, px, bytes) = (px.len(), px.as_mut_ptr(), bytes.as_mut_ptr());
        // Every access below is `V::LANES` elements at `i < len` with `LANES`
        // dividing `bn` and `bn` dividing `len`, or at `c < bn` of the bias:
        // inside the slices taken above.
        for pixel in (0..len).step_by(bn) {
            for c in (0..bn).step_by(V::LANES) {
                let i = pixel + c;
                let mut v = V::load(px.add(i));
                if let Some(bias) = bias {
                    v = v.add(V::load(bias.add(c)));
                }
                if let Some(residual) = residual {
                    v = v.add(V::load(residual.add(i)));
                }
                if self.relu {
                    v = v.relu();
                }
                match &requant {
                    Some(q) => v.quantize_to(q, bytes.add(i)),
                    None => v.store(px.add(i)),
                }
            }
        }
    }
}
