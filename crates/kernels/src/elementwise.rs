//! Element-wise and per-channel operators.
//!
//! ReLU, softmax-style unary ops and element-wise addition are
//! layout-*oblivious* (§3.2 class 1): they touch every element identically,
//! so they run on the flat buffer regardless of blocking. Batch
//! normalization and bias addition are layout-*tolerant* (class 2): they
//! need to know which elements belong to which channel, and are implemented
//! for `NCHW` and every `NCHW[x]c`. Channel concatenation is tolerant too,
//! provided all operands share one blocking factor that divides each
//! operand's channel count — the constraint the global search honours for
//! Inception/DenseNet/SSD concat blocks.

use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::Parallelism;

use crate::util::SendPtr;
use crate::{KernelError, Result};

/// In-place ReLU over the whole buffer (layout-oblivious).
pub fn relu_inplace(t: &mut Tensor, par: &dyn Parallelism) {
    let data = t.data_mut();
    let ptr = SendPtr(data.as_mut_ptr());
    par.run(data.len(), &|_, range| {
        for i in range {
            // SAFETY: disjoint ranges; buffer outlives the region.
            unsafe {
                let p = ptr.add(i);
                if *p < 0.0 {
                    *p = 0.0;
                }
            }
        }
    });
}

/// Element-wise `out = a + b` (layout-oblivious; operands must share shape
/// *and* layout so that flat offsets coincide).
///
/// # Errors
///
/// Returns an error if shapes or layouts differ.
pub fn add(a: &Tensor, b: &Tensor, out: &mut Tensor, par: &dyn Parallelism) -> Result<()> {
    if a.shape() != b.shape() || a.layout() != b.layout() {
        return Err(KernelError::BadOperand(
            "elementwise add operands must share shape and layout".into(),
        ));
    }
    if out.shape() != a.shape() || out.layout() != a.layout() {
        return Err(KernelError::BadOperand("elementwise add output mismatch".into()));
    }
    let (da, db) = (a.data(), b.data());
    let ptr = SendPtr(out.data_mut().as_mut_ptr());
    par.run(da.len(), &|_, range| {
        for i in range {
            // SAFETY: disjoint ranges.
            unsafe { *ptr.add(i) = da[i] + db[i] };
        }
    });
    Ok(())
}

/// Element-wise `acc += rhs` in place (layout-oblivious).
///
/// The single-tensor form of [`add`] the arena executor uses when the
/// memory planner maps an Add output onto one of its inputs: with the
/// accumulator mutated in place there is never an aliased input/output
/// tensor pair.
///
/// # Errors
///
/// Returns an error if shapes or layouts differ.
pub fn add_assign(acc: &mut Tensor, rhs: &Tensor, par: &dyn Parallelism) -> Result<()> {
    if acc.shape() != rhs.shape() || acc.layout() != rhs.layout() {
        return Err(KernelError::BadOperand(
            "elementwise add operands must share shape and layout".into(),
        ));
    }
    let src = rhs.data();
    let ptr = SendPtr(acc.data_mut().as_mut_ptr());
    par.run(src.len(), &|_, range| {
        for i in range {
            // SAFETY: disjoint ranges.
            unsafe { *ptr.add(i) += src[i] };
        }
    });
    Ok(())
}

/// Resolves `(block, chunks)` for a channel-wise op on `NCHW`/`NCHW[x]c`.
fn channel_blocking(t: &Tensor, what: &str) -> Result<(usize, usize)> {
    let c = t.shape().dims()[1];
    match t.layout() {
        Layout::Nchw => Ok((1, c)),
        Layout::NchwC(x) => Ok((x, c / x)),
        l => Err(KernelError::BadOperand(format!("{what}: unsupported layout {l}"))),
    }
}

/// Per-channel affine transform `y = x * scale[c] + shift[c]`, the
/// inference-time form of BatchNorm (§3: "simplifying inference for
/// batch-norm" folds γ, β, μ, σ² into scale/shift at compile time).
///
/// Works on `NCHW` and any `NCHW[x]c`; `input` and `output` must share
/// shape and layout.
///
/// # Errors
///
/// Returns an error on layout/shape/parameter-length mismatch.
pub fn scale_shift(
    input: &Tensor,
    output: &mut Tensor,
    scale: &[f32],
    shift: &[f32],
    par: &dyn Parallelism,
) -> Result<()> {
    if input.shape() != output.shape() || input.layout() != output.layout() {
        return Err(KernelError::BadOperand("scale_shift operand mismatch".into()));
    }
    let d = input.shape().dims();
    let (n, c) = (d[0], d[1]);
    let hw = d[2] * d[3];
    if scale.len() != c || shift.len() != c {
        return Err(KernelError::BadOperand(format!(
            "scale/shift must have {c} entries, got {}/{}",
            scale.len(),
            shift.len()
        )));
    }
    let (block, chunks) = channel_blocking(input, "scale_shift")?;
    let src = input.data();
    let dst = SendPtr(output.data_mut().as_mut_ptr());
    par.run(n * chunks, &|_, range| {
        let dst = dst;
        for job in range {
            let cc = job % chunks;
            let base = job * hw * block;
            for p in 0..hw {
                for b in 0..block {
                    let ch = cc * block + b;
                    let off = base + p * block + b;
                    // SAFETY: disjoint (batch, chunk) planes.
                    unsafe { *dst.add(off) = src[off] * scale[ch] + shift[ch] };
                }
            }
        }
    });
    Ok(())
}

/// Folds BatchNorm statistics into the per-channel `(scale, shift)` pair
/// used by [`scale_shift`] and by conv-weight folding:
/// `scale = γ / √(σ² + ε)`, `shift = β − μ·scale`.
pub fn batchnorm_fold(
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) -> (Vec<f32>, Vec<f32>) {
    let scale: Vec<f32> =
        gamma.iter().zip(var).map(|(g, v)| g / (v + eps).sqrt()).collect();
    let shift: Vec<f32> =
        beta.iter().zip(mean).zip(&scale).map(|((b, m), s)| b - m * s).collect();
    (scale, shift)
}

/// Concatenates tensors along the channel dimension.
///
/// All inputs and the output must share batch/spatial dims and layout
/// family; for `NCHW[x]c` every operand's channel count must be divisible
/// by the common `x` (the condition the graph-level planner enforces before
/// keeping a concat in blocked layout).
///
/// # Errors
///
/// Returns an error on any mismatch.
pub fn concat_channels(inputs: &[&Tensor], output: &mut Tensor, par: &dyn Parallelism) -> Result<()> {
    if inputs.is_empty() {
        return Err(KernelError::BadOperand("concat needs at least one input".into()));
    }
    let layout = inputs[0].layout();
    let d0 = inputs[0].shape().dims();
    let (n, h, w) = (d0[0], d0[2], d0[3]);
    let mut c_total = 0usize;
    for t in inputs {
        let d = t.shape().dims();
        if t.layout() != layout || d[0] != n || d[2] != h || d[3] != w {
            return Err(KernelError::BadOperand("concat operand mismatch".into()));
        }
        c_total += d[1];
    }
    if output.layout() != layout || output.shape().dims() != [n, c_total, h, w] {
        return Err(KernelError::BadOperand("concat output mismatch".into()));
    }
    let block = match layout {
        Layout::Nchw => 1,
        Layout::NchwC(x) => x,
        l => return Err(KernelError::BadOperand(format!("concat: unsupported layout {l}"))),
    };
    let hw = h * w;
    let out_chunks = c_total / block;
    let dst = SendPtr(output.data_mut().as_mut_ptr());
    // Per batch item, copy each input's channel chunks to its offset range.
    for b in 0..n {
        let mut chunk_off = 0usize;
        for t in inputs {
            let chunks = t.shape().dims()[1] / block;
            let src = t.data();
            let src_base = b * chunks * hw * block;
            let dst_base = (b * out_chunks + chunk_off) * hw * block;
            par.run(chunks * hw, &|_, range| {
                let dst = dst;
                for i in range {
                    // SAFETY: disjoint destination ranges per (input, i).
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            src[src_base + i * block..].as_ptr(),
                            dst.add(dst_base + i * block),
                            block,
                        );
                    }
                }
            });
            chunk_off += chunks;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neocpu_tensor::transform::to_layout;
    use neocpu_threadpool::Sequential;

    #[test]
    fn relu_clamps_negatives() {
        let mut t =
            Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], [1, 1, 2, 2], Layout::Nchw).unwrap();
        relu_inplace(&mut t, &Sequential);
        assert_eq!(t.data(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn add_requires_matching_layouts() {
        let a = Tensor::random([1, 8, 2, 2], Layout::Nchw, 1, 1.0).unwrap();
        let b = to_layout(&a, Layout::NchwC(4)).unwrap();
        let mut out = Tensor::zeros([1, 8, 2, 2], Layout::Nchw).unwrap();
        assert!(add(&a, &b, &mut out, &Sequential).is_err());
        add(&a, &a, &mut out, &Sequential).unwrap();
        assert_eq!(out.at(&[0, 3, 1, 0]), 2.0 * a.at(&[0, 3, 1, 0]));
    }

    #[test]
    fn add_assign_matches_add() {
        let a = Tensor::random([1, 8, 2, 2], Layout::NchwC(4), 2, 1.0).unwrap();
        let b = Tensor::random([1, 8, 2, 2], Layout::NchwC(4), 3, 1.0).unwrap();
        let mut out = Tensor::zeros([1, 8, 2, 2], Layout::NchwC(4)).unwrap();
        add(&a, &b, &mut out, &Sequential).unwrap();
        let mut acc = a.clone();
        add_assign(&mut acc, &b, &Sequential).unwrap();
        assert_eq!(acc.data(), out.data());
        let mismatched = Tensor::zeros([1, 8, 2, 2], Layout::Nchw).unwrap();
        assert!(add_assign(&mut acc, &mismatched, &Sequential).is_err());
    }

    #[test]
    fn scale_shift_matches_manual_batchnorm() {
        let x = Tensor::random([1, 4, 3, 3], Layout::Nchw, 9, 1.0).unwrap();
        let gamma = [1.0f32, 2.0, 0.5, 1.5];
        let beta = [0.0f32, -1.0, 0.5, 2.0];
        let mean = [0.1f32, 0.2, -0.1, 0.0];
        let var = [1.0f32, 0.5, 2.0, 0.25];
        let eps = 1e-5;
        let (scale, shift) = batchnorm_fold(&gamma, &beta, &mean, &var, eps);
        let mut out = Tensor::zeros([1, 4, 3, 3], Layout::Nchw).unwrap();
        scale_shift(&x, &mut out, &scale, &shift, &Sequential).unwrap();
        for c in 0..4 {
            for h in 0..3 {
                for w in 0..3 {
                    let v = x.at(&[0, c, h, w]);
                    let want = gamma[c] * (v - mean[c]) / (var[c] + eps).sqrt() + beta[c];
                    let got = out.at(&[0, c, h, w]);
                    assert!((want - got).abs() < 1e-5, "c={c}: {want} vs {got}");
                }
            }
        }
    }

    #[test]
    fn scale_shift_blocked_matches_plain() {
        let x = Tensor::random([2, 16, 4, 4], Layout::Nchw, 10, 1.0).unwrap();
        let scale: Vec<f32> = (0..16).map(|i| 0.5 + i as f32 * 0.1).collect();
        let shift: Vec<f32> = (0..16).map(|i| i as f32 * -0.2).collect();
        let mut plain = Tensor::zeros([2, 16, 4, 4], Layout::Nchw).unwrap();
        scale_shift(&x, &mut plain, &scale, &shift, &Sequential).unwrap();
        let xb = to_layout(&x, Layout::NchwC(8)).unwrap();
        let mut blocked = Tensor::zeros([2, 16, 4, 4], Layout::NchwC(8)).unwrap();
        scale_shift(&xb, &mut blocked, &scale, &shift, &Sequential).unwrap();
        assert!(plain.approx_eq(&blocked, 1e-6));
    }

    #[test]
    fn concat_matches_logical_stacking() {
        let a = Tensor::random([1, 8, 3, 3], Layout::Nchw, 21, 1.0).unwrap();
        let b = Tensor::random([1, 4, 3, 3], Layout::Nchw, 22, 1.0).unwrap();
        let mut out = Tensor::zeros([1, 12, 3, 3], Layout::Nchw).unwrap();
        concat_channels(&[&a, &b], &mut out, &Sequential).unwrap();
        assert_eq!(out.at(&[0, 2, 1, 1]), a.at(&[0, 2, 1, 1]));
        assert_eq!(out.at(&[0, 9, 2, 0]), b.at(&[0, 1, 2, 0]));

        // Blocked concat agrees with plain concat.
        let ab = to_layout(&a, Layout::NchwC(4)).unwrap();
        let bb = to_layout(&b, Layout::NchwC(4)).unwrap();
        let mut outb = Tensor::zeros([1, 12, 3, 3], Layout::NchwC(4)).unwrap();
        concat_channels(&[&ab, &bb], &mut outb, &Sequential).unwrap();
        assert!(out.approx_eq(&outb, 0.0));
    }

    #[test]
    fn concat_rejects_mismatches() {
        let a = Tensor::zeros([1, 8, 3, 3], Layout::Nchw).unwrap();
        let b = Tensor::zeros([1, 4, 2, 2], Layout::Nchw).unwrap();
        let mut out = Tensor::zeros([1, 12, 3, 3], Layout::Nchw).unwrap();
        assert!(concat_channels(&[&a, &b], &mut out, &Sequential).is_err());
        assert!(concat_channels(&[], &mut out, &Sequential).is_err());
    }
}
