//! Fully connected (dense) layer — layout-*dependent* (§3.2 class 3).
//!
//! Dense consumes rank-2 `NC` activations produced by `Flatten`, which is
//! why the blocked layout must be transformed back to plain `NCHW` before
//! the classifier head of every evaluated model. The kernel itself is a
//! row-parallel mat-vec/mat-mat; each output is a dot product accumulated in
//! 16 independent chains so the adds pipeline (and vectorize) instead of
//! waiting on one another.

use neocpu_tensor::{Layout, Tensor};
use neocpu_threadpool::Parallelism;

use crate::util::SendPtr;
use crate::{KernelError, Result};

/// Independent partial sums a row's dot product is accumulated in: element
/// `i` goes to chain `i mod 16` over the whole 16-element blocks, the chains
/// are added pairwise, then the tail elements in order.
const PARTIAL_SUMS: usize = 16;

/// `Σ_i x[i] · w[i]` in the order [`PARTIAL_SUMS`] documents.
fn dot(x: &[f32], w: &[f32]) -> f32 {
    let mut acc = [0f32; PARTIAL_SUMS];
    let (blocks_x, blocks_w) = (x.chunks_exact(PARTIAL_SUMS), w.chunks_exact(PARTIAL_SUMS));
    let (tail_x, tail_w) = (blocks_x.remainder(), blocks_w.remainder());
    for (xb, wb) in blocks_x.zip(blocks_w) {
        for l in 0..PARTIAL_SUMS {
            acc[l] += xb[l] * wb[l];
        }
    }
    let mut live = PARTIAL_SUMS;
    while live > 1 {
        live /= 2;
        for l in 0..live {
            acc[l] += acc[l + live];
        }
    }
    tail_x.iter().zip(tail_w).fold(acc[0], |sum, (xa, wa)| sum + xa * wa)
}

/// `output[n, o] = Σ_i input[n, i] · weights[o, i] (+ bias[o])`, with an
/// optional fused ReLU. The sum is taken in 16 partial chains, which are
/// added pairwise, then the tail in order; it stays within 10⁻⁵ of
/// `Σ_i |input_i · weight_i|` of the exact sum (the tests' `DENSE_REL_TOL`).
///
/// `input`/`output` are `NC`; `weights` are `OI`.
///
/// # Errors
///
/// Returns an error on layout or shape mismatch.
pub fn dense(
    input: &Tensor,
    weights: &Tensor,
    output: &mut Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    par: &dyn Parallelism,
) -> Result<()> {
    if input.layout() != Layout::Nc || output.layout() != Layout::Nc {
        return Err(KernelError::BadOperand("dense activations must be NC".into()));
    }
    if weights.layout() != Layout::Oi {
        return Err(KernelError::BadOperand("dense weights must be OI".into()));
    }
    let id = input.shape().dims();
    let wd = weights.shape().dims();
    let od = output.shape().dims();
    let (n, in_f) = (id[0], id[1]);
    let (out_f, w_in) = (wd[0], wd[1]);
    if w_in != in_f {
        return Err(KernelError::BadOperand(format!(
            "dense weight in-features {w_in} != input features {in_f}"
        )));
    }
    if od != [n, out_f] {
        return Err(KernelError::BadOperand("dense output shape mismatch".into()));
    }
    if let Some(b) = bias {
        if b.len() != out_f {
            return Err(KernelError::BadOperand("dense bias length mismatch".into()));
        }
    }

    let x = input.data();
    let w = weights.data();
    let out_ptr = SendPtr(output.data_mut().as_mut_ptr());
    par.run(n * out_f, &|_, range| {
        let out_ptr = out_ptr;
        for job in range {
            let (b, o) = (job / out_f, job % out_f);
            let mut acc = dot(&x[b * in_f..(b + 1) * in_f], &w[o * in_f..(o + 1) * in_f]);
            if let Some(bias) = bias {
                acc += bias[o];
            }
            if relu && acc < 0.0 {
                acc = 0.0;
            }
            // SAFETY: jobs are disjoint output elements.
            unsafe { *out_ptr.add(job) = acc };
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neocpu_threadpool::Sequential;

    /// Bound on `|dense − exact| / Σ_i |input_i · weight_i|` for any row: what
    /// reassociating the sum may cost. f32 summation of `n` terms in 16 chains
    /// is off by at most about `(n / 16 + 5) · 2⁻²⁴` of that scale — 8·10⁻⁶ at
    /// the 2048 inputs of the widest classifier here.
    const DENSE_REL_TOL: f32 = 1e-5;

    #[test]
    fn small_matvec() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3], Layout::Nc).unwrap();
        let w =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0], [2, 3], Layout::Oi).unwrap();
        let mut out = Tensor::zeros([1, 2], Layout::Nc).unwrap();
        dense(&x, &w, &mut out, None, false, &Sequential).unwrap();
        assert_eq!(out.data(), &[1.0, 5.0]);
    }

    #[test]
    fn bias_and_relu() {
        let x = Tensor::from_vec(vec![1.0, -1.0], [1, 2], Layout::Nc).unwrap();
        let w = Tensor::from_vec(vec![1.0, 1.0, -1.0, -1.0], [2, 2], Layout::Oi).unwrap();
        let bias = [0.5f32, -0.5];
        let mut out = Tensor::zeros([1, 2], Layout::Nc).unwrap();
        dense(&x, &w, &mut out, Some(&bias), true, &Sequential).unwrap();
        assert_eq!(out.data(), &[0.5, 0.0]);
    }

    #[test]
    fn batched_rows() {
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2], Layout::Nc).unwrap();
        let w = Tensor::from_vec(vec![2.0, 3.0], [1, 2], Layout::Oi).unwrap();
        let mut out = Tensor::zeros([2, 1], Layout::Nc).unwrap();
        dense(&x, &w, &mut out, None, false, &Sequential).unwrap();
        assert_eq!(out.data(), &[2.0, 3.0]);
    }

    #[test]
    fn reassociated_sum_stays_within_the_named_tolerance_of_f64() {
        // Lengths around the 16-wide blocks, and the classifier widths.
        for (i, in_f) in [1usize, 15, 16, 17, 31, 100, 1000, 1024, 2048].into_iter().enumerate() {
            let x = Tensor::random([2, in_f], Layout::Nc, 70 + i as u64, 4.0).unwrap();
            let w = Tensor::random([3, in_f], Layout::Oi, 90 + i as u64, 4.0).unwrap();
            let mut out = Tensor::zeros([2, 3], Layout::Nc).unwrap();
            dense(&x, &w, &mut out, None, false, &Sequential).unwrap();
            for (job, &got) in out.data().iter().enumerate() {
                let xr = &x.data()[job / 3 * in_f..][..in_f];
                let wr = &w.data()[job % 3 * in_f..][..in_f];
                let terms = xr.iter().zip(wr).map(|(&a, &b)| f64::from(a) * f64::from(b));
                let (exact, scale) = terms.fold((0f64, 0f64), |(s, m), t| (s + t, m + t.abs()));
                let err = (f64::from(got) - exact).abs();
                assert!(
                    err <= f64::from(DENSE_REL_TOL) * scale,
                    "in_f {in_f} output {job}: {got} vs {exact}, error {err:e} of scale {scale}"
                );
            }
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let x = Tensor::zeros([1, 3], Layout::Nc).unwrap();
        let w = Tensor::zeros([2, 4], Layout::Oi).unwrap();
        let mut out = Tensor::zeros([1, 2], Layout::Nc).unwrap();
        assert!(dense(&x, &w, &mut out, None, false, &Sequential).is_err());
    }
}
