//! Layout transformation routines.
//!
//! These are the `LayoutTransform` nodes of the paper's Figure 2: each one
//! physically permutes every element of a tensor, so it costs time linear in
//! the tensor size. The graph-level passes in `neocpu-graph` exist to insert
//! as few of these as possible; the compile-time weight pre-transformation
//! uses [`to_layout`] once per parameter and amortizes it over all
//! inferences.
//!
//! Hot pairs (`NCHW → NCHW[x]c`, `NCHW[x]c → NCHW`, re-blocking between two
//! `NCHW[x]c` factors, `OIHW → OIHW[x]i[y]o`) have specialized loops; any
//! remaining pair falls back to a generic logical-index walk.
//!
//! Every transform writes every destination element, so [`to_layout`]
//! allocates its output with [`Tensor::uninit`] (no memset), and
//! [`to_layout_into`] lets the arena executor write into planned storage
//! without allocating at all.

use crate::{Layout, Tensor, TensorError};

/// Transforms a tensor into `target` layout, copying data.
///
/// Returns a tensor with the same logical shape. Transforming into the
/// current layout still copies (callers that want to avoid the copy check
/// layouts first — the graph passes do).
///
/// # Errors
///
/// Returns an error if the logical shape is incompatible with `target`
/// (wrong rank or indivisible blocked dimension).
pub fn to_layout(src: &Tensor, target: Layout) -> Result<Tensor, TensorError> {
    let mut dst = Tensor::uninit(src.shape().clone(), target)?;
    to_layout_into(src, &mut dst)?;
    Ok(dst)
}

/// Transforms `src` into `dst`'s layout, writing into `dst`'s storage.
///
/// `dst` supplies both the target layout and the destination buffer, which
/// may be an arena view: this is how the executor performs layout
/// transformations without allocating. Every element of `dst` is
/// overwritten, so its prior contents are irrelevant.
///
/// # Errors
///
/// Returns an error if the logical shapes of `src` and `dst` differ.
pub fn to_layout_into(src: &Tensor, dst: &mut Tensor) -> Result<(), TensorError> {
    if src.shape() != dst.shape() {
        return Err(TensorError::ShapeMismatch(format!(
            "layout transform {} -> {} changes logical shape",
            src.shape(),
            dst.shape()
        )));
    }
    match (src.layout(), dst.layout()) {
        (Layout::Nchw, Layout::NchwC(x)) => nchw_to_nchwc(src, dst, x),
        (Layout::NchwC(x), Layout::Nchw) => nchwc_to_nchw(src, dst, x),
        (Layout::NchwC(a), Layout::NchwC(b)) if a != b => reblock_nchwc(src, dst, a, b),
        (Layout::Oihw, Layout::OihwIo { i, o }) => oihw_to_oihwio(src, dst, i, o),
        _ => generic_transform_into(src, dst),
    }
    Ok(())
}

/// Specialized `NCHW → NCHW[x]c`: gathers `x` consecutive channels into the
/// innermost dimension.
fn nchw_to_nchwc(src: &Tensor, dst: &mut Tensor, x: usize) {
    let d = src.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let hw = h * w;
    let s = src.data();
    let o = dst.data_mut();
    let chunks = c / x;
    for b in 0..n {
        for co in 0..chunks {
            for ci in 0..x {
                let src_plane = ((b * c) + co * x + ci) * hw;
                let dst_base = ((b * chunks) + co) * hw * x + ci;
                for p in 0..hw {
                    o[dst_base + p * x] = s[src_plane + p];
                }
            }
        }
    }
}

/// Specialized `NCHW[x]c → NCHW`: scatters the innermost block back out.
fn nchwc_to_nchw(src: &Tensor, dst: &mut Tensor, x: usize) {
    let d = src.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let hw = h * w;
    let s = src.data();
    let o = dst.data_mut();
    let chunks = c / x;
    for b in 0..n {
        for co in 0..chunks {
            for ci in 0..x {
                let dst_plane = ((b * c) + co * x + ci) * hw;
                let src_base = ((b * chunks) + co) * hw * x + ci;
                for p in 0..hw {
                    o[dst_plane + p] = s[src_base + p * x];
                }
            }
        }
    }
}

/// Re-blocks between two channel factors without materializing plain NCHW.
///
/// This is the transform a [`crate::Layout::NchwC`] mismatch between two
/// consecutive CONVs pays when the global search picks different split
/// factors (§3.3.2); doing it directly halves the traffic of a naive
/// `NCHW[a]c → NCHW → NCHW[b]c` round trip.
fn reblock_nchwc(src: &Tensor, dst: &mut Tensor, a: usize, b: usize) {
    let d = src.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let hw = h * w;
    let s = src.data();
    let o = dst.data_mut();
    let (ca, cb) = (c / a, c / b);
    for bt in 0..n {
        for ch in 0..c {
            let (sa, si) = (ch / a, ch % a);
            let (da, di) = (ch / b, ch % b);
            let src_base = ((bt * ca) + sa) * hw * a + si;
            let dst_base = ((bt * cb) + da) * hw * b + di;
            for p in 0..hw {
                o[dst_base + p * b] = s[src_base + p * a];
            }
        }
    }
}

/// Specialized `OIHW → OIHW[i]i[o]o` weight pre-transformation (Figure 2:
/// `KCRS → OIHW16i16o` done once at compile time).
fn oihw_to_oihwio(src: &Tensor, dst: &mut Tensor, i: usize, o: usize) {
    let d = src.shape().dims();
    let (oc, ic, kh, kw) = (d[0], d[1], d[2], d[3]);
    let s = src.data();
    let out = dst.data_mut();
    let (oco_n, ico_n) = (oc / o, ic / i);
    let khw = kh * kw;
    for oco in 0..oco_n {
        for ico in 0..ico_n {
            for p in 0..khw {
                for ici in 0..i {
                    for oci in 0..o {
                        let src_off = (((oco * o + oci) * ic) + ico * i + ici) * khw + p;
                        let dst_off = ((((oco * ico_n + ico) * khw) + p) * i + ici) * o + oci;
                        out[dst_off] = s[src_off];
                    }
                }
            }
        }
    }
}

/// Generic transform via logical indices; correct for any layout pair of
/// matching rank, slower than the specialized paths.
fn generic_transform_into(src: &Tensor, dst: &mut Tensor) {
    let dims = src.shape().dims().to_vec();
    let rank = dims.len();
    if src.num_elements() == 0 {
        return;
    }
    let mut idx = vec![0usize; rank];
    loop {
        dst.set(&idx, src.at(&idx));
        let mut k = rank;
        loop {
            if k == 0 {
                return;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn seq_tensor(shape: impl Into<Shape>, layout: Layout) -> Tensor {
        let shape = shape.into();
        let data: Vec<f32> = (0..shape.num_elements()).map(|v| v as f32).collect();
        Tensor::from_vec(data, shape, layout).unwrap()
    }

    fn generic_to_layout(src: &Tensor, target: Layout) -> Tensor {
        let mut dst = Tensor::zeros(src.shape().clone(), target).unwrap();
        generic_transform_into(src, &mut dst);
        dst
    }

    #[test]
    fn nchw_nchwc_round_trip() {
        let t = seq_tensor([2, 32, 5, 7], Layout::Nchw);
        let blocked = to_layout(&t, Layout::NchwC(8)).unwrap();
        assert_eq!(blocked.layout(), Layout::NchwC(8));
        assert!(t.approx_eq(&blocked, 0.0));
        let back = to_layout(&blocked, Layout::Nchw).unwrap();
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn reblock_matches_round_trip() {
        let t = seq_tensor([1, 48, 4, 4], Layout::Nchw);
        let a = to_layout(&t, Layout::NchwC(16)).unwrap();
        let direct = to_layout(&a, Layout::NchwC(8)).unwrap();
        let via_nchw = to_layout(&to_layout(&a, Layout::Nchw).unwrap(), Layout::NchwC(8)).unwrap();
        assert_eq!(direct.data(), via_nchw.data());
    }

    #[test]
    fn oihw_blocking_places_output_channels_innermost() {
        let w = seq_tensor([4, 4, 1, 1], Layout::Oihw);
        let b = to_layout(&w, Layout::OihwIo { i: 2, o: 2 }).unwrap();
        // Innermost `o` pairs output channels: positions 0 and 1 of the
        // blocked buffer are (oc=0, ic=0) and (oc=1, ic=0).
        assert_eq!(b.data()[0], w.at(&[0, 0, 0, 0]));
        assert_eq!(b.data()[1], w.at(&[1, 0, 0, 0]));
        assert!(w.approx_eq(&b, 0.0));
    }

    #[test]
    fn transform_rejects_indivisible() {
        let t = seq_tensor([1, 30, 2, 2], Layout::Nchw);
        assert!(to_layout(&t, Layout::NchwC(16)).is_err());
    }

    #[test]
    fn into_rejects_shape_mismatch() {
        let t = seq_tensor([1, 8, 2, 2], Layout::Nchw);
        let mut dst = Tensor::zeros([1, 8, 2, 3], Layout::NchwC(4)).unwrap();
        assert!(to_layout_into(&t, &mut dst).is_err());
    }

    #[test]
    fn specialized_paths_match_generic() {
        let t = seq_tensor([2, 24, 3, 5], Layout::Nchw);
        let fast = to_layout(&t, Layout::NchwC(4)).unwrap();
        let slow = generic_to_layout(&t, Layout::NchwC(4));
        assert_eq!(fast.data(), slow.data());

        let w = seq_tensor([8, 6, 3, 3], Layout::Oihw);
        let fast = to_layout(&w, Layout::OihwIo { i: 3, o: 4 }).unwrap();
        let slow = generic_to_layout(&w, Layout::OihwIo { i: 3, o: 4 });
        assert_eq!(fast.data(), slow.data());
    }
}
