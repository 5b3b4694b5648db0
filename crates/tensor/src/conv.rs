//! 2-D convolution and pooling kernels (NCHW layout).
//!
//! A convolution is a GEMM against the flattened filter bank `W`
//! (`out_c × K`, `K = c·k_h·k_w` in `(c, kh, kw)` order). That is also
//! exactly the matrix a crossbar holds, which is why the mapped
//! convolution layers in `xbar-nn` run these kernels on their effective
//! weights.
//!
//! The kernels never build the whole batch's `(n·S) × K` patch matrix
//! (`S = out_h·out_w`). Per sample they gather the patches transposed
//! into a `K × S` scratch block `Pᵀ` and run the GEMMs channel-major:
//!
//! * forward: `Y_s = W · Pᵀ` is already the sample's NCHW output block;
//! * input gradient: `dPᵀ = Wᵀ · G_s` reads the sample's NCHW gradient in
//!   place, then scatter-adds into a zero-padded plane;
//! * weight gradient: `dWᵀ = Pᵀ · G` runs over `KC`-deep blocks of the
//!   whole batch's patch rows and is transposed once at the end.
//!
//! Every output is bitwise identical to lowering the batch to a patch
//! matrix and calling [`crate::linalg`]: each GEMM keeps the class
//! ([`Problem::small`]) of that whole-batch problem and reproduces the
//! class's per-element arithmetic (DESIGN.md §5.4).

use crate::dispatch::{transpose_into, Problem};
use crate::gemm::{microkernel, pack_b, simd_active, KC, NR};
use crate::{backend, scratch, ShapeError, Tensor};

/// Spatial geometry of a convolution or pooling operation.
///
/// # Example
///
/// ```
/// use xbar_tensor::conv::ConvGeometry;
///
/// let g = ConvGeometry::new(32, 32, 3, 3, 1, 1).unwrap();
/// assert_eq!((g.out_h, g.out_w), (32, 32)); // "same" conv
/// assert!(ConvGeometry::new(2, 2, 3, 3, 1, 0).is_err()); // window too big
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl ConvGeometry {
    /// Computes the output geometry for the given input size, kernel,
    /// stride, and padding.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `stride == 0` or the kernel does not fit
    /// in the padded input.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        if stride == 0 {
            return Err(ShapeError::new("conv geometry", "stride must be positive"));
        }
        let (hp, wp) = (in_h + 2 * pad, in_w + 2 * pad);
        if hp < k_h || wp < k_w {
            return Err(ShapeError::new(
                "conv geometry",
                format!("kernel {k_h}x{k_w} larger than padded input {hp}x{wp}"),
            ));
        }
        Ok(Self {
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            pad,
            out_h: (hp - k_h) / stride + 1,
            out_w: (wp - k_w) / stride + 1,
        })
    }

    /// Output pixels per channel, `S = out_h·out_w`.
    fn spatial(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Height and width of the zero-padded input plane.
    fn padded(&self) -> (usize, usize) {
        (self.in_h + 2 * self.pad, self.in_w + 2 * self.pad)
    }
}

/// Checks that `input` is NCHW with the spatial size `geom` expects and
/// returns its `(n, c, h, w)`.
fn check_input(
    op: &'static str,
    input: &Tensor,
    geom: &ConvGeometry,
) -> Result<(usize, usize, usize, usize), ShapeError> {
    if input.ndim() != 4 {
        return Err(ShapeError::new(
            op,
            format!("expected NCHW 4-D tensor, got shape {:?}", input.shape()),
        ));
    }
    let s = input.shape();
    if s[2] != geom.in_h || s[3] != geom.in_w {
        return Err(ShapeError::new(
            op,
            format!(
                "input {}x{} but geometry expects {}x{}",
                s[2], s[3], geom.in_h, geom.in_w
            ),
        ));
    }
    Ok((s[0], s[1], s[2], s[3]))
}

/// Checks that `weight` is a filter bank of patch width `k` and returns
/// its filter count.
fn check_weight(op: &'static str, weight: &Tensor, k: usize) -> Result<usize, ShapeError> {
    if weight.ndim() != 2 || weight.shape()[1] != k {
        return Err(ShapeError::new(
            op,
            format!(
                "weight shape {:?} incompatible with patch width {k}",
                weight.shape()
            ),
        ));
    }
    Ok(weight.shape()[0])
}

/// Copies one sample's `c` planes into a zeroed scratch block with a
/// `pad`-wide border; `None` when the geometry has no padding.
fn pad_planes(sample: &[f32], c: usize, geom: &ConvGeometry) -> Option<Vec<f32>> {
    if geom.pad == 0 {
        return None;
    }
    let (hp, wp) = geom.padded();
    let (w, p) = (geom.in_w, geom.pad);
    let mut buf = scratch::take_filled(c * hp * wp, 0.0);
    let planes = sample.chunks_exact((geom.in_h * w).max(1));
    for (dst, src) in buf.chunks_exact_mut(hp * wp).zip(planes) {
        for (drow, srow) in dst[p * wp..].chunks_exact_mut(wp).zip(src.chunks_exact(w)) {
            drow[p..p + w].copy_from_slice(srow);
        }
    }
    Some(buf)
}

/// Writes one sample's patches transposed into `pt` (`K × S`): row
/// `(ci, kh, kw)` holds that tap of every output pixel in `(oh, ow)`
/// order. Read from the zero-padded planes, every row is `out_h`
/// fixed-length runs, with no per-element bounds tests.
fn gather_patches(sample: &[f32], c: usize, geom: &ConvGeometry, pt: &mut [f32]) {
    let padded = pad_planes(sample, c, geom);
    let src = padded.as_deref().unwrap_or(sample);
    let (hp, wp) = geom.padded();
    let (ow_n, st) = (geom.out_w, geom.stride);
    let mut rows = pt.chunks_exact_mut(geom.spatial());
    for plane in src.chunks_exact((hp * wp).max(1)) {
        for kh in 0..geom.k_h {
            for kw in 0..geom.k_w {
                let row = rows.next().expect("pt holds K rows");
                for (oh, run) in row.chunks_exact_mut(ow_n).enumerate() {
                    let line = &plane[(oh * st + kh) * wp + kw..];
                    if st == 1 {
                        run.copy_from_slice(&line[..ow_n]);
                    } else {
                        for (d, &v) in run.iter_mut().zip(line.iter().step_by(st)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
    if let Some(buf) = padded {
        scratch::give(buf);
    }
}

/// Scatter-adds one sample's patch gradients `dpt` (`K × S`) into its
/// zeroed input gradient `gx`, the adjoint of [`gather_patches`].
///
/// Taps go in `(ci, oh, kh, kw descending, ow)` order. Within one `oh`,
/// descending `kw` is ascending `ow` for any one input element, so every
/// element receives its contributions in ascending `(oh, ow)` order.
/// Padding taps land in the border of a zero-padded plane whose interior
/// is then copied out.
fn scatter_patches(dpt: &[f32], c: usize, geom: &ConvGeometry, gx: &mut [f32]) {
    let (hp, wp) = geom.padded();
    let mut padded = (geom.pad > 0).then(|| scratch::take_filled(c * hp * wp, 0.0));
    let planes = padded.as_deref_mut().unwrap_or(&mut *gx);
    let (s, ow_n, st) = (geom.spatial(), geom.out_w, geom.stride);
    for (ci, plane) in planes.chunks_exact_mut((hp * wp).max(1)).enumerate() {
        for oh in 0..geom.out_h {
            for kh in 0..geom.k_h {
                let line = &mut plane[(oh * st + kh) * wp..];
                for kw in (0..geom.k_w).rev() {
                    let at = ((ci * geom.k_h + kh) * geom.k_w + kw) * s + oh * ow_n;
                    let run = &dpt[at..at + ow_n];
                    if st == 1 {
                        for (d, &v) in line[kw..kw + ow_n].iter_mut().zip(run) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in line[kw..].iter_mut().step_by(st).zip(run) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
    if let Some(buf) = padded {
        let (w, p) = (geom.in_w, geom.pad);
        let dst = gx.chunks_exact_mut((geom.in_h * w).max(1));
        for (src, dst) in buf.chunks_exact(hp * wp).zip(dst) {
            for (srow, drow) in src[p * wp..].chunks_exact(wp).zip(dst.chunks_exact_mut(w)) {
                drow.copy_from_slice(&srow[p..p + w]);
            }
        }
        scratch::give(buf);
    }
}

/// `y += a · b` with the blocked GEMM routines' arithmetic: `a` is
/// `rows × depth`, read in place with row stride `a_stride`; `b` is
/// `depth × cols` row-major, packed one `KC × NR` panel at a time. Each
/// element gets one micro-kernel chain per `KC` block, added into `y` in
/// ascending block order.
#[allow(clippy::too_many_arguments)]
fn blocked_gemm(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    y: &mut [f32],
    rows: usize,
    depth: usize,
    cols: usize,
    simd: bool,
) {
    let mut panel = [0f32; KC * NR];
    let mut p0 = 0;
    while p0 < depth {
        let kc = KC.min(depth - p0);
        let mut j0 = 0;
        while j0 < cols {
            let nr = NR.min(cols - j0);
            pack_b(false, b, &mut panel, p0, kc, j0, nr, depth, cols);
            microkernel(&a[p0..], a_stride, &panel, y, rows, kc, cols, j0, nr, simd);
            j0 += NR;
        }
        p0 += KC;
    }
}

/// `acc[i] += x[i] · a`: one rounding for the product, one for the sum.
fn axpy(acc: &mut [f32], x: &[f32], a: f32) {
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += v * a;
    }
}

/// Small-class forward `y = W · Pᵀ` with `small_nt`'s arithmetic: four
/// strided partial sums over full groups of four taps plus a tail,
/// combined as `((a0 + a1) + (a2 + a3)) + tail` — for all `S` pixels at
/// once.
fn small_forward(w: &[f32], pt: &[f32], y: &mut [f32], k: usize, s: usize) {
    let k4 = k - k % 4;
    let mut acc = scratch::take_filled(5 * s, 0.0);
    for (wrow, yrow) in w.chunks_exact(k).zip(y.chunks_exact_mut(s)) {
        acc.fill(0.0);
        let (parts, tail) = acc.split_at_mut(4 * s);
        for (p, (&wv, prow)) in wrow.iter().zip(pt.chunks_exact(s)).enumerate() {
            let dst = if p < k4 {
                &mut parts[(p % 4) * s..(p % 4 + 1) * s]
            } else {
                &mut *tail
            };
            axpy(dst, prow, wv);
        }
        for (i, o) in yrow.iter_mut().enumerate() {
            *o = ((parts[i] + parts[s + i]) + (parts[2 * s + i] + parts[3 * s + i])) + tail[i];
        }
    }
    scratch::give(acc);
}

/// Small-class `dPᵀ = Wᵀ · G_s` with `small_nn`'s arithmetic: each
/// product added straight into the zeroed output in ascending `out_c`
/// order — for all `S` pixels at once.
fn small_input_grad(w: &[f32], g: &[f32], dpt: &mut [f32], k: usize, s: usize) {
    for (wrow, grow) in w.chunks_exact(k).zip(g.chunks_exact(s)) {
        for (&wv, drow) in wrow.iter().zip(dpt.chunks_exact_mut(s)) {
            axpy(drow, grow, wv);
        }
    }
}

/// The weight gradient `dW = Gᵀ · P` of the whole batch (`out_c × K`).
///
/// Its depth is the batch's `n·S` patch rows, cut into `KC`-deep blocks
/// at the same boundaries as the whole-batch GEMM. A block may span
/// samples, so each block's `Pᵀ` columns and gradient rows are gathered
/// from the samples it covers. The blocks accumulate `dWᵀ` (`K × out_c`);
/// the small class adds each product straight into it in ascending row
/// order, as `small_tn` does.
fn weight_grad(grad: &[f32], x: &[f32], c: usize, out_c: usize, geom: &ConvGeometry) -> Tensor {
    let (s, k) = (geom.spatial(), c * geom.k_h * geom.k_w);
    let mut dw = Tensor::zeros(&[out_c, k]);
    if out_c == 0 || k == 0 {
        return dw;
    }
    let rows = grad.len() / out_c;
    let sample_len = c * geom.in_h * geom.in_w;
    let small = Problem::new(true, false, out_c, rows, k).small();
    let simd = simd_active();
    let mut dwt = scratch::take_filled(k * out_c, 0.0);
    let mut pblock = scratch::take_filled(k * KC, 0.0);
    let mut gblock = scratch::take_filled(KC * out_c, 0.0);
    let mut pt = scratch::take_filled(k * s, 0.0);
    let mut pt_sample = None;
    let mut p0 = 0;
    while p0 < rows {
        let kc = KC.min(rows - p0);
        let mut r = p0;
        while r < p0 + kc {
            let (ni, s0) = (r / s, r % s);
            let len = (s - s0).min(p0 + kc - r);
            if pt_sample != Some(ni) {
                gather_patches(&x[ni * sample_len..(ni + 1) * sample_len], c, geom, &mut pt);
                pt_sample = Some(ni);
            }
            let off = r - p0;
            for (dst, src) in pblock.chunks_exact_mut(KC).zip(pt.chunks_exact(s)) {
                dst[off..off + len].copy_from_slice(&src[s0..s0 + len]);
            }
            let g = &grad[ni * out_c * s..(ni + 1) * out_c * s];
            for (oc, grow) in g.chunks_exact(s).enumerate() {
                for (i, &v) in grow[s0..s0 + len].iter().enumerate() {
                    gblock[(off + i) * out_c + oc] = v;
                }
            }
            r += len;
        }
        if small {
            for (pp, grow) in gblock.chunks_exact(out_c).take(kc).enumerate() {
                for (kk, drow) in dwt.chunks_exact_mut(out_c).enumerate() {
                    axpy(drow, grow, pblock[kk * KC + pp]);
                }
            }
        } else {
            blocked_gemm(&pblock, KC, &gblock, &mut dwt, k, kc, out_c, simd);
        }
        p0 += KC;
    }
    transpose_into(&dwt, dw.data_mut(), k, out_c);
    for buf in [dwt, pblock, gblock, pt] {
        scratch::give(buf);
    }
    dw
}

/// Convolution forward pass.
///
/// `input` is NCHW `(n, c, h, w)`; `weight` is the flattened filter bank
/// `(out_c, c·k_h·k_w)`. Returns the output `(n, out_c, out_h, out_w)`.
/// Samples run in parallel, each writing its own output block.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not 4-D, disagrees with `geom`,
/// or `weight` does not have the patch width `c·k_h·k_w`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    geom: &ConvGeometry,
) -> Result<Tensor, ShapeError> {
    let (n, c, h, w) = check_input("conv2d_forward", input, geom)?;
    let k = c * geom.k_h * geom.k_w;
    let out_c = check_weight("conv2d_forward", weight, k)?;
    let s = geom.spatial();
    let mut out = Tensor::zeros(&[n, out_c, geom.out_h, geom.out_w]);
    if k == 0 {
        return Ok(out);
    }
    // The class of the whole-batch `patches · Wᵀ` problem, never of the
    // per-sample one: the two classes round differently.
    let small = Problem::new(false, true, n * s, k, out_c).small();
    let simd = simd_active();
    let (x, wd) = (input.data(), weight.data());
    let sample_len = c * h * w;
    backend::parallel_chunks_mut(out.data_mut(), out_c * s, |ni, y| {
        let mut pt = scratch::take_filled(k * s, 0.0);
        gather_patches(&x[ni * sample_len..(ni + 1) * sample_len], c, geom, &mut pt);
        if small {
            small_forward(wd, &pt, y, k, s);
        } else {
            blocked_gemm(wd, k, &pt, y, out_c, k, s, simd);
        }
        scratch::give(pt);
    });
    Ok(out)
}

/// Gradients of the convolution forward pass.
///
/// Given `grad_out` `(n, out_c, out_h, out_w)`, the forward pass's
/// `input` and the `weight` it used, returns `(grad_input,
/// grad_weight)`. Samples run their input gradients in parallel; the
/// weight gradient sums over the whole batch.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not 4-D or disagrees with `geom`,
/// `weight` has the wrong patch width, or `grad_out` is not the forward
/// output's shape.
pub fn conv2d_backward(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    geom: &ConvGeometry,
) -> Result<(Tensor, Tensor), ShapeError> {
    let (n, c, h, w) = check_input("conv2d_backward", input, geom)?;
    let k = c * geom.k_h * geom.k_w;
    let out_c = check_weight("conv2d_backward", weight, k)?;
    let expected = [n, out_c, geom.out_h, geom.out_w];
    if grad_out.shape() != expected {
        return Err(ShapeError::new(
            "conv2d_backward",
            format!("grad shape {:?}, expected {:?}", grad_out.shape(), expected),
        ));
    }
    let s = geom.spatial();
    let (g, wd) = (grad_out.data(), weight.data());
    let grad_weight = weight_grad(g, input.data(), c, out_c, geom);
    // The class of the whole-batch `G · W` problem (see forward).
    let small = Problem::new(false, false, n * s, out_c, k).small();
    let wt = (!small).then(|| {
        let mut wt = scratch::take_filled(k * out_c, 0.0);
        transpose_into(wd, &mut wt, out_c, k);
        wt
    });
    let simd = simd_active();
    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    backend::parallel_chunks_mut(grad_input.data_mut(), c * h * w, |ni, gx| {
        let gs = &g[ni * out_c * s..(ni + 1) * out_c * s];
        let mut dpt = scratch::take_filled(k * s, 0.0);
        match &wt {
            Some(wt) => blocked_gemm(wt, out_c, gs, &mut dpt, k, out_c, s, simd),
            None => small_input_grad(wd, gs, &mut dpt, k, s),
        }
        scatter_patches(&dpt, c, geom, gx);
        scratch::give(dpt);
    });
    if let Some(wt) = wt {
        scratch::give(wt);
    }
    Ok((grad_input, grad_weight))
}

/// Max-pooling forward pass. Returns the pooled tensor and the flat argmax
/// index of each output element (for the backward scatter).
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not 4-D or disagrees with `geom`.
pub fn maxpool2d_forward(
    input: &Tensor,
    geom: &ConvGeometry,
) -> Result<(Tensor, Vec<usize>), ShapeError> {
    let (n, c, h, w) = check_input("maxpool2d_forward", input, geom)?;
    let mut out = Tensor::zeros(&[n, c, geom.out_h, geom.out_w]);
    let mut idx = vec![0usize; out.len()];
    let src = input.data();
    let dst = out.data_mut();
    // Batch-parallel: zip each sample's output block with its index block
    // (both are `c·out_h·out_w` long) so every task owns disjoint slices.
    let sample = c * geom.out_h * geom.out_w;
    let work: Vec<(usize, &mut [f32], &mut [usize])> = dst
        .chunks_mut(sample.max(1))
        .zip(idx.chunks_mut(sample.max(1)))
        .enumerate()
        .map(|(ni, (d, ix))| (ni, d, ix))
        .collect();
    backend::parallel_map(work, |_, (ni, d, ix)| {
        let mut o = 0;
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for oh in 0..geom.out_h {
                for ow in 0..geom.out_w {
                    let ih0 = (oh * geom.stride) as isize - geom.pad as isize;
                    let iw0 = (ow * geom.stride) as isize - geom.pad as isize;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = plane; // fallback; overwritten on first in-bounds hit
                    for kh in 0..geom.k_h {
                        let ih = ih0 + kh as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..geom.k_w {
                            let iw = iw0 + kw as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            let at = plane + ih as usize * w + iw as usize;
                            if src[at] > best {
                                best = src[at];
                                best_at = at;
                            }
                        }
                    }
                    d[o] = best;
                    ix[o] = best_at;
                    o += 1;
                }
            }
        }
    });
    Ok((out, idx))
}

/// Max-pooling backward pass: routes each output gradient to the input
/// position that produced the max.
///
/// # Errors
///
/// Returns [`ShapeError`] if `grad_out` length disagrees with `indices`.
pub fn maxpool2d_backward(
    grad_out: &Tensor,
    indices: &[usize],
    input_shape: &[usize],
) -> Result<Tensor, ShapeError> {
    if grad_out.len() != indices.len() {
        return Err(ShapeError::new(
            "maxpool2d_backward",
            format!(
                "grad len {} vs indices len {}",
                grad_out.len(),
                indices.len()
            ),
        ));
    }
    let mut grad_in = Tensor::zeros(input_shape);
    let dst = grad_in.data_mut();
    let god = grad_out.data();
    // For the NCHW case, sample `ni` scatters only into its own input
    // plane (forward indices are always in-sample), so the batch split is
    // race-free. Non-4-D shapes fall back to the serial loop.
    let n = input_shape.first().copied().unwrap_or(0);
    if input_shape.len() == 4 && n > 0 && god.len().is_multiple_of(n) && !dst.is_empty() {
        let plane = input_shape[1] * input_shape[2] * input_shape[3];
        let per = god.len() / n;
        backend::parallel_chunks_mut(dst, plane, |ni, chunk| {
            let base = ni * plane;
            for (&g, &at) in god[ni * per..(ni + 1) * per]
                .iter()
                .zip(&indices[ni * per..(ni + 1) * per])
            {
                chunk[at - base] += g;
            }
        });
    } else {
        for (&g, &at) in god.iter().zip(indices) {
            dst[at] += g;
        }
    }
    Ok(grad_in)
}

/// Average-pooling forward pass (counts only in-bounds elements, i.e.
/// padding does not dilute the average).
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` is not 4-D or disagrees with `geom`.
pub fn avgpool2d_forward(input: &Tensor, geom: &ConvGeometry) -> Result<Tensor, ShapeError> {
    let (n, c, h, w) = check_input("avgpool2d_forward", input, geom)?;
    let mut out = Tensor::zeros(&[n, c, geom.out_h, geom.out_w]);
    let src = input.data();
    let dst = out.data_mut();
    // Batch-parallel over each sample's `c·out_h·out_w` output block.
    backend::parallel_chunks_mut(dst, (c * geom.out_h * geom.out_w).max(1), |ni, block| {
        let mut o = 0;
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for oh in 0..geom.out_h {
                for ow in 0..geom.out_w {
                    let ih0 = (oh * geom.stride) as isize - geom.pad as isize;
                    let iw0 = (ow * geom.stride) as isize - geom.pad as isize;
                    let mut acc = 0.0;
                    let mut count = 0;
                    for kh in 0..geom.k_h {
                        let ih = ih0 + kh as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..geom.k_w {
                            let iw = iw0 + kw as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            acc += src[plane + ih as usize * w + iw as usize];
                            count += 1;
                        }
                    }
                    block[o] = if count > 0 { acc / count as f32 } else { 0.0 };
                    o += 1;
                }
            }
        }
    });
    Ok(out)
}

/// Average-pooling backward pass: spreads each output gradient uniformly
/// over the in-bounds elements of its window.
///
/// # Errors
///
/// Returns [`ShapeError`] if `grad_out` disagrees with the geometry.
pub fn avgpool2d_backward(
    grad_out: &Tensor,
    n: usize,
    c: usize,
    geom: &ConvGeometry,
) -> Result<Tensor, ShapeError> {
    let expected = [n, c, geom.out_h, geom.out_w];
    if grad_out.shape() != expected {
        return Err(ShapeError::new(
            "avgpool2d_backward",
            format!("grad shape {:?}, expected {:?}", grad_out.shape(), expected),
        ));
    }
    let (h, w) = (geom.in_h, geom.in_w);
    let mut grad_in = Tensor::zeros(&[n, c, h, w]);
    let src = grad_out.data();
    let dst = grad_in.data_mut();
    // Batch-parallel: sample `ni` reads its own `c·out_h·out_w` gradient
    // block and writes its own `c·h·w` input plane.
    let out_block = c * geom.out_h * geom.out_w;
    backend::parallel_chunks_mut(dst, (c * h * w).max(1), |ni, planes| {
        let mut o = ni * out_block;
        for ci in 0..c {
            let plane = ci * h * w;
            for oh in 0..geom.out_h {
                for ow in 0..geom.out_w {
                    let ih0 = (oh * geom.stride) as isize - geom.pad as isize;
                    let iw0 = (ow * geom.stride) as isize - geom.pad as isize;
                    let mut in_bounds = Vec::with_capacity(geom.k_h * geom.k_w);
                    for kh in 0..geom.k_h {
                        let ih = ih0 + kh as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        for kw in 0..geom.k_w {
                            let iw = iw0 + kw as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            in_bounds.push(plane + ih as usize * w + iw as usize);
                        }
                    }
                    if !in_bounds.is_empty() {
                        let share = src[o] / in_bounds.len() as f32;
                        for at in in_bounds {
                            planes[at] += share;
                        }
                    }
                    o += 1;
                }
            }
        }
    });
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    /// Direct convolution used as the ground-truth reference.
    fn naive_conv(input: &Tensor, weight: &Tensor, geom: &ConvGeometry, out_c: usize) -> Tensor {
        let s = input.shape();
        let (n, c) = (s[0], s[1]);
        let mut out = Tensor::zeros(&[n, out_c, geom.out_h, geom.out_w]);
        for ni in 0..n {
            for oc in 0..out_c {
                for oh in 0..geom.out_h {
                    for ow in 0..geom.out_w {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for kh in 0..geom.k_h {
                                for kw in 0..geom.k_w {
                                    let ih = (oh * geom.stride + kh) as isize - geom.pad as isize;
                                    let iw = (ow * geom.stride + kw) as isize - geom.pad as isize;
                                    if ih < 0
                                        || iw < 0
                                        || ih >= geom.in_h as isize
                                        || iw >= geom.in_w as isize
                                    {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, ih as usize, iw as usize])
                                        * weight.at(&[oc, (ci * geom.k_h + kh) * geom.k_w + kw]);
                                }
                            }
                        }
                        *out.at_mut(&[ni, oc, oh, ow]) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn geometry_same_and_valid_conv() {
        let same = ConvGeometry::new(8, 8, 3, 3, 1, 1).unwrap();
        assert_eq!((same.out_h, same.out_w), (8, 8));
        let valid = ConvGeometry::new(8, 8, 3, 3, 1, 0).unwrap();
        assert_eq!((valid.out_h, valid.out_w), (6, 6));
        let strided = ConvGeometry::new(8, 8, 2, 2, 2, 0).unwrap();
        assert_eq!((strided.out_h, strided.out_w), (4, 4));
    }

    #[test]
    fn geometry_rejects_zero_stride() {
        assert!(ConvGeometry::new(8, 8, 3, 3, 0, 1).is_err());
    }

    #[test]
    fn geometry_rejects_a_window_larger_than_the_padded_input() {
        assert!(ConvGeometry::new(2, 2, 3, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(4, 1, 3, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(1, 1, 3, 3, 1, 1).is_ok());
    }

    #[test]
    fn conv_forward_matches_naive_reference() {
        let mut rng = XorShiftRng::new(31);
        for &(pad, stride) in &[(0usize, 1usize), (1, 1), (1, 2)] {
            let geom = ConvGeometry::new(6, 5, 3, 3, stride, pad).unwrap();
            let input = Tensor::rand_normal(&[2, 3, 6, 5], 0.0, 1.0, &mut rng);
            let weight = Tensor::rand_normal(&[4, 3 * 9], 0.0, 1.0, &mut rng);
            let out = conv2d_forward(&input, &weight, &geom).unwrap();
            let expected = naive_conv(&input, &weight, &geom, 4);
            assert!(out.all_close(&expected, 1e-4), "pad={pad} stride={stride}");
        }
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let mut rng = XorShiftRng::new(33);
        let geom = ConvGeometry::new(4, 4, 3, 3, 1, 1).unwrap();
        let input = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[3, 2 * 9], 0.0, 1.0, &mut rng);
        let out = conv2d_forward(&input, &weight, &geom).unwrap();
        // Loss = sum(out); grad_out = ones.
        let grad_out = Tensor::ones(out.shape());
        let (gi, gw) = conv2d_backward(&grad_out, &input, &weight, &geom).unwrap();

        let eps = 1e-3;
        // Check a few weight entries.
        for &wi in &[0usize, 5, 17, 26] {
            let mut wp = weight.clone();
            wp.data_mut()[wi] += eps;
            let op = conv2d_forward(&input, &wp, &geom).unwrap();
            let num = (op.sum() - out.sum()) / eps;
            assert!(
                (num - gw.data()[wi]).abs() < 0.05,
                "weight grad {wi}: numeric {num} vs analytic {}",
                gw.data()[wi]
            );
        }
        // Check a few input entries.
        for &xi in &[0usize, 7, 15, 31] {
            let mut xp = input.clone();
            xp.data_mut()[xi] += eps;
            let op = conv2d_forward(&xp, &weight, &geom).unwrap();
            let num = (op.sum() - out.sum()) / eps;
            assert!(
                (num - gi.data()[xi]).abs() < 0.05,
                "input grad {xi}: numeric {num} vs analytic {}",
                gi.data()[xi]
            );
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let geom = ConvGeometry::new(4, 4, 2, 2, 2, 0).unwrap();
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (out, idx) = maxpool2d_forward(&input, &geom).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
        let grad_out = Tensor::ones(out.shape());
        let gi = maxpool2d_backward(&grad_out, &idx, input.shape()).unwrap();
        assert_eq!(gi.sum(), 4.0);
        assert_eq!(gi.at(&[0, 0, 1, 1]), 1.0); // position of 5
        assert_eq!(gi.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn avgpool_forward_matches_manual() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 2, 0).unwrap();
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let out = avgpool2d_forward(&input, &geom).unwrap();
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn avgpool_backward_spreads_gradient() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 2, 0).unwrap();
        let grad_out = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let gi = avgpool2d_backward(&grad_out, 1, 1, &geom).unwrap();
        assert_eq!(gi.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avgpool_via_full_window() {
        let geom = ConvGeometry::new(3, 3, 3, 3, 1, 0).unwrap();
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let out = avgpool2d_forward(&input, &geom).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data(), &[5.0]);
    }

    /// The patch-matrix convolution the kernels replaced, kept as the
    /// oracle they are pinned to bit for bit: `im2col` → GEMM → NCHW
    /// reorder forward; NCHW → rows → two GEMMs → `col2im` backward.
    mod oracle {
        use crate::conv::ConvGeometry;
        use crate::{linalg, Tensor};

        fn im2col(input: &Tensor, geom: &ConvGeometry) -> Tensor {
            let s = input.shape();
            let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
            let k = c * geom.k_h * geom.k_w;
            let mut cols = Tensor::zeros(&[n * geom.out_h * geom.out_w, k]);
            let (src, dst) = (input.data(), cols.data_mut());
            for ni in 0..n {
                for oh in 0..geom.out_h {
                    for ow in 0..geom.out_w {
                        let row = ((ni * geom.out_h + oh) * geom.out_w + ow) * k;
                        let ih0 = (oh * geom.stride) as isize - geom.pad as isize;
                        let iw0 = (ow * geom.stride) as isize - geom.pad as isize;
                        for ci in 0..c {
                            for kh in 0..geom.k_h {
                                let ih = ih0 + kh as isize;
                                if ih < 0 || ih >= h as isize {
                                    continue;
                                }
                                for kw in 0..geom.k_w {
                                    let iw = iw0 + kw as isize;
                                    if iw < 0 || iw >= w as isize {
                                        continue;
                                    }
                                    dst[row + (ci * geom.k_h + kh) * geom.k_w + kw] =
                                        src[((ni * c + ci) * h + ih as usize) * w + iw as usize];
                                }
                            }
                        }
                    }
                }
            }
            cols
        }

        fn col2im(cols: &Tensor, n: usize, c: usize, geom: &ConvGeometry) -> Tensor {
            let (h, w) = (geom.in_h, geom.in_w);
            let k = c * geom.k_h * geom.k_w;
            let mut out = Tensor::zeros(&[n, c, h, w]);
            let (src, dst) = (cols.data(), out.data_mut());
            for ni in 0..n {
                for oh in 0..geom.out_h {
                    for ow in 0..geom.out_w {
                        let row = ((ni * geom.out_h + oh) * geom.out_w + ow) * k;
                        let ih0 = (oh * geom.stride) as isize - geom.pad as isize;
                        let iw0 = (ow * geom.stride) as isize - geom.pad as isize;
                        for ci in 0..c {
                            for kh in 0..geom.k_h {
                                let ih = ih0 + kh as isize;
                                if ih < 0 || ih >= h as isize {
                                    continue;
                                }
                                for kw in 0..geom.k_w {
                                    let iw = iw0 + kw as isize;
                                    if iw < 0 || iw >= w as isize {
                                        continue;
                                    }
                                    dst[((ni * c + ci) * h + ih as usize) * w + iw as usize] +=
                                        src[row + (ci * geom.k_h + kh) * geom.k_w + kw];
                                }
                            }
                        }
                    }
                }
            }
            out
        }

        /// `(n·S, out_c)` rows → NCHW.
        fn rows_to_nchw(mat: &Tensor, n: usize, out_c: usize, geom: &ConvGeometry) -> Tensor {
            let spatial = geom.out_h * geom.out_w;
            let mut out = Tensor::zeros(&[n, out_c, geom.out_h, geom.out_w]);
            for ni in 0..n {
                for s in 0..spatial {
                    for oc in 0..out_c {
                        out.data_mut()[(ni * out_c + oc) * spatial + s] =
                            mat.data()[(ni * spatial + s) * out_c + oc];
                    }
                }
            }
            out
        }

        /// NCHW → `(n·S, c)` rows.
        fn nchw_to_rows(t: &Tensor) -> Tensor {
            let s = t.shape();
            let (n, c, spatial) = (s[0], s[1], s[2] * s[3]);
            let mut out = Tensor::zeros(&[n * spatial, c]);
            for ni in 0..n {
                for ci in 0..c {
                    for sp in 0..spatial {
                        out.data_mut()[(ni * spatial + sp) * c + ci] =
                            t.data()[(ni * c + ci) * spatial + sp];
                    }
                }
            }
            out
        }

        pub fn forward(x: &Tensor, w: &Tensor, geom: &ConvGeometry) -> Tensor {
            let cols = im2col(x, geom);
            let out = linalg::matmul_nt(&cols, w).unwrap();
            rows_to_nchw(&out, x.shape()[0], w.shape()[0], geom)
        }

        /// `(grad_input, grad_weight)`.
        pub fn backward(
            g: &Tensor,
            x: &Tensor,
            w: &Tensor,
            geom: &ConvGeometry,
        ) -> (Tensor, Tensor) {
            let cols = im2col(x, geom);
            let g_mat = nchw_to_rows(g);
            let grad_w = linalg::matmul_tn(&g_mat, &cols).unwrap();
            let d_cols = linalg::matmul(&g_mat, w).unwrap();
            (col2im(&d_cols, x.shape()[0], x.shape()[1], geom), grad_w)
        }
    }

    /// A bit-pin case: `(n, c, h, w, out_c, (k_h, k_w), stride, pad)`.
    type PinCase = (
        usize,
        usize,
        usize,
        usize,
        usize,
        (usize, usize),
        usize,
        usize,
    );

    /// Both GEMM classes of the forward, `dW` and `dX` problems; `k` ∈
    /// {1, 2, 3, 5}, and two non-square kernels; stride 1 and 2; pad 0, 1
    /// and 2; ragged spatial sizes; depths past one `KC` block; and `dW`
    /// blocks that split a sample (`S` = 49).
    const PIN_CASES: [PinCase; 25] = [
        (2, 3, 6, 5, 4, (3, 3), 1, 0),
        (4, 4, 16, 16, 4, (3, 3), 1, 1),
        (2, 8, 16, 16, 16, (3, 3), 1, 1),
        (3, 1, 12, 12, 16, (2, 2), 1, 0),
        (8, 4, 7, 7, 12, (3, 3), 1, 1),
        (2, 3, 9, 9, 8, (5, 5), 1, 2),
        (3, 2, 11, 10, 6, (5, 5), 2, 2),
        (4, 16, 8, 8, 32, (1, 1), 1, 0),
        (2, 8, 9, 9, 16, (1, 1), 2, 0),
        (5, 3, 9, 7, 4, (2, 2), 2, 0),
        (5, 3, 9, 7, 4, (3, 3), 2, 1),
        (2, 32, 6, 6, 10, (3, 3), 1, 1),
        (1, 8, 5, 4, 264, (1, 1), 1, 0),
        (32, 3, 8, 8, 8, (3, 3), 1, 1),
        (2, 64, 4, 4, 70, (3, 3), 1, 1),
        (2, 2, 5, 6, 9, (3, 3), 1, 2),
        (4, 3, 6, 6, 1, (3, 3), 1, 1),
        (3, 1, 5, 5, 1, (1, 1), 1, 0),
        (2, 2, 2, 2, 3, (3, 3), 1, 1),
        (6, 4, 7, 7, 8, (2, 2), 2, 2),
        (2, 1, 9, 8, 4, (5, 5), 1, 0),
        (8, 1, 10, 10, 6, (2, 2), 1, 1),
        (6, 4, 7, 7, 4, (3, 3), 1, 1),
        (3, 2, 9, 8, 8, (3, 5), 1, 1),
        (4, 3, 7, 10, 4, (1, 3), 2, 0),
    ];

    /// Signed zeros, subnormals (whose products underflow to ±0) and
    /// small integers whose sums cancel exactly.
    const SPECIALS: [f32; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.0,
        1.0e-40,
        -1.0e-40,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
    ];

    /// Draws a tensor of one of three value kinds: normal, specials, or
    /// the quarter grid `{-1, -0.75, …, 1}` (exact products, frequent
    /// exact cancellations).
    fn pin_values(shape: &[usize], kind: usize, rng: &mut XorShiftRng) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| match kind {
                0 => rng.uniform(-1.0, 1.0) * 3.0,
                1 => SPECIALS[rng.below(SPECIALS.len())],
                _ => (rng.below(9) as f32 - 4.0) * 0.25,
            })
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn conv_kernels_match_the_patch_matrix_oracle_bitwise() {
        use crate::dispatch::Problem;
        use crate::gemm::KC;
        // (forward, dW, dX) × (small, blocked) classes seen.
        let mut classes = [[false; 2]; 3];
        let mut kc_splits_a_sample = false;
        let (mut ks, mut strides, mut pads) = (Vec::new(), Vec::new(), Vec::new());
        for (ci, &(n, c, h, w, out_c, (k_h, k_w), stride, pad)) in PIN_CASES.iter().enumerate() {
            let geom = ConvGeometry::new(h, w, k_h, k_w, stride, pad).unwrap();
            let (s, depth) = (geom.out_h * geom.out_w, c * k_h * k_w);
            let fwd_small = Problem::new(false, true, n * s, depth, out_c).small();
            let dw_small = Problem::new(true, false, out_c, n * s, depth).small();
            let dx_small = Problem::new(false, false, n * s, out_c, depth).small();
            classes[0][usize::from(fwd_small)] = true;
            classes[1][usize::from(dw_small)] = true;
            classes[2][usize::from(dx_small)] = true;
            kc_splits_a_sample |= !dw_small && n * s > KC && !KC.is_multiple_of(s);
            ks.extend([k_h, k_w]);
            strides.push(stride);
            pads.push(pad);
            for kind in 0..3 {
                let mut rng = XorShiftRng::new(0xC0DE + (ci * 3 + kind) as u64);
                let x = pin_values(&[n, c, h, w], kind, &mut rng);
                let wt = pin_values(&[out_c, depth], kind, &mut rng);
                let what = format!("case {ci} {:?} kind {kind}", PIN_CASES[ci]);
                let y = conv2d_forward(&x, &wt, &geom).unwrap();
                assert_bits(
                    &y,
                    &oracle::forward(&x, &wt, &geom),
                    &format!("{what} forward"),
                );
                let g = pin_values(y.shape(), kind, &mut rng);
                let (gx, gw) = conv2d_backward(&g, &x, &wt, &geom).unwrap();
                let (gx0, gw0) = oracle::backward(&g, &x, &wt, &geom);
                assert_bits(&gx, &gx0, &format!("{what} dX"));
                assert_bits(&gw, &gw0, &format!("{what} dW"));
            }
        }
        assert_eq!(
            classes, [[true; 2]; 3],
            "every GEMM's two classes must be pinned"
        );
        assert!(kc_splits_a_sample, "a dW KC block must split a sample");
        for (seen, want) in [
            (ks, &[1, 2, 3, 5][..]),
            (strides, &[1, 2]),
            (pads, &[0, 1, 2]),
        ] {
            assert!(
                want.iter().all(|v| seen.contains(v)),
                "{want:?} not all pinned"
            );
        }
    }
}
