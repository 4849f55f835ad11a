//! Convolutional and pooling layers over `[batch, channels, height, width]`
//! tensors.
//!
//! [`Conv2d`] has one lowering, per image: the image's patches are laid out
//! as a `[c·k², oh·ow]` column matrix and `filterᵀ × columns` lands in that
//! image's slice of the NCHW output. The columns are filled in runs off a
//! zero-bordered copy of each plane, so no tap asks whether it is padding.
//! Inference refills one scratch (filterᵀ, columns, padded plane), lent by
//! the caller, for every image;
//! training keeps each image's columns, which is all `backward` needs
//! besides the incoming gradient, and walks the images once more in the
//! same order.
//!
//! Which failures are which: a wrong rank, a wrong channel count, a window
//! larger than the (padded) image and a zero kernel or stride are
//! *input-reachable* — they are [`ConvError`]s, returned by
//! [`Conv2d::try_new`], wrapped in the [`PlanError`] of every layer's
//! `plan_step`, and the `Display` text of the panic raised by `new`,
//! `forward`, `infer` and the pools. The remaining `expect`s and the parameter-shape assert in this
//! file are internal invariants: sizes this file or a plan computed
//! itself.

use std::fmt;

use sctelemetry::WorkDelta;
use simclock::SeededRng;

use crate::init;
use crate::layers::{batch_rows, elems, stream_bytes, Io, Layer, Param, PlanError, Step};
use crate::tensor::Tensor;

/// Why a convolution or pooling layer refuses its arguments or its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvError {
    /// The input is not `[n, c, h, w]`.
    NotNchw {
        /// The shape that was given.
        shape: Vec<usize>,
    },
    /// The input's channel count is not the layer's `in_channels`.
    ChannelMismatch {
        /// The layer's `in_channels`.
        expected: usize,
        /// The input's `shape[1]`.
        got: usize,
    },
    /// The window does not fit the padded image even once.
    KernelExceedsInput {
        /// Window side.
        kernel: usize,
        /// Zero padding on each border.
        pad: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
    },
    /// A window of side zero.
    ZeroKernel,
    /// A stride of zero.
    ZeroStride,
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::NotNchw { shape } => write!(f, "expected [n, c, h, w], got {shape:?}"),
            ConvError::ChannelMismatch { expected, got } => {
                write!(
                    f,
                    "channel mismatch: layer takes {expected}, input has {got}"
                )
            }
            ConvError::KernelExceedsInput {
                kernel,
                pad,
                height,
                width,
            } => write!(
                f,
                "a {kernel}x{kernel} window does not fit a {height}x{width} input padded by {pad}"
            ),
            ConvError::ZeroKernel => write!(f, "kernel size must be positive"),
            ConvError::ZeroStride => write!(f, "stride must be positive"),
        }
    }
}

impl std::error::Error for ConvError {}

/// Window positions along one axis; `None` when the window does not fit
/// or the padded extent overflows `usize`.
fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = pad.checked_mul(2)?.checked_add(input)?;
    Some(padded.checked_sub(kernel)? / stride + 1)
}

/// `[n, c, h, w]` of an input of shape `shape`.
fn nchw(shape: &[usize]) -> Result<[usize; 4], ConvError> {
    shape.try_into().map_err(|_| ConvError::NotNchw {
        shape: shape.to_vec(),
    })
}

/// A square window's walk over one `h`×`w` plane.
#[derive(Debug, Clone, Copy)]
struct Window {
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Window {
    /// Output pixels per plane.
    fn pixels(self) -> usize {
        self.oh * self.ow
    }

    /// Row width of the padded plane: the padded image and one spare
    /// column, which the last whole 16-element chunk of a stride-2 row
    /// reaches into.
    fn padded_w(self) -> usize {
        self.w + 2 * self.pad + 1
    }

    /// Elements of the zero-bordered copy of one plane that
    /// [`im2col_image`] and [`col2im_image`] walk.
    fn padded_len(self) -> usize {
        (self.h + 2 * self.pad) * self.padded_w()
    }
}

/// The walk of a square window over an `h`×`w` plane, if it fits.
fn window_fit(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<Window, ConvError> {
    let fit = out_dim(h, kernel, stride, pad).zip(out_dim(w, kernel, stride, pad));
    let (oh, ow) = fit.ok_or(ConvError::KernelExceedsInput {
        kernel,
        pad,
        height: h,
        width: w,
    })?;
    Ok(Window {
        h,
        w,
        kernel,
        stride,
        pad,
        oh,
        ow,
    })
}

/// `[n, c, h, w, oh, ow]` of an unpadded pool's input of shape `shape`.
fn pool_geometry(
    layer: &'static str,
    shape: &[usize],
    size: usize,
    stride: usize,
) -> Result<[usize; 6], PlanError> {
    nchw(shape)
        .and_then(|[n, c, h, w]| {
            let Window { oh, ow, .. } = window_fit(h, w, size, stride, 0)?;
            Ok([n, c, h, w, oh, ow])
        })
        .map_err(|error| PlanError::Conv { layer, error })
}

fn check_window(kernel: usize, stride: usize) -> Result<(), ConvError> {
    if kernel == 0 {
        return Err(ConvError::ZeroKernel);
    }
    if stride == 0 {
        return Err(ConvError::ZeroStride);
    }
    Ok(())
}

/// Output elements the unit-stride and stride-2 runs handle at a time: one
/// AVX2 register of `f32`.
const LANES: usize = 8;

/// `dst[i] = src[i · S]` for the whole `LANES` of `dst`, each from a whole
/// `LANES · S`-element chunk of `src`, so the compiler sees every length: a
/// plain copy for `S = 1`, a de-interleave for `S = 2`. Returns how many
/// elements of `dst` that was.
fn gather_lanes<const S: usize>(src: &[f32], dst: &mut [f32]) -> usize {
    for (d, s) in dst.chunks_exact_mut(LANES).zip(src.chunks_exact(LANES * S)) {
        // Read whole, then written: `src` and `dst` are two ends of one
        // scratch, and element-by-element the compiler has to assume a
        // write may land on a later read.
        let picked: [f32; LANES] = std::array::from_fn(|i| s[i * S]);
        d.copy_from_slice(&picked);
    }
    dst.len() / LANES * LANES
}

/// `dst[i] = src[i · stride]`: one tap's row of output pixels off a padded
/// row. `src` ends with the padded row, one element past the padded image
/// ([`Window::padded_w`]), which is as far as a last whole chunk reaches.
fn gather_run(src: &[f32], stride: usize, dst: &mut [f32]) {
    let done = match stride {
        1 => gather_lanes::<1>(src, dst),
        2 => gather_lanes::<2>(src, dst),
        _ => 0,
    };
    for (i, v) in dst.iter_mut().enumerate().skip(done) {
        *v = src[i * stride];
    }
}

/// `dst[i · S] += src[i]` in ascending `i`, for the whole `LANES` of `src`:
/// the adjoint of [`gather_lanes`].
fn scatter_lanes<const S: usize>(src: &[f32], dst: &mut [f32]) -> usize {
    for (s, d) in src.chunks_exact(LANES).zip(dst.chunks_exact_mut(LANES * S)) {
        for (i, v) in s.iter().enumerate() {
            d[i * S] += v;
        }
    }
    src.len() / LANES * LANES
}

/// `dst[i · stride] += src[i]` in ascending `i`: the adjoint of
/// [`gather_run`].
fn scatter_run(src: &[f32], stride: usize, dst: &mut [f32]) {
    let done = match stride {
        1 => scatter_lanes::<1>(src, dst),
        2 => scatter_lanes::<2>(src, dst),
        _ => 0,
    };
    for (i, s) in src.iter().enumerate().skip(done) {
        dst[i * stride] += s;
    }
}

/// Lowers one `[c, h, w]` image into `cols`, `[c·k², oh·ow]` row-major:
/// row `(ch·k + ky)·k + kx` holds, per output pixel, the input element that
/// window tap reads.
///
/// Each plane is first copied into the middle of `padded`
/// ([`Window::padded_len`] elements, its border zeroed by the caller and
/// never written here), so a tap's row of output pixels is one strided run
/// of a padded row, padding taps included: no tap asks where a row of the
/// image ends. A run that would read a border row is skipped: `cols` comes
/// zeroed, and the same rows are skipped for every image it is reused for.
fn im2col_image(image: &[f32], win: Window, cols: &mut [f32], padded: &mut [f32]) {
    let Window {
        h,
        w,
        kernel,
        stride,
        pad,
        ow,
        ..
    } = win;
    let pw = win.padded_w();
    let taps = cols.chunks_exact_mut(kernel * kernel * win.pixels());
    for (ch, taps) in taps.enumerate() {
        let plane = &image[ch * h * w..][..h * w];
        for iy in 0..h {
            padded[(iy + pad) * pw + pad..][..w].copy_from_slice(&plane[iy * w..][..w]);
        }
        for (tap, row) in taps.chunks_exact_mut(win.pixels()).enumerate() {
            let (ky, kx) = (tap / kernel, tap % kernel);
            for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
                let py = oy * stride + ky;
                if py.wrapping_sub(pad) >= h {
                    continue; // a border row: `cols` is zero there already
                }
                let src = &padded[py * pw..][kx..pw];
                gather_run(src, stride, dst);
            }
        }
    }
}

/// Adjoint of [`im2col_image`]: adds every element of `cols` onto the image
/// element its tap read; what padding taps carry collects in the border of
/// `padded` and is left there (runs onto a border row are not made at all).
///
/// A plane's rows are taken last to first, so it sees its taps in
/// descending `(ky, kx)` and each input pixel receives its contributions in
/// ascending `(oy, ox)` — the order of a walk over the output pixels, which
/// the training pins were taken with. The sums start from `+0.0` in
/// `padded` and replace what `image` held.
fn col2im_image(cols: &[f32], win: Window, image: &mut [f32], padded: &mut [f32]) {
    let Window {
        h,
        w,
        kernel,
        stride,
        pad,
        ow,
        ..
    } = win;
    let pw = win.padded_w();
    let taps = cols.chunks_exact(kernel * kernel * win.pixels());
    for (ch, taps) in taps.enumerate() {
        padded.fill(0.0);
        for (tap, row) in taps.chunks_exact(win.pixels()).enumerate().rev() {
            let (ky, kx) = (tap / kernel, tap % kernel);
            for (oy, src) in row.chunks_exact(ow).enumerate() {
                let py = oy * stride + ky;
                if py.wrapping_sub(pad) >= h {
                    continue; // a border row: nothing of it is copied out
                }
                let dst = &mut padded[py * pw..][kx..pw];
                scatter_run(src, stride, dst);
            }
        }
        let plane = &mut image[ch * h * w..][..h * w];
        for iy in 0..h {
            plane[iy * w..][..w].copy_from_slice(&padded[(iy + pad) * pw + pad..][..w]);
        }
    }
}

/// 2-D convolution.
///
/// Input `[n, in_channels, h, w]`, output `[n, out_channels, oh, ow]`.
///
/// # Examples
///
/// ```
/// use scneural::layers::{Conv2d, Layer};
/// use scneural::tensor::Tensor;
///
/// let conv = Conv2d::new(3, 8, 3, 1, 1, 42); // 3→8 channels, 3x3, same-size
/// let x = Tensor::zeros(vec![2, 3, 16, 16]);
/// let y = conv.infer(&x);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param, // [c*kh*kw, f]
    bias: Param,   // [1, f]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<ConvCache>,
}

/// What `forward` leaves for `backward`: every image's `[c·k², oh·ow]`
/// columns back to back, the batch size and the window walk.
type ConvCache = (Vec<f32>, usize, Window);

impl Conv2d {
    /// Creates a convolution with a square `kernel`, `stride`, and `pad`,
    /// He-initialized from `seed`.
    ///
    /// # Panics
    ///
    /// Panics with a [`ConvError`] if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        Self::try_new(in_channels, out_channels, kernel, stride, pad, seed)
            .unwrap_or_else(|e| panic!("Conv2d: {e}"))
    }

    /// [`Conv2d::new`] for arguments that come from outside the program.
    ///
    /// # Errors
    ///
    /// [`ConvError::ZeroKernel`] or [`ConvError::ZeroStride`].
    fn try_new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<Self, ConvError> {
        check_window(kernel, stride)?;
        let mut rng = SeededRng::new(seed);
        let fan_in = in_channels * kernel * kernel;
        Ok(Conv2d {
            weight: Param::new(init::he_uniform(
                vec![fan_in, out_channels],
                fan_in,
                &mut rng,
            )),
            bias: Param::new(Tensor::zeros(vec![1, out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cache: None,
        })
    }

    /// Batch size and window walk of an input of shape `shape`, if this
    /// layer accepts it.
    fn geometry(&self, shape: &[usize]) -> Result<(usize, Window), ConvError> {
        let [n, c, h, w] = nchw(shape)?;
        if c != self.in_channels {
            return Err(ConvError::ChannelMismatch {
                expected: self.in_channels,
                got: c,
            });
        }
        Ok((n, window_fit(h, w, self.kernel, self.stride, self.pad)?))
    }

    /// `[n, f, oh, ow]` of an input of shape `input` that
    /// [`Layer::plan_step`] accepted.
    pub(crate) fn out_shape(&self, input: &[usize]) -> [usize; 4] {
        let (n, win) = self.geometry(input).expect("planned by plan_step");
        [n, self.out_channels, win.oh, win.ow]
    }

    /// Rows of the column matrix: `c·k²`.
    fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Writes `filterᵀ`, `[f, c·k²]`, into `filter_t`. Transposed per
    /// call (1 296 elements at the widest Fig. 5 layer): a stored copy
    /// would go stale behind `params_mut`.
    fn transpose_filter(&self, filter_t: &mut [f32]) {
        let (f, fan_in) = (self.out_channels, self.fan_in());
        let weight = self.weight.value.data();
        assert!(
            weight.len() == fan_in * f && self.bias.value.len() == f,
            "Conv2d parameters were replaced by ones of another size"
        );
        for p in 0..fan_in {
            for ch in 0..f {
                filter_t[ch * fan_in + p] = weight[p * f + ch];
            }
        }
    }

    /// The lowering, per image with the filter on the left: image `b`'s
    /// patches go to `scratch[b · cols_per_image..]` and
    /// `filterᵀ [f, c·k²] × columns [c·k², oh·ow]` lands in that image's
    /// `[f, oh·ow]` slice of the NCHW `out`, so the scsimd panel tiles
    /// `oh·ow` columns rather than `f`. `scratch` is the columns with the
    /// padded plane ([`Window::padded_len`]) in its tail, zeroed by the
    /// caller, and so is `out`, which the panel adds onto; `cols_per_image`
    /// is 0 to refill one image's columns, or their length to keep every
    /// image's.
    ///
    /// Every output element is the ascending-`c·k²` sum of its products
    /// from `+0.0`, bias added last, on every ISA.
    fn lower(
        &self,
        input: &[f32],
        (n, win): (usize, Window),
        filter_t: &[f32],
        scratch: &mut [f32],
        cols_per_image: usize,
        out: &mut [f32],
    ) {
        let (f, fan_in, pixels) = (self.out_channels, self.fan_in(), win.pixels());
        let (cols, padded) = scratch.split_at_mut(scratch.len() - win.padded_len());
        let image_len = self.in_channels * win.h * win.w;
        let bias = self.bias.value.data();
        let isa = scsimd::Isa::active();
        for b in 0..n {
            let image = &input[b * image_len..][..image_len];
            let cols = &mut cols[b * cols_per_image..][..fan_in * pixels];
            let out_image = &mut out[b * f * pixels..][..f * pixels];
            im2col_image(image, win, cols, padded);
            scsimd::matmul_panel_f32(filter_t, cols, fan_in, pixels, out_image, isa);
            for (map, &shift) in out_image.chunks_exact_mut(pixels).zip(bias) {
                for v in map {
                    *v += shift;
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let geometry = self.geometry(input.shape());
        let (n, win) = geometry.unwrap_or_else(|e| panic!("Conv2d: {e}"));
        let (f, per_image) = (self.out_channels, self.fan_in() * win.pixels());
        let mut filter_t = vec![0.0f32; f * self.fan_in()];
        self.transpose_filter(&mut filter_t);
        let mut cols = vec![0.0f32; n * per_image + win.padded_len()];
        let mut out = vec![0.0f32; n * f * win.pixels()];
        self.lower(
            input.data(),
            (n, win),
            &filter_t,
            &mut cols,
            per_image,
            &mut out,
        );
        cols.truncate(n * per_image); // the padded plane has served
        self.cache = Some((cols, n, win));
        Tensor::from_vec(vec![n, f, win.oh, win.ow], out).expect("size computed above")
    }

    /// `[n, f, oh, ow]`, with a scratch of `filterᵀ`, one image's
    /// `[c·k², oh·ow]` columns and the zero-bordered plane they are filled
    /// from: nothing batch-sized besides the output.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let (n, win) = self.geometry(input).map_err(|error| PlanError::Conv {
            layer: "Conv2d",
            error,
        })?;
        out.extend_from_slice(&[n, self.out_channels, win.oh, win.ow]);
        let filter_t = self.out_channels * self.fan_in();
        let cols = self.fan_in() * win.pixels();
        Ok(Step::Apart {
            scratch: filter_t + cols + win.padded_len(),
        })
    }

    /// The lowering [`Layer::forward`] runs, refilling one image's columns:
    /// the bits are `forward`'s.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let geometry = self.geometry(input.shape()).expect("planned by plan_step");
        let win = geometry.1;
        let (filter_t, rest) = scratch.split_at_mut(self.out_channels * self.fan_in());
        let cols = &mut rest[..self.fan_in() * win.pixels() + win.padded_len()];
        self.transpose_filter(filter_t);
        cols.fill(0.0);
        out.fill(0.0);
        self.lower(input.data(), geometry, filter_t, cols, 0, out);
    }

    /// One more walk over the images. Per image: the bias gradient takes
    /// the output gradient's pixels, the filter gradient takes
    /// `columns [c·k², oh·ow] × gradientᵀ [oh·ow, f]`, and
    /// `filter [c·k², f] × gradient [f, oh·ow]` is scattered back onto the
    /// image. The panel adds to what its output already holds, so every
    /// gradient element is one ascending-(image, `oy`, `ox`) sum from
    /// `+0.0`, which joins `Param::grad` at the end.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Taken, not borrowed: the columns are the largest thing this
        // layer ever holds (1.7 MB for Fig. 5's conv3 at batch 64), and a
        // net that is done training would keep them for as long as it serves.
        let (cols, n, win) = self.cache.take().expect("backward before forward");
        let (c, f) = (self.in_channels, self.out_channels);
        let (fan_in, pixels, image_len) = (self.fan_in(), win.pixels(), c * win.h * win.w);
        let out_shape = [n, f, win.oh, win.ow];
        assert!(
            grad_out.shape() == out_shape,
            "Conv2d::backward: a {:?} gradient for the {out_shape:?} output of forward",
            grad_out.shape(),
        );
        let weight = self.weight.value.data();
        let isa = scsimd::Isa::active();
        let mut dw = vec![0.0f32; fan_in * f];
        let mut db = vec![0.0f32; f];
        let mut dx = vec![0.0f32; n * image_len];
        let mut grad_t = vec![0.0f32; pixels * f];
        let mut scratch = vec![0.0f32; fan_in * pixels + win.padded_len()];
        let (dcols, padded) = scratch.split_at_mut(fan_in * pixels);
        for b in 0..n {
            let grad = &grad_out.data()[b * f * pixels..][..f * pixels];
            for (ch, map) in grad.chunks_exact(pixels).enumerate() {
                for (pixel, &g) in map.iter().enumerate() {
                    db[ch] += g;
                    grad_t[pixel * f + ch] = g;
                }
            }
            let cols = &cols[b * fan_in * pixels..][..fan_in * pixels];
            scsimd::matmul_panel_f32(cols, &grad_t, pixels, f, &mut dw, isa);
            dcols.fill(0.0);
            scsimd::matmul_panel_f32(weight, grad, f, pixels, dcols, isa);
            col2im_image(dcols, win, &mut dx[b * image_len..][..image_len], padded);
        }
        let tensor = |shape, data| Tensor::from_vec(shape, data).expect("size computed above");
        self.weight.grad.add_assign(&tensor(vec![fan_in, f], dw));
        self.bias.grad.add_assign(&tensor(vec![1, f], db));
        tensor(vec![n, c, win.h, win.w], dx)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Each output element is a fan-in-sized multiply-add reduction
        // (fan-in = c·k²) plus a bias add. The lowering writes and re-reads
        // a fan-in-sized patch per output pixel.
        let rows = batch_rows(input);
        let fan_in = self.fan_in() as u64;
        let out_elems = elems(output);
        let col_elems = out_elems / (self.out_channels as u64).max(1) * fan_in;
        WorkDelta::flops(out_elems * (2 * fan_in + 1))
            .with_bytes(4 * (elems(input) + 2 * col_elems + out_elems))
            .with_items(rows)
    }
}

/// 2-D max pooling with a square window.
#[derive(Debug)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (input shape, argmax flat indices)
}

impl MaxPool2d {
    /// Creates a pool with the given window `size` and `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `stride` is zero.
    pub fn new(size: usize, stride: usize) -> Self {
        check_window(size, stride).unwrap_or_else(|e| panic!("MaxPool2d: {e}"));
        MaxPool2d {
            size,
            stride,
            cache: None,
        }
    }

    /// The pooling `forward` and `infer_into` share: every window's largest
    /// element into `out`, and, for `forward`, its flat input index into
    /// `arg`.
    fn pool(
        &self,
        geometry: [usize; 6],
        data: &[f32],
        out: &mut [f32],
        mut arg: Option<&mut [usize]>,
    ) {
        let [n, c, h, w, oh, ow] = geometry;
        out.fill(f32::NEG_INFINITY);
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let o_idx = ((b * c + ch) * oh + oy) * ow + ox;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                if iy < h && ix < w {
                                    let i_idx = ((b * c + ch) * h + iy) * w + ix;
                                    if data[i_idx] > out[o_idx] {
                                        out[o_idx] = data[i_idx];
                                        if let Some(arg) = arg.as_deref_mut() {
                                            arg[o_idx] = i_idx;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let geometry = pool_geometry("MaxPool2d", input.shape(), self.size, self.stride)
            .unwrap_or_else(|e| panic!("{e}"));
        let [n, c, _, _, oh, ow] = geometry;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut arg = vec![0usize; n * c * oh * ow];
        self.pool(geometry, input.data(), &mut out, Some(&mut arg));
        self.cache = Some((input.shape().to_vec(), arg));
        Tensor::from_vec(vec![n, c, oh, ow], out).expect("size computed above")
    }

    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let [n, c, _, _, oh, ow] = pool_geometry("MaxPool2d", input, self.size, self.stride)?;
        out.extend_from_slice(&[n, c, oh, ow]);
        Ok(Step::Apart { scratch: 0 })
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let geometry = pool_geometry("MaxPool2d", input.shape(), self.size, self.stride);
        self.pool(
            geometry.expect("planned by plan_step"),
            input.data(),
            out,
            None,
        );
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (shape, arg) = self.cache.take().expect("backward before forward");
        let mut grad_in = Tensor::zeros(shape.clone());
        let gi = grad_in.data_mut();
        for (o_idx, &i_idx) in arg.iter().enumerate() {
            gi[i_idx] += grad_out.data()[o_idx];
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // One comparison per window element per output pixel.
        let rows = batch_rows(input);
        WorkDelta::flops(elems(output) * (self.size * self.size) as u64)
            .with_bytes(stream_bytes(input, output))
            .with_items(rows)
    }
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.input_shape = Some(input.shape().to_vec());
        out
    }

    /// `[n, c]`; a 1×1 window has to fit: an empty plane has no mean.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let [n, c, ..] = pool_geometry("GlobalAvgPool", input, 1, 1)?;
        out.extend_from_slice(&[n, c]);
        Ok(Step::Apart { scratch: 0 })
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let plane = input.shape()[2] * input.shape()[3];
        for (map, mean) in input.data().chunks_exact(plane).zip(out) {
            *mean = map.iter().sum::<f32>() / plane as f32;
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward before forward");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let area = (h * w) as f32;
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.data_mut();
        for b in 0..n {
            for ch in 0..c {
                let g = grad_out.data()[b * c + ch] / area;
                let start = ((b * c + ch) * h) * w;
                for v in &mut gi[start..start + h * w] {
                    *v += g;
                }
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn infer_work(&self, input: &[usize], output: &[usize]) -> WorkDelta {
        // Every input element enters one running sum; one divide per output.
        let rows = batch_rows(input);
        WorkDelta::flops(elems(input) + elems(output))
            .with_bytes(stream_bytes(input, output))
            .with_items(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conv_output_shape() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, 1);
        let x = Tensor::full(vec![1, 1, 5, 5], 1.0);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 2, 3, 3]);
    }

    #[test]
    fn conv_same_padding_preserves_size() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, 2);
        let x = Tensor::full(vec![2, 3, 8, 8], 1.0);
        assert_eq!(conv.forward(&x).shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn conv_stride_two_halves() {
        let mut conv = Conv2d::new(1, 1, 3, 2, 1, 3);
        let x = Tensor::full(vec![1, 1, 8, 8], 1.0);
        assert_eq!(conv.forward(&x).shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn conv_known_values() {
        // 1x1 input channel, 2x2 kernel of ones, no padding: output = window sums.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 4);
        conv.params_mut()[0].value = Tensor::full(vec![4, 1], 1.0);
        conv.params_mut()[1].value = Tensor::zeros(vec![1, 1]);
        let x =
            Tensor::from_vec(vec![1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let y = conv.forward(&x);
        assert_eq!(y.data(), &[12., 16., 24., 28.]);
    }

    #[test]
    fn conv_gradient_check_input() {
        let x0 = Tensor::from_vec(
            vec![1, 1, 4, 4],
            (0..16).map(|i| (i as f32 - 8.0) / 8.0).collect(),
        )
        .unwrap();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 5);
        let y = conv.forward(&x0);
        let grad_in = conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));

        let eps = 1e-2;
        for idx in [0, 5, 10, 15] {
            let mut cp = Conv2d::new(1, 2, 3, 1, 1, 5);
            let mut xp = x0.clone();
            xp.data_mut()[idx] += eps;
            let fp = cp.forward(&xp).sum();
            let mut cm = Conv2d::new(1, 2, 3, 1, 1, 5);
            let mut xm = x0.clone();
            xm.data_mut()[idx] -= eps;
            let fm = cm.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "idx {idx}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn conv_gradient_check_weights() {
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            (0..16).map(|i| (i as f32) / 16.0).collect(),
        )
        .unwrap();
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 6);
        let y = conv.forward(&x);
        conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        let analytic = conv.params()[0].grad.clone();

        let eps = 1e-2;
        for idx in 0..9 {
            let mut cp = Conv2d::new(1, 1, 3, 1, 0, 6);
            cp.params_mut()[0].value.data_mut()[idx] += eps;
            let fp = cp.forward(&x).sum();
            let mut cm = Conv2d::new(1, 1, 3, 1, 0, 6);
            cm.params_mut()[0].value.data_mut()[idx] -= eps;
            let fm = cm.forward(&x).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-2,
                "w[{idx}]: numeric {num} analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn backward_gives_the_column_matrix_back() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 10);
        let y = conv.forward(&Tensor::full(vec![4, 2, 6, 6], 1.0));
        assert!(conv.cache.is_some());
        conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        assert!(conv.cache.is_none());
    }

    #[test]
    fn forward_and_infer_are_one_lowering() {
        // Not only for finite operands: the panel skips the zeros of the
        // filter in both, so a `0 · ∞` is skipped by both or a NaN in both.
        let bits = |t: Tensor| bits(t.data());
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 7);
        let x = Tensor::from_vec(vec![1, 1, 1, 2], vec![0.0, 1.0]).unwrap();
        conv.params_mut()[0].value = Tensor::full(vec![1, 1], f32::INFINITY);
        let y = conv.infer(&x);
        assert!(y.data()[0].is_nan() && y.data()[1] == f32::INFINITY);
        assert_eq!(bits(conv.forward(&x)), bits(y));

        conv.params_mut()[0].value = Tensor::zeros(vec![1, 1]);
        let x = Tensor::from_vec(vec![1, 1, 1, 2], vec![f32::INFINITY, 1.0]).unwrap();
        assert_eq!(conv.infer(&x).data(), &[0.0, 0.0]);
        assert_eq!(conv.forward(&x).data(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_refuses_a_gradient_of_another_shape() {
        let x = Tensor::full(vec![2, 1, 4, 4], 1.0);
        for shape in [vec![2, 2, 2, 2], vec![3, 2, 4, 4], vec![2, 2, 16], vec![64]] {
            let mut conv = Conv2d::new(1, 2, 3, 1, 1, 11);
            conv.forward(&x);
            let grad = Tensor::full(shape.clone(), 1.0);
            let backward = std::panic::AssertUnwindSafe(|| conv.backward(&grad));
            let panic = std::panic::catch_unwind(backward).unwrap_err();
            let text = panic.downcast_ref::<String>().expect("a formatted panic");
            let both = format!("a {shape:?} gradient for the [2, 2, 4, 4] output");
            assert!(text.contains(&both), "{text}");
        }
    }

    #[test]
    fn a_window_larger_than_the_input_is_refused_not_wrapped() {
        assert_eq!(out_dim(2, 3, 1, 0), None);
        assert_eq!(out_dim(2, 3, 1, 1), Some(2));
        assert_eq!(out_dim(usize::MAX, 1, 1, 1), None);
        let too_small = ConvError::KernelExceedsInput {
            kernel: 3,
            pad: 0,
            height: 2,
            width: 5,
        };
        let conv = Conv2d::new(1, 1, 3, 1, 0, 8);
        let x = Tensor::full(vec![1, 1, 2, 5], 1.0);
        let planned = conv.plan_step(x.shape(), &mut Vec::new()).unwrap_err();
        let error = too_small.clone();
        assert_eq!(
            planned,
            PlanError::Conv {
                layer: "Conv2d",
                error
            }
        );
        for layer in [
            Box::new(conv) as Box<dyn Layer>,
            Box::new(MaxPool2d::new(3, 1)),
        ] {
            let infer = std::panic::AssertUnwindSafe(|| layer.infer(&x));
            let panic = std::panic::catch_unwind(infer).unwrap_err();
            let text = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(text.ends_with(&too_small.to_string()), "{text}");
        }
    }

    #[test]
    fn zero_kernel_and_zero_stride_are_typed() {
        assert_eq!(
            Conv2d::try_new(1, 1, 0, 1, 0, 9).unwrap_err(),
            ConvError::ZeroKernel
        );
        assert_eq!(
            Conv2d::try_new(1, 1, 3, 0, 0, 9).unwrap_err(),
            ConvError::ZeroStride
        );
    }

    #[test]
    fn maxpool_picks_max_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 5., 3., //
                4., 0., 1., 2., //
                7., 1., 0., 0., //
                2., 8., 1., 6.,
            ],
        )
        .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4., 5., 8., 6.]);
        let g = pool.backward(&Tensor::full(vec![1, 1, 2, 2], 1.0));
        // Gradient goes only to the max positions.
        assert_eq!(g.data()[4], 1.0); // value 4
        assert_eq!(g.data()[2], 1.0); // value 5
        assert_eq!(g.data()[13], 1.0); // value 8
        assert_eq!(g.data()[15], 1.0); // value 6
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn global_avgpool_shape_and_grad() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::full(vec![2, 3, 4, 4], 1.0);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert!((y.at(0, 0) - 1.0).abs() < 1e-6);
        let g = pool.backward(&Tensor::full(vec![2, 3], 1.0));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
        assert!((g.data()[0] - 1.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn global_avgpool_refuses_what_has_no_mean() {
        let message = |shape: Vec<usize>| {
            let infer = || GlobalAvgPool::new().infer(&Tensor::zeros(shape));
            let panic = std::panic::catch_unwind(infer).unwrap_err();
            panic.downcast_ref::<String>().expect("formatted").clone()
        };
        assert_eq!(
            message(vec![2, 3, 0, 4]),
            "GlobalAvgPool: a 1x1 window does not fit a 0x4 input padded by 0"
        );
        assert_eq!(
            message(vec![2, 3, 4]),
            "GlobalAvgPool: expected [n, c, h, w], got [2, 3, 4]"
        );
    }

    #[test]
    fn im2col_image_col2im_image_adjoint() {
        // <im2col_image(x), y> == <x, col2im_image(y)> — the adjoint
        // property that makes conv backward correct. Small integers, so
        // both sides are exact.
        for (h, w, kernel, stride, pad) in [(3, 3, 2, 1, 0), (6, 5, 3, 2, 1), (17, 23, 5, 3, 2)] {
            let win = window_fit(h, w, kernel, stride, pad).unwrap();
            let (oh, ow) = (win.oh, win.ow);
            let c = 2;
            let x: Vec<f32> = (0..c * h * w).map(|i| (i % 11) as f32).collect();
            let mut cols = vec![0.0f32; c * kernel * kernel * oh * ow];
            let mut padded = vec![0.0f32; win.padded_len()];
            im2col_image(&x, win, &mut cols, &mut padded);
            let y: Vec<f32> = (0..cols.len()).map(|i| ((i * 7) % 5) as f32).collect();
            let mut back = vec![0.0f32; x.len()];
            col2im_image(&y, win, &mut back, &mut padded);
            let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f32>();
            assert_eq!(dot(&cols, &y), dot(&x, &back), "{win:?}");
        }
    }

    /// The lowering this file had until ISSUE 24, kept as the model: one
    /// bounds-checked pixel at a time, every tap asked whether it is padding.
    mod pixel_at_a_time {
        use super::super::Window;

        impl Window {
            /// `(channel, ky, kx)` of column-matrix row `r`.
            fn tap(self, r: usize) -> (usize, usize, usize) {
                let k = self.kernel;
                (r / (k * k), r / k % k, r % k)
            }

            /// The input row tap `ky` of output row `oy` reads, unless it
            /// is padding.
            fn iy(self, oy: usize, ky: usize) -> Option<usize> {
                (oy * self.stride + ky)
                    .checked_sub(self.pad)
                    .filter(|&iy| iy < self.h)
            }

            /// Output columns whose tap `kx` lands inside `0..w`.
            fn ox_range(self, kx: usize) -> std::ops::Range<usize> {
                let lo = self.pad.saturating_sub(kx).div_ceil(self.stride);
                let hi = (self.w + self.pad)
                    .saturating_sub(kx)
                    .div_ceil(self.stride)
                    .min(self.ow);
                lo..hi.max(lo)
            }
        }

        /// Padding taps are not written: `cols` comes zeroed.
        pub fn im2col_image(image: &[f32], win: Window, cols: &mut [f32]) {
            let Window {
                h, w, stride, pad, ..
            } = win;
            for (r, row) in cols.chunks_exact_mut(win.pixels()).enumerate() {
                let (ch, ky, kx) = win.tap(r);
                let plane = &image[ch * h * w..][..h * w];
                let xs = win.ox_range(kx);
                for (oy, dst) in row.chunks_exact_mut(win.ow).enumerate() {
                    let Some(iy) = win.iy(oy, ky) else {
                        continue;
                    };
                    let src = &plane[iy * w..(iy + 1) * w];
                    for ox in xs.clone() {
                        dst[ox] = src[ox * stride + kx - pad];
                    }
                }
            }
        }

        /// Adds onto `image`; padding taps are dropped.
        pub fn col2im_image(cols: &[f32], win: Window, image: &mut [f32]) {
            let Window {
                h, w, stride, pad, ..
            } = win;
            for (r, row) in cols.chunks_exact(win.pixels()).enumerate().rev() {
                let (ch, ky, kx) = win.tap(r);
                let plane = &mut image[ch * h * w..][..h * w];
                let xs = win.ox_range(kx);
                for (oy, src) in row.chunks_exact(win.ow).enumerate() {
                    let Some(iy) = win.iy(oy, ky) else {
                        continue;
                    };
                    let dst = &mut plane[iy * w..(iy + 1) * w];
                    for ox in xs.clone() {
                        dst[ox * stride + kx - pad] += src[ox];
                    }
                }
            }
        }
    }

    /// Never an exact zero, so a padding tap that read the image, or an
    /// image tap that read padding, shows.
    fn nonzero_values(len: usize, rng: &mut SeededRng) -> Vec<f32> {
        (0..len)
            .map(|_| rng.gaussian(0.0, 1.0) as f32 + 3.0)
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Runs off the padded plane against the pixel-at-a-time model, bit
        /// for bit in both directions: output rows a lane short of, at and
        /// past one and two chunks, planes of no area, windows the stride
        /// jumps over, pads as wide as the window (taps that see nothing
        /// but padding) — and one scratch under images of different
        /// content, as `lower` and `backward` use theirs.
        #[test]
        fn runs_off_the_padded_plane_are_the_pixel_gather(
            c in 1usize..=3,
            kernel in 1usize..=5,
            stride in 1usize..=4,
            pad_pick in any::<usize>(),
            ow in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(15), Just(16), Just(17)],
            oh in 1usize..=3,
            spare in 0usize..4,
            seed in any::<u64>(),
        ) {
            let pad = pad_pick % (kernel + 1);
            // The smallest plane with that many window positions (none at
            // all, if the padding alone holds them), and up to `stride − 1`
            // columns no window reaches.
            let h = ((oh - 1) * stride + kernel).saturating_sub(2 * pad);
            let w = ((ow - 1) * stride + kernel + spare % stride).saturating_sub(2 * pad);
            let win = window_fit(h, w, kernel, stride, pad).expect("sized to fit");
            let mut rng = SeededRng::new(seed);
            let cols_len = c * kernel * kernel * win.pixels();
            let mut cols = vec![0.0f32; cols_len];
            let mut padded = vec![0.0f32; win.padded_len()];
            let mut scatter_plane = vec![0.0f32; win.padded_len()];
            for _image in 0..2 {
                let x = nonzero_values(c * h * w, &mut rng);
                im2col_image(&x, win, &mut cols, &mut padded);
                let mut model = vec![0.0f32; cols_len];
                pixel_at_a_time::im2col_image(&x, win, &mut model);
                prop_assert_eq!(bits(&cols), bits(&model), "im2col {:?}", win);

                let y = nonzero_values(cols_len, &mut rng);
                let mut dx = nonzero_values(x.len(), &mut rng); // replaced, not added to
                col2im_image(&y, win, &mut dx, &mut scatter_plane);
                let mut model = vec![0.0f32; x.len()];
                pixel_at_a_time::col2im_image(&y, win, &mut model);
                prop_assert_eq!(bits(&dx), bits(&model), "col2im {:?}", win);
            }
        }
    }
}
