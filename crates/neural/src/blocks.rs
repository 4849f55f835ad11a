//! CNN building blocks: residual blocks (Fig. 8) and inception blocks
//! (§III-A).
//!
//! The paper's spatial-analysis module "includes inception types of CNN as
//! used in the GoogleNet and the ResNet type of CNN", and Fig. 8 describes
//! its ResNet block: *"we use a convolutional layer for shortcut path instead
//! of max pooling layer mostly used in Resnet block architecture."* All three
//! shortcut variants are implemented here so the E7 ablation can compare
//! them.

use crate::layers::{elems, Conv2d, Io, Layer, MaxPool2d, Param, PlanError, Relu, Step, View};
use crate::tensor::Tensor;

/// Concatenates 4-D tensors along the channel axis.
fn concat_channels(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let s0 = parts[0].shape();
    let (n, h, w) = (s0[0], s0[2], s0[3]);
    let total_c: usize = parts.iter().map(|p| p.shape()[1]).sum();
    let mut out = vec![0.0f32; n * total_c * h * w];
    let plane = h * w;
    for b in 0..n {
        let mut c_off = 0;
        for p in parts {
            let pc = p.shape()[1];
            assert_eq!(&p.shape()[2..], &[h, w], "spatial dims must match");
            assert_eq!(p.shape()[0], n, "batch must match");
            for ch in 0..pc {
                let src = ((b * pc + ch) * plane)..((b * pc + ch + 1) * plane);
                let dst_start = (b * total_c + c_off + ch) * plane;
                out[dst_start..dst_start + plane].copy_from_slice(&p.data()[src]);
            }
            c_off += pc;
        }
    }
    Tensor::from_vec(vec![n, total_c, h, w], out).expect("size computed above")
}

/// Splits a 4-D tensor along channels into chunks of the given sizes.
fn split_channels(t: &Tensor, sizes: &[usize]) -> Vec<Tensor> {
    let s = t.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert_eq!(
        sizes.iter().sum::<usize>(),
        c,
        "split sizes must cover all channels"
    );
    let plane = h * w;
    let mut out = Vec::with_capacity(sizes.len());
    let mut c_off = 0;
    for &pc in sizes {
        let mut data = vec![0.0f32; n * pc * plane];
        for b in 0..n {
            for ch in 0..pc {
                let src_start = (b * c + c_off + ch) * plane;
                let dst_start = (b * pc + ch) * plane;
                data[dst_start..dst_start + plane]
                    .copy_from_slice(&t.data()[src_start..src_start + plane]);
            }
        }
        out.push(Tensor::from_vec(vec![n, pc, h, w], data).expect("size computed above"));
        c_off += pc;
    }
    out
}

/// Shortcut-path variants for [`ResidualBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shortcut {
    /// 1×1 convolution on the shortcut — the paper's variant (Fig. 8).
    Conv,
    /// Plain identity; requires matching channels and stride 1.
    Identity,
    /// Max-pool on the shortcut ("mostly used in Resnet block architecture"
    /// per the paper), with zero channel padding if channels grow.
    MaxPool,
}

/// A two-convolution residual block: `relu(conv(relu(conv(x))) + shortcut(x))`.
///
/// # Examples
///
/// ```
/// use scneural::blocks::{ResidualBlock, Shortcut};
/// use scneural::layers::Layer;
/// use scneural::tensor::Tensor;
///
/// let block = ResidualBlock::new(3, 8, 2, Shortcut::Conv, 42);
/// let x = Tensor::zeros(vec![1, 3, 16, 16]);
/// let y = block.infer(&x);
/// assert_eq!(y.shape(), &[1, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct ResidualBlock {
    conv1: Conv2d,
    relu1: Relu,
    conv2: Conv2d,
    shortcut: Shortcut,
    shortcut_conv: Option<Conv2d>,
    shortcut_pool: Option<MaxPool2d>,
    in_channels: usize,
    out_channels: usize,
    out_mask: Option<Vec<bool>>, // final ReLU mask
}

impl ResidualBlock {
    /// Creates a block mapping `in_channels` to `out_channels` with the given
    /// spatial `stride` on the first convolution.
    ///
    /// # Panics
    ///
    /// Panics if `Shortcut::Identity` is requested with mismatched channels
    /// or `stride != 1`, or if sizes are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        shortcut: Shortcut,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && stride > 0,
            "sizes must be positive"
        );
        if shortcut == Shortcut::Identity {
            assert!(
                in_channels == out_channels && stride == 1,
                "identity shortcut requires equal channels and stride 1"
            );
        }
        if shortcut == Shortcut::MaxPool {
            assert!(
                out_channels >= in_channels,
                "maxpool shortcut zero-pads channels; cannot shrink them"
            );
        }
        let shortcut_conv = (shortcut == Shortcut::Conv).then(|| {
            Conv2d::new(
                in_channels,
                out_channels,
                1,
                stride,
                0,
                seed.wrapping_add(91),
            )
        });
        let shortcut_pool =
            (shortcut == Shortcut::MaxPool && stride > 1).then(|| MaxPool2d::new(stride, stride));
        ResidualBlock {
            conv1: Conv2d::new(in_channels, out_channels, 3, stride, 1, seed),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_channels, out_channels, 3, 1, 1, seed.wrapping_add(1)),
            shortcut,
            shortcut_conv,
            shortcut_pool,
            in_channels,
            out_channels,
            out_mask: None,
        }
    }

    fn shortcut_forward(&mut self, input: &Tensor) -> Tensor {
        match self.shortcut {
            Shortcut::Identity => input.clone(),
            Shortcut::Conv => self
                .shortcut_conv
                .as_mut()
                .expect("set in constructor")
                .forward(input),
            Shortcut::MaxPool => {
                let pooled = match self.shortcut_pool.as_mut() {
                    Some(pool) => pool.forward(input),
                    None => input.clone(),
                };
                // Zero-pad channels to out_channels.
                if self.out_channels == self.in_channels {
                    pooled
                } else {
                    let s = pooled.shape();
                    let zeros =
                        Tensor::zeros(vec![s[0], self.out_channels - self.in_channels, s[2], s[3]]);
                    concat_channels(&[pooled, zeros])
                }
            }
        }
    }

    /// Pushes the shortcut path's output shape for `input`, whose rank and
    /// channels the main path's plan has already checked, onto `out`, and
    /// returns the scratch the path needs.
    fn plan_shortcut(&self, input: &[usize], out: &mut Vec<usize>) -> Result<usize, PlanError> {
        let start = out.len();
        let step = match (&self.shortcut_conv, &self.shortcut_pool) {
            (Some(conv), _) => conv.plan_step(input, out)?,
            (None, Some(pool)) => pool.plan_step(input, out)?,
            (None, None) => {
                out.extend_from_slice(input);
                Step::Relabel
            }
        };
        if self.shortcut == Shortcut::MaxPool {
            out[start + 1] = self.out_channels; // zero-padded channels
        }
        Ok(step.scratch())
    }

    /// The shortcut path's output for `input` in `short` (the block's
    /// output size), with `scratch` for its convolution; the identity
    /// shortcut is `input` itself.
    fn shortcut_into<'a>(
        &self,
        input: View<'a>,
        short: &'a mut [f32],
        scratch: &mut [f32],
    ) -> &'a [f32] {
        match (&self.shortcut_conv, &self.shortcut_pool) {
            (Some(conv), _) => {
                conv.infer_into(
                    Io::Apart {
                        input,
                        out: &mut *short,
                    },
                    scratch,
                );
                short
            }
            _ if self.shortcut == Shortcut::Identity => input.data(),
            (None, pool) => {
                // Pooled (or not) into the front of `short`, then each
                // image's channels moved to their place, last image first,
                // and the channels beyond the input's zeroed.
                let n = input.shape()[0];
                let padded = short.len() / n.max(1);
                let pooled = padded / self.out_channels * self.in_channels;
                match pool {
                    Some(pool) => {
                        let out = &mut short[..n * pooled];
                        pool.infer_into(Io::Apart { input, out }, &mut []);
                    }
                    None => short[..n * pooled].copy_from_slice(input.data()),
                }
                for b in (0..n).rev() {
                    short.copy_within(b * pooled..(b + 1) * pooled, b * padded);
                    short[b * padded + pooled..(b + 1) * padded].fill(0.0);
                }
                short
            }
        }
    }

    fn shortcut_backward(&mut self, grad: &Tensor) -> Tensor {
        match self.shortcut {
            Shortcut::Identity => grad.clone(),
            Shortcut::Conv => self
                .shortcut_conv
                .as_mut()
                .expect("set in constructor")
                .backward(grad),
            Shortcut::MaxPool => {
                let g = if self.out_channels == self.in_channels {
                    grad.clone()
                } else {
                    split_channels(
                        grad,
                        &[self.in_channels, self.out_channels - self.in_channels],
                    )
                    .swap_remove(0)
                };
                match self.shortcut_pool.as_mut() {
                    Some(pool) => pool.backward(&g),
                    None => g,
                }
            }
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let main = self.conv1.forward(input);
        let main = self.relu1.forward(&main);
        let main = self.conv2.forward(&main);
        let short = self.shortcut_forward(input);
        assert_eq!(
            main.shape(),
            short.shape(),
            "main and shortcut paths must produce identical shapes"
        );
        let sum = main.add(&short).expect("shapes checked");
        self.out_mask = Some(sum.data().iter().map(|&v| v > 0.0).collect());
        sum.map(|v| v.max(0.0))
    }

    /// The main path's shape: what the convolutions accept, once the
    /// shortcut path accepts the input too and gives the same shape (a
    /// strided max-pool shortcut on an odd-sized image does not).
    /// Scratch: the first convolution's output, the shortcut's output
    /// (none for the identity) and what the largest convolution needs.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let start = out.len();
        let conv1 = self.conv1.plan_step(input, out)?;
        let mid: [usize; 4] = out[start..].try_into().expect("a convolution plans NCHW");
        out.truncate(start);
        let conv2 = self.conv2.plan_step(&mid, out)?;
        let main: [usize; 4] = out[start..].try_into().expect("a convolution plans NCHW");
        out.truncate(start);
        let short_scratch = self.plan_shortcut(input, out)?;
        if out[start..] != main {
            return Err(PlanError::Paths {
                layer: "ResidualBlock",
                main: main.to_vec(),
                shortcut: out.split_off(start),
            });
        }
        let short = match self.shortcut {
            Shortcut::Identity => 0,
            Shortcut::Conv | Shortcut::MaxPool => elems(&main) as usize,
        };
        let convs = conv1.scratch().max(conv2.scratch()).max(short_scratch);
        Ok(Step::Apart {
            scratch: elems(&mid) as usize + short + convs,
        })
    }

    /// The two convolutions and the shortcut through `scratch`, the second
    /// convolution straight into `out`: the operations `infer` ran on
    /// owned tensors, so the same bits.
    fn infer_into(&self, io: Io<'_>, scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let mid_shape = self.conv1.out_shape(input.shape());
        let (mid, rest) = scratch.split_at_mut(elems(&mid_shape) as usize);
        let short_len = match self.shortcut {
            Shortcut::Identity => 0,
            Shortcut::Conv | Shortcut::MaxPool => out.len(),
        };
        let (short, convs) = rest.split_at_mut(short_len);
        self.conv1.infer_into(
            Io::Apart {
                input,
                out: &mut *mid,
            },
            convs,
        );
        let io = Io::InPlace {
            shape: &mid_shape,
            data: &mut *mid,
        };
        self.relu1.infer_into(io, &mut []);
        let io = Io::Apart {
            input: View::new(&mid_shape, mid),
            out: &mut *out,
        };
        self.conv2.infer_into(io, convs);
        let short = self.shortcut_into(input, short, convs);
        for (y, s) in out.iter_mut().zip(short) {
            *y = (*y + s).max(0.0);
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.out_mask.take().expect("backward before forward");
        let gated: Vec<f32> = grad_out
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, m)| if m { g } else { 0.0 })
            .collect();
        let gated = Tensor::from_vec(grad_out.shape().to_vec(), gated).expect("same length");
        let g_main = self.conv2.backward(&gated);
        let g_main = self.relu1.backward(&g_main);
        let g_main = self.conv1.backward(&g_main);
        let g_short = self.shortcut_backward(&gated);
        g_main.add(&g_short).expect("both are input-shaped")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.conv2.params_mut());
        if let Some(sc) = self.shortcut_conv.as_mut() {
            p.extend(sc.params_mut());
        }
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        if let Some(sc) = self.shortcut_conv.as_ref() {
            p.extend(sc.params());
        }
        p
    }

    fn name(&self) -> &'static str {
        "ResidualBlock"
    }
}

/// A GoogLeNet-style inception block with four parallel branches whose
/// outputs concatenate along channels: 1×1, 1×1→3×3, 1×1→5×5, and
/// 3×3-maxpool→1×1.
///
/// # Examples
///
/// ```
/// use scneural::blocks::InceptionBlock;
/// use scneural::layers::Layer;
/// use scneural::tensor::Tensor;
///
/// let block = InceptionBlock::new(4, [2, 3, 2, 1], 42);
/// let x = Tensor::zeros(vec![1, 4, 8, 8]);
/// let y = block.infer(&x);
/// assert_eq!(y.shape(), &[1, 8, 8, 8]); // 2+3+2+1 channels
/// ```
#[derive(Debug)]
pub struct InceptionBlock {
    b1: Conv2d,        // 1x1
    b2a: Conv2d,       // 1x1 reduce
    b2b: Conv2d,       // 3x3
    b3a: Conv2d,       // 1x1 reduce
    b3b: Conv2d,       // 5x5
    b4pool: MaxPool2d, // 3x3 stride 1 (same padding emulated below)
    b4conv: Conv2d,    // 1x1 after pool
    relus: Vec<Relu>,
    branch_channels: [usize; 4],
}

impl InceptionBlock {
    /// Creates a block with the given per-branch output channels
    /// `[c1, c3, c5, cpool]`.
    pub fn new(in_channels: usize, branch_channels: [usize; 4], seed: u64) -> Self {
        let [c1, c3, c5, cp] = branch_channels;
        let reduce = (in_channels / 2).max(1);
        InceptionBlock {
            b1: Conv2d::new(in_channels, c1, 1, 1, 0, seed),
            b2a: Conv2d::new(in_channels, reduce, 1, 1, 0, seed.wrapping_add(1)),
            b2b: Conv2d::new(reduce, c3, 3, 1, 1, seed.wrapping_add(2)),
            b3a: Conv2d::new(in_channels, reduce, 1, 1, 0, seed.wrapping_add(3)),
            b3b: Conv2d::new(reduce, c5, 5, 1, 2, seed.wrapping_add(4)),
            b4pool: MaxPool2d::new(1, 1), // stride-1 "pool" keeps dims; 1x1 conv mixes
            b4conv: Conv2d::new(in_channels, cp, 1, 1, 0, seed.wrapping_add(5)),
            relus: (0..4).map(|_| Relu::new()).collect(),
            branch_channels,
        }
    }
}

impl Layer for InceptionBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let y1 = self.relus[0].forward(&self.b1.forward(input));
        let y2 = {
            let r = self.b2a.forward(input);
            self.relus[1].forward(&self.b2b.forward(&r))
        };
        let y3 = {
            let r = self.b3a.forward(input);
            self.relus[2].forward(&self.b3b.forward(&r))
        };
        let y4 = {
            let p = self.b4pool.forward(input);
            self.relus[3].forward(&self.b4conv.forward(&p))
        };
        concat_channels(&[y1, y2, y3, y4])
    }

    /// The four branches' shapes, concatenated along the channels.
    fn plan_step(&self, input: &[usize], out: &mut Vec<usize>) -> Result<Step, PlanError> {
        let (mut mid, mut branch) = (Vec::new(), Vec::new());
        let mut channels = 0;
        for (first, second) in [
            (&self.b1 as &dyn Layer, None),
            (&self.b2a, Some(&self.b2b)),
            (&self.b3a, Some(&self.b3b)),
            (&self.b4pool, Some(&self.b4conv)),
        ] {
            mid.clear();
            branch.clear();
            first.plan_step(input, &mut mid)?;
            match second {
                Some(conv) => drop(conv.plan_step(&mid, &mut branch)?),
                None => std::mem::swap(&mut mid, &mut branch),
            }
            channels += branch[1];
        }
        out.extend_from_slice(&branch);
        out[1] = channels;
        Ok(Step::Apart { scratch: 0 })
    }

    fn infer_into(&self, io: Io<'_>, _scratch: &mut [f32]) {
        let (input, out) = io.apart();
        let input = input.to_tensor();
        let y1 = self.relus[0].infer(&self.b1.infer(&input));
        let y2 = {
            let r = self.b2a.infer(&input);
            self.relus[1].infer(&self.b2b.infer(&r))
        };
        let y3 = {
            let r = self.b3a.infer(&input);
            self.relus[2].infer(&self.b3b.infer(&r))
        };
        let y4 = {
            let p = self.b4pool.infer(&input);
            self.relus[3].infer(&self.b4conv.infer(&p))
        };
        out.copy_from_slice(concat_channels(&[y1, y2, y3, y4]).data());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let parts = split_channels(grad_out, &self.branch_channels);
        let g1 = self.b1.backward(&self.relus[0].backward(&parts[0]));
        let g2 = {
            let g = self.b2b.backward(&self.relus[1].backward(&parts[1]));
            self.b2a.backward(&g)
        };
        let g3 = {
            let g = self.b3b.backward(&self.relus[2].backward(&parts[2]));
            self.b3a.backward(&g)
        };
        let g4 = {
            let g = self.b4conv.backward(&self.relus[3].backward(&parts[3]));
            self.b4pool.backward(&g)
        };
        g1.add(&g2)
            .and_then(|s| s.add(&g3))
            .and_then(|s| s.add(&g4))
            .expect("all branches are input-shaped")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.b1.params_mut();
        p.extend(self.b2a.params_mut());
        p.extend(self.b2b.params_mut());
        p.extend(self.b3a.params_mut());
        p.extend(self.b3b.params_mut());
        p.extend(self.b4conv.params_mut());
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.b1.params();
        p.extend(self.b2a.params());
        p.extend(self.b2b.params());
        p.extend(self.b3a.params());
        p.extend(self.b3b.params());
        p.extend(self.b4conv.params());
        p
    }

    fn name(&self) -> &'static str {
        "InceptionBlock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use crate::net::Sequential;
    use crate::optim::Adam;
    use simclock::SeededRng;

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(vec![1, 2, 2, 2], (5..13).map(|i| i as f32).collect()).unwrap();
        let cat = concat_channels(&[a.clone(), b.clone()]);
        assert_eq!(cat.shape(), &[1, 3, 2, 2]);
        let parts = split_channels(&cat, &[1, 2]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn conv_shortcut_shapes() {
        let mut block = ResidualBlock::new(2, 6, 2, Shortcut::Conv, 1);
        let x = Tensor::zeros(vec![2, 2, 8, 8]);
        assert_eq!(block.forward(&x).shape(), &[2, 6, 4, 4]);
    }

    #[test]
    fn identity_shortcut_shapes() {
        let mut block = ResidualBlock::new(4, 4, 1, Shortcut::Identity, 2);
        let x = Tensor::zeros(vec![1, 4, 6, 6]);
        assert_eq!(block.forward(&x).shape(), &[1, 4, 6, 6]);
    }

    #[test]
    fn maxpool_shortcut_pads_channels() {
        let mut block = ResidualBlock::new(2, 5, 2, Shortcut::MaxPool, 3);
        let x = Tensor::zeros(vec![1, 2, 8, 8]);
        assert_eq!(block.forward(&x).shape(), &[1, 5, 4, 4]);
    }

    #[test]
    fn maxpool_shortcut_on_an_odd_image_is_a_plan_error() {
        let block = ResidualBlock::new(2, 4, 2, Shortcut::MaxPool, 1);
        let mut out = Vec::new();
        assert_eq!(
            block.plan_step(&[1, 2, 5, 5], &mut out),
            Err(PlanError::Paths {
                layer: "ResidualBlock",
                main: vec![1, 4, 3, 3],
                shortcut: vec![1, 4, 2, 2],
            })
        );
        out.clear();
        // Scratch: the first convolution's output (36), the shortcut's (36)
        // and the larger convolution scratch, the second's: its transposed
        // filter, columns and padded plane (144 + 324 + 30).
        assert_eq!(
            block.plan_step(&[1, 2, 6, 6], &mut out),
            Ok(Step::Apart { scratch: 570 })
        );
        assert_eq!(out, [1, 4, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "identity shortcut")]
    fn identity_rejects_channel_change() {
        let _ = ResidualBlock::new(2, 4, 1, Shortcut::Identity, 4);
    }

    #[test]
    fn residual_gradient_check() {
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            (0..16).map(|i| ((i % 7) as f32 - 3.0) / 4.0).collect(),
        )
        .unwrap();
        let mut block = ResidualBlock::new(1, 2, 1, Shortcut::Conv, 5);
        let y = block.forward(&x);
        let grad_in = block.backward(&Tensor::ones(y.shape().to_vec()));

        let eps = 1e-2;
        for idx in [0, 7, 13] {
            let mut bp = ResidualBlock::new(1, 2, 1, Shortcut::Conv, 5);
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let fp = bp.forward(&xp).sum();
            let mut bm = ResidualBlock::new(1, 2, 1, Shortcut::Conv, 5);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fm = bm.forward(&xm).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_in.data()[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "idx {idx}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn inception_output_channels() {
        let mut block = InceptionBlock::new(3, [4, 6, 2, 4], 6);
        let x = Tensor::zeros(vec![2, 3, 8, 8]);
        assert_eq!(block.forward(&x).shape(), &[2, 16, 8, 8]);
    }

    #[test]
    fn inception_backward_shape() {
        let mut block = InceptionBlock::new(2, [1, 2, 1, 1], 7);
        let x = Tensor::ones(vec![1, 2, 6, 6]);
        let y = block.forward(&x);
        let g = block.backward(&Tensor::ones(y.shape().to_vec()));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn residual_stack_trains_on_tiny_images() {
        // 2-class problem: bright blob top-left vs bottom-right on 8x8 images.
        let mut rng = SeededRng::new(8);
        let n = 24;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let mut img = vec![0.0f32; 64];
            for _ in 0..8 {
                let (y0, x0) = if cls == 0 { (0, 0) } else { (4, 4) };
                let y = y0 + rng.index(4);
                let x = x0 + rng.index(4);
                img[y * 8 + x] = 1.0;
            }
            data.extend(img);
            labels.push(cls);
        }
        let x = Tensor::from_vec(vec![n, 1, 8, 8], data).unwrap();
        let mut net = Sequential::new()
            .with(ResidualBlock::new(1, 4, 2, Shortcut::Conv, 9))
            .with(Flatten::new())
            .with(Dense::new(4 * 16, 2, 10));
        let mut opt = Adam::new(0.01);
        for _ in 0..60 {
            net.train_step(&x, &labels, &mut opt);
        }
        let acc = net.accuracy(&x, &labels);
        assert!(acc >= 0.9, "residual stack accuracy {acc}");
    }
}
