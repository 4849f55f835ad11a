#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in math kernels
#![warn(clippy::too_many_lines)] // a layer's pass is a few stages, not one body
//! # scneural — deep learning framework
//!
//! The TensorFlow substitute for the smart-city cyberinfrastructure (paper
//! §II-C1): a small but complete deep-learning framework with explicit
//! backpropagation, written from scratch on top of a row-major [`Tensor`](tensor::Tensor).
//!
//! It implements every methodology family of paper §III:
//!
//! - **Spatial analysis (§III-A)** — [`layers::Conv2d`], pooling, plus
//!   [`blocks::ResidualBlock`] (Fig. 8, including the paper's conv-shortcut
//!   variant) and [`blocks::InceptionBlock`] (GoogLeNet-style).
//! - **Temporal analysis (§III-B)** — [`rnn::Lstm`] with full backpropagation
//!   through time, and [`rnn::LastStep`] to classify a sequence by its last
//!   step.
//! - **Multi-modal analysis (§III-C)** — [`autoencoder::Autoencoder`],
//!   [`autoencoder::FusionAutoencoder`], and [`cca::Cca`] (canonical
//!   correlation analysis).
//! - **Early-exit inference (Figs. 5 & 7)** — [`early_exit::EarlyExitNet`]
//!   splits a backbone between a local device and an analysis server, exiting
//!   early when a confidence/entropy policy is satisfied.
//!
//! # Examples
//!
//! Train a tiny classifier:
//!
//! ```
//! use scneural::layers::{Dense, Relu};
//! use scneural::net::Sequential;
//! use scneural::optim::Adam;
//! use scneural::tensor::Tensor;
//!
//! let mut net = Sequential::new()
//!     .with(Dense::new(2, 8, 1))
//!     .with(Relu::new())
//!     .with(Dense::new(8, 2, 2));
//! let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
//! let y = vec![0usize, 1, 1, 0]; // XOR
//! let mut opt = Adam::new(0.05);
//! for _ in 0..400 {
//!     net.train_step(&x, &y, &mut opt);
//! }
//! let acc = net.accuracy(&x, &y);
//! assert!(acc >= 0.75, "XOR accuracy {acc}");
//! ```

pub mod autoencoder;
pub mod blocks;
pub mod cca;
pub mod early_exit;
pub mod exec;
pub mod init;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod metrics;
pub mod net;
pub mod optim;
pub mod rnn;
pub mod serialize;
pub mod tensor;
