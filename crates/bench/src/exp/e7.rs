//! E7 (Fig. 8): ResNet-block shortcut ablation — the paper's conv shortcut
//! vs the identity and the "mostly used" max-pool shortcut. Regenerates the
//! convergence/accuracy comparison.

use crate::{f3, header, table, BenchJson};
use scneural::blocks::{InceptionBlock, ResidualBlock, Shortcut};
use scneural::layers::{Dense, Flatten};
use scneural::net::Sequential;
use scneural::optim::Adam;
use scneural::tensor::Tensor;
use simclock::SeededRng;

/// Bright-blob classification task exercising spatial structure.
fn blob_dataset(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let cls = i % 4;
        let mut img = vec![0.05f32; 8 * 8];
        let (y0, x0) = [(0, 0), (0, 4), (4, 0), (4, 4)][cls];
        for _ in 0..8 {
            let y = y0 + rng.index(4);
            let x = x0 + rng.index(4);
            img[y * 8 + x] = 0.9;
        }
        data.extend(img);
        labels.push(cls);
    }
    (Tensor::from_vec(vec![n, 1, 8, 8], data).unwrap(), labels)
}

fn net_with(shortcut: Shortcut, seed: u64) -> Sequential {
    // MaxPool shortcut needs out >= in channels; stride 2 for all variants
    // except identity (which requires stride 1 / equal channels).
    let block: ResidualBlock = match shortcut {
        Shortcut::Identity => ResidualBlock::new(1, 1, 1, Shortcut::Identity, seed),
        s => ResidualBlock::new(1, 4, 2, s, seed),
    };
    let flat_dim = match shortcut {
        Shortcut::Identity => 64,
        _ => 4 * 16,
    };
    Sequential::new()
        .with(block)
        .with(Flatten::new())
        .with(Dense::new(flat_dim, 4, seed.wrapping_add(9)))
}

/// §III-A's other variant: an inception block as the feature extractor.
fn inception_net(seed: u64) -> Sequential {
    Sequential::new()
        .with(InceptionBlock::new(1, [1, 1, 1, 1], seed))
        .with(Flatten::new())
        .with(Dense::new(4 * 64, 4, seed.wrapping_add(9)))
}

pub fn run(quick: bool) -> BenchJson {
    header(
        "E7",
        "Fig. 8 / §III-A",
        "CNN-block ablation: ResNet shortcuts (conv = paper, identity, max-pool) + inception variant",
    );
    let (x, y) = blob_dataset(if quick { 32 } else { 48 }, 15);
    let epochs = if quick { 25 } else { 60 };
    let mut json = BenchJson::new("e7", quick);
    let mut rows = Vec::new();
    for (name, net_builder) in [
        ("resnet conv (paper)", net_with(Shortcut::Conv, 16)),
        ("resnet identity", net_with(Shortcut::Identity, 16)),
        ("resnet max-pool", net_with(Shortcut::MaxPool, 16)),
        ("inception", inception_net(16)),
    ] {
        let mut net = net_builder;
        let mut opt = Adam::new(0.01);
        let losses = net.fit(&x, &y, &mut opt, epochs);
        let acc = net.accuracy(&x, &y);
        let slug = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>();
        json.det_u(&format!("params_{slug}"), net.param_count() as u64)
            .det_f(&format!("accuracy_{slug}"), acc);
        // Epochs to reach loss < 0.5 (convergence speed proxy).
        let converge = losses
            .iter()
            .position(|&l| l < 0.5)
            .map_or("-".into(), |e| e.to_string());
        rows.push(vec![
            name.to_string(),
            net.param_count().to_string(),
            f3(losses[0] as f64),
            f3(*losses.last().unwrap() as f64),
            converge,
            f3(acc),
        ]);
    }
    table(
        &[
            "shortcut",
            "params",
            "loss_e0",
            "loss_final",
            "epochs_to_0.5",
            "accuracy",
        ],
        &rows,
    );
    json
}
