//! Model builders: miniature live counterparts of the paper's Table 3
//! workloads.
//!
//! | Paper workload | Architecture here | Regime reproduced |
//! |---|---|---|
//! | Cifr / ImgN (SqueezeNet) | [`mlp`] | small model, long training |
//! | RsNt (ResNet-152)        | [`resnet_mini`] | deep residual net, big checkpoints |
//! | Wiki (RoBERTa train)     | [`textnet`] | embedding-heavy language model |
//! | RTE / CoLA (RoBERTa fine-tune) | [`finetune_net`] | enormous frozen mass, tiny trainable head |
//! | Jasp (Jasper speech)     | [`convnet1d_flat`] | 1-D conv stack |
//! | RnnT (RNN w/ attention)  | [`textnet`] with deeper head | sequence classification |

use crate::layer::{
    Activation, Conv1d, Embedding, Flatten, FrozenBackbone, LayerNorm, Linear, Residual, ToChannels,
};
use crate::module::Sequential;
use flor_tensor::Pcg64;

/// Plain multi-layer perceptron: `depth` hidden ReLU layers.
pub fn mlp(
    input: usize,
    hidden: usize,
    classes: usize,
    depth: usize,
    rng: &mut Pcg64,
) -> Sequential {
    assert!(depth >= 1, "mlp needs at least one hidden layer");
    let mut m = Sequential::new("mlp")
        .push(Linear::new(input, hidden, rng))
        .push(Activation::relu());
    for _ in 1..depth {
        m = m
            .push(Linear::new(hidden, hidden, rng))
            .push(Activation::relu());
    }
    m.push(Linear::new(hidden, classes, rng))
}

/// Residual MLP: `blocks` residual blocks of (Linear → ReLU → Linear) around
/// a skip connection, ResNet-style.
pub fn resnet_mini(
    input: usize,
    hidden: usize,
    classes: usize,
    blocks: usize,
    rng: &mut Pcg64,
) -> Sequential {
    let mut m = Sequential::new("resnet_mini")
        .push(Linear::new(input, hidden, rng))
        .push(Activation::relu());
    for _ in 0..blocks {
        // Zero-init residual: each block starts as the identity, so deep
        // stacks neither blow up activations at init nor need warmup.
        m = m.push(
            Residual::new()
                .push(Linear::new(hidden, hidden, rng))
                .push(Activation::relu())
                .push(Linear::new_zero(hidden, hidden)),
        );
    }
    m.push(Activation::relu())
        .push(Linear::new(hidden, classes, rng))
}

/// 1-D convolutional classifier over *flat feature batches* (the speech
/// workload's script-level form): features are split into `channels` bands,
/// convolved twice, flattened, and classified.
///
/// Input is `[batch, features]` with `features % channels == 0`.
pub fn convnet1d_flat(
    features: usize,
    channels: usize,
    conv_channels: usize,
    kernel: usize,
    classes: usize,
    rng: &mut Pcg64,
) -> Sequential {
    assert_eq!(features % channels, 0, "features must split into channels");
    let len = features / channels;
    let l1 = len - kernel + 1;
    let l2 = l1 - kernel + 1;
    assert!(l2 > 0, "feature bands too short for two conv layers");
    Sequential::new("convnet1d_flat")
        .push(ToChannels::new(channels))
        .push(Conv1d::new(channels, conv_channels, kernel, rng))
        .push(Activation::relu())
        .push(Conv1d::new(conv_channels, conv_channels, kernel, rng))
        .push(Activation::relu())
        .push(Flatten::new())
        .push(Linear::new(conv_channels * l2, classes, rng))
}

/// Text classifier (RoBERTa-miniature): embedding (mean-pooled) → layer norm
/// → MLP head. Input is `[batch, seq]` token ids.
pub fn textnet(vocab: usize, dim: usize, classes: usize, rng: &mut Pcg64) -> Sequential {
    Sequential::new("textnet")
        .push(Embedding::new(vocab, dim, rng))
        .push(LayerNorm::new(dim))
        .push(Linear::new(dim, dim, rng))
        .push(Activation::gelu())
        .push(Linear::new(dim, classes, rng))
}

/// Fine-tuning model (RTE/CoLA-miniature): a fully frozen backbone with
/// `ballast_numel` extra frozen weights, plus a small trainable head.
///
/// The frozen mass dominates checkpoint size while contributing nothing to
/// the gradient step — the exact regime where the paper's adaptive
/// checkpointing switches from every-iteration to periodic checkpoints.
pub fn finetune_net(
    input: usize,
    hidden: usize,
    classes: usize,
    ballast_numel: usize,
    rng: &mut Pcg64,
) -> Sequential {
    Sequential::new("finetune_net")
        .push(FrozenBackbone::new(input, hidden, ballast_numel, rng))
        .push(Activation::relu())
        .push(Linear::new(hidden, classes, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticClassification;
    use crate::loss::CrossEntropyLoss;
    use crate::metrics::accuracy;
    use crate::optim::{Optimizer, Sgd};
    use flor_tensor::Tensor;

    /// Trains a model on an easy dataset and asserts that it actually learns.
    fn assert_learns(model: &mut Sequential, lr: f32) {
        let data = SyntheticClassification::generate(120, 8, 3, 0.25, 42);
        let mut opt = Sgd::new(lr, 0.9, 0.0);
        let mut loss_fn = CrossEntropyLoss::new();
        let all: Vec<usize> = (0..data.len()).collect();
        let (x, y) = data.gather(&all);
        let logits0 = model.forward(&x);
        let acc0 = accuracy(&logits0, &y);
        for _ in 0..60 {
            let logits = model.forward(&x);
            let _ = loss_fn.forward(&logits, &y);
            model.zero_grad();
            model.backward(&loss_fn.backward());
            opt.step(model);
        }
        let logits1 = model.forward(&x);
        let acc1 = accuracy(&logits1, &y);
        assert!(
            acc1 > 0.9 && acc1 > acc0,
            "model should learn: acc {acc0} -> {acc1}"
        );
    }

    #[test]
    fn mlp_learns() {
        let mut rng = Pcg64::seeded(1);
        let mut m = mlp(8, 16, 3, 2, &mut rng);
        assert_learns(&mut m, 0.1);
    }

    #[test]
    fn resnet_mini_learns() {
        let mut rng = Pcg64::seeded(2);
        let mut m = resnet_mini(8, 16, 3, 2, &mut rng);
        assert_learns(&mut m, 0.05);
    }

    #[test]
    fn finetune_net_learns_with_frozen_backbone() {
        let mut rng = Pcg64::seeded(3);
        let mut m = finetune_net(8, 32, 3, 5_000, &mut rng);
        let frozen_before = {
            let mut sum = 0.0;
            m.visit_params(&mut |p| {
                if p.frozen {
                    sum += p.value.sum();
                }
            });
            sum
        };
        assert_learns(&mut m, 0.1);
        let frozen_after = {
            let mut sum = 0.0;
            m.visit_params(&mut |p| {
                if p.frozen {
                    sum += p.value.sum();
                }
            });
            sum
        };
        assert_eq!(frozen_before, frozen_after, "frozen mass must not move");
        assert!(
            m.numel_trainable() * 10 < m.numel(),
            "head is a small fraction"
        );
    }

    #[test]
    fn convnet1d_flat_learns() {
        let mut rng = Pcg64::seeded(6);
        let mut m = convnet1d_flat(8, 2, 6, 2, 3, &mut rng);
        assert_learns(&mut m, 0.05);
    }

    #[test]
    fn textnet_forward_shape() {
        let mut rng = Pcg64::seeded(4);
        let mut m = textnet(50, 16, 4, &mut rng);
        let ids = Tensor::new([3, 6], vec![1.0; 18]);
        assert_eq!(m.forward(&ids).shape().dims(), &[3, 4]);
    }

    #[test]
    fn convnet1d_forward_shape() {
        let mut rng = Pcg64::seeded(5);
        // Two bands of 12 features: the same conv stack as a [2, 2, 12] input.
        let mut m = convnet1d_flat(24, 2, 4, 3, 5, &mut rng);
        let x = Tensor::zeros([2, 24]);
        assert_eq!(m.forward(&x).shape().dims(), &[2, 5]);
    }
}
