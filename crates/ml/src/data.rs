//! Synthetic datasets and the data loader.
//!
//! The paper evaluates on CIFAR, ImageNet, GLUE, LibriSpeech and WMT16 —
//! none of which are available offline, and none of which matter for Flor's
//! mechanisms beyond their *scale*. We substitute deterministic synthetic
//! datasets that are genuinely learnable (Gaussian mixtures for
//! classification, token-distribution tasks for text) so that training
//! metrics move and replay fingerprints are informative.

use flor_tensor::{Pcg64, Tensor};

/// A labelled classification dataset: Gaussian clusters, one per class.
///
/// Learnable but not trivially separable (cluster spread is configurable),
/// so loss curves look like real training.
#[derive(Clone)]
pub struct SyntheticClassification {
    features: Tensor, // [n, dim]
    labels: Vec<usize>,
    dim: usize,
    classes: usize,
}

impl SyntheticClassification {
    /// Generates `n` examples of dimension `dim` across `classes` Gaussian
    /// clusters with the given intra-cluster standard deviation.
    pub fn generate(n: usize, dim: usize, classes: usize, spread: f32, seed: u64) -> Self {
        assert!(
            classes > 0 && dim > 0,
            "need at least one class and one dim"
        );
        let mut rng = Pcg64::new(seed, 101);
        // Class centers on a scaled hypercube-ish lattice.
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.uniform(-2.0, 2.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes; // balanced classes
            for &center in &centers[c] {
                data.push(center + spread * rng.normal());
            }
            labels.push(c);
        }
        SyntheticClassification {
            features: Tensor::new([n, dim], data),
            labels,
            dim,
            classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Copies the examples at `indices` into a `([batch, dim], labels)` pair.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.features.data()[i * self.dim..(i + 1) * self.dim]);
            labels.push(self.labels[i]);
        }
        (Tensor::new([indices.len(), self.dim], data), labels)
    }
}

/// A labelled token-sequence dataset (GLUE-style miniature): each example is
/// `seq` token ids whose distribution depends on the class.
#[derive(Clone)]
pub struct SyntheticTokens {
    tokens: Tensor, // [n, seq] of ids stored as f32
    labels: Vec<usize>,
    seq: usize,
    vocab: usize,
    classes: usize,
}

impl SyntheticTokens {
    /// Generates `n` sequences of length `seq` over `vocab` tokens across
    /// `classes` classes. Each class draws preferentially from its own slice
    /// of the vocabulary, so the task is learnable by an embedding model.
    pub fn generate(n: usize, seq: usize, vocab: usize, classes: usize, seed: u64) -> Self {
        assert!(vocab >= classes * 2, "vocab too small for class structure");
        let mut rng = Pcg64::new(seed, 202);
        let slice = vocab / classes;
        let mut tokens = Vec::with_capacity(n * seq);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            for _ in 0..seq {
                // 70% from the class's slice, 30% background noise.
                let id = if rng.next_f32() < 0.7 {
                    c * slice + rng.below(slice as u32) as usize
                } else {
                    rng.below(vocab as u32) as usize
                };
                tokens.push(id as f32);
            }
            labels.push(c);
        }
        SyntheticTokens {
            tokens: Tensor::new([n, seq], tokens),
            labels,
            seq,
            vocab,
            classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Sequence length.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Copies the examples at `indices` into a `([batch, seq], labels)` pair.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * self.seq);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.tokens.data()[i * self.seq..(i + 1) * self.seq]);
            labels.push(self.labels[i]);
        }
        (Tensor::new([indices.len(), self.seq], data), labels)
    }
}

/// Deterministic shuffling batcher.
///
/// The loader owns a [`Pcg64`]; its state is part of Flor checkpoints, so a
/// replay worker resuming at epoch `k` shuffles exactly as record did.
pub struct DataLoader {
    n: usize,
    batch_size: usize,
    rng: Pcg64,
}

impl DataLoader {
    /// New loader over `n` examples with the given batch size and seed.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn new(n: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        DataLoader {
            n,
            batch_size,
            rng: Pcg64::new(seed, 303),
        }
    }

    /// Number of batches per epoch (final partial batch included).
    pub fn batches_per_epoch(&self) -> usize {
        self.n.div_ceil(self.batch_size)
    }

    /// Produces the shuffled index batches for the next epoch, advancing the
    /// internal RNG.
    pub fn next_epoch(&mut self) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.n).collect();
        self.rng.shuffle(&mut order);
        order.chunks(self.batch_size).map(|c| c.to_vec()).collect()
    }

    /// RNG words for checkpointing.
    pub fn rng_state(&self) -> (u64, u64) {
        self.rng.state()
    }

    /// Restores RNG words from a checkpoint.
    pub fn restore_rng(&mut self, state: u64, inc: u64) {
        self.rng = Pcg64::restore(state, inc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_deterministic() {
        let a = SyntheticClassification::generate(50, 4, 3, 0.3, 9);
        let b = SyntheticClassification::generate(50, 4, 3, 0.3, 9);
        assert_eq!(a.features.data(), b.features.data());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn classification_balanced_classes() {
        let d = SyntheticClassification::generate(30, 4, 3, 0.3, 1);
        for c in 0..3 {
            assert_eq!(d.labels.iter().filter(|&&l| l == c).count(), 10);
        }
    }

    #[test]
    fn gather_shapes() {
        let d = SyntheticClassification::generate(10, 4, 2, 0.3, 1);
        let (x, y) = d.gather(&[0, 3, 7]);
        assert_eq!(x.shape().dims(), &[3, 4]);
        assert_eq!(y.len(), 3);
        assert_eq!(y, vec![d.labels[0], d.labels[3], d.labels[7]]);
    }

    #[test]
    fn tokens_within_vocab() {
        let d = SyntheticTokens::generate(40, 8, 20, 4, 2);
        assert!(d
            .tokens
            .data()
            .iter()
            .all(|&t| t >= 0.0 && (t as usize) < 20));
    }

    #[test]
    fn tokens_class_signal_exists() {
        // Class 0 should use tokens from its slice noticeably more often.
        let d = SyntheticTokens::generate(200, 16, 40, 4, 3);
        let slice = 10;
        let mut in_slice = 0;
        let mut total = 0;
        for (i, &label) in d.labels.iter().enumerate() {
            if label == 0 {
                for s in 0..16 {
                    let t = d.tokens.data()[i * 16 + s] as usize;
                    if t < slice {
                        in_slice += 1;
                    }
                    total += 1;
                }
            }
        }
        let frac = in_slice as f32 / total as f32;
        assert!(frac > 0.5, "class-0 tokens in own slice: {frac}");
    }

    #[test]
    fn loader_covers_all_indices() {
        let mut dl = DataLoader::new(25, 4, 5);
        let batches = dl.next_epoch();
        assert_eq!(batches.len(), 7);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn loader_epochs_differ_but_are_replayable() {
        let mut dl = DataLoader::new(16, 4, 5);
        let e1 = dl.next_epoch();
        let saved = dl.rng_state();
        let e2 = dl.next_epoch();
        assert_ne!(e1, e2, "epochs should shuffle differently");
        // Restore → same epoch again.
        dl.restore_rng(saved.0, saved.1);
        assert_eq!(dl.next_epoch(), e2);
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn loader_rejects_zero_batch() {
        DataLoader::new(10, 0, 1);
    }
}
