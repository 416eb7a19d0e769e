//! Parameters, the layer container, and `state_dict`-style checkpointing.

use crate::layer::Layer;
use flor_tensor::Tensor;

/// A trainable (or frozen) parameter: a value tensor, its gradient
/// accumulator, and a name used in state dicts.
///
/// `frozen` parameters participate in the forward pass but receive no
/// gradient and are skipped by optimizers. Fine-tuning workloads (paper
/// Table 3: RTE, CoLA) freeze "the vast majority of weights" (§5.3.4) —
/// which is precisely what makes their checkpoints enormous relative to
/// their per-epoch compute, triggering Flor's periodic (sparse) adaptive
/// checkpointing.
#[derive(Debug, Clone)]
pub struct Param {
    /// Name of this parameter within its layer (e.g. `"weight"`, `"bias"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
    /// Frozen parameters are excluded from optimization.
    pub(crate) frozen: bool,
}

impl Param {
    /// Creates a trainable parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
            frozen: false,
        }
    }

    /// Creates a frozen parameter (kept in checkpoints, never optimized).
    pub(crate) fn frozen(name: impl Into<String>, value: Tensor) -> Self {
        let mut p = Self::new(name, value);
        p.frozen = true;
        p
    }

    /// Zeroes the gradient accumulator (the `optimizer.zero_grad()` step).
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }
}

/// A named, ordered collection of tensors — the checkpointable snapshot of a
/// model, optimizer, or scheduler.
///
/// The ordering is deterministic (layer order, then parameter order), so
/// a `StateDict` round-trips byte-identically, which Flor's deferred
/// correctness checks rely on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDict {
    entries: Vec<(String, Tensor)>,
}

impl StateDict {
    /// Creates an empty state dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Names must be unique.
    ///
    /// # Panics
    /// Panics on a duplicate name.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _)| *n == name),
            "duplicate state dict entry {name:?}"
        );
        self.entries.push((name, value));
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of f32 elements across all entries (the checkpoint
    /// "weight" of this object).
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }
}

impl FromIterator<(String, Tensor)> for StateDict {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        let mut sd = StateDict::new();
        for (n, t) in iter {
            sd.insert(n, t);
        }
        sd
    }
}

/// An ordered stack of layers — the model type of flor-ml.
///
/// `Sequential` is deliberately the *only* container: the paper's workloads
/// all reduce to "forward through the net, compute loss, backward, step",
/// and a layer stack (with `crate::layer::Residual` for skip connections)
/// expresses every miniature workload in Table 3's live counterparts.
///
/// A clone shares every parameter's value and gradient slab until one
/// side writes it (tensors are copy-on-write).
#[derive(Clone)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Forward pass through every layer, caching activations for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the model input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Visits every parameter mutably (optimizers use this).
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    /// Visits every parameter immutably.
    pub fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Total parameter count (including frozen).
    pub fn numel(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }

    /// Total *trainable* parameter count.
    pub(crate) fn numel_trainable(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if !p.frozen {
                n += p.value.numel()
            }
        });
        n
    }

    /// L2 norm over all parameter values — the "magnitude of the weights"
    /// Alice probes in the paper's §2.1 debugging scenario.
    pub fn weight_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        self.visit_params(&mut |p| {
            let n = p.value.norm() as f64;
            acc += n * n;
        });
        acc.sqrt() as f32
    }

    /// L2 norm over all parameter gradients — the "magnitude of the
    /// gradients" from the same scenario (exploding/vanishing diagnosis).
    pub fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        self.visit_params(&mut |p| {
            if !p.frozen {
                let n = p.grad.norm() as f64;
                acc += n * n;
            }
        });
        acc.sqrt() as f32
    }

    /// Snapshot of all parameter values, keyed `"<param_idx>.<param_name>"`
    /// where `param_idx` counts parameters in visit order (layer indices
    /// would collide inside composite layers like `Residual`, which carry
    /// several same-named parameters).
    pub fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        let mut idx = 0usize;
        self.visit_params(&mut |p| {
            sd.insert(format!("{idx}.{}", p.name), p.value.clone());
            idx += 1;
        });
        sd
    }

    /// Restores parameter values from a snapshot produced by
    /// [`Sequential::state_dict`] on an identically shaped model.
    ///
    /// # Panics
    /// Panics if an expected entry is missing or has the wrong shape —
    /// loading a checkpoint into the wrong architecture is a programming
    /// error that must not be silently absorbed.
    pub fn load_state_dict(&mut self, sd: &StateDict) {
        let mut idx = 0usize;
        self.visit_params_mut(&mut |p| {
            let key = format!("{idx}.{}", p.name);
            idx += 1;
            let t = sd
                .get(&key)
                .unwrap_or_else(|| panic!("state dict missing entry {key:?}"));
            assert_eq!(
                t.shape(),
                p.value.shape(),
                "state dict entry {key:?} has shape {} but parameter has {}",
                t.shape(),
                p.value.shape()
            );
            p.value = t.clone();
        });
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({:?}, {} layers, {} params, {} trainable)",
            self.name,
            self.layers.len(),
            self.numel(),
            self.numel_trainable()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Linear};
    use flor_tensor::Pcg64;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = Pcg64::seeded(seed);
        Sequential::new("tiny")
            .push(Linear::new(4, 8, &mut rng))
            .push(Activation::relu())
            .push(Linear::new(8, 3, &mut rng))
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new("w", Tensor::ones([2, 2]));
        p.grad = Tensor::full([2, 2], 5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn state_dict_roundtrip() {
        let m = tiny_model(1);
        let sd = m.state_dict();
        assert_eq!(sd.len(), 4); // 2 Linear layers × (weight, bias)
        let mut m2 = tiny_model(2);
        assert_ne!(m2.state_dict(), sd, "different seeds → different weights");
        m2.load_state_dict(&sd);
        assert_eq!(m2.state_dict(), sd);
    }

    #[test]
    #[should_panic(expected = "missing entry")]
    fn load_state_dict_missing_entry_panics() {
        let mut m = tiny_model(1);
        m.load_state_dict(&StateDict::new());
    }

    #[test]
    #[should_panic(expected = "duplicate state dict entry")]
    fn duplicate_state_dict_entry_panics() {
        let mut sd = StateDict::new();
        sd.insert("a", Tensor::scalar(1.0));
        sd.insert("a", Tensor::scalar(2.0));
    }

    #[test]
    fn numel_counts() {
        let m = tiny_model(1);
        // (4*8 + 8) + (8*3 + 3) = 40 + 27
        assert_eq!(m.numel(), 67);
        assert_eq!(m.numel_trainable(), 67);
    }

    #[test]
    fn forward_shape() {
        let mut m = tiny_model(1);
        let x = Tensor::zeros([5, 4]);
        let y = m.forward(&x);
        assert_eq!(y.shape().dims(), &[5, 3]);
    }

    #[test]
    fn deterministic_forward_given_seed() {
        let mut a = tiny_model(42);
        let mut b = tiny_model(42);
        let x = Tensor::ones([2, 4]);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn grad_norm_zero_before_backward() {
        let m = tiny_model(1);
        assert_eq!(m.grad_norm(), 0.0);
        assert!(m.weight_norm() > 0.0);
    }
}
