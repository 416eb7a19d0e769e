//! Parameters, the layer container, and `state_dict`-style checkpointing.

use crate::layer::Layer;
use flor_tensor::{Shape, Tensor, TensorBytes};

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

    /// A view of this dict for `load_state_dict`: loading shares each
    /// entry's slab.
    pub fn view(&self) -> StateView<'_> {
        StateView {
            entries: self
                .entries
                .iter()
                .map(|(n, t)| (n.as_str(), StateEntry::Tensor(t)))
                .collect(),
        }
    }
}

/// One entry of a [`StateView`].
#[derive(Debug, Clone, Copy)]
pub enum StateEntry<'a> {
    /// A live tensor: loading shares its slab (copy-on-write), as a clone
    /// does.
    Tensor(&'a Tensor),
    /// A tensor's [`Tensor::to_bytes`] encoding, as a checkpoint holds it:
    /// loading converts it into the destination tensor's own slab when
    /// that slab is unshared and of the right length ([`Tensor::load`]).
    Encoded(&'a [u8]),
}

/// What `load_state_dict` reads: named entries, in order — a
/// [`StateDict`]'s tensors ([`StateDict::view`]) or a checkpoint's
/// encoded entries, read where they lie.
#[derive(Debug, Default)]
pub struct StateView<'a> {
    entries: Vec<(&'a str, StateEntry<'a>)>,
}

/// How a `load_state_dict` placed its tensors: `reused` were converted into
/// the slab the destination already owned, `allocated` got a fresh one
/// (the destination's slab was shared, of another length, or missing),
/// and entries loaded by sharing a live tensor count in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabLoads {
    /// Entries converted into the destination's existing slab.
    pub reused: u64,
    /// Entries converted into a freshly allocated slab.
    pub allocated: u64,
}

impl<'a> StateView<'a> {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry (the caller keeps names unique).
    pub fn push(&mut self, name: &'a str, entry: StateEntry<'a>) {
        self.entries.push((name, entry));
    }

    fn get(&self, name: &str) -> Option<StateEntry<'a>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, e)| e)
    }

    /// Loads entry `name` into `dst`, which must then have shape `want`
    /// when one is given; `Ok(false)` if there is no such entry.
    pub(crate) fn load(
        &self,
        name: &str,
        dst: &mut Tensor,
        want: Option<&Shape>,
        loads: &mut SlabLoads,
    ) -> Result<bool, String> {
        let check = |shape: &Shape| match want {
            Some(w) if w != shape => Err(format!(
                "state dict entry {name:?} has shape {shape} but the live tensor has {w}"
            )),
            _ => Ok(()),
        };
        match self.get(name) {
            None => Ok(false),
            Some(StateEntry::Tensor(t)) => {
                check(t.shape())?;
                *dst = t.clone();
                Ok(true)
            }
            Some(StateEntry::Encoded(bytes)) => {
                let enc = TensorBytes::parse(bytes)
                    .ok_or_else(|| format!("corrupt tensor for {name:?}"))?;
                check(enc.shape())?;
                if dst.load(&enc) {
                    loads.reused += 1;
                } else {
                    loads.allocated += 1;
                }
                Ok(true)
            }
        }
    }

    /// Loads a required entry of hyperparameters: exactly `N` values.
    pub(crate) fn hyper<const N: usize>(&self, owner: &str) -> Result<[f32; N], String> {
        let mut t = Tensor::zeros([0]);
        if !self.load("hyper", &mut t, None, &mut SlabLoads::default())? {
            return Err(format!("{owner} state dict missing 'hyper'"));
        }
        t.data()
            .try_into()
            .map_err(|_| format!("{owner} hyper tensor must have {N} entries"))
    }

    /// Loads the run of entries `<prefix>0`, `<prefix>1`, … into `bufs`,
    /// reusing the tensors already there, and drops any beyond the run.
    pub(crate) fn load_run(
        &self,
        prefix: &str,
        bufs: &mut Vec<Tensor>,
        loads: &mut SlabLoads,
    ) -> Result<(), String> {
        let mut i = 0;
        loop {
            if i == bufs.len() {
                bufs.push(Tensor::zeros([0]));
            }
            if !self.load(&format!("{prefix}{i}"), &mut bufs[i], None, loads)? {
                bufs.truncate(i);
                return Ok(());
            }
            i += 1;
        }
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
    /// [`Sequential::state_dict`] on an identically shaped model, each
    /// [`StateEntry::Encoded`] entry converted into the parameter's own
    /// slab when that slab is unshared.
    ///
    /// Loading a checkpoint into the wrong architecture is an error, not
    /// silently absorbed: a missing entry, or one whose shape differs from
    /// its parameter's, fails naming the entry — and leaves that parameter
    /// as it was (earlier ones are already loaded).
    pub fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<SlabLoads, String> {
        let mut loads = SlabLoads::default();
        let mut idx = 0usize;
        let mut result = Ok(());
        self.visit_params_mut(&mut |p| {
            if result.is_err() {
                return;
            }
            let key = format!("{idx}.{}", p.name);
            idx += 1;
            let want = p.value.shape().clone();
            result = match sd.load(&key, &mut p.value, Some(&want), &mut loads) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("state dict missing entry {key:?}")),
                Err(e) => Err(e),
            };
        });
        result.map(|()| loads)
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
        m2.load_state_dict(&sd.view()).unwrap();
        assert_eq!(m2.state_dict(), sd);
    }

    #[test]
    fn load_state_dict_missing_entry_is_an_error() {
        let mut m = tiny_model(1);
        let err = m.load_state_dict(&StateDict::new().view()).unwrap_err();
        assert!(err.contains("missing entry \"0.weight\""), "{err}");
    }

    /// Encoded entries of `sd`, as a restore reads them.
    fn encoded(sd: &StateDict) -> Vec<(String, Vec<u8>)> {
        sd.iter()
            .map(|(n, t)| (n.to_string(), t.to_bytes()))
            .collect()
    }

    fn view_of(entries: &[(String, Vec<u8>)]) -> StateView<'_> {
        let mut view = StateView::new();
        for (n, b) in entries {
            view.push(n, StateEntry::Encoded(b));
        }
        view
    }

    fn slabs(m: &Sequential) -> Vec<*const f32> {
        let mut ptrs = Vec::new();
        m.visit_params(&mut |p| ptrs.push(p.value.data().as_ptr()));
        ptrs
    }

    #[test]
    fn restores_into_an_unshared_model_keep_its_parameter_slabs() {
        let mut m = tiny_model(1);
        let before = slabs(&m);
        for seed in [2, 3] {
            let sd = tiny_model(seed).state_dict();
            let loads = m.load_state_dict(&view_of(&encoded(&sd))).unwrap();
            assert_eq!(
                loads,
                SlabLoads {
                    reused: 4,
                    allocated: 0
                }
            );
            assert_eq!(m.state_dict(), sd);
            assert_eq!(slabs(&m), before, "restore {seed} kept every slab");
        }
    }

    #[test]
    fn a_shape_mismatch_is_an_error_naming_the_entry() {
        let mut m = tiny_model(1);
        let mut rng = Pcg64::seeded(1);
        let wider = Sequential::new("wider")
            .push(Linear::new(4, 9, &mut rng))
            .push(Activation::relu())
            .push(Linear::new(9, 3, &mut rng));
        let before = m.state_dict();
        let err = m
            .load_state_dict(&view_of(&encoded(&wider.state_dict())))
            .unwrap_err();
        assert!(err.contains("\"0.weight\" has shape (4, 9)"), "{err}");
        assert_eq!(m.state_dict(), before, "nothing was loaded");
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
