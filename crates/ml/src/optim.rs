//! Optimizers: the objects that *mutate the model* through a shared
//! reference.
//!
//! In the paper's side-effect analysis this is the crucial encoded library
//! fact (a): "the model may be updated via the optimizer" (§5.2.1). Flor's
//! rules detect that `optimizer` is in a loop's changeset (rule 4:
//! `optimizer.step()` ⇒ `{optimizer}`), and the runtime augmentation step
//! infers that the model the optimizer points at is modified too.
//!
//! Optimizer state (velocity / moment buffers, step counters, and
//! hyperparameters including the scheduler-controlled learning rate) is fully
//! checkpointable via [`Optimizer::state_dict`].

use crate::module::{Param, Sequential, SlabLoads, StateDict, StateView};
use flor_tensor::Tensor;

/// A gradient-based optimizer over a [`Sequential`] model's parameters.
pub trait Optimizer {
    /// Applies one update step from the accumulated gradients, then leaves
    /// gradients untouched (call [`Sequential::zero_grad`] separately, as
    /// training scripts do).
    fn step(&mut self, model: &mut Sequential);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Sets the learning rate (this is the hook schedulers use — encoded
    /// library fact (b): "the optimizer may be updated via the learning rate
    /// schedule").
    fn set_lr(&mut self, lr: f32);

    /// Current weight-decay coefficient.
    fn weight_decay(&self) -> f32;

    /// Sets the weight-decay coefficient (Alice's final fix in §2.1 is
    /// `weight_decay = 0`).
    fn set_weight_decay(&mut self, wd: f32);

    /// Snapshot of all optimizer state: hyperparameters and moment buffers.
    fn state_dict(&self) -> StateDict;

    /// Restores state captured by [`Optimizer::state_dict`], converting
    /// encoded moment buffers into the buffers already held where it can.
    /// A structurally incompatible snapshot is an error.
    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<SlabLoads, String>;

    /// Cheap estimate of the state-dict element count, *without* building
    /// it (used by Flor's adaptive checkpointing to predict materialization
    /// cost before deciding whether to checkpoint).
    fn state_numel(&self) -> usize;
}

/// Collects per-parameter shapes of the trainable parameters, in visit order.
fn trainable_shapes(model: &Sequential) -> Vec<flor_tensor::Shape> {
    let mut shapes = Vec::new();
    model.visit_params(&mut |p| {
        if !p.frozen {
            shapes.push(p.value.shape().clone());
        }
    });
    shapes
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

/// Stochastic gradient descent with momentum and (decoupled) weight decay.
///
/// Update rule per trainable parameter `w` with gradient `g`:
/// ```text
/// g' = g + weight_decay * w
/// v  = momentum * v + g'
/// w  = w - lr * v
/// ```
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>, // lazily sized on first step
    steps: u64,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
            steps: 0,
        }
    }

    /// Number of `step` calls so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn ensure_buffers(&mut self, model: &Sequential) {
        if self.velocity.is_empty() {
            self.velocity = trainable_shapes(model)
                .into_iter()
                .map(Tensor::zeros)
                .collect();
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Sequential) {
        self.ensure_buffers(model);
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut idx = 0;
        model.visit_params_mut(&mut |p: &mut Param| {
            if p.frozen {
                return;
            }
            let v = &mut velocity[idx];
            idx += 1;
            let vd = v.data_mut();
            let wdata = p.value.data_mut();
            let gdata = p.grad.data();
            for i in 0..wdata.len() {
                let g = gdata[i] + wd * wdata[i];
                vd[i] = mu * vd[i] + g;
                wdata[i] -= lr * vd[i];
            }
        });
        self.steps += 1;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    fn set_weight_decay(&mut self, wd: f32) {
        self.weight_decay = wd;
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "hyper",
            Tensor::from_slice(&[self.lr, self.momentum, self.weight_decay, self.steps as f32]),
        );
        for (i, v) in self.velocity.iter().enumerate() {
            sd.insert(format!("velocity.{i}"), v.clone());
        }
        sd
    }

    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<SlabLoads, String> {
        let [lr, momentum, weight_decay, steps] = sd.hyper("Sgd")?;
        let mut loads = SlabLoads::default();
        sd.load_run("velocity.", &mut self.velocity, &mut loads)?;
        (self.lr, self.momentum, self.weight_decay) = (lr, momentum, weight_decay);
        self.steps = steps as u64;
        Ok(loads)
    }

    fn state_numel(&self) -> usize {
        4 + self.velocity.iter().map(Tensor::numel).sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// Adam optimizer with bias correction and L2 weight decay.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// New Adam optimizer with the conventional defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    fn ensure_buffers(&mut self, model: &Sequential) {
        if self.m.is_empty() {
            let shapes = trainable_shapes(model);
            self.m = shapes.iter().cloned().map(Tensor::zeros).collect();
            self.v = shapes.into_iter().map(Tensor::zeros).collect();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut Sequential) {
        self.ensure_buffers(model);
        self.t += 1;
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        model.visit_params_mut(&mut |p: &mut Param| {
            if p.frozen {
                return;
            }
            let m = ms[idx].data_mut();
            let v = vs[idx].data_mut();
            idx += 1;
            let wdata = p.value.data_mut();
            let gdata = p.grad.data();
            for i in 0..wdata.len() {
                let g = gdata[i] + wd * wdata[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                wdata[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    fn set_weight_decay(&mut self, wd: f32) {
        self.weight_decay = wd;
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "hyper",
            Tensor::from_slice(&[
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                self.weight_decay,
                self.t as f32,
            ]),
        );
        for (i, m) in self.m.iter().enumerate() {
            sd.insert(format!("m.{i}"), m.clone());
        }
        for (i, v) in self.v.iter().enumerate() {
            sd.insert(format!("v.{i}"), v.clone());
        }
        sd
    }

    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<SlabLoads, String> {
        let [lr, beta1, beta2, eps, weight_decay, t] = sd.hyper("Adam")?;
        let mut loads = SlabLoads::default();
        sd.load_run("m.", &mut self.m, &mut loads)?;
        sd.load_run("v.", &mut self.v, &mut loads)?;
        (self.lr, self.beta1, self.beta2, self.eps) = (lr, beta1, beta2, eps);
        self.weight_decay = weight_decay;
        self.t = t as u64;
        Ok(loads)
    }

    fn state_numel(&self) -> usize {
        6 + self.m.iter().map(Tensor::numel).sum::<usize>()
            + self.v.iter().map(Tensor::numel).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Linear;
    use flor_tensor::{ops, Pcg64};

    fn model(seed: u64) -> Sequential {
        let mut rng = Pcg64::seeded(seed);
        Sequential::new("m").push(Linear::new(3, 2, &mut rng))
    }

    fn one_training_step(m: &mut Sequential, opt: &mut dyn Optimizer) -> f32 {
        // Two separable clusters so the toy problem is actually learnable.
        let x = Tensor::new(
            [4, 3],
            vec![
                1.0, 0.0, 1.0, -1.0, 0.5, -1.0, 0.9, -0.1, 1.1, -0.8, 0.4, -0.9,
            ],
        );
        let targets = [0usize, 1, 0, 1];
        let logits = m.forward(&x);
        let (loss, probs) = ops::cross_entropy(&logits, &targets);
        let grad = ops::cross_entropy_backward(&probs, &targets);
        m.zero_grad();
        m.backward(&grad);
        opt.step(m);
        loss
    }

    #[test]
    fn sgd_descends_loss() {
        let mut m = model(1);
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        let first = one_training_step(&mut m, &mut opt);
        let mut last = first;
        for _ in 0..20 {
            last = one_training_step(&mut m, &mut opt);
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn adam_descends_loss() {
        let mut m = model(2);
        let mut opt = Adam::new(0.05, 0.0);
        let first = one_training_step(&mut m, &mut opt);
        let mut last = first;
        for _ in 0..20 {
            last = one_training_step(&mut m, &mut opt);
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn sgd_momentum_accelerates_along_constant_gradient() {
        let mut m = model(3);
        let before = m.state_dict();
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        // Constant gradient of 1 on every weight.
        for _ in 0..3 {
            m.visit_params_mut(&mut |p| {
                p.grad = Tensor::ones(p.value.shape().clone());
            });
            opt.step(&mut m);
        }
        // With momentum: steps of 1, 1.9, 2.71 → total 5.61 * lr.
        let after = m.state_dict();
        let delta =
            before.get("1.bias").unwrap().data()[0] - after.get("1.bias").unwrap().data()[0];
        assert!((delta - 0.561).abs() < 1e-4, "delta {delta}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut m = model(4);
        let norm0 = m.weight_norm();
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        for _ in 0..10 {
            m.zero_grad(); // zero gradient: only decay acts
            opt.step(&mut m);
        }
        assert!(m.weight_norm() < norm0 * 0.7, "decay should shrink weights");
    }

    #[test]
    fn frozen_params_not_updated() {
        let mut rng = Pcg64::seeded(5);
        let mut m = Sequential::new("f").push(Linear::new_frozen(3, 2, &mut rng));
        let before = m.state_dict();
        let mut opt = Sgd::new(1.0, 0.0, 0.9);
        m.visit_params_mut(&mut |p| p.grad = Tensor::ones(p.value.shape().clone()));
        opt.step(&mut m);
        assert_eq!(m.state_dict(), before);
    }

    #[test]
    fn sgd_state_dict_roundtrip_resumes_identically() {
        let mut m1 = model(6);
        let mut o1 = Sgd::new(0.2, 0.9, 0.01);
        for _ in 0..5 {
            one_training_step(&mut m1, &mut o1);
        }
        // Clone state into a fresh optimizer; further steps must agree.
        let mut m2 = model(99);
        m2.load_state_dict(&m1.state_dict().view()).unwrap();
        let mut o2 = Sgd::new(0.0, 0.0, 0.0);
        o2.load_state_dict(&o1.state_dict().view()).unwrap();
        for _ in 0..5 {
            let a = one_training_step(&mut m1, &mut o1);
            let b = one_training_step(&mut m2, &mut o2);
            assert_eq!(a, b);
        }
        assert_eq!(m1.state_dict(), m2.state_dict());
    }

    #[test]
    fn encoded_moments_load_into_the_buffers_already_held() {
        let mut m = model(7);
        let mut o1 = Adam::new(0.05, 0.001);
        one_training_step(&mut m, &mut o1);
        let sd = o1.state_dict();
        let entries: Vec<(String, Vec<u8>)> = sd
            .iter()
            .map(|(n, t)| (n.to_string(), t.to_bytes()))
            .collect();
        let mut view = StateView::new();
        for (n, b) in &entries {
            view.push(n, crate::module::StateEntry::Encoded(b));
        }
        let moments = (sd.len() - 1) as u64;
        let mut o2 = Adam::new(0.0, 0.0);
        // A fresh optimizer holds no buffers yet: each is allocated once.
        let first = o2.load_state_dict(&view).unwrap();
        assert_eq!((first.reused, first.allocated), (0, moments));
        let slabs: Vec<*const f32> = o2.m.iter().map(|t| t.data().as_ptr()).collect();
        let again = o2.load_state_dict(&view).unwrap();
        assert_eq!((again.reused, again.allocated), (moments, 0));
        assert_eq!(
            o2.m.iter().map(|t| t.data().as_ptr()).collect::<Vec<_>>(),
            slabs
        );
        assert_eq!(o2.state_dict(), sd);
        // A malformed snapshot is an error, not a panic.
        let err = Sgd::new(0.1, 0.0, 0.0).load_state_dict(&view).unwrap_err();
        assert!(
            err.contains("Sgd hyper tensor must have 4 entries"),
            "{err}"
        );
    }

    #[test]
    fn adam_state_dict_roundtrip_resumes_identically() {
        let mut m1 = model(7);
        let mut o1 = Adam::new(0.05, 0.001);
        for _ in 0..5 {
            one_training_step(&mut m1, &mut o1);
        }
        let mut m2 = model(99);
        m2.load_state_dict(&m1.state_dict().view()).unwrap();
        let mut o2 = Adam::new(0.0, 0.0);
        o2.load_state_dict(&o1.state_dict().view()).unwrap();
        for _ in 0..5 {
            let a = one_training_step(&mut m1, &mut o1);
            let b = one_training_step(&mut m2, &mut o2);
            assert_eq!(a, b);
        }
        assert_eq!(m1.state_dict(), m2.state_dict());
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
        opt.set_weight_decay(0.25);
        assert_eq!(opt.weight_decay(), 0.25);
    }
}
