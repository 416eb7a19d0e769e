//! Learning-rate schedulers: the objects that *mutate the optimizer*.
//!
//! Encoded library fact (b) from the paper's §5.2.1: "the optimizer may be
//! updated via the learning rate schedule". Flor's changeset augmentation
//! follows `scheduler → optimizer → model` at runtime, so a training loop
//! that only calls `scheduler.step()` still checkpoints the whole chain.

use crate::module::{StateDict, StateView};
use crate::optim::Optimizer;
use flor_tensor::Tensor;

/// A learning-rate schedule, stepped once per epoch.
pub trait Scheduler {
    /// Advances the schedule one epoch and writes the new learning rate into
    /// the optimizer.
    fn step(&mut self, optim: &mut dyn Optimizer);

    /// The learning rate the schedule would assign at its current epoch.
    fn current_lr(&self) -> f32;

    /// Snapshot of schedule state (epoch counter and hyperparameters).
    fn state_dict(&self) -> StateDict;

    /// Restores state captured by [`Scheduler::state_dict`] (its one
    /// `hyper` entry); a malformed snapshot is an error.
    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<(), String>;
}

/// Multiplies the learning rate by `gamma` every `step_size` epochs.
pub struct StepLr {
    base_lr: f32,
    step_size: u32,
    gamma: f32,
    epoch: u32,
}

impl StepLr {
    /// New step schedule starting from `base_lr`.
    pub fn new(base_lr: f32, step_size: u32, gamma: f32) -> Self {
        assert!(step_size > 0, "step_size must be positive");
        StepLr {
            base_lr,
            step_size,
            gamma,
            epoch: 0,
        }
    }
}

impl Scheduler for StepLr {
    fn step(&mut self, optim: &mut dyn Optimizer) {
        self.epoch += 1;
        optim.set_lr(self.current_lr());
    }

    fn current_lr(&self) -> f32 {
        self.base_lr * self.gamma.powi((self.epoch / self.step_size) as i32)
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "hyper",
            Tensor::from_slice(&[
                self.base_lr,
                self.step_size as f32,
                self.gamma,
                self.epoch as f32,
            ]),
        );
        sd
    }

    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<(), String> {
        let [base_lr, step_size, gamma, epoch] = sd.hyper("StepLr")?;
        (self.base_lr, self.gamma) = (base_lr, gamma);
        (self.step_size, self.epoch) = (step_size as u32, epoch as u32);
        Ok(())
    }
}

/// Cosine annealing from `base_lr` down to `eta_min` over `t_max` epochs.
pub struct CosineLr {
    base_lr: f32,
    eta_min: f32,
    t_max: u32,
    epoch: u32,
}

impl CosineLr {
    /// New cosine schedule.
    pub fn new(base_lr: f32, eta_min: f32, t_max: u32) -> Self {
        assert!(t_max > 0, "t_max must be positive");
        CosineLr {
            base_lr,
            eta_min,
            t_max,
            epoch: 0,
        }
    }
}

impl Scheduler for CosineLr {
    fn step(&mut self, optim: &mut dyn Optimizer) {
        self.epoch += 1;
        optim.set_lr(self.current_lr());
    }

    fn current_lr(&self) -> f32 {
        let t = (self.epoch.min(self.t_max)) as f32 / self.t_max as f32;
        self.eta_min
            + 0.5 * (self.base_lr - self.eta_min) * (1.0 + (std::f32::consts::PI * t).cos())
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "hyper",
            Tensor::from_slice(&[
                self.base_lr,
                self.eta_min,
                self.t_max as f32,
                self.epoch as f32,
            ]),
        );
        sd
    }

    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<(), String> {
        let [base_lr, eta_min, t_max, epoch] = sd.hyper("CosineLr")?;
        (self.base_lr, self.eta_min) = (base_lr, eta_min);
        (self.t_max, self.epoch) = (t_max as u32, epoch as u32);
        Ok(())
    }
}

/// Cyclical schedule oscillating between `min_lr` and `max_lr` with a
/// triangular wave of the given period.
///
/// Stochastic weight averaging — the technique Alice implements in the
/// paper's §2.1 scenario — uses cyclic schedules with "higher than usual
/// learning rate bounds", which is what inflates her gradient magnitudes and
/// (combined with weight decay) collapses training.
pub struct CyclicLr {
    min_lr: f32,
    max_lr: f32,
    period: u32,
    epoch: u32,
}

impl CyclicLr {
    /// New triangular cyclic schedule.
    pub fn new(min_lr: f32, max_lr: f32, period: u32) -> Self {
        assert!(period >= 2, "period must be at least 2");
        assert!(max_lr >= min_lr, "max_lr must be >= min_lr");
        CyclicLr {
            min_lr,
            max_lr,
            period,
            epoch: 0,
        }
    }
}

impl Scheduler for CyclicLr {
    fn step(&mut self, optim: &mut dyn Optimizer) {
        self.epoch += 1;
        optim.set_lr(self.current_lr());
    }

    fn current_lr(&self) -> f32 {
        let phase = (self.epoch % self.period) as f32 / self.period as f32; // [0, 1)
        let tri = 1.0 - (2.0 * phase - 1.0).abs(); // 0 → 1 → 0
        self.min_lr + (self.max_lr - self.min_lr) * tri
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "hyper",
            Tensor::from_slice(&[
                self.min_lr,
                self.max_lr,
                self.period as f32,
                self.epoch as f32,
            ]),
        );
        sd
    }

    fn load_state_dict(&mut self, sd: &StateView<'_>) -> Result<(), String> {
        let [min_lr, max_lr, period, epoch] = sd.hyper("CyclicLr")?;
        (self.min_lr, self.max_lr) = (min_lr, max_lr);
        (self.period, self.epoch) = (period as u32, epoch as u32);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn step_lr_decays_at_boundaries() {
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        let mut sched = StepLr::new(1.0, 2, 0.1);
        let mut lrs = Vec::new();
        for _ in 0..6 {
            sched.step(&mut opt);
            lrs.push(opt.lr());
        }
        // epochs 1..=6: floor(e/2) = 0,1,1,2,2,3
        let expect = [1.0, 0.1, 0.1, 0.01, 0.01, 0.001];
        for (a, b) in lrs.iter().zip(expect) {
            assert!((a - b).abs() < 1e-9, "{lrs:?}");
        }
    }

    #[test]
    fn cosine_lr_endpoints() {
        let sched = CosineLr::new(1.0, 0.0, 10);
        assert!((sched.current_lr() - 1.0).abs() < 1e-6);
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        let mut sched = CosineLr::new(1.0, 0.0, 10);
        for _ in 0..10 {
            sched.step(&mut opt);
        }
        assert!(opt.lr() < 1e-6, "lr at t_max should hit eta_min");
    }

    #[test]
    fn cosine_lr_is_monotone_decreasing() {
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        let mut sched = CosineLr::new(1.0, 0.01, 20);
        let mut prev = f32::INFINITY;
        for _ in 0..20 {
            sched.step(&mut opt);
            assert!(opt.lr() <= prev);
            prev = opt.lr();
        }
    }

    #[test]
    fn cyclic_lr_oscillates() {
        let mut opt = Sgd::new(0.0, 0.0, 0.0);
        let mut sched = CyclicLr::new(0.1, 1.0, 4);
        let mut lrs = Vec::new();
        for _ in 0..8 {
            sched.step(&mut opt);
            lrs.push(opt.lr());
        }
        // period 4: phases 1/4, 2/4, 3/4, 0 → tri 0.5, 1.0, 0.5, 0.0 (twice)
        let expect = [0.55, 1.0, 0.55, 0.1, 0.55, 1.0, 0.55, 0.1];
        for (a, b) in lrs.iter().zip(expect) {
            assert!((a - b).abs() < 1e-6, "{lrs:?}");
        }
    }

    #[test]
    fn scheduler_state_roundtrip() {
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        let mut s1 = CosineLr::new(1.0, 0.0, 10);
        for _ in 0..4 {
            s1.step(&mut opt);
        }
        let mut s2 = CosineLr::new(0.0, 0.0, 1);
        s2.load_state_dict(&s1.state_dict().view()).unwrap();
        assert_eq!(s1.current_lr(), s2.current_lr());
        for _ in 0..3 {
            s1.step(&mut opt);
            let lr1 = opt.lr();
            s2.step(&mut opt);
            assert_eq!(lr1, opt.lr());
        }
    }

    #[test]
    #[should_panic(expected = "step_size must be positive")]
    fn step_lr_rejects_zero_step() {
        StepLr::new(1.0, 0, 0.5);
    }
}
