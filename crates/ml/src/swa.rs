//! Stochastic weight averaging (SWA) — the "experimental training technique
//! from the literature" Alice implements in the paper's §2.1 scenario
//! (Izmailov et al., 2018).
//!
//! SWA maintains a running average of model weights sampled along the
//! (cyclically scheduled) SGD trajectory, and swaps the average in at the end
//! of training. Alice's first bug is averaging "along the wrong dimension";
//! [`SwaAverager::update_buggy`] reproduces that bug for the Alice example
//! (it transposes rank-2 weights before averaging, corrupting shapes exactly
//! the way her TensorBoard plots revealed).

use crate::module::{Sequential, StateDict};
use flor_tensor::Tensor;

/// Running average over model snapshots.
#[derive(Debug, Default)]
pub struct SwaAverager {
    count: u32,
    avg: Option<StateDict>,
}

impl SwaAverager {
    /// New, empty averager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots folded in so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Rebuilds an averager from checkpointed parts.
    pub fn restore(count: u32, avg: Option<StateDict>) -> Self {
        SwaAverager { count, avg }
    }

    /// Folds the model's current weights into the running average.
    pub fn update(&mut self, model: &Sequential) {
        let sd = model.state_dict();
        self.fold(sd);
    }

    /// The buggy variant from the Alice scenario: transposes every rank-2
    /// tensor before averaging, i.e. averages along the wrong dimension.
    /// With square weight matrices this silently corrupts values; with
    /// non-square ones it corrupts shapes.
    pub fn update_buggy(&mut self, model: &Sequential) {
        let sd: StateDict = model
            .state_dict()
            .iter()
            .map(|(n, t)| {
                let t = if t.shape().rank() == 2 {
                    t.transpose()
                } else {
                    t.clone()
                };
                (n.to_string(), t)
            })
            .collect();
        self.fold(sd);
    }

    fn fold(&mut self, sd: StateDict) {
        self.count += 1;
        match &mut self.avg {
            None => self.avg = Some(sd),
            Some(avg) => {
                let k = self.count as f32;
                let merged: StateDict = avg
                    .iter()
                    .zip(sd.iter())
                    .map(|((name, a), (name2, b))| {
                        assert_eq!(name, name2, "state dict entry order changed");
                        assert_eq!(
                            a.shape(),
                            b.shape(),
                            "SWA shape mismatch on {name:?}: running average has {} but \
                             snapshot has {} (averaging along the wrong dimension?)",
                            a.shape(),
                            b.shape()
                        );
                        // running_avg += (x - running_avg) / k
                        let mut upd = a.clone();
                        upd.axpy(-1.0 / k, a);
                        upd.axpy(1.0 / k, b);
                        (name.to_string(), upd)
                    })
                    .collect();
                *avg = merged;
            }
        }
    }

    /// The current averaged weights, if any snapshot has been folded in.
    pub fn average(&self) -> Option<&StateDict> {
        self.avg.as_ref()
    }

    /// Writes the averaged weights into the model (the end-of-training swap).
    ///
    /// # Panics
    /// Panics if no snapshots were folded in, or on shape mismatch (the
    /// symptom of the wrong-dimension bug).
    pub fn apply(&self, model: &mut Sequential) {
        let avg = self.avg.as_ref().expect("SWA apply before any update");
        if let Err(e) = model.load_state_dict(&avg.view()) {
            panic!("{e}");
        }
    }

    /// Like [`SwaAverager::apply`] but returns an error message instead of
    /// panicking, so scripted workloads can surface the failure as a log.
    pub fn try_apply(&self, model: &mut Sequential) -> Result<(), String> {
        let avg = match &self.avg {
            Some(a) => a,
            None => return Err("SWA apply before any update".to_string()),
        };
        // Validate shapes first, so a mismatch loads nothing.
        let expect = model.state_dict();
        for (name, t) in expect.iter() {
            match avg.get(name) {
                Some(a) if a.shape() == t.shape() => {}
                Some(a) => {
                    return Err(format!(
                        "SWA average for {name:?} has shape {} but model expects {}",
                        a.shape(),
                        t.shape()
                    ))
                }
                None => return Err(format!("SWA average missing entry {name:?}")),
            }
        }
        model.load_state_dict(&avg.view()).map(|_| ())
    }
}

/// Averages a frozen tensor pair elementwise — helper used in tests.
fn _unused(_a: &Tensor) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Linear;
    use flor_tensor::Pcg64;

    fn model(seed: u64) -> Sequential {
        let mut rng = Pcg64::seeded(seed);
        Sequential::new("m").push(Linear::new(3, 2, &mut rng))
    }

    #[test]
    fn average_of_identical_snapshots_is_identity() {
        let m = model(1);
        let mut swa = SwaAverager::new();
        swa.update(&m);
        swa.update(&m);
        let avg = swa.average().unwrap();
        for ((_, a), (_, b)) in avg.iter().zip(m.state_dict().iter()) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn average_is_running_mean() {
        let mut m = model(2);
        let mut swa = SwaAverager::new();
        swa.update(&m); // snapshot A
        let a0 = m.state_dict().get("1.bias").unwrap().data()[0];
        // Shift all weights by +1 and fold again.
        m.visit_params_mut(&mut |p| p.value.map_inplace(|v| v + 1.0));
        swa.update(&m); // snapshot A+1
        let avg = swa.average().unwrap().get("1.bias").unwrap().data()[0];
        assert!((avg - (a0 + 0.5)).abs() < 1e-5, "avg {avg} vs {}", a0 + 0.5);
    }

    #[test]
    fn apply_swaps_average_into_model() {
        let mut m = model(3);
        let mut swa = SwaAverager::new();
        swa.update(&m);
        m.visit_params_mut(&mut |p| p.value.map_inplace(|v| v + 2.0));
        swa.update(&m);
        swa.apply(&mut m);
        // Model now halfway between the two snapshots; folding it again
        // must keep shapes intact.
        swa.update(&m);
    }

    #[test]
    fn buggy_update_breaks_on_nonsquare_weights() {
        let m = model(4); // weight is [3, 2] — not square
        let mut swa = SwaAverager::new();
        swa.update_buggy(&m);
        let mut m2 = model(4);
        let err = swa.try_apply(&mut m2).unwrap_err();
        assert!(
            err.contains("shape"),
            "diagnostic should mention shape: {err}"
        );
    }

    #[test]
    fn buggy_then_good_update_shape_mismatch_panics() {
        let m = model(5);
        let mut swa = SwaAverager::new();
        swa.update_buggy(&m);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            swa.update(&m);
        }));
        assert!(
            result.is_err(),
            "mixing buggy and correct updates must fail"
        );
    }

    #[test]
    fn try_apply_before_update_errors() {
        let swa = SwaAverager::new();
        let mut m = model(6);
        assert!(swa.try_apply(&mut m).is_err());
    }
}
