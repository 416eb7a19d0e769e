//! The paper's Table 3 workloads, with calibrated magnitudes.
//!
//! Structure (name, benchmark, task, model, dataset, train-vs-fine-tune,
//! epochs) is copied verbatim from Table 3. Three magnitudes calibrate the
//! simulation:
//!
//! - `compressed_ckpt_gb`: per-checkpoint gzip-compressed size, derived
//!   from Table 4's totals divided by the expected checkpoint count (e.g.
//!   RTE: 14 GB total over ~13 periodic checkpoints ≈ 1.1 GB — which
//!   matches the "1.1GB checkpoint from the RTE experiment" the paper uses
//!   to validate Figure 5);
//! - `m_over_c`: per-epoch materialization time / compute time. For the
//!   fine-tuning workloads these are *published*: Figure 7's
//!   adaptivity-disabled overheads (RTE 91%, CoLA 28%). For training
//!   workloads they are small (checkpoints are cheap relative to epochs);
//!   values are estimated to land Figure 11's reported 1.47% average;
//! - `vanilla_hours`: vanilla execution time (Figure 11's bars are not
//!   numerically labelled in the text; estimates are chosen to be
//!   consistent with the narrative — e.g. §2.1's one-hour CIFAR runs, and
//!   Figure 12's speedup range topping out at 1123× for the longest job).

/// Training or fine-tuning (the axis that decides checkpoint economics,
/// §5.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// All weights trainable; checkpoints cheap relative to compute.
    Train,
    /// Vast majority of weights frozen; enormous checkpoints, short epochs.
    FineTune,
}

/// One evaluation workload (a row of Table 3 plus calibration).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (Table 3, column 1).
    pub name: &'static str,
    /// Source benchmark suite.
    pub benchmark: &'static str,
    /// Task description.
    pub task: &'static str,
    /// Model architecture.
    pub model: &'static str,
    /// Dataset.
    pub dataset: &'static str,
    /// Train or fine-tune.
    pub kind: WorkloadKind,
    /// Main-loop iterations (epochs), Table 3.
    pub epochs: u64,
    /// Vanilla end-to-end runtime, hours (calibrated estimate).
    pub vanilla_hours: f64,
    /// Per-checkpoint compressed size, GB (derived from Table 4).
    pub compressed_ckpt_gb: f64,
    /// Per-epoch materialization/compute ratio `M_i / C_i`
    /// (= Figure 7's adaptivity-disabled overhead).
    pub(crate) m_over_c: f64,
}

impl Workload {
    /// Per-epoch compute time, seconds.
    pub fn epoch_secs(&self) -> f64 {
        self.vanilla_hours * 3600.0 / self.epochs as f64
    }

    /// Per-checkpoint materialization time, seconds.
    pub fn materialize_secs(&self) -> f64 {
        self.m_over_c * self.epoch_secs()
    }

    /// Per-checkpoint restore time, seconds (`R = c · M`, with the paper's
    /// measured average scaling factor c = 1.38).
    pub(crate) fn restore_secs(&self) -> f64 {
        1.38 * self.materialize_secs()
    }

    /// Preamble time (imports, data loading, preprocessing before the main
    /// loop) — work every replay worker repeats. Modeled as a flat 60 s:
    /// the paper reports partial-replay latencies "in the order of minutes
    /// … even when model training takes several hours", which bounds the
    /// per-worker fixed cost at about a minute.
    pub(crate) fn preamble_secs(&self) -> f64 {
        60.0
    }

    /// Look up a workload by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        ALL_WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// Table 3, all eight workloads.
pub static ALL_WORKLOADS: &[Workload] = &[
    Workload {
        name: "RTE",
        benchmark: "GLUE",
        task: "Recognizing Textual Entailment",
        model: "RoBERTa",
        dataset: "RTE",
        kind: WorkloadKind::FineTune,
        epochs: 200,
        vanilla_hours: 1.0,
        compressed_ckpt_gb: 1.1, // the paper's Figure-5 validation payload
        m_over_c: 0.91,          // Figure 7, adaptivity disabled
    },
    Workload {
        name: "CoLA",
        benchmark: "GLUE",
        task: "Language Acceptability",
        model: "RoBERTa",
        dataset: "CoLA",
        kind: WorkloadKind::FineTune,
        epochs: 80,
        vanilla_hours: 1.0,
        compressed_ckpt_gb: 1.1,
        m_over_c: 0.28, // Figure 7, adaptivity disabled
    },
    Workload {
        name: "Cifr",
        benchmark: "Classic CV",
        task: "Image Classification",
        model: "Squeezenet",
        dataset: "Cifar100",
        kind: WorkloadKind::Train,
        epochs: 200,
        vanilla_hours: 1.0,          // §2.1: "after one hour of training"
        compressed_ckpt_gb: 0.00352, // 705 MB / 200 (Table 4)
        m_over_c: 0.002,
    },
    Workload {
        name: "RsNt",
        benchmark: "Classic CV",
        task: "Image Classification",
        model: "ResNet-152",
        dataset: "Cifar100",
        kind: WorkloadKind::Train,
        epochs: 200,
        vanilla_hours: 16.0,
        compressed_ckpt_gb: 0.195, // 39 GB / 200 (Table 4)
        m_over_c: 0.01,
    },
    Workload {
        name: "Wiki",
        benchmark: "GLUE",
        task: "Language Modeling",
        model: "RoBERTa",
        dataset: "Wiki",
        kind: WorkloadKind::Train,
        epochs: 12,
        vanilla_hours: 22.0,
        compressed_ckpt_gb: 1.17, // 14 GB / 12 (Table 4)
        m_over_c: 0.004,
    },
    Workload {
        name: "Jasp",
        benchmark: "MLPerf",
        task: "Speech Recognition",
        model: "Jasper",
        dataset: "LibriSpeech",
        kind: WorkloadKind::Train,
        epochs: 4,
        vanilla_hours: 12.0,
        compressed_ckpt_gb: 0.5, // 2 GB / 4 (Table 4)
        m_over_c: 0.002,
    },
    Workload {
        name: "ImgN",
        benchmark: "Classic CV",
        task: "Image Classification",
        model: "Squeezenet",
        dataset: "ImageNet",
        kind: WorkloadKind::Train,
        epochs: 8,
        vanilla_hours: 8.0,
        compressed_ckpt_gb: 0.006375, // 51 MB / 8 (Table 4)
        m_over_c: 0.0005,
    },
    Workload {
        name: "RnnT",
        benchmark: "MLPerf",
        task: "Language Translation",
        model: "RNN w/ Attention",
        dataset: "WMT16",
        kind: WorkloadKind::Train,
        epochs: 8,
        vanilla_hours: 10.0,
        compressed_ckpt_gb: 3.625, // 29 GB / 8 (Table 4)
        m_over_c: 0.015,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_structure() {
        assert_eq!(ALL_WORKLOADS.len(), 8);
        let names: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["RTE", "CoLA", "Cifr", "RsNt", "Wiki", "Jasp", "ImgN", "RnnT"]
        );
        // Epoch counts are Table 3 verbatim.
        let epochs: Vec<u64> = ALL_WORKLOADS.iter().map(|w| w.epochs).collect();
        assert_eq!(epochs, vec![200, 80, 200, 200, 12, 4, 8, 8]);
        // Exactly the two GLUE fine-tuning workloads.
        let ft: Vec<&str> = ALL_WORKLOADS
            .iter()
            .filter(|w| w.kind == WorkloadKind::FineTune)
            .map(|w| w.name)
            .collect();
        assert_eq!(ft, vec!["RTE", "CoLA"]);
    }

    #[test]
    fn finetune_ratios_are_published_figures() {
        assert_eq!(Workload::by_name("RTE").unwrap().m_over_c, 0.91);
        assert_eq!(Workload::by_name("CoLA").unwrap().m_over_c, 0.28);
    }

    #[test]
    fn derived_times_are_consistent() {
        let rte = Workload::by_name("RTE").unwrap();
        assert!((rte.epoch_secs() - 18.0).abs() < 1e-9);
        assert!((rte.materialize_secs() - 0.91 * 18.0).abs() < 1e-9);
        assert!((rte.restore_secs() - 1.38 * 0.91 * 18.0).abs() < 1e-6);
    }

    #[test]
    fn train_workloads_have_cheap_checkpoints() {
        for w in ALL_WORKLOADS {
            if w.kind == WorkloadKind::Train {
                assert!(
                    w.m_over_c < 1.0 / 15.0,
                    "{}: training checkpoints must beat ε",
                    w.name
                );
            }
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(Workload::by_name("RsNt").is_some());
        assert!(Workload::by_name("nope").is_none());
    }
}
