//! Cloud cost model (Figure 14, Table 4).
//!
//! 2020 us-west-2 on-demand list prices, as in the paper's evaluation:
//! P3.2xLarge (1 × V100) at $3.06/h, P3.8xLarge (4 × V100) at $12.24/h,
//! S3 standard at $0.023/GB·month. The paper's framing: "we can store
//! 130 GB for a month, at the same cost as running a single-GPU instance
//! for an hour."

use crate::replay_sim::ReplaySim;

/// EC2 machine shapes used in the evaluation.
pub mod machine {
    /// P3.2xLarge hourly price, USD.
    pub(crate) const P3_2X_USD_PER_HOUR: f64 = 3.06;
    /// P3.8xLarge: 4 V100 GPUs.
    pub const P3_8X_GPUS: usize = 4;
    /// P3.8xLarge hourly price, USD.
    pub(crate) const P3_8X_USD_PER_HOUR: f64 = 12.24;
}

/// S3 standard storage, USD per GB-month.
pub(crate) const S3_USD_PER_GB_MONTH: f64 = 0.023;

/// Measured checkpoint-read constants of the segmented storage engine,
/// taken from the last `BENCH_replay.json` of the since-retired
/// `bench_replay_json` microbenchmark (in git history). The replay
/// simulator folds these into the restore cost `R = c·M` so simulated
/// replay latency reflects the real read path, not just the paper's
/// compute-side scaling factor.
pub(crate) mod read_cost {
    /// Median `get_bytes` latency for a segment-resident checkpoint,
    /// seconds (fixed per-read cost: sharded index lookup + shared-buffer
    /// slice + CRC). BENCH_replay.json: 1548 ns at 100k checkpoints.
    pub(crate) const SEGMENTED_GET_SECS: f64 = 1.5e-6;

    /// Streaming throughput for pulling a cold segment's payload bytes
    /// into the shared read buffer, bytes/second.
    pub(crate) const SEGMENT_READ_BYTES_PER_SEC: f64 = 2.0e9;

    /// I/O-side cost of restoring one checkpoint of `compressed_gb`
    /// gigabytes from a segmented store: the fixed per-read constant plus
    /// the proportional segment-read cost.
    pub(crate) fn restore_read_secs(compressed_gb: f64) -> f64 {
        SEGMENTED_GET_SECS + compressed_gb * 1e9 / SEGMENT_READ_BYTES_PER_SEC
    }
}

/// Monthly cost of storing `gb` gigabytes in S3 (Table 4, right column).
pub fn monthly_storage_usd(gb: f64) -> f64 {
    gb * S3_USD_PER_GB_MONTH
}

/// Dollar cost of a serial or parallel replay (Figure 14's bars).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBill {
    /// Wall-clock hours billed.
    pub hours: f64,
    /// Machines used.
    pub machines: usize,
    /// Hourly rate per machine.
    pub(crate) usd_per_hour: f64,
    /// Total, USD.
    pub total_usd: f64,
}

/// Cost of performing the work serially on one P3.2xLarge.
pub fn serial_bill(vanilla_hours: f64) -> ReplayBill {
    ReplayBill {
        hours: vanilla_hours,
        machines: 1,
        usd_per_hour: machine::P3_2X_USD_PER_HOUR,
        total_usd: vanilla_hours * machine::P3_2X_USD_PER_HOUR,
    }
}

/// Cost of a parallel replay on `machines` P3.8xLarge machines.
pub fn parallel_bill(replay: &ReplaySim, machines: usize) -> ReplayBill {
    let hours = replay.wall_secs / 3600.0;
    ReplayBill {
        hours,
        machines,
        usd_per_hour: machine::P3_8X_USD_PER_HOUR,
        total_usd: hours * machines as f64 * machine::P3_8X_USD_PER_HOUR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_sim::simulate_record;
    use crate::replay_sim::{simulate_replay, ProbePosition};
    use crate::workload::Workload;
    use flor_core::parallel::InitMode;

    #[test]
    fn storage_cost_matches_table4() {
        // Table 4 rows: (GB, $/month).
        for (gb, usd) in [
            (0.051, 0.001),
            (0.705, 0.016),
            (2.0, 0.046),
            (14.0, 0.322),
            (15.0, 0.345),
            (29.0, 0.667),
            (39.0, 0.897),
        ] {
            let got = monthly_storage_usd(gb);
            assert!(
                (got - usd).abs() < 0.01,
                "{gb} GB: ${got:.3} vs Table 4's ${usd}"
            );
        }
    }

    #[test]
    fn one_gpu_hour_buys_133_gb_months() {
        // "we can store 130 GB for a month, at the same cost as running a
        // single-GPU instance for an hour."
        let gb = machine::P3_2X_USD_PER_HOUR / S3_USD_PER_GB_MONTH;
        assert!((gb - 133.0).abs() < 1.0, "{gb:.0} GB");
    }

    #[test]
    fn figure14_parallel_cost_roughly_equals_serial() {
        // "Even though parallel replay finishes the same amount of work in
        // a fraction of the time, it costs about the same as doing the work
        // serially" — because a P3.8xLarge costs exactly 4 × a P3.2xLarge
        // and parallelism is near-ideal. Marginal cost < $3.
        let w = Workload::by_name("RsNt").unwrap();
        let record = simulate_record(w, 1.0 / 15.0, true);
        let serial = serial_bill(w.vanilla_hours);
        for machines in [1usize, 2, 4] {
            let replay = simulate_replay(
                w,
                &record,
                ProbePosition::Inner,
                machines * machine::P3_8X_GPUS,
                InitMode::Weak,
            );
            let parallel = parallel_bill(&replay, machines);
            let marginal = parallel.total_usd - serial.total_usd;
            assert!(
                marginal.abs() < 3.0,
                "{machines} machines: marginal cost ${marginal:.2} exceeds the paper's <$3"
            );
            // And the time saved is real.
            assert!(parallel.hours < serial.hours / (machines as f64 * 2.0));
        }
    }

    #[test]
    fn figure14_time_reduction_hours() {
        // "the model developer observes as much as 16-hour reductions in
        // execution time" — RsNt at 16 GPUs.
        let w = Workload::by_name("RsNt").unwrap();
        let record = simulate_record(w, 1.0 / 15.0, true);
        let replay = simulate_replay(w, &record, ProbePosition::Inner, 16, InitMode::Weak);
        let saved = w.vanilla_hours - replay.wall_secs / 3600.0;
        assert!(saved > 12.0, "saved {saved:.1} hours");
    }

    #[test]
    fn read_constants_order_and_scale_sensibly() {
        use crate::workload::ALL_WORKLOADS;
        // Proportional in checkpoint size, monotone.
        assert!(read_cost::restore_read_secs(1.0) > read_cost::restore_read_secs(0.001));
        // The I/O term stays a small correction to the paper's compute-side
        // restore model for every Table 3 workload (< 5% of an epoch).
        for w in ALL_WORKLOADS {
            let io = read_cost::restore_read_secs(w.compressed_ckpt_gb);
            assert!(
                io < 0.05 * w.epoch_secs(),
                "{}: read cost {io:.3}s vs epoch {:.1}s",
                w.name,
                w.epoch_secs()
            );
        }
    }

    #[test]
    fn serial_bill_arithmetic() {
        let bill = serial_bill(10.0);
        assert_eq!(bill.total_usd, 30.6);
        assert_eq!(bill.machines, 1);
    }
}
