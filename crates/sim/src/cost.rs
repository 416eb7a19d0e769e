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
    /// P3.2xLarge: 1 V100 GPU.
    pub const P3_2X_GPUS: usize = 1;
    /// P3.2xLarge hourly price, USD.
    pub const P3_2X_USD_PER_HOUR: f64 = 3.06;
    /// P3.8xLarge: 4 V100 GPUs.
    pub const P3_8X_GPUS: usize = 4;
    /// P3.8xLarge hourly price, USD.
    pub const P3_8X_USD_PER_HOUR: f64 = 12.24;
}

/// S3 standard storage, USD per GB-month.
pub const S3_USD_PER_GB_MONTH: f64 = 0.023;

/// Measured checkpoint-read constants of the segmented storage engine,
/// taken from the last `BENCH_replay.json` of the since-retired
/// `bench_replay_json` microbenchmark (in git history). The replay
/// simulator folds these into the restore cost `R = c·M` so simulated
/// replay latency reflects the real read path, not just the paper's
/// compute-side scaling factor.
pub mod read_cost {
    /// Median `get_bytes` latency for a segment-resident checkpoint,
    /// seconds (fixed per-read cost: sharded index lookup + shared-buffer
    /// slice + CRC). BENCH_replay.json: 1548 ns at 100k checkpoints.
    pub const SEGMENTED_GET_SECS: f64 = 1.5e-6;

    /// Streaming throughput for pulling a cold segment's payload bytes
    /// into the shared read buffer, bytes/second.
    pub const SEGMENT_READ_BYTES_PER_SEC: f64 = 2.0e9;

    /// I/O-side cost of restoring one checkpoint of `compressed_gb`
    /// gigabytes from a segmented store: the fixed per-read constant plus
    /// the proportional segment-read cost.
    pub fn restore_read_secs(compressed_gb: f64) -> f64 {
        SEGMENTED_GET_SECS + compressed_gb * 1e9 / SEGMENT_READ_BYTES_PER_SEC
    }
}

/// Delta-chain storage and restore model, with constants measured by the
/// since-retired `bench_compress_json` microbenchmark (its last
/// `BENCH_compress.json` drifting-tensor table, in git history: ~5% of
/// tensor elements move per checkpoint version).
pub mod delta_cost {
    use super::read_cost;

    /// Stored/raw ratio of one delta frame on the drifting-tensor
    /// workload (BENCH_compress.json: `delta_frame_ratio` 0.053).
    pub const DELTA_FRAME_RATIO: f64 = 0.053;

    /// Stored/raw ratio of a keyframe (incompressible tensor slabs store
    /// raw; zero-heavy payloads do better, so this is conservative).
    pub const KEYFRAME_RATIO: f64 = 1.0;

    /// Extra restore cost per chain link, seconds per raw GB decoded
    /// (BENCH_compress.json: sequential restore median 8.17 ms vs 5.03 ms
    /// keyframe-only on 4 MiB payloads ≈ 0.75 s/GB/link).
    pub const CHAIN_LINK_SECS_PER_GB: f64 = 0.75;

    /// Stored bytes (GB) for `checkpoints` versions of a `raw_gb`
    /// checkpoint under keyframe interval `k` (`k == 0` disables delta:
    /// every version is a keyframe).
    pub fn stored_gb(checkpoints: u64, raw_gb: f64, k: u32) -> f64 {
        if k == 0 || checkpoints == 0 {
            return checkpoints as f64 * raw_gb * KEYFRAME_RATIO;
        }
        let keyframes = checkpoints.div_ceil(k as u64);
        let deltas = checkpoints - keyframes;
        keyframes as f64 * raw_gb * KEYFRAME_RATIO + deltas as f64 * raw_gb * DELTA_FRAME_RATIO
    }

    /// Bytes-on-disk reduction factor vs storing every version as a
    /// keyframe.
    pub fn reduction_vs_flat(checkpoints: u64, k: u32) -> f64 {
        let flat = checkpoints as f64 * KEYFRAME_RATIO;
        let delta = stored_gb(checkpoints, 1.0, k);
        if delta <= 0.0 {
            1.0
        } else {
            flat / delta
        }
    }

    /// Mean chain depth of a *random-access* restore under interval `k`
    /// (depths cycle 0..k−1 within each keyframe window).
    pub fn mean_chain_depth(k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            (k as f64 - 1.0) / 2.0
        }
    }

    /// Restore cost of one checkpoint of `raw_gb` through a chain of
    /// `depth` links: the keyframe read plus one decode per link. A
    /// sequential replay pays `depth ≈ 1` per restore (the store's
    /// per-block restore cache serves each delta's base); only random
    /// access pays [`mean_chain_depth`].
    pub fn restore_chain_secs(raw_gb: f64, depth: f64) -> f64 {
        read_cost::restore_read_secs(raw_gb) + depth * raw_gb * CHAIN_LINK_SECS_PER_GB
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
    pub usd_per_hour: f64,
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
    fn delta_storage_reduction_meets_the_acceptance_bar() {
        // The measured frame ratio at the default K=8 must model out to
        // the ≥3× bytes-on-disk reduction the store's tests hold.
        let r = delta_cost::reduction_vs_flat(32, 8);
        assert!(r >= 3.0, "modelled reduction {r:.2}");
        // More checkpoints between keyframes → more reduction; K=0 is flat.
        assert!(delta_cost::reduction_vs_flat(32, 16) > r);
        assert!((delta_cost::reduction_vs_flat(32, 0) - 1.0).abs() < 1e-9);
        // Table 4 style: a 39 GB run's checkpoints at K=8 store in well
        // under half the flat bytes, and the S3 bill shrinks with them.
        let flat = delta_cost::stored_gb(32, 39.0 / 32.0, 0);
        let chained = delta_cost::stored_gb(32, 39.0 / 32.0, 8);
        assert!(chained * 3.0 < flat);
        assert!(monthly_storage_usd(chained) * 3.0 < monthly_storage_usd(flat));
    }

    #[test]
    fn chain_restore_cost_stays_below_the_replay_budget() {
        use crate::workload::ALL_WORKLOADS;
        // Worst-case random-access restore (mean chain depth at K=8) must
        // stay a small correction to an epoch for every Table 3 workload —
        // the delta chains must not threaten the paper's replay-latency
        // story. (Sequential replay pays ~1 link via the restore cache.)
        let depth = delta_cost::mean_chain_depth(8);
        assert!((depth - 3.5).abs() < 1e-9);
        for w in ALL_WORKLOADS {
            // Sequential replay — the hot path, one link per restore via
            // the per-block restore cache — stays a small correction.
            let sequential = delta_cost::restore_chain_secs(w.compressed_ckpt_gb, 1.0);
            assert!(
                sequential < 0.10 * w.epoch_secs(),
                "{}: sequential chain restore {sequential:.3}s vs epoch {:.1}s",
                w.name,
                w.epoch_secs()
            );
            // Random access pays the mean chain walk; even the worst
            // Table 3 workload (RTE: GB-scale checkpoints, short epochs)
            // stays bounded — this is the number that justifies keyframes
            // every K=8 rather than unbounded chains.
            let worst = delta_cost::restore_chain_secs(w.compressed_ckpt_gb, depth);
            assert!(
                worst < 0.25 * w.epoch_secs(),
                "{}: random-access chain restore {worst:.3}s vs epoch {:.1}s",
                w.name,
                w.epoch_secs()
            );
            assert!(sequential < worst);
        }
    }

    #[test]
    fn serial_bill_arithmetic() {
        let bill = serial_bill(10.0);
        assert_eq!(bill.total_usd, 30.6);
        assert_eq!(bill.machines, 1);
    }
}
