//! Open-time knobs and the store's tuning constants.

/// When the put path reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Writes are buffered by the OS; no fsync on the put path (the
    /// default — record-phase overhead is the paper's protected quantity).
    #[default]
    Buffered,
    /// Each [`WriteBatch::commit`](super::WriteBatch::commit) fsyncs its
    /// segment appends, then the manifest and its directory once per
    /// batch. Durable up to the last committed batch, at an amortized cost
    /// of one barrier per batch instead of one per checkpoint.
    GroupCommit,
}

/// Open-time knobs. [`StoreOptions::default`] is a buffered store with an
/// 8 MiB segment roll target and delta chains of at most 8 versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Put-path durability policy.
    pub durability: Durability,
    /// Roll the active segment once it grows past this many bytes.
    pub segment_target_bytes: u64,
    /// Inspect without mutating anything on disk: open-time recovery only
    /// *reports* (no manifest repair — clobbering the MANIFEST inode would
    /// sever a concurrent writer process's kept-open appender), and every
    /// write API returns [`StoreError::ReadOnly`](super::StoreError::ReadOnly).
    /// This is what operator tooling (`flor store stats`) uses to stay
    /// safe against a store another process is recording into.
    pub read_only: bool,
    /// Delta-chain keyframe interval K: a checkpoint may be stored as a
    /// [`crate::delta`] frame against the previous version of the same
    /// block only while its chain depth stays below K, so every K-th
    /// version is a full keyframe and a restore resolves at most K − 1
    /// links. `0` disables delta encoding entirely (every checkpoint is a
    /// keyframe).
    pub delta_keyframe_interval: u32,
    /// Payloads below this size are never delta-encoded (the frame header
    /// and the chain walk aren't worth it, and tiny payloads compress or
    /// store raw just fine).
    pub delta_min_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            durability: Durability::default(),
            segment_target_bytes: DEFAULT_SEGMENT_TARGET_BYTES,
            read_only: false,
            delta_keyframe_interval: DEFAULT_DELTA_KEYFRAME_INTERVAL,
            delta_min_bytes: DEFAULT_DELTA_MIN_BYTES,
        }
    }
}

/// Default segment roll threshold.
pub(crate) const DEFAULT_SEGMENT_TARGET_BYTES: u64 = 8 * 1024 * 1024;
/// Default delta keyframe interval (chain length bound).
pub(crate) const DEFAULT_DELTA_KEYFRAME_INTERVAL: u32 = 8;
/// Default minimum payload size for delta encoding.
pub(crate) const DEFAULT_DELTA_MIN_BYTES: u64 = 1024;
