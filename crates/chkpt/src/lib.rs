//! # flor-chkpt
//!
//! The checkpoint substrate for flor-rs: everything between "here is the
//! state a SkipBlock must memoize" and "the bytes are durably on disk".
//!
//! Reproduces three pieces of *Hindsight Logging for Model Training*
//! (Garcia et al., VLDB 2020):
//!
//! - **Serialization** (`codec`): a hand-rolled, versioned, tagged binary
//!   format standing in for `cloudpickle`. The paper's §5.1 microbenchmark
//!   found serialization ≈ 4.3× the cost of the disk write; `flor-bench`'s
//!   Figure 5 report prints the same split for its Baseline bar.
//! - **Background materialization** ([`background`]): the paper's fork()
//!   approach from Figure 5's design space — an O(1) snapshot handle on
//!   the training thread, serialize+compress+write in the background,
//!   batched. Rust has no GIL, so "fork" is realized as cheap `Arc`
//!   snapshot handles consumed by worker threads — same critical-path
//!   economics, different OS mechanism. The three strategies Figure 5
//!   compares it against (`Baseline`, `IpcQueue`, `Plasma`) are emulated
//!   over this one writer by `flor-bench`'s `fig05`.
//! - **Storage** ([`store`]): a segmented on-disk checkpoint store with
//!   one write layout, one LZ encoder at one fixed setting, and one read
//!   path — payloads packed into large append-only segment files with
//!   CRC-protected footer indexes, a sharded in-memory index, zero-copy
//!   [`store::CheckpointStore::get_bytes`] reads out of mmap'd segment
//!   buffers (with a counted, traced heap-read fallback where mapping is
//!   unavailable), a shared content-addressed dedup arena ([`dedup`]), and
//!   a compacting GC. Writes land through [`store::WriteBatch`] group
//!   commits — one batched segment append and one batched manifest append
//!   (and, under [`store::Durability::GroupCommit`], one fsync barrier)
//!   per materializer batch instead of per checkpoint. The S3 cost of
//!   keeping those bytes (Table 4) is priced by `flor-sim`'s cost model.

#![warn(missing_docs)]

pub mod background;
pub(crate) mod codec;
pub mod compress;
pub mod dedup;
pub mod delta;
pub mod exec;
mod mmap;
pub mod store;

pub use background::{Materializer, MaterializerStats, SerializeSnapshot};
pub use codec::{decode, encode, encode_into, ByteSource, CVal, CodecError, EncodePool, LazyBytes};
pub use dedup::DedupIndex;
pub use store::{
    write_dedup_pointer, CheckpointStore, CkptMeta, CompactionReport, Durability, ReadCursor,
    RecoveryReport, StoreError, StoreOptions, StoreStats, WriteBatch,
};

// Byte-buffer types used in the public API (`ByteSource::write_to`,
// `SerializeSnapshot::serialize_into`), re-exported so downstream crates
// don't need their own `bytes` dependency.
pub use bytes::{Buf, BufMut, Bytes, BytesMut};
