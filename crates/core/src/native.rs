//! The native Rust API: hindsight logging for Rust programs.
//!
//! The script layer reproduces the paper's zero-friction Python story; this
//! module is what a downstream *Rust* user would actually embed. The shape
//! is the same — wrap your expensive loop bodies in [`Session::skip_block`],
//! declare the state they mutate via [`Checkpointable`], and log through
//! [`Session::log`]:
//!
//! ```
//! use flor_core::native::{Checkpointable, Session, SessionKind};
//! use flor_chkpt::CVal;
//!
//! struct Weights(Vec<f64>);
//! impl Checkpointable for Weights {
//!     fn to_cval(&self) -> CVal {
//!         CVal::List(self.0.iter().map(|&x| CVal::F64(x)).collect())
//!     }
//!     fn from_cval(&mut self, v: &CVal) -> Result<(), String> {
//!         match v {
//!             CVal::List(xs) => {
//!                 self.0 = xs.iter().map(|x| match x {
//!                     CVal::F64(f) => Ok(*f),
//!                     _ => Err("bad entry".to_string()),
//!                 }).collect::<Result<_, _>>()?;
//!                 Ok(())
//!             }
//!             _ => Err("expected list".into()),
//!         }
//!     }
//! }
//!
//! let dir = std::env::temp_dir().join(format!("flor-native-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut state = Weights(vec![0.0; 4]);
//!
//! // Record: the block executes and its end state is checkpointed.
//! // (`record_with(…, false)` disables adaptivity so this toy block — whose
//! // compute time is negligible — is still checkpointed every iteration.)
//! let mut session = Session::record_with(&dir, 1.0 / 15.0, false).unwrap();
//! for epoch in 0..3 {
//!     session.begin_iter(epoch);
//!     session.skip_block("train", &mut state, |w| {
//!         for x in &mut w.0 { *x += 1.0; }
//!     }).unwrap();
//!     session.log("epoch", &format!("{epoch}"));
//! }
//! session.finish().unwrap();
//!
//! // Replay, unprobed: blocks restore from checkpoints instead of running.
//! let mut state2 = Weights(vec![0.0; 4]);
//! let mut session = Session::replay(&dir, &[]).unwrap();
//! for epoch in 0..3 {
//!     session.begin_iter(epoch);
//!     let ran = session.skip_block("train", &mut state2, |w| {
//!         for x in &mut w.0 { *x += 1.0; }
//!     }).unwrap();
//!     assert!(!ran, "unprobed block must restore, not execute");
//! }
//! assert_eq!(state2.0, vec![3.0; 4]);
//! ```
//!
//! Unlike a script replay, a native session runs no deferred correctness
//! check, and its store holds checkpoints only: no source, no record log.
//! The caller gets each session's log back from [`Session::finish`] and
//! compares or keeps it as it sees fit.

use crate::adaptive::{AdaptiveController, DEFAULT_EPSILON};
use crate::error::{rt, FlorError};
use crate::logstream::{LogEntry, LogStream, Section};
use crate::skipblock::next_seq;
use flor_chkpt::{
    encode, encode_into, BytesMut, CVal, CheckpointStore, Materializer, SerializeSnapshot,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// State a native SkipBlock can memoize.
pub trait Checkpointable {
    /// Lowers the state to a checkpointable tree.
    fn to_cval(&self) -> CVal;
    /// Restores the state from a tree produced by `to_cval`.
    #[allow(clippy::wrong_self_convention)]
    fn from_cval(&mut self, v: &CVal) -> Result<(), String>;
}

/// Whether a session records or replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Executing and checkpointing.
    Record,
    /// Restoring-or-executing against an existing store.
    Replay,
}

struct NativeSnapshot(CVal);

impl SerializeSnapshot for NativeSnapshot {
    fn serialize(&self) -> Vec<u8> {
        encode(&self.0)
    }
    fn serialize_into(&self, buf: &mut BytesMut) {
        encode_into(&self.0, buf);
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
}

/// A native hindsight-logging session.
pub struct Session {
    kind: SessionKind,
    store: Arc<CheckpointStore>,
    materializer: Option<Materializer>,
    controller: AdaptiveController,
    probed: Vec<String>,
    log: LogStream,
    iter: Option<u64>,
    standalone_seq: HashMap<String, u64>,
    /// Blocks already executed in the current iteration.
    blocks_this_iter: HashSet<String>,
    restored: u64,
    executed: u64,
}

impl Session {
    /// Opens a record session rooted at `dir` with adaptive checkpointing
    /// (Eq. 4 may skip checkpoints for blocks whose compute time does not
    /// dominate their state size — replay then re-executes those blocks,
    /// which is still correct, just slower).
    pub fn record(dir: impl AsRef<Path>) -> Result<Self, FlorError> {
        Self::record_with(dir, DEFAULT_EPSILON, true)
    }

    /// Opens a record session with explicit controls. `adaptive = false`
    /// checkpoints every block execution regardless of cost (useful when
    /// deterministic restore behaviour matters more than record overhead).
    pub fn record_with(
        dir: impl AsRef<Path>,
        epsilon: f64,
        adaptive: bool,
    ) -> Result<Self, FlorError> {
        let store = Arc::new(CheckpointStore::open(dir.as_ref())?);
        let mut controller = AdaptiveController::new(epsilon);
        if !adaptive {
            controller = controller.with_adaptivity_disabled();
        }
        Ok(Session {
            kind: SessionKind::Record,
            store: store.clone(),
            materializer: Some(Materializer::new(store, 2)),
            controller,
            probed: Vec::new(),
            log: LogStream::new(),
            iter: None,
            standalone_seq: HashMap::new(),
            blocks_this_iter: HashSet::new(),
            restored: 0,
            executed: 0,
        })
    }

    /// Opens a replay session against an existing store. `probed` names the
    /// blocks whose internals you want to observe — they will re-execute;
    /// everything else restores from checkpoints.
    pub fn replay(dir: impl AsRef<Path>, probed: &[&str]) -> Result<Self, FlorError> {
        let store = Arc::new(CheckpointStore::open(dir.as_ref())?);
        Ok(Session {
            kind: SessionKind::Replay,
            store,
            materializer: None,
            controller: AdaptiveController::new(DEFAULT_EPSILON),
            probed: probed.iter().map(|s| s.to_string()).collect(),
            log: LogStream::new(),
            iter: None,
            standalone_seq: HashMap::new(),
            blocks_this_iter: HashSet::new(),
            restored: 0,
            executed: 0,
        })
    }

    /// Marks the start of main-loop iteration `g` (sequence numbers and log
    /// sections follow it).
    pub fn begin_iter(&mut self, g: u64) {
        self.iter = Some(g);
        self.blocks_this_iter.clear();
        self.log.set_section(Section::Iter(g));
    }

    /// Marks the end of the main loop.
    pub fn end_loop(&mut self) {
        self.iter = None;
        self.log.set_section(Section::Post);
    }

    /// Appends to the session log.
    pub fn log(&mut self, key: &str, value: &str) {
        self.log.log(key, value);
    }

    /// Runs (or restores) a SkipBlock over `state`. Returns `true` if the
    /// body executed, `false` if the state was restored from a checkpoint.
    /// Sequenced like the interpreter's SkipBlocks: running one block
    /// twice in one iteration is an error.
    pub fn skip_block<S: Checkpointable>(
        &mut self,
        id: &str,
        state: &mut S,
        body: impl FnOnce(&mut S),
    ) -> Result<bool, FlorError> {
        let seq = next_seq(
            self.iter,
            &mut self.standalone_seq,
            &mut self.blocks_this_iter,
            id,
        )?;
        match self.kind {
            SessionKind::Record => {
                let t0 = flor_obs::clock::now_ns();
                body(state);
                let compute_ns = flor_obs::clock::since_ns(t0);
                let cval = state.to_cval();
                let bytes = cval.approx_bytes() as u64;
                let est = self.controller.estimate_materialize_ns(id, bytes);
                if self.controller.should_materialize(id, compute_ns, est) {
                    let t1 = flor_obs::clock::now_ns();
                    let mat = self
                        .materializer
                        .as_ref()
                        .expect("record session has a materializer");
                    mat.submit(id, seq, Arc::new(NativeSnapshot(cval)));
                    self.controller.observe_materialize(
                        id,
                        flor_obs::clock::since_ns(t1).max(1),
                        bytes,
                    );
                }
                self.executed += 1;
                Ok(true)
            }
            SessionKind::Replay => {
                let probed = self.probed.iter().any(|p| p == id);
                if !probed && self.store.contains(id, seq) {
                    let t0 = flor_obs::clock::now_ns();
                    let cval = flor_chkpt::decode(self.store.get_bytes(id, seq)?)?;
                    state.from_cval(&cval).map_err(rt)?;
                    self.controller
                        .observe_restore(id, flor_obs::clock::since_ns(t0));
                    self.restored += 1;
                    Ok(false)
                } else {
                    body(state);
                    self.executed += 1;
                    Ok(true)
                }
            }
        }
    }

    /// Blocks restored so far.
    pub fn restored(&self) -> u64 {
        self.restored
    }

    /// Blocks executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Entries logged so far.
    pub fn entries(&self) -> &[LogEntry] {
        self.log.entries()
    }

    /// Finishes the session: flushes background writes (record). Returns
    /// the session's log — the only copy, since nothing but checkpoints is
    /// stored — or the first checkpoint write that failed.
    pub fn finish(mut self) -> Result<Vec<LogEntry>, FlorError> {
        if let Some(mat) = self.materializer.take() {
            mat.flush().map_err(rt)?;
        }
        Ok(self.log.into_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(i64);

    impl Checkpointable for Counter {
        fn to_cval(&self) -> CVal {
            CVal::I64(self.0)
        }
        fn from_cval(&mut self, v: &CVal) -> Result<(), String> {
            match v {
                CVal::I64(x) => {
                    self.0 = *x;
                    Ok(())
                }
                _ => Err("expected i64".into()),
            }
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flor-native-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record_run(dir: &std::path::Path, epochs: u64) -> Vec<LogEntry> {
        let mut state = Counter(0);
        // Adaptivity off: the toy blocks are far cheaper than any
        // checkpoint, and these tests assert deterministic restores.
        let mut s = Session::record_with(dir, 1.0 / 15.0, false).unwrap();
        for g in 0..epochs {
            s.begin_iter(g);
            s.skip_block("train", &mut state, |c| c.0 += 10).unwrap();
            s.log("count", &state.0.to_string());
        }
        s.end_loop();
        s.log("final", &state.0.to_string());
        s.finish().unwrap()
    }

    #[test]
    fn record_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let rec_log = record_run(&dir, 5);

        let mut state = Counter(0);
        let mut s = Session::replay(&dir, &[]).unwrap();
        for g in 0..5 {
            s.begin_iter(g);
            let ran = s.skip_block("train", &mut state, |c| c.0 += 10).unwrap();
            assert!(!ran);
            s.log("count", &state.0.to_string());
        }
        s.end_loop();
        s.log("final", &state.0.to_string());
        assert_eq!(s.restored(), 5);
        let rep_log = s.finish().unwrap();
        assert_eq!(rec_log, rep_log);
    }

    #[test]
    fn probed_block_executes_on_replay() {
        let dir = tmpdir("probed");
        record_run(&dir, 3);
        let mut state = Counter(0);
        let mut s = Session::replay(&dir, &["train"]).unwrap();
        for g in 0..3 {
            s.begin_iter(g);
            let ran = s.skip_block("train", &mut state, |c| c.0 += 10).unwrap();
            assert!(ran, "probed block must execute");
        }
        assert_eq!(state.0, 30);
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn missing_checkpoints_fall_back_to_execution() {
        let dir = tmpdir("fresh");
        let mut state = Counter(0);
        let mut s = Session::replay(&dir, &[]).unwrap();
        s.begin_iter(0);
        let ran = s
            .skip_block("never_recorded", &mut state, |c| c.0 = 7)
            .unwrap();
        assert!(ran);
        assert_eq!(state.0, 7);
    }

    #[test]
    fn standalone_blocks_sequence_independently() {
        let dir = tmpdir("standalone");
        let mut state = Counter(0);
        let mut s = Session::record_with(&dir, 1.0 / 15.0, false).unwrap();
        // No begin_iter: standalone sequencing.
        s.skip_block("pre", &mut state, |c| c.0 += 1).unwrap();
        s.skip_block("pre", &mut state, |c| c.0 += 1).unwrap();
        s.finish().unwrap();

        let mut state2 = Counter(0);
        let mut s = Session::replay(&dir, &[]).unwrap();
        s.skip_block("pre", &mut state2, |c| c.0 += 1).unwrap();
        s.skip_block("pre", &mut state2, |c| c.0 += 1).unwrap();
        assert_eq!(state2.0, 2);
        assert_eq!(s.restored(), 2);
    }

    #[test]
    fn a_block_runs_at_most_once_per_iteration() {
        let mut state = Counter(0);
        let mut s = Session::record_with(tmpdir("twice"), 1.0 / 15.0, false).unwrap();
        s.begin_iter(0);
        s.skip_block("train", &mut state, |c| c.0 += 1).unwrap();
        let err = s.skip_block("train", &mut state, |c| c.0 += 1).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
        assert_eq!(state.0, 1, "the refused execution must not run");
        // The next iteration starts a fresh set.
        s.begin_iter(1);
        s.skip_block("train", &mut state, |c| c.0 += 1).unwrap();
        s.finish().unwrap();
    }

    #[test]
    fn a_failed_background_write_fails_finish() {
        let dir = tmpdir("write-fail");
        let mut state = Counter(0);
        let mut s = Session::record_with(&dir, 1.0 / 15.0, false).unwrap();
        // No segment can be created once `seg/` is a regular file.
        std::fs::remove_dir_all(dir.join("seg")).unwrap();
        std::fs::write(dir.join("seg"), b"not a directory").unwrap();
        s.begin_iter(0);
        s.skip_block("train", &mut state, |c| c.0 += 1).unwrap();
        let err = s.finish().unwrap_err();
        assert!(err.to_string().contains("train.0"), "{err}");
    }
}
