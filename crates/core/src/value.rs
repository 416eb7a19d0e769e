//! Runtime values and the ML object graph.
//!
//! FlorScript has Python reference semantics: objects ([`Obj`]) live behind
//! `Rc<RefCell<…>>`, so `optimizer = sgd(net, …)` makes the optimizer hold
//! the *same* model the variable `net` names. That aliasing is what makes
//! the paper's changeset augmentation load-bearing: `optimizer.step()`
//! really does mutate `net` through the shared reference (§5.2.1).
//!
//! Every value knows how to lower itself to a checkpointable [`CVal`]
//! (`snapshot`) and how to restore from one (`restore`). Restoration is
//! *in-place* for objects: replay re-executes the script preamble, so the
//! objects already exist with the right architecture and aliases; loading a
//! checkpoint only overwrites their state — exactly the paper's "applying
//! the side-effects to the program state". Production replay's preamble
//! takes its datasets and freshly initialized models from the seed-pinned
//! constructor memo (the private `ctors` module): copy-on-write copies of
//! templates built once per process. A restore converts each encoded tensor
//! straight into the slab its live tensor owns, and allocates a fresh one
//! only where the slab is still shared — the first restore after a memo
//! hit — just as a training step copies a shared slab before writing, so
//! no restore or step reaches a template.

use crate::error::{rt, FlorError};
use flor_chkpt::{ByteSource, BytesMut, CVal};
use flor_ml::metrics::Meter;
use flor_ml::swa::SwaAverager;
use flor_ml::{
    CrossEntropyLoss, DataLoader, Optimizer, Scheduler, Sequential, SlabLoads, StateDict,
    StateEntry, StateView, SyntheticClassification, SyntheticTokens,
};
use flor_tensor::Tensor;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Zero-copy tensor payload handle: holds the tensor's refcounted slab
/// (an `Arc` bump to create) and produces the `Tensor::to_bytes` encoding
/// only when the background materializer encodes the checkpoint. This is
/// what makes `snapshot()` O(#objects) on the training thread instead of
/// O(bytes) — the fork()-style handoff of the paper's Figure 5.
struct TensorPayload(Tensor);

impl ByteSource for TensorPayload {
    fn len(&self) -> usize {
        self.0.payload_len()
    }
    fn write_to(&self, buf: &mut BytesMut) {
        self.0.write_payload(buf);
    }
}

/// Lowers a tensor to a deferred checkpoint leaf without copying its slab.
fn tensor_cval(t: &Tensor) -> CVal {
    CVal::lazy(TensorPayload(t.clone()))
}

/// A FlorScript runtime value.
#[derive(Clone)]
pub enum Value {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Tensor (immutable value semantics).
    Tensor(Tensor),
    /// List (reference semantics, like Python).
    List(Rc<RefCell<Vec<Value>>>),
    /// Tuple (value semantics).
    Tuple(Vec<Value>),
    /// Heap object (model, optimizer, loader, …) with reference semantics.
    Obj(Rc<RefCell<Obj>>),
}

impl Value {
    /// Wraps an object.
    pub fn obj(o: Obj) -> Value {
        Value::Obj(Rc::new(RefCell::new(o)))
    }

    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    /// Truthiness, Python style.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(x) => *x != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Tensor(t) => t.numel() > 0,
            Value::List(l) => !l.borrow().is_empty(),
            Value::Tuple(t) => !t.is_empty(),
            Value::Obj(_) => true,
        }
    }

    /// Numeric view (ints widen to floats).
    pub fn as_f64(&self) -> Result<f64, FlorError> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            Value::Bool(b) => Ok(*b as i64 as f64),
            other => Err(rt(format!("expected a number, found {}", other.kind()))),
        }
    }

    /// Integer view.
    pub(crate) fn as_i64(&self) -> Result<i64, FlorError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(rt(format!("expected an integer, found {}", other.kind()))),
        }
    }

    /// Short type name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::None => "None",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Tensor(_) => "tensor",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::Obj(o) => o.borrow().kind(),
        }
    }

    /// Canonical display form — used by the log stream, so it must be
    /// deterministic. Floats use Rust's shortest-roundtrip formatting.
    pub fn display(&self) -> String {
        match self {
            Value::None => "None".into(),
            Value::Bool(true) => "True".into(),
            Value::Bool(false) => "False".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => format!("{x}"),
            Value::Str(s) => s.clone(),
            Value::Tensor(t) => format!("tensor{} norm={}", t.shape(), t.norm()),
            Value::List(l) => {
                let items: Vec<String> = l.borrow().iter().map(Value::display).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Tuple(t) => {
                let items: Vec<String> = t.iter().map(Value::display).collect();
                format!("({})", items.join(", "))
            }
            Value::Obj(o) => o.borrow().display(),
        }
    }

    /// Cheap estimate (no cloning) of the snapshot's byte size — the input
    /// to adaptive checkpointing's pre-materialization cost prediction.
    pub(crate) fn estimate_snapshot_bytes(&self) -> usize {
        match self {
            Value::None | Value::Bool(_) => 8,
            Value::Int(_) | Value::Float(_) => 16,
            Value::Str(s) => s.len() + 16,
            Value::Tensor(t) => t.numel() * 4 + 32,
            Value::List(items) => {
                items
                    .borrow()
                    .iter()
                    .map(Value::estimate_snapshot_bytes)
                    .sum::<usize>()
                    + 16
            }
            Value::Tuple(items) => {
                items
                    .iter()
                    .map(Value::estimate_snapshot_bytes)
                    .sum::<usize>()
                    + 16
            }
            Value::Obj(o) => match &*o.borrow() {
                Obj::Model(m) => m.numel() * 4 + 64,
                Obj::Optim { inner, .. } => inner.state_numel() * 4 + 64,
                Obj::Sched { .. } => 64,
                Obj::Dataset(_) => 16,
                Obj::Loader { .. } => 48,
                Obj::Loss(_) => 16,
                Obj::Swa(s) => s.average().map(|sd| sd.numel() * 4).unwrap_or(0) + 32,
                Obj::Meter(_) => 32,
                Obj::Batch(b) => b.x.numel() * 4 + b.y.len() * 8 + 32,
            },
        }
    }

    /// Lowers the value to a checkpointable tree.
    pub fn snapshot(&self) -> Result<CVal, FlorError> {
        Ok(match self {
            Value::None => CVal::map(vec![("t", CVal::Str("none".into()))]),
            Value::Bool(b) => {
                CVal::map(vec![("t", CVal::Str("bool".into())), ("v", CVal::Bool(*b))])
            }
            Value::Int(i) => CVal::map(vec![("t", CVal::Str("int".into())), ("v", CVal::I64(*i))]),
            Value::Float(x) => {
                CVal::map(vec![("t", CVal::Str("float".into())), ("v", CVal::F64(*x))])
            }
            Value::Str(s) => CVal::map(vec![
                ("t", CVal::Str("str".into())),
                ("v", CVal::Str(s.clone())),
            ]),
            Value::Tensor(t) => CVal::map(vec![
                ("t", CVal::Str("tensor".into())),
                ("v", tensor_cval(t)),
            ]),
            Value::List(items) => CVal::map(vec![
                ("t", CVal::Str("list".into())),
                (
                    "v",
                    CVal::List(
                        items
                            .borrow()
                            .iter()
                            .map(Value::snapshot)
                            .collect::<Result<_, _>>()?,
                    ),
                ),
            ]),
            Value::Tuple(items) => CVal::map(vec![
                ("t", CVal::Str("tuple".into())),
                (
                    "v",
                    CVal::List(
                        items
                            .iter()
                            .map(Value::snapshot)
                            .collect::<Result<_, _>>()?,
                    ),
                ),
            ]),
            Value::Obj(o) => {
                let obj = o.borrow();
                CVal::map(vec![
                    ("t", CVal::Str("obj".into())),
                    ("kind", CVal::Str(obj.kind().into())),
                    ("v", obj.snapshot()?),
                ])
            }
        })
    }

    /// Rebuilds a *plain* value from a snapshot, or — for object snapshots —
    /// restores in place into `existing` (which must be an aliasing-correct
    /// object created by re-executing the preamble).
    pub fn restore(cval: &CVal, existing: Option<&Value>) -> Result<Value, FlorError> {
        let tag = match cval.get("t") {
            Some(CVal::Str(s)) => s.as_str(),
            _ => return Err(rt("malformed value snapshot: missing tag")),
        };
        let v = cval.get("v");
        Ok(match tag {
            "none" => Value::None,
            "bool" => match v {
                Some(CVal::Bool(b)) => Value::Bool(*b),
                _ => return Err(rt("malformed bool snapshot")),
            },
            "int" => match v {
                Some(CVal::I64(i)) => Value::Int(*i),
                _ => return Err(rt("malformed int snapshot")),
            },
            "float" => match v {
                Some(CVal::F64(x)) => Value::Float(*x),
                _ => return Err(rt("malformed float snapshot")),
            },
            "str" => match v {
                Some(CVal::Str(s)) => Value::Str(s.clone()),
                _ => return Err(rt("malformed str snapshot")),
            },
            "tensor" => match v.and_then(CVal::as_bytes) {
                Some(b) => Value::Tensor(
                    Tensor::from_bytes(b.as_ref()).ok_or_else(|| rt("corrupt tensor snapshot"))?,
                ),
                None => return Err(rt("malformed tensor snapshot")),
            },
            "list" => match v {
                Some(CVal::List(items)) => Value::list(
                    items
                        .iter()
                        .map(|i| Value::restore(i, None))
                        .collect::<Result<_, _>>()?,
                ),
                _ => return Err(rt("malformed list snapshot")),
            },
            "tuple" => match v {
                Some(CVal::List(items)) => Value::Tuple(
                    items
                        .iter()
                        .map(|i| Value::restore(i, None))
                        .collect::<Result<_, _>>()?,
                ),
                _ => return Err(rt("malformed tuple snapshot")),
            },
            "obj" => {
                let payload = v.ok_or_else(|| rt("malformed object snapshot"))?;
                match existing {
                    Some(Value::Obj(o)) => {
                        o.borrow_mut().restore(payload)?;
                        existing.unwrap().clone()
                    }
                    Some(other) => {
                        return Err(rt(format!(
                            "cannot restore object snapshot into a {}",
                            other.kind()
                        )))
                    }
                    None => {
                        // Self-contained object kinds can be rebuilt from
                        // their snapshot alone; aliased kinds (model,
                        // optimizer, scheduler, loader) need the preamble to
                        // have re-created them with the right references.
                        let kind = match cval.get("kind") {
                            Some(CVal::Str(k)) => k.as_str(),
                            _ => return Err(rt("object snapshot missing kind")),
                        };
                        let mut obj = match kind {
                            "batch" => Obj::Batch(Batch {
                                x: Tensor::zeros([0]),
                                y: Vec::new(),
                            }),
                            "meter" => Obj::Meter(Meter::new()),
                            "loss" => Obj::Loss(CrossEntropyLoss::new()),
                            "swa" => Obj::Swa(SwaAverager::new()),
                            other => {
                                return Err(rt(format!(
                                    "cannot restore a {other} without an existing object \
                                     (aliased kinds are re-created by re-executing the preamble)"
                                )))
                            }
                        };
                        obj.restore(payload)?;
                        Value::obj(obj)
                    }
                }
            }
            other => return Err(rt(format!("unknown snapshot tag {other:?}"))),
        })
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

/// A mini-batch: features plus integer targets.
#[derive(Clone)]
pub struct Batch {
    /// Features `[batch, …]` (or token ids for text models).
    pub x: Tensor,
    /// Target classes.
    pub y: Vec<usize>,
}

/// The dataset variants scripts can build.
#[derive(Clone)]
pub enum DatasetObj {
    /// Gaussian-mixture classification features.
    Classification(SyntheticClassification),
    /// Token-sequence classification.
    Tokens(SyntheticTokens),
}

impl DatasetObj {
    /// Number of examples.
    pub fn len(&self) -> usize {
        match self {
            DatasetObj::Classification(d) => d.len(),
            DatasetObj::Tokens(d) => d.len(),
        }
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the examples at `indices`.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        let (x, y) = match self {
            DatasetObj::Classification(d) => d.gather(indices),
            DatasetObj::Tokens(d) => d.gather(indices),
        };
        Batch { x, y }
    }
}

/// Heap objects: the ML library surface bound into the interpreter.
pub enum Obj {
    /// A neural network.
    Model(Sequential),
    /// An optimizer; holds a *reference* to its model (the aliasing edge the
    /// changeset augmentation follows).
    Optim {
        /// The optimizer implementation.
        inner: Box<dyn Optimizer>,
        /// The model this optimizer mutates.
        model: Rc<RefCell<Obj>>,
    },
    /// A learning-rate scheduler; holds a reference to its optimizer.
    Sched {
        /// The schedule implementation.
        inner: Box<dyn Scheduler>,
        /// The optimizer this scheduler mutates.
        optimizer: Rc<RefCell<Obj>>,
    },
    /// A dataset (immutable after construction — snapshot is empty).
    Dataset(DatasetObj),
    /// A shuffling data loader over a dataset; its RNG words are state.
    Loader {
        /// Batching/shuffling machinery.
        inner: DataLoader,
        /// The dataset batches are gathered from.
        dataset: Rc<RefCell<Obj>>,
    },
    /// Cross-entropy criterion (transient caches only — snapshot is empty).
    Loss(CrossEntropyLoss),
    /// Stochastic weight averaging state.
    Swa(SwaAverager),
    /// Running-average meter.
    Meter(Meter),
    /// A mini-batch (loop-scoped in practice).
    Batch(Batch),
}

impl Obj {
    /// Short kind name (used in snapshots and diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Obj::Model(_) => "model",
            Obj::Optim { .. } => "optimizer",
            Obj::Sched { .. } => "scheduler",
            Obj::Dataset(_) => "dataset",
            Obj::Loader { .. } => "loader",
            Obj::Loss(_) => "loss",
            Obj::Swa(_) => "swa",
            Obj::Meter(_) => "meter",
            Obj::Batch(_) => "batch",
        }
    }

    fn display(&self) -> String {
        match self {
            Obj::Model(m) => format!("<model {} params={}>", m.name(), m.numel()),
            Obj::Optim { inner, .. } => format!("<optimizer lr={}>", inner.lr()),
            Obj::Sched { inner, .. } => format!("<scheduler lr={}>", inner.current_lr()),
            Obj::Dataset(d) => format!("<dataset n={}>", d.len()),
            Obj::Loader { inner, .. } => {
                format!("<loader batches={}>", inner.batches_per_epoch())
            }
            Obj::Loss(_) => "<cross_entropy>".into(),
            Obj::Swa(s) => format!("<swa count={}>", s.count()),
            Obj::Meter(m) => format!("<meter mean={}>", m.mean()),
            Obj::Batch(b) => format!("<batch size={}>", b.y.len()),
        }
    }

    /// Serializes the object's mutable state.
    pub fn snapshot(&self) -> Result<CVal, FlorError> {
        Ok(match self {
            Obj::Model(m) => state_dict_to_cval(&m.state_dict()),
            Obj::Optim { inner, .. } => state_dict_to_cval(&inner.state_dict()),
            Obj::Sched { inner, .. } => state_dict_to_cval(&inner.state_dict()),
            Obj::Dataset(_) => CVal::Unit, // deterministic, reconstructed by preamble
            Obj::Loader { inner, .. } => {
                let (s, i) = inner.rng_state();
                CVal::map(vec![
                    ("rng_state", CVal::I64(s as i64)),
                    ("rng_inc", CVal::I64(i as i64)),
                ])
            }
            Obj::Loss(_) => CVal::Unit, // per-step caches never cross a block boundary
            Obj::Swa(s) => {
                let avg = match s.average() {
                    Some(sd) => state_dict_to_cval(sd),
                    None => CVal::Unit,
                };
                CVal::map(vec![("count", CVal::I64(s.count() as i64)), ("avg", avg)])
            }
            Obj::Meter(m) => CVal::map(vec![
                ("mean", CVal::F64(m.mean() as f64)),
                ("count", CVal::I64(m.count() as i64)),
            ]),
            Obj::Batch(b) => CVal::map(vec![
                ("x", tensor_cval(&b.x)),
                (
                    "y",
                    CVal::List(b.y.iter().map(|&c| CVal::I64(c as i64)).collect()),
                ),
            ]),
        })
    }

    /// Restores the object's mutable state in place: a model's parameters
    /// and an optimizer's moments load into the slabs they own
    /// (`replay.restore_slabs_{reused,allocated}` count how).
    pub fn restore(&mut self, cval: &CVal) -> Result<(), FlorError> {
        match self {
            Obj::Model(m) => with_state_view(cval, |v| m.load_state_dict(v))?,
            Obj::Optim { inner, .. } => with_state_view(cval, |v| inner.load_state_dict(v))?,
            Obj::Sched { inner, .. } => with_state_view(cval, |v| {
                inner.load_state_dict(v).map(|()| SlabLoads::default())
            })?,
            Obj::Dataset(_) => {}
            Obj::Loader { inner, .. } => {
                let s = cval
                    .get("rng_state")
                    .and_then(|v| match v {
                        CVal::I64(i) => Some(*i as u64),
                        _ => None,
                    })
                    .ok_or_else(|| rt("malformed loader snapshot"))?;
                let i = cval
                    .get("rng_inc")
                    .and_then(|v| match v {
                        CVal::I64(i) => Some(*i as u64),
                        _ => None,
                    })
                    .ok_or_else(|| rt("malformed loader snapshot"))?;
                inner.restore_rng(s, i);
            }
            Obj::Loss(_) => {}
            Obj::Swa(s) => {
                let count = match cval.get("count") {
                    Some(CVal::I64(c)) => *c as u32,
                    _ => return Err(rt("malformed swa snapshot")),
                };
                let avg = match cval.get("avg") {
                    Some(CVal::Unit) | None => None,
                    Some(m) => Some(cval_to_state_dict(m)?),
                };
                *s = SwaAverager::restore(count, avg);
            }
            Obj::Meter(m) => {
                let mean = match cval.get("mean") {
                    Some(CVal::F64(x)) => *x as f32,
                    _ => return Err(rt("malformed meter snapshot")),
                };
                let count = match cval.get("count") {
                    Some(CVal::I64(c)) => *c as u64,
                    _ => return Err(rt("malformed meter snapshot")),
                };
                *m = Meter::restore(mean, count);
            }
            Obj::Batch(b) => {
                let x = match cval.get("x").and_then(CVal::as_bytes) {
                    Some(bytes) => Tensor::from_bytes(bytes.as_ref())
                        .ok_or_else(|| rt("corrupt batch tensor"))?,
                    None => return Err(rt("malformed batch snapshot")),
                };
                let y = match cval.get("y") {
                    Some(CVal::List(items)) => items
                        .iter()
                        .map(|i| match i {
                            CVal::I64(c) => Ok(*c as usize),
                            _ => Err(rt("malformed batch targets")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(rt("malformed batch snapshot")),
                };
                *b = Batch { x, y };
            }
        }
        Ok(())
    }
}

/// StateDict → CVal map of tensor bytes.
pub(crate) fn state_dict_to_cval(sd: &StateDict) -> CVal {
    CVal::Map(
        sd.iter()
            .map(|(name, t)| (name.to_string(), tensor_cval(t)))
            .collect(),
    )
}

/// Runs `load` over a state-dict snapshot (a map of encoded tensors) read
/// where it lies — each entry a slice of the decoded payload — and counts
/// how the load placed its tensors.
fn with_state_view(
    cval: &CVal,
    load: impl FnOnce(&StateView<'_>) -> Result<SlabLoads, String>,
) -> Result<(), FlorError> {
    let CVal::Map(pairs) = cval else {
        return Err(rt("state dict snapshot must be a map"));
    };
    let leaves = pairs
        .iter()
        .map(|(name, v)| match v.as_bytes() {
            Some(b) => Ok((name.as_str(), b)),
            None => Err(rt(format!("non-tensor entry {name:?} in state dict"))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut view = StateView::new();
    for (name, bytes) in &leaves {
        view.push(name, StateEntry::Encoded(bytes.as_ref()));
    }
    let loads = load(&view).map_err(rt)?;
    flor_obs::counter!("replay.restore_slabs_reused").add(loads.reused);
    flor_obs::counter!("replay.restore_slabs_allocated").add(loads.allocated);
    Ok(())
}

/// CVal map of tensor bytes → StateDict.
pub(crate) fn cval_to_state_dict(cval: &CVal) -> Result<StateDict, FlorError> {
    match cval {
        CVal::Map(pairs) => {
            let mut sd = StateDict::new();
            for (name, v) in pairs {
                match v.as_bytes() {
                    Some(b) => {
                        let t = Tensor::from_bytes(b.as_ref())
                            .ok_or_else(|| rt(format!("corrupt tensor for {name:?}")))?;
                        sd.insert(name.clone(), t);
                    }
                    None => return Err(rt(format!("non-tensor entry {name:?} in state dict"))),
                }
            }
            Ok(sd)
        }
        _ => Err(rt("state dict snapshot must be a map")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_ml::models::mlp;
    use flor_ml::Sgd;
    use flor_tensor::Pcg64;

    #[test]
    fn plain_value_snapshot_roundtrip() {
        for v in [
            Value::None,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Str("hello".into()),
            Value::Tensor(Tensor::from_slice(&[1.0, 2.0])),
            Value::Tuple(vec![Value::Int(1), Value::Str("a".into())]),
        ] {
            let snap = v.snapshot().unwrap();
            let back = Value::restore(&snap, None).unwrap();
            assert_eq!(v.display(), back.display());
        }
    }

    #[test]
    fn list_snapshot_roundtrip() {
        let v = Value::list(vec![Value::Int(1), Value::Float(2.5)]);
        let back = Value::restore(&v.snapshot().unwrap(), None).unwrap();
        assert_eq!(back.display(), "[1, 2.5]");
    }

    #[test]
    fn model_snapshot_restores_weights_in_place() {
        let mut rng = Pcg64::seeded(1);
        let m1 = mlp(4, 8, 2, 1, &mut rng);
        let v1 = Value::obj(Obj::Model(m1));
        let snap = v1.snapshot().unwrap();

        let mut rng2 = Pcg64::seeded(2);
        let m2 = mlp(4, 8, 2, 1, &mut rng2);
        let v2 = Value::obj(Obj::Model(m2));
        // Different seeds → different weights.
        assert_ne!(v1.snapshot().unwrap(), v2.snapshot().unwrap());

        let restored = Value::restore(&snap, Some(&v2)).unwrap();
        assert_eq!(restored.snapshot().unwrap(), snap);
        // Restoration is in place: v2 itself changed.
        assert_eq!(v2.snapshot().unwrap(), snap);
    }

    /// What zero-copy means, checked without a clock: a model snapshot's
    /// tensor leaves hold the parameters' slabs, so the training step's
    /// next write to a parameter copies it first (copy-on-write) and the
    /// snapshot keeps the bytes it was taken from. Deep-copied leaves would
    /// leave the parameters' slabs unshared, and the write would land in
    /// place.
    #[test]
    fn zero_copy_leaves_share_the_training_slabs() {
        let mut rng = Pcg64::seeded(1);
        let model = mlp(4, 8, 2, 1, &mut rng);
        let before: Vec<(String, Vec<u8>)> = model
            .state_dict()
            .iter()
            .map(|(name, t)| (name.to_string(), t.to_bytes()))
            .collect();
        let v = Value::obj(Obj::Model(model));
        let snap = v.snapshot().unwrap();
        let Value::Obj(obj) = &v else { unreachable!() };
        let Obj::Model(m) = &mut *obj.borrow_mut() else {
            unreachable!()
        };
        let mut params = 0;
        m.visit_params_mut(&mut |p| {
            let slab = p.value.data().as_ptr();
            p.value.data_mut()[0] += 1.0;
            assert_ne!(
                p.value.data().as_ptr(),
                slab,
                "{}: written in place",
                p.name
            );
            params += 1;
        });
        assert_eq!(params, before.len());
        let tree = flor_chkpt::decode(flor_chkpt::encode(&snap)).unwrap();
        let state = tree.get("v").unwrap();
        for (name, bytes) in &before {
            let leaf = state.get(name).unwrap().as_bytes().unwrap();
            assert_eq!(
                leaf.to_vec(),
                *bytes,
                "{name}: the snapshot keeps its bytes"
            );
        }
    }

    #[test]
    fn two_restores_into_an_unshared_model_keep_its_parameter_slabs() {
        let payload = |seed| {
            let m = mlp(4, 8, 2, 1, &mut Pcg64::seeded(seed));
            let snap = Value::obj(Obj::Model(m)).snapshot().unwrap();
            // As a restore reads it: decoded, every leaf a payload slice.
            flor_chkpt::decode(flor_chkpt::encode(&snap)).unwrap()
        };
        let v = Value::obj(Obj::Model(mlp(4, 8, 2, 1, &mut Pcg64::seeded(1))));
        let Value::Obj(obj) = &v else { unreachable!() };
        let slabs = || {
            let Obj::Model(m) = &*obj.borrow() else {
                unreachable!()
            };
            let mut ptrs = Vec::new();
            m.visit_params(&mut |p| ptrs.push(p.value.data().as_ptr()));
            ptrs
        };
        let before = slabs();
        for seed in [2, 3] {
            let snap = payload(seed);
            Value::restore(&snap, Some(&v)).unwrap();
            assert_eq!(
                v.snapshot().unwrap(),
                snap,
                "restore {seed} loaded the payload"
            );
            assert_eq!(slabs(), before, "restore {seed} kept every parameter slab");
        }
    }

    #[test]
    fn object_snapshot_without_existing_fails() {
        let mut rng = Pcg64::seeded(1);
        let v = Value::obj(Obj::Model(mlp(4, 8, 2, 1, &mut rng)));
        let snap = v.snapshot().unwrap();
        assert!(Value::restore(&snap, None).is_err());
    }

    #[test]
    fn optimizer_aliases_model() {
        let mut rng = Pcg64::seeded(3);
        let model_rc = Rc::new(RefCell::new(Obj::Model(mlp(4, 8, 2, 1, &mut rng))));
        let opt = Obj::Optim {
            inner: Box::new(Sgd::new(0.1, 0.0, 0.0)),
            model: model_rc.clone(),
        };
        // Mutating through the optimizer's reference is visible via the
        // original handle.
        if let Obj::Optim { model, .. } = &opt {
            if let Obj::Model(m) = &mut *model.borrow_mut() {
                m.visit_params_mut(&mut |p| p.value.map_inplace(|_| 9.0));
            }
        }
        let guard = model_rc.borrow();
        if let Obj::Model(m) = &*guard {
            let mut all_nine = true;
            m.visit_params(&mut |p| all_nine &= p.value.data().iter().all(|&x| x == 9.0));
            assert!(all_nine);
        }
    }

    #[test]
    fn loader_snapshot_restores_rng() {
        let rng = Pcg64::seeded(4);
        let data = SyntheticClassification::generate(20, 4, 2, 0.3, 7);
        let ds = Rc::new(RefCell::new(Obj::Dataset(DatasetObj::Classification(data))));
        let mut loader = Obj::Loader {
            inner: DataLoader::new(20, 4, 7),
            dataset: ds,
        };
        // Advance, snapshot, advance again, restore, re-advance.
        let _ = rng; // unused
        let (e1, snap, e2) = if let Obj::Loader { inner, .. } = &mut loader {
            let e1 = inner.next_epoch();
            let snap = loader.snapshot().unwrap();
            let (e2,) = if let Obj::Loader { inner, .. } = &mut loader {
                (inner.next_epoch(),)
            } else {
                unreachable!()
            };
            (e1, snap, e2)
        } else {
            unreachable!()
        };
        assert_ne!(e1, e2);
        loader.restore(&snap).unwrap();
        if let Obj::Loader { inner, .. } = &mut loader {
            assert_eq!(inner.next_epoch(), e2, "restored RNG must replay epoch 2");
        }
    }

    #[test]
    fn truthiness() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(1).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
    }

    #[test]
    fn display_is_deterministic() {
        let v = Value::Float(0.1 + 0.2);
        assert_eq!(v.display(), Value::Float(0.1 + 0.2).display());
    }
}
