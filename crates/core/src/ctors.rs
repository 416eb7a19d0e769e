//! The seed-pinned constructors, and production replay's memo of them.
//!
//! `synth_data`, `token_data`, `mlp`, `resnet`, `convnet`, `textnet` and
//! `finetune` build a dataset or a freshly initialized model whose
//! content is a pure function of the builtin, its arguments and its seed
//! (an unseeded call takes the interpreter's next counter seed). Replay
//! re-executes the preamble — the paper's "imports + data loading" (§5.4)
//! — only to create the objects its restores then overwrite in place
//! ([`crate::value`]), so a process answering many queries over one run
//! would generate the same data and initial weights for every query.
//!
//! Production replay looks each call up in one process-wide table keyed
//! by the builtin's name, every resolved argument and the resolved seed,
//! and hands out a copy of the stored template. Tensors are refcounted
//! copy-on-write slabs, so the copy costs refcount bumps, and whatever
//! later writes through it — a restore replacing a parameter, an
//! optimizer step, `zero_grad` — leaves the template as it was built. A
//! hit still advances the interpreter's seed counter, as a build does.
//!
//! Vanilla runs, record and [`replay_reference`](crate::replay::replay_reference)
//! always build fresh: the oracle shares nothing with the path it checks,
//! and a recording keeps no second copy of its initial weights.
//!
//! The table holds at most [`MEMO_BUDGET_BYTES`] of templates (values and
//! gradients of every parameter, a dataset's examples and labels); an
//! insert past the budget evicts the least recently used templates first,
//! and a template larger than the whole budget is never kept.

use crate::error::FlorError;
use crate::interp::CallArgs;
use crate::value::{DatasetObj, Obj};
use flor_ml::{models, Sequential, SyntheticClassification, SyntheticTokens};
use flor_tensor::Pcg64;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Byte budget of the process-wide template table.
const MEMO_BUDGET_BYTES: usize = 64 << 20;

/// A keyword parameter of a constructor, with its default.
enum Kw {
    Int(&'static str, i64),
    Float(&'static str, f64),
}

use Kw::{Float, Int};

/// Every constructor's keyword parameters in the order [`CtorCall::build`] reads
/// them; `seed` follows them all.
const SIGNATURES: &[(&str, &[Kw])] = &[
    (
        "synth_data",
        &[
            Int("n", 128),
            Int("dim", 8),
            Int("classes", 3),
            Float("spread", 0.3),
        ],
    ),
    (
        "token_data",
        &[
            Int("n", 128),
            Int("seq", 8),
            Int("vocab", 64),
            Int("classes", 3),
        ],
    ),
    (
        "mlp",
        &[
            Int("input", 8),
            Int("hidden", 16),
            Int("classes", 3),
            Int("depth", 2),
        ],
    ),
    (
        "resnet",
        &[
            Int("input", 8),
            Int("hidden", 16),
            Int("classes", 3),
            Int("blocks", 2),
        ],
    ),
    (
        "convnet",
        &[
            Int("features", 16),
            Int("channels", 2),
            Int("conv_channels", 4),
            Int("kernel", 3),
            Int("classes", 3),
        ],
    ),
    (
        "textnet",
        &[Int("vocab", 64), Int("dim", 16), Int("classes", 3)],
    ),
    (
        "finetune",
        &[
            Int("input", 8),
            Int("hidden", 32),
            Int("classes", 3),
            Int("ballast", 100_000),
        ],
    ),
];

/// One resolved constructor call: the builtin, its keyword arguments
/// with defaults applied (integers as two's-complement bits, floats by
/// bit pattern, in [`SIGNATURES`] order), and the seed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CtorCall {
    name: &'static str,
    args: Vec<u64>,
    seed: u64,
}

impl CtorCall {
    /// Resolves a call of `name`, or `None` when `name` is no seed-pinned
    /// constructor. `next_seed` runs exactly once per constructor call,
    /// whether or not the call passes `seed=`, so unseeded constructors
    /// later in the script get the same seeds however this one resolves.
    pub(crate) fn resolve(
        name: &str,
        a: &CallArgs,
        next_seed: impl FnOnce() -> u64,
    ) -> Result<Option<CtorCall>, FlorError> {
        let Some(&(name, kws)) = SIGNATURES.iter().find(|(n, _)| *n == name) else {
            return Ok(None);
        };
        let mut args = Vec::with_capacity(kws.len());
        for kw in kws {
            args.push(match *kw {
                Int(k, default) => a.kw_i64(k, default)? as u64,
                Float(k, default) => a.kw_f64(k, default)?.to_bits(),
            });
        }
        let seed = a.kw_i64("seed", next_seed() as i64)? as u64;
        Ok(Some(CtorCall { name, args, seed }))
    }

    /// Builds the object this call describes, from scratch.
    fn build(&self) -> Built {
        let a = &self.args;
        let u = |i: usize| a[i] as usize;
        let mut rng = Pcg64::seeded(self.seed);
        match self.name {
            "synth_data" => Built::Dataset(DatasetObj::Classification(
                SyntheticClassification::generate(
                    u(0),
                    u(1),
                    u(2),
                    f64::from_bits(a[3]) as f32,
                    self.seed,
                ),
            )),
            "token_data" => Built::Dataset(DatasetObj::Tokens(SyntheticTokens::generate(
                u(0),
                u(1),
                u(2),
                u(3),
                self.seed,
            ))),
            "mlp" => Built::Model(models::mlp(u(0), u(1), u(2), u(3), &mut rng)),
            "resnet" => Built::Model(models::resnet_mini(u(0), u(1), u(2), u(3), &mut rng)),
            "convnet" => Built::Model(models::convnet1d_flat(
                u(0),
                u(1),
                u(2),
                u(3),
                u(4),
                &mut rng,
            )),
            "textnet" => Built::Model(models::textnet(u(0), u(1), u(2), &mut rng)),
            "finetune" => Built::Model(models::finetune_net(u(0), u(1), u(2), u(3), &mut rng)),
            other => unreachable!("{other:?} resolved without a signature"),
        }
    }

    /// The object this call describes: a copy of the memo table's
    /// template when `memoize` (production replay), else built fresh.
    pub(crate) fn construct(&self, memoize: bool) -> Obj {
        let built = if memoize {
            memoized(self)
        } else {
            self.build()
        };
        match built {
            Built::Dataset(d) => Obj::Dataset(d),
            Built::Model(m) => Obj::Model(m),
        }
    }
}

/// A constructor's output: thread-safe, and cheap to copy.
#[derive(Clone)]
enum Built {
    Dataset(DatasetObj),
    Model(Sequential),
}

impl Built {
    /// Bytes the template's slabs hold: every parameter's value and
    /// gradient, or a dataset's examples and labels.
    fn bytes(&self) -> usize {
        match self {
            Built::Model(m) => m.numel() * 2 * 4,
            Built::Dataset(DatasetObj::Classification(d)) => d.len() * (d.dim() * 4 + 8),
            Built::Dataset(DatasetObj::Tokens(d)) => d.len() * (d.seq() * 4 + 8),
        }
    }
}

struct Template {
    built: Built,
    bytes: usize,
    last_used: u64,
}

/// The memo table: templates by call, least recently used evicted first.
struct MemoTable {
    budget: usize,
    entries: BTreeMap<CtorCall, Template>,
    bytes: usize,
    clock: u64,
}

static TABLE: Mutex<MemoTable> = Mutex::new(MemoTable::new(MEMO_BUDGET_BYTES));

impl MemoTable {
    const fn new(budget: usize) -> Self {
        MemoTable {
            budget,
            entries: BTreeMap::new(),
            bytes: 0,
            clock: 0,
        }
    }

    /// A copy of `call`'s template, marking it used.
    fn hit(&mut self, call: &CtorCall) -> Option<Built> {
        self.clock += 1;
        let t = self.entries.get_mut(call)?;
        t.last_used = self.clock;
        Some(t.built.clone())
    }

    /// Keeps `built` as `call`'s template, evicting least recently used
    /// templates until it fits; returns how many were evicted. A template
    /// over the whole budget, or one another thread inserted first, is
    /// not kept.
    fn insert(&mut self, call: &CtorCall, built: &Built) -> u64 {
        let bytes = built.bytes();
        if bytes > self.budget || self.entries.contains_key(call) {
            return 0;
        }
        let mut evicted = 0;
        while self.bytes + bytes > self.budget {
            let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, t)| t.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(t) = self.entries.remove(&lru) {
                self.bytes -= t.bytes;
                evicted += 1;
            }
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.insert(
            call.clone(),
            Template {
                built: built.clone(),
                bytes,
                last_used: self.clock,
            },
        );
        evicted
    }
}

/// `call`'s template copy on a hit; on a miss, builds it outside the
/// lock (two workers missing at once both build, and the first insert
/// wins) and keeps a template.
fn memoized(call: &CtorCall) -> Built {
    if let Some(built) = TABLE.lock().hit(call) {
        flor_obs::counter!("replay.ctor_memo_hits").inc();
        return built;
    }
    flor_obs::counter!("replay.ctor_memo_misses").inc();
    let built = call.build();
    let evicted = TABLE.lock().insert(call, &built);
    flor_obs::counter!("replay.ctor_memo_evictions").add(evicted);
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use flor_ml::{Optimizer, Sgd};
    use flor_tensor::Tensor;

    /// A call of `name` with its defaults except `n`-like sizes kept
    /// small, and the given seed.
    fn call(name: &'static str, seed: u64) -> CtorCall {
        let kw: Vec<(String, Value)> = match name {
            "synth_data" | "token_data" => vec![("n".into(), Value::Int(40))],
            "finetune" => vec![("ballast".into(), Value::Int(500))],
            _ => Vec::new(),
        };
        let a = CallArgs::new(Vec::new(), kw);
        CtorCall::resolve(name, &a, || seed).unwrap().unwrap()
    }

    /// What a hit must reproduce: a model's checkpoint bytes, or a
    /// dataset's examples and labels (its checkpoint is empty: datasets
    /// are rebuilt, never restored).
    fn content(obj: &Obj) -> Vec<u8> {
        match obj {
            Obj::Model(_) => flor_chkpt::encode(&obj.snapshot().unwrap()),
            Obj::Dataset(d) => {
                let all = d.gather(&(0..d.len()).collect::<Vec<_>>());
                let mut bytes = all.x.to_bytes();
                bytes.extend(all.y.iter().flat_map(|l| (*l as u64).to_le_bytes()));
                bytes
            }
            other => panic!(
                "constructors build models and datasets, not {}",
                other.kind()
            ),
        }
    }

    #[test]
    fn every_constructor_resolves_its_defaults_and_seed() {
        let a = CallArgs::new(Vec::new(), vec![("seed".into(), Value::Int(5))]);
        let mut seeds = 0;
        for (name, kws) in SIGNATURES {
            let c = CtorCall::resolve(name, &a, || {
                seeds += 1;
                99
            })
            .unwrap()
            .unwrap();
            assert_eq!((c.args.len(), c.seed), (kws.len(), 5), "{name}");
        }
        assert_eq!(seeds, SIGNATURES.len(), "an explicit seed still draws one");
        assert!(CtorCall::resolve("sgd", &a, || 0).unwrap().is_none());
    }

    #[test]
    fn a_hit_reproduces_a_fresh_construction_for_every_constructor() {
        let before = flor_obs::counter!("replay.ctor_memo_hits").get();
        for (name, _) in SIGNATURES {
            for seed in [0x5EED_0001, 0x5EED_0002] {
                let c = call(name, seed);
                let fresh = content(&c.construct(false));
                // The first may hit a template another test left; the
                // second is a hit.
                for _ in 0..2 {
                    assert_eq!(content(&c.construct(true)), fresh, "{name} seed {seed:#x}");
                }
            }
        }
        let hits = flor_obs::counter!("replay.ctor_memo_hits").get() - before;
        assert!(hits >= SIGNATURES.len() as u64 * 2, "{hits} hits");
    }

    #[test]
    fn a_handed_out_model_never_writes_through_to_its_template() {
        let c = call("mlp", 0x5EED_0101);
        let fresh = content(&c.construct(false));
        let Obj::Model(mut a) = c.construct(true) else {
            unreachable!()
        };
        let mut sgd = Sgd::new(0.5, 0.9, 0.0);
        let x = Tensor::ones([4, 8]);
        let train = |m: &mut Sequential, opt: &mut Sgd| {
            let y = m.forward(&x);
            m.backward(&y);
            opt.step(m);
        };
        // Gradients and weights written in place, without a restore.
        train(&mut a, &mut sgd);
        let Obj::Model(mut b) = c.construct(true) else {
            unreachable!()
        };
        assert_eq!(content(&Obj::Model(b.clone())), fresh);
        assert_eq!(b.grad_norm(), 0.0, "the template's gradients stay zero");
        // A restore, a step and `zero_grad` on a hit.
        b.load_state_dict(&a.state_dict().view()).unwrap();
        train(&mut b, &mut sgd);
        b.zero_grad();
        assert_eq!(content(&c.construct(true)), fresh);
        assert_ne!(content(&Obj::Model(b)), fresh);
    }

    #[test]
    fn a_restore_into_a_memo_hit_allocates_and_leaves_the_template_pristine() {
        let c = call("mlp", 0x5EED_0301);
        let fresh = content(&c.construct(false));
        let Obj::Model(other) = c.construct(false) else {
            unreachable!()
        };
        let mut trained = other;
        trained.visit_params_mut(&mut |p| p.value.map_inplace(|x| x * 2.0 + 1.0));
        let payload =
            flor_chkpt::decode(flor_chkpt::encode(&Obj::Model(trained).snapshot().unwrap()))
                .unwrap();
        let slabs = |o: &Obj| {
            let Obj::Model(m) = o else { unreachable!() };
            let mut ptrs = Vec::new();
            m.visit_params(&mut |p| ptrs.push(p.value.data().as_ptr()));
            ptrs
        };
        let template = c.construct(true);
        let mut hit = c.construct(true);
        let shared = slabs(&template);
        assert_eq!(slabs(&hit), shared, "a hit shares the template's slabs");

        // The first restore finds every slab shared: each is allocated.
        hit.restore(&payload).unwrap();
        let own = slabs(&hit);
        assert!(
            own.iter().all(|p| !shared.contains(p)),
            "a slab written through"
        );
        assert_eq!(content(&template), fresh);
        assert_eq!(content(&c.construct(true)), fresh);
        assert_eq!(content(&hit), flor_chkpt::encode(&payload));
        // The second finds them its own, and converts into them.
        hit.restore(&payload).unwrap();
        assert_eq!(slabs(&hit), own);
        assert_eq!(content(&c.construct(true)), fresh);
    }

    #[test]
    fn inserting_past_the_budget_evicts_the_least_recently_used() {
        let calls: Vec<CtorCall> = (0..4).map(|s| call("mlp", 0x5EED_0201 + s)).collect();
        let built: Vec<Built> = calls.iter().map(CtorCall::build).collect();
        let one = built[0].bytes();
        let mut table = MemoTable::new(one * 3);
        for (c, b) in calls.iter().zip(&built).take(3) {
            assert_eq!(table.insert(c, b), 0);
        }
        // Touch the oldest: the second-oldest is now the LRU.
        assert!(table.hit(&calls[0]).is_some());
        assert_eq!(table.insert(&calls[3], &built[3]), 1);
        assert!(table.bytes <= table.budget);
        assert!(
            table.hit(&calls[1]).is_none(),
            "the LRU template was evicted"
        );
        for c in [&calls[0], &calls[2], &calls[3]] {
            assert!(table.hit(c).is_some());
        }
        // A template over the whole budget is never kept.
        let mut small = MemoTable::new(one - 1);
        assert_eq!(small.insert(&calls[0], &built[0]), 0);
        assert!(small.entries.is_empty() && small.bytes == 0);
    }
}
