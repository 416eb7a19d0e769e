//! The four workloads: which training script is recorded, which hindsight
//! probes the analysts pose, and in what mix. Everything here is a pure
//! function of the seed — the program under test only ever sees the
//! generated `.flr` text.

/// SplitMix64: the seed-to-stream generator behind scripts, probe
/// constants and query order (no external crates are available offline).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`: distinct streams of one
    /// seed are independent, so query `i`'s draw never depends on how many
    /// queries ran before it.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The recorded training script's regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Compute-bound MLP, dense small checkpoints (the paper's Cifr/ImgN
    /// regime at sandbox scale).
    Cv,
    /// Fine-tuning: a frozen multi-MB ballast dwarfs the short epochs, so
    /// checkpoints are large and delta-chained (the RTE/CoLA regime).
    Ft,
}

/// Where a probe's `log(...)` statement lands in the training loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSite {
    /// After the epoch's own `log("loss", …)`: epoch-level state, every
    /// iteration restores from its checkpoint and executes almost nothing.
    Outer,
    /// After `optimizer.step()`: per-batch state, every iteration
    /// re-executes.
    Inner,
}

/// How a query relates to what the registry has already answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A probe nobody posed before: new query key *and* new slice class —
    /// a full replay.
    Fresh,
    /// Byte-identical re-submission of a hot probe: raw-key cache hit.
    Repeat,
    /// A reformatted copy of a hot probe: new raw key, same live cone —
    /// slice-memo hit.
    Variant,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 3] = [Class::Fresh, Class::Repeat, Class::Variant];

    /// Lower-case name used in metric names (`class.<name>_p50_ms`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Fresh => "fresh",
            Class::Repeat => "repeat",
            Class::Variant => "variant",
        }
    }
}

/// Epochs of the CV script's main loop.
pub const CV_EPOCHS: u64 = 12;
/// Batches per CV epoch (`n=1024 / batch_size=64`).
pub const CV_BATCHES: u64 = 16;
/// Epochs of the fine-tune script's main loop.
pub const FT_EPOCHS: u64 = 24;
/// Batches per fine-tune epoch (`n=48 / batch_size=24`).
pub const FT_BATCHES: u64 = 2;
/// Size of the hot probe set repeats and variants draw from.
pub const HOT_PROBES: u64 = 32;
/// Probe ids are `probe_offset(seed) + n`: fresh probes take `n` = their
/// plan index, the hot set takes `HOT_BASE..HOT_BASE + HOT_PROBES`.
const HOT_BASE: u64 = 900_000;

/// The seed's probe-id offset, so two seeds pose different probe constants.
fn probe_offset(seed: u64) -> u64 {
    (seed % 97) * 1_000_000
}

/// One workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Training-script regime.
    pub script: Script,
    /// Recorded runs in the registry (a sweep when above one).
    pub runs: usize,
    /// Where probes land.
    pub site: ProbeSite,
    /// `flor record` flags for the served fixture. Always `--no-adaptive`:
    /// the checkpoint set, and with it every query's restore schedule, must
    /// not depend on the recording host's timing. The CV fixtures also turn
    /// delta encoding off: whether the encoder accepts a delta between two
    /// epochs' weights sits on a threshold that flips from one data seed to
    /// the next and doubles restore time when it does, so these workloads
    /// serve keyframes only and `ft_chain` alone serves delta chains.
    pub fixture_flags: &'static [&'static str],
    /// Share of repeat and of variant queries; the rest are fresh.
    pub repeat_share: f64,
    /// See `repeat_share`.
    pub variant_share: f64,
}

/// The four workloads, in reporting order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "cv_outer",
        why: "fresh outer-loop probes on a compute-bound run: every epoch restores, so chkpt reads, the lang/analysis front end and registry/net overhead do the work and the VM none",
        script: Script::Cv,
        fixture_flags: &["--no-adaptive", "--delta-keyframe", "0"],
        runs: 1,
        site: ProbeSite::Outer,
        repeat_share: 0.0,
        variant_share: 0.0,
    },
    Spec {
        name: "cv_inner",
        why: "fresh inner-loop probes on the same run: every iteration re-executes, so core VM dispatch, tensor/ml numerics and per-entry streaming do the work and restores none",
        script: Script::Cv,
        fixture_flags: &["--no-adaptive", "--delta-keyframe", "0"],
        runs: 1,
        site: ProbeSite::Inner,
        repeat_share: 0.0,
        variant_share: 0.0,
    },
    Spec {
        name: "ft_chain",
        why: "fine-tune regime with multi-MB delta-chained checkpoints: record is bound by snapshot, delta-encode, compress and commit, and each query restore walks a chain",
        script: Script::Ft,
        fixture_flags: &["--no-adaptive"],
        runs: 1,
        site: ProbeSite::Outer,
        repeat_share: 0.0,
        variant_share: 0.0,
    },
    Spec {
        name: "serve_mix",
        why: "a 4-run sweep served to an analyst population, 75% repeats, 10% reformatted variants, 15% fresh: caches, scheduler hand-off and the socket path set the median",
        script: Script::Cv,
        fixture_flags: &["--no-adaptive", "--delta-keyframe", "0"],
        runs: 4,
        site: ProbeSite::Outer,
        repeat_share: 0.75,
        variant_share: 0.1,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Main-loop iterations of the recorded script.
    pub fn epochs(&self) -> u64 {
        match self.script {
            Script::Cv => CV_EPOCHS,
            Script::Ft => FT_EPOCHS,
        }
    }

    /// Entries one probe adds to the recorded log.
    pub fn probe_entries(&self) -> u64 {
        let batches = match self.script {
            Script::Cv => CV_BATCHES,
            Script::Ft => FT_BATCHES,
        };
        match self.site {
            ProbeSite::Outer => self.epochs(),
            ProbeSite::Inner => self.epochs() * batches,
        }
    }

    /// Registry run id of the sweep's `run`-th member.
    pub fn run_id(&self, run: usize) -> String {
        format!("r{run}")
    }

    /// The training script of the sweep's `run`-th member. The benchmark
    /// seed only sets the scripts' `seed=` arguments (data, shuffling,
    /// initial weights): shapes, and therefore work, are fixed.
    pub fn script_source(&self, seed: u64, run: usize) -> String {
        let s = 1 + seed.wrapping_mul(7919).wrapping_add(run as u64) % 99_991;
        match self.script {
            Script::Cv => format!(
                "\
import flor
data = synth_data(n=1024, dim=32, classes=4, spread=0.3, seed={s})
loader = dataloader(data, batch_size=64, seed={s})
net = mlp(input=32, hidden=128, classes=4, depth=3, seed={s})
optimizer = sgd(net, lr=0.01)
criterion = cross_entropy()
avg = meter()
for epoch in range({CV_EPOCHS}):
    avg.reset()
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
"
            ),
            Script::Ft => format!(
                "\
import flor
data = synth_data(n=48, dim=8, classes=3, spread=0.3, seed={s})
loader = dataloader(data, batch_size=24, seed={s})
net = finetune(input=8, hidden=64, classes=3, ballast=250000, seed={s})
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range({FT_EPOCHS}):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(80)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
"
            ),
        }
    }
}

/// The log key of probe `k`.
pub fn probe_key(k: u64) -> String {
    format!("p{k}")
}

/// `base` with probe `k` inserted at `site`. Distinct `k` give distinct
/// log keys and distinct logged expressions, hence distinct raw query keys
/// *and* distinct slice fingerprints.
pub fn probed_source(base: &str, site: ProbeSite, k: u64) -> String {
    let (anchor, probe) = match site {
        ProbeSite::Outer => (
            "    log(\"loss\", avg.mean())\n",
            format!("    log(\"p{k}\", net.weight_norm() + {k})\n"),
        ),
        ProbeSite::Inner => (
            "        optimizer.step()\n",
            format!("        log(\"p{k}\", net.grad_norm() + {k})\n"),
        ),
    };
    let at = base.find(anchor).expect("script carries the probe anchor") + anchor.len();
    format!("{}{}{}", &base[..at], probe, &base[at..])
}

/// A reformatted copy of `probed`: blank lines after the top-level
/// statements ahead of the main loop, their counts spelling `v + 1` in
/// base 8. The text (and raw query key) is new for every `v`; the parse,
/// and so the slice class, is the original's.
pub fn variant_source(probed: &str, v: u64) -> String {
    let mut code = v + 1;
    let mut out = String::with_capacity(probed.len() + 32);
    let mut in_preamble = true;
    for line in probed.split_inclusive('\n') {
        in_preamble &= !line.starts_with("for ");
        if in_preamble && code > 0 {
            out.push_str(line);
            for _ in 0..code % 8 {
                out.push('\n');
            }
            code /= 8;
        } else {
            out.push_str(line);
        }
    }
    assert_eq!(code, 0, "variant number exceeds the preamble's capacity");
    out
}

/// One query of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Position in the plan.
    pub index: u64,
    /// Cache relation.
    pub class: Class,
    /// Which run of the sweep it targets.
    pub run: usize,
    /// Probe id (`probe_key(k)` is its log key).
    pub k: u64,
    /// For variants: the reformatting number; 0 otherwise.
    pub variant: u64,
}

impl Query {
    /// A never-posed probe (id from `index`) against the sweep's `run`-th
    /// member.
    pub fn fresh(spec: &Spec, seed: u64, index: u64, run: usize) -> Query {
        Query {
            index,
            class: Class::Fresh,
            run: run % spec.runs,
            k: probe_offset(seed) + index % HOT_BASE,
            variant: 0,
        }
    }

    /// The hot set's `h`-th probe, re-submitted verbatim (`Repeat`) or
    /// reformatted (`Variant`; `index` numbers the reformatting, so every
    /// variant's text is new).
    pub fn hot(spec: &Spec, seed: u64, class: Class, index: u64, h: u64) -> Query {
        let h = h % HOT_PROBES;
        Query {
            index,
            class,
            run: (h % spec.runs as u64) as usize,
            k: probe_offset(seed) + HOT_BASE + h,
            variant: if class == Class::Variant { index } else { 0 },
        }
    }
}

/// Query `index` of the seeded plan. Repeats and variants draw from the
/// hot set with a quadratic skew (the low-numbered probes are hottest).
pub fn plan_query(spec: &Spec, seed: u64, index: u64) -> Query {
    let mut rng = Rng::new(seed, index);
    let u = rng.unit();
    if u >= spec.repeat_share + spec.variant_share {
        return Query::fresh(spec, seed, index, rng.below(spec.runs as u64) as usize);
    }
    let class = if u < spec.repeat_share {
        Class::Repeat
    } else {
        Class::Variant
    };
    let skew = rng.unit();
    Query::hot(
        spec,
        seed,
        class,
        index,
        (skew * skew * HOT_PROBES as f64) as u64,
    )
}

/// The probed source text of a planned query, given the sweep's scripts.
pub fn query_source(spec: &Spec, scripts: &[String], q: &Query) -> String {
    let probed = probed_source(&scripts[q.run], spec.site, q.k);
    match q.class {
        Class::Variant => variant_source(&probed, q.variant),
        Class::Fresh | Class::Repeat => probed,
    }
}
