//! Property-based tests over the core data structures and invariants.

use flor_chkpt::{compress, decode, encode, CVal};
use flor_core::adaptive::AdaptiveController;
use flor_core::parallel::{max_speedup, plan, plan_anchored, InitMode};
use flor_lang::{parse, print_program};
use flor_tensor::{Pcg64, Tensor};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn arb_cval() -> impl Strategy<Value = CVal> {
    let leaf = prop_oneof![
        Just(CVal::Unit),
        any::<bool>().prop_map(CVal::Bool),
        any::<i64>().prop_map(CVal::I64),
        any::<f64>().prop_map(CVal::F64),
        ".{0,32}".prop_map(CVal::Str),
        proptest::collection::vec(any::<u8>(), 0..256).prop_map(CVal::bytes),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..8).prop_map(CVal::List),
            proptest::collection::vec((".{0,8}", inner), 0..8)
                .prop_map(|pairs| CVal::Map(pairs.into_iter().collect())),
        ]
    })
}

/// Structural equality treating NaN == NaN (bitwise roundtrip is exact, but
/// `PartialEq` on f64 isn't reflexive for NaN).
fn cval_eq(a: &CVal, b: &CVal) -> bool {
    match (a, b) {
        (CVal::F64(x), CVal::F64(y)) => x.to_bits() == y.to_bits(),
        (CVal::List(xs), CVal::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| cval_eq(x, y))
        }
        (CVal::Map(xs), CVal::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && cval_eq(va, vb))
        }
        (x, y) => x == y,
    }
}

proptest! {
    #[test]
    fn codec_roundtrips_arbitrary_values(v in arb_cval()) {
        let bytes = encode(&v);
        let back = decode(bytes).expect("decode");
        prop_assert!(cval_eq(&v, &back));
    }

    #[test]
    fn codec_rejects_arbitrary_truncation(v in arb_cval(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&v);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            // Truncation must error, never panic or loop.
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }

    /// The pooled, buffer-reusing encode path must be byte-identical to a
    /// fresh `encode` for arbitrary trees — including when the same pooled
    /// buffer is reused across differently-shaped values (stale-content
    /// bleed-through would corrupt checkpoints silently).
    #[test]
    fn pooled_encode_into_is_byte_identical(
        vals in proptest::collection::vec(arb_cval(), 1..6),
    ) {
        let pool = flor_chkpt::EncodePool::new();
        for v in &vals {
            let fresh = encode(v);
            let pooled = pool.with_buffer(|buf| {
                flor_chkpt::encode_into(v, buf);
                buf.to_vec()
            });
            prop_assert_eq!(&pooled, &fresh);
            // And through a SerializeSnapshot's default serialize_into.
            let back = decode(pooled).expect("pooled bytes decode");
            prop_assert!(cval_eq(v, &back));
        }
    }

    #[test]
    fn compressor_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress::compress(&data);
        let d = compress::decompress(&c).expect("decompress");
        prop_assert_eq!(d, data);
    }

    #[test]
    fn compressor_roundtrips_repetitive_bytes(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..512,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let c = compress::compress(&data);
        let d = compress::decompress(&c).expect("decompress");
        prop_assert_eq!(d, data);
    }
}

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn tensor_bytes_roundtrip(dims in proptest::collection::vec(1usize..6, 0..4), seed in any::<u64>()) {
        let n: usize = dims.iter().product::<usize>().max(1);
        let mut rng = Pcg64::seeded(seed);
        let data: Vec<f32> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
        let t = Tensor::new(dims, data);
        let back = Tensor::from_bytes(&t.to_bytes()).expect("roundtrip");
        prop_assert_eq!(t, back);
    }

    #[test]
    fn matmul_distributes_over_addition(seed in any::<u64>()) {
        // (A + B) C == AC + BC, within float tolerance.
        let mut rng = Pcg64::seeded(seed);
        let mk = |rng: &mut Pcg64, r: usize, c: usize| {
            Tensor::new([r, c], (0..r * c).map(|_| rng.uniform(-1.0, 1.0)).collect())
        };
        let a = mk(&mut rng, 3, 4);
        let b = mk(&mut rng, 3, 4);
        let c = mk(&mut rng, 4, 2);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn rng_state_roundtrip_resumes(seed in any::<u64>(), skip in 0usize..100) {
        let mut a = Pcg64::seeded(seed);
        for _ in 0..skip {
            a.next_u32();
        }
        let (s, i) = a.state();
        let mut b = Pcg64::restore(s, i);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u32(), b.next_u32());
        }
    }
}

// ---------------------------------------------------------------------------
// Model gradients (whole-network finite differences)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// The full backward pass through randomly shaped networks computes
    /// gradients matching finite differences of the cross-entropy loss.
    /// (Tanh activations keep the network smooth — ReLU kinks make finite
    /// differences unreliable at exactly the points where the analytic
    /// gradient is legitimately zero.)
    #[test]
    fn mlp_gradients_match_finite_differences(
        seed in any::<u64>(),
        input in 2usize..6,
        hidden in 2usize..8,
        classes in 2usize..4,
        depth in 1usize..3,
    ) {
        use flor_ml::{Activation, CrossEntropyLoss, Linear, Sequential};
        use flor_tensor::init;

        let mut rng = Pcg64::seeded(seed);
        let mut model = {
            let mut m = Sequential::new("gradcheck")
                .push(Linear::new(input, hidden, &mut rng))
                .push(Activation::tanh());
            for _ in 1..depth {
                m = m
                    .push(Linear::new(hidden, hidden, &mut rng))
                    .push(Activation::tanh());
            }
            m.push(Linear::new(hidden, classes, &mut rng))
        };
        let batch = 3usize;
        let x = init::uniform([batch, input], 0.1, 1.0, &mut rng);
        let targets: Vec<usize> = (0..batch).map(|i| i % classes).collect();

        // Analytic gradients.
        let mut loss_fn = CrossEntropyLoss::new();
        let logits = model.forward(&x);
        let _ = loss_fn.forward(&logits, &targets);
        model.zero_grad();
        model.backward(&loss_fn.backward());
        let mut analytic: Vec<f32> = Vec::new();
        model.visit_params(&mut |p| analytic.extend_from_slice(p.grad.data()));

        // Finite differences on a few sampled coordinates.
        let total: usize = analytic.len();
        let eps = 2e-2f32;
        for probe in [0usize, total / 3, (2 * total) / 3, total - 1] {
            let loss_at = |model: &mut Sequential| -> f32 {
                let mut lf = CrossEntropyLoss::new();
                let logits = model.forward(&x);
                lf.forward(&logits, &targets)
            };
            let mut idx = 0usize;
            let mut bump = |model: &mut Sequential, delta: f32| {
                idx = 0;
                model.visit_params_mut(&mut |p| {
                    let n = p.value.numel();
                    if probe >= idx && probe < idx + n {
                        p.value.data_mut()[probe - idx] += delta;
                    }
                    idx += n;
                });
            };
            bump(&mut model, eps);
            let lp = loss_at(&mut model);
            bump(&mut model, -2.0 * eps);
            let lm = loss_at(&mut model);
            bump(&mut model, eps);
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic[probe];
            prop_assert!(
                (fd - an).abs() < 3e-2 * (1.0 + fd.abs().max(an.abs())),
                "coord {probe}: finite-diff {fd} vs analytic {an}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parser ↔ printer
// ---------------------------------------------------------------------------

proptest! {
    /// Printing then reparsing any parsed program is the identity, for a
    /// generator over realistic training-script fragments.
    #[test]
    fn parse_print_roundtrip(stmts in proptest::collection::vec(arb_stmt_src(), 1..8)) {
        let src: String = stmts.concat();
        let prog = match parse(&src) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("gen produced invalid source: {e}\n{src}"))),
        };
        let printed = print_program(&prog);
        let reparsed = parse(&printed).expect("printed source must reparse");
        prop_assert_eq!(&prog, &reparsed, "roundtrip mismatch:\n{}", printed);
        prop_assert_eq!(printed.clone(), print_program(&reparsed), "printer not a fixed point");
    }
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("keyword", |s| {
        ![
            "for",
            "in",
            "if",
            "else",
            "and",
            "or",
            "not",
            "pass",
            "import",
            "skipblock",
        ]
        .contains(&s.as_str())
    })
}

fn arb_expr_src() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        arb_name(),
        any::<i32>().prop_map(|i| i.to_string()),
        (0u16..1000).prop_map(|x| format!("{}.{:02}", x / 10, x % 100)),
        "[a-z ]{0,6}".prop_map(|s| format!("{s:?}")),
        Just("True".to_string()),
        Just("None".to_string()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a} + {b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a} * ({b})")),
            (arb_name(), inner.clone()).prop_map(|(f, a)| format!("{f}({a})")),
            (arb_name(), arb_name(), inner.clone()).prop_map(|(o, m, a)| format!("{o}.{m}({a})")),
            (arb_name(), inner.clone()).prop_map(|(f, a)| format!("{f}(x={a})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("[{a}, {b}]")),
        ]
    })
}

fn arb_stmt_src() -> impl Strategy<Value = String> {
    prop_oneof![
        (arb_name(), arb_expr_src()).prop_map(|(n, e)| format!("{n} = {e}\n")),
        (arb_name(), arb_name(), arb_expr_src())
            .prop_map(|(a, b, e)| format!("{a}, {b} = {e}, {e}\n")),
        (arb_name(), arb_name()).prop_map(|(o, m)| format!("{o}.{m}()\n")),
        (arb_name(), arb_expr_src(), arb_name(), arb_expr_src())
            .prop_map(|(v, it, n, e)| format!("for {v} in range({it}):\n    {n} = {e}\n")),
        (arb_expr_src(), arb_name(), arb_expr_src())
            .prop_map(|(c, n, e)| { format!("if {c}:\n    {n} = {e}\nelse:\n    pass\n") }),
        arb_expr_src().prop_map(|e| format!("log(\"k\", {e})\n")),
    ]
}

// ---------------------------------------------------------------------------
// Bytecode VM ≡ tree-walking interpreter
// ---------------------------------------------------------------------------

proptest! {
    /// Differential oracle over random programs: the bytecode VM and the
    /// tree-walking interpreter must agree on the complete outcome —
    /// identical error strings on failure; identical log streams and
    /// final environments on success. The generators skew heavily toward
    /// runtime errors (unbound names, bad calls, type mismatches), so
    /// this exercises the error paths as hard as the happy ones.
    #[test]
    fn vm_outcome_matches_tree_walker(stmts in proptest::collection::vec(arb_stmt_src(), 1..10)) {
        use flor_core::interp::{Interp, Mode};

        let src: String = stmts.concat();
        let prog = match parse(&src) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("gen produced invalid source: {e}\n{src}"))),
        };

        let mut tree = Interp::new(Mode::Vanilla);
        let tree_res = tree.run(&prog);
        let module = flor_core::compile_program(&prog).expect("compile");
        let mut vm = Interp::new(Mode::Vanilla);
        let vm_res = vm.run_vm(&module);

        match (&tree_res, &vm_res) {
            (Ok(()), Ok(())) => {
                let mut tree_names: Vec<&str> = tree.env.names().collect();
                let mut vm_names: Vec<&str> = vm.env.names().collect();
                tree_names.sort_unstable();
                vm_names.sort_unstable();
                prop_assert_eq!(&tree_names, &vm_names, "bound names diverged:\n{}", src);
                for n in tree_names {
                    prop_assert_eq!(
                        tree.env.get(n).unwrap().display(),
                        vm.env.get(n).unwrap().display(),
                        "value of {:?} diverged:\n{}", n, src
                    );
                }
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "error strings diverged:\n{}", src);
            }
            _ => {
                return Err(TestCaseError::fail(format!(
                    "outcome diverged: tree {tree_res:?} vs vm {vm_res:?}\n{src}"
                )));
            }
        }
        prop_assert_eq!(tree.log.entries(), vm.log.entries(), "log streams diverged:\n{}", src);
    }
}

// ---------------------------------------------------------------------------
// Partition planner
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn plans_cover_disjointly(n in 1u64..500, g in 1usize..64) {
        for mode in [InitMode::Strong, InitMode::Weak] {
            let plans = plan(n, g, mode);
            let mut covered: Vec<u64> = plans.iter().flat_map(|p| p.work_iters()).collect();
            covered.sort_unstable();
            prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
            // Largest share bounds the speedup.
            let largest = plans.iter().map(|p| p.work_len()).max().unwrap();
            prop_assert!((max_speedup(n, g) - n as f64 / largest as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn anchored_plans_cover_and_respect_anchors(
        n in 2u64..300,
        g in 1usize..16,
        anchor_bits in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut anchors: BTreeSet<u64> = (1..n)
            .filter(|&i| anchor_bits.get(i as usize).copied().unwrap_or(false))
            .collect();
        anchors.insert(0);
        let plans = plan_anchored(n, &anchors, g);
        let mut covered: Vec<u64> = plans.iter().flat_map(|p| p.work_iters()).collect();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
        for p in &plans {
            prop_assert!(anchors.contains(&p.work_start), "work_start {} not an anchor", p.work_start);
            if p.work_start > 0 {
                prop_assert_eq!(p.init_start, p.work_start - 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming merge ≡ barrier merge
// ---------------------------------------------------------------------------

proptest! {
    /// The incremental streaming merger must produce a byte-identical log
    /// to the barrier `merge_worker_logs` for arbitrary worker partitions
    /// (including empty ones) and arbitrary range-completion (steal)
    /// orders. `boundary_bits` picks where partitions split, `perm_seed`
    /// shuffles delivery order, `entries_per_iter` varies log density.
    #[test]
    fn streaming_merge_equals_barrier_merge(
        n in 0u64..60,
        workers in 1usize..6,
        boundary_bits in proptest::collection::vec(any::<bool>(), 0..60),
        perm_seed in any::<u64>(),
        entries_per_iter in 0usize..3,
        with_pre in any::<bool>(),
        with_post in any::<bool>(),
    ) {
        use flor_core::logstream::{merge_worker_logs, LogEntry, Section};
        use flor_core::stream::{StreamMsg, StreamingMerger};

        // Build contiguous ranges from the boundary bits.
        let mut bounds: Vec<u64> = (1..n)
            .filter(|&i| boundary_bits.get(i as usize).copied().unwrap_or(false))
            .collect();
        bounds.insert(0, 0);
        bounds.push(n);
        bounds.dedup();
        let ranges: Vec<(u64, u64)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        let ranges: Vec<(u64, u64)> = ranges.into_iter().filter(|(a, b)| a < b).collect();

        let iter_entries = |g: u64| -> Vec<LogEntry> {
            (0..entries_per_iter.max(if g.is_multiple_of(3) { 1 } else { entries_per_iter }))
                .map(|k| LogEntry {
                    key: format!("k{k}"),
                    value: format!("v{g}.{k}"),
                    section: Section::Iter(g),
                })
                .collect()
        };
        let pre_entries: Vec<LogEntry> = if with_pre {
            vec![LogEntry { key: "pre".into(), value: "p".into(), section: Section::Pre }]
        } else {
            Vec::new()
        };
        let post_entries: Vec<LogEntry> = if with_post {
            vec![LogEntry { key: "post".into(), value: "q".into(), section: Section::Post }]
        } else {
            Vec::new()
        };

        // Assign each range to a worker round-robin (some workers may get
        // nothing — the empty-partition case), then reconstruct the
        // equivalent per-worker barrier logs: every worker has the
        // preamble; the final-range owner has the postamble.
        let owner = |idx: usize| idx % workers;
        let mut worker_logs: Vec<Vec<LogEntry>> = vec![pre_entries.clone(); workers];
        for (idx, &(a, b)) in ranges.iter().enumerate() {
            for g in a..b {
                worker_logs[owner(idx)].extend(iter_entries(g));
            }
        }
        let final_owner = ranges.iter().enumerate().next_back().map(|(i, _)| owner(i));
        match final_owner {
            Some(w) => worker_logs[w].extend(post_entries.clone()),
            None => worker_logs[0].extend(post_entries.clone()),
        }
        let barrier = merge_worker_logs(worker_logs);

        // Stream the same content in a pseudo-random (steal) order.
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        let mut x = perm_seed | 1;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x as usize) % (i + 1));
        }
        let mut streamed = Vec::new();
        let mut merger = StreamingMerger::new(&[], flor_obs::clock::now_ns(), |ev| {
            if let flor_core::stream::StreamEvent::Entries(chunk) = ev {
                streamed.extend(chunk.iter().cloned());
            }
        });
        for pid in 0..workers {
            merger.push(StreamMsg::Pre { pid, entries: pre_entries.clone() });
        }
        merger.push(StreamMsg::Total { n_iters: n });
        for &idx in &order {
            let (a, b) = ranges[idx];
            let entries: Vec<LogEntry> = (a..b).flat_map(iter_entries).collect();
            merger.push(StreamMsg::Range { start: a, end: b, stolen: idx % 2 == 1, entries });
        }
        merger.push(StreamMsg::Post { entries: post_entries.clone() });
        let (merged, anomalies, _) = merger.finish();
        prop_assert_eq!(&streamed, &merged);
        prop_assert_eq!(merged, barrier);
        prop_assert!(anomalies.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Adaptive controller invariants
// ---------------------------------------------------------------------------

proptest! {
    /// Eq. 1 holds under the paper's cost model (M_i a stable per-loop
    /// property, C_i variable): cumulative materialization time never
    /// exceeds ε × cumulative compute, beyond the single bootstrap
    /// checkpoint admitted by the size-based estimate.
    #[test]
    fn record_overhead_invariant_holds(
        m in 1u64..1_000_000,
        computes in proptest::collection::vec(1u64..1_000_000, 1..200),
        eps_pct in 1u32..50,
    ) {
        let epsilon = eps_pct as f64 / 100.0;
        let mut ctrl = AdaptiveController::new(epsilon);
        let mut total_c = 0u64;
        let mut total_m = 0u64;
        for c in &computes {
            if ctrl.should_materialize("b", *c, m) {
                ctrl.observe_materialize("b", m, m);
                total_m += m;
            }
            total_c += c;
        }
        prop_assert!(
            total_m as f64 <= epsilon * total_c as f64 + m as f64 + 1.0,
            "materialize {total_m} vs ε·compute {} (+bootstrap {m})",
            epsilon * total_c as f64
        );
    }
}

// ---------------------------------------------------------------------------
// Delta-encoded checkpoint chains
// ---------------------------------------------------------------------------

/// A random tensor-drift trajectory: a base f32 slab plus per-version
/// sparse updates (index stride, epsilon) — the workload delta chains
/// exist for, with the degenerate corners (no drift, full rewrite)
/// reachable through the parameter ranges.
fn drift_trajectory(
    floats: usize,
    versions: usize,
    seed: u64,
    stride: usize,
    eps: f32,
) -> Vec<Vec<u8>> {
    let mut x = seed | 1;
    let mut slab: Vec<f32> = (0..floats)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
        .collect();
    let mut out = Vec::with_capacity(versions);
    out.push(slab.iter().flat_map(|f| f.to_le_bytes()).collect());
    for v in 1..versions {
        for (i, val) in slab.iter_mut().enumerate() {
            if stride > 0 && (i + v) % stride == 0 {
                *val += eps * (v as f32);
            }
        }
        out.push(slab.iter().flat_map(|f| f.to_le_bytes()).collect());
    }
    out
}

proptest! {
    /// Delta frames roundtrip byte-identically across arbitrary tensor
    /// drift: whenever the encoder judges a pair worth a frame, decoding
    /// that frame against the base must reproduce the new payload exactly.
    #[test]
    fn delta_roundtrip_is_byte_identical_across_random_drift(
        floats in 16usize..600,
        versions in 2usize..6,
        seed in 1u64..u64::MAX,
        stride in 1usize..40,
        eps in prop_oneof![Just(0.0f32), Just(1e-6), Just(1e-3), Just(0.5), Just(1e4)],
    ) {
        use flor_chkpt::{delta, store::crc32};
        let traj = drift_trajectory(floats, versions, seed, stride, eps);
        for pair in traj.windows(2) {
            let (base, new) = (&pair[0], &pair[1]);
            if let Some(frame) = delta::encode(base, new, 0, crc32(base), 1) {
                let h = delta::header(&frame).expect("frame header");
                prop_assert_eq!(h.raw_len as usize, new.len());
                prop_assert_eq!(h.base_crc, crc32(base));
                let decoded = delta::decode(&frame, base).expect("decode");
                prop_assert_eq!(&decoded, new, "delta roundtrip diverged");
            }
        }
    }

    /// Store-level chains over random drift: every version written through
    /// a delta-enabled store reads back exactly, in order and shuffled,
    /// and across a reopen.
    #[test]
    fn delta_chained_store_roundtrips_random_drift(
        floats in 300usize..800,
        versions in 3usize..9,
        seed in 1u64..u64::MAX,
        stride in 2usize..50,
        k in 2u32..6,
    ) {
        use flor_chkpt::{CheckpointStore, StoreOptions};
        let dir = std::env::temp_dir().join(format!(
            "flor-prop-delta-{}-{:?}-{seed}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            delta_keyframe_interval: k,
            delta_min_bytes: 64,
            ..StoreOptions::default()
        };
        let traj = drift_trajectory(floats, versions, seed, stride, 1e-3);
        {
            let store = CheckpointStore::open_opts(&dir, opts).unwrap();
            for (v, payload) in traj.iter().enumerate() {
                let meta = store.put("sb_0", v as u64, payload).unwrap();
                prop_assert!(meta.chain_depth < k, "chain depth {} ≥ K {k}", meta.chain_depth);
            }
            // Read back newest-first (worst case for the restore cache).
            for (v, payload) in traj.iter().enumerate().rev() {
                prop_assert_eq!(&store.get_bytes("sb_0", v as u64).unwrap(), payload);
            }
        }
        let store = CheckpointStore::open_opts(&dir, opts).unwrap();
        for (v, payload) in traj.iter().enumerate() {
            prop_assert_eq!(&store.get_bytes("sb_0", v as u64).unwrap(), payload);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The chunked parallel frame roundtrips arbitrary bytes at arbitrary
    /// chunk sizes (including chunk boundaries straddling every content
    /// shape proptest can produce).
    #[test]
    fn chunked_frames_roundtrip_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        chunk in 1usize..3000,
    ) {
        let framed = compress::compress_chunked(&data, chunk);
        prop_assert!(compress::is_chunked(&framed));
        prop_assert_eq!(compress::decompress_chunked(&framed).expect("roundtrip"), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A store recording through a shared dedup arena restores every
    /// version byte-identically to a plain (undedup'd) store fed the same
    /// trajectory — duplicates, near-duplicates, delta chains and all —
    /// through owned copies and through the zero-copy mapped reads alike.
    #[test]
    fn deduped_store_restores_byte_identical_to_plain(
        floats in 300usize..800,
        versions in 3usize..8,
        seed in 1u64..u64::MAX,
        stride in 2usize..50,
        dupes in 1usize..4,
    ) {
        use flor_chkpt::CheckpointStore;
        let base = std::env::temp_dir().join(format!(
            "flor-prop-dedup-{}-{:?}-{seed}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        // Trajectory with forced exact duplicates: every `dupes`-th
        // version re-records its predecessor's bytes (the dedup hit path),
        // the rest drift (the delta/arbitration paths).
        let mut traj = drift_trajectory(floats, versions, seed, stride, 1e-3);
        for v in 1..traj.len() {
            if v % (dupes + 1) == 0 {
                traj[v] = traj[v - 1].clone();
            }
        }
        let plain = CheckpointStore::open(base.join("plain")).unwrap();
        let deduped = CheckpointStore::open(base.join("deduped")).unwrap();
        deduped.attach_dedup(base.join("arena")).unwrap();
        for (v, payload) in traj.iter().enumerate() {
            plain.put("sb_0", v as u64, payload).unwrap();
            deduped.put("sb_0", v as u64, payload).unwrap();
        }
        for (v, payload) in traj.iter().enumerate().rev() {
            let p = plain.get_bytes("sb_0", v as u64).unwrap();
            let d = deduped.get_bytes("sb_0", v as u64).unwrap();
            prop_assert_eq!(&p, payload, "plain diverged at {}", v);
            prop_assert_eq!(&d, payload, "deduped diverged at {}", v);
        }
        // Across a reopen, the arena-backed entries still resolve.
        drop(deduped);
        let reopened = CheckpointStore::open(base.join("deduped")).unwrap();
        for (v, payload) in traj.iter().enumerate() {
            prop_assert_eq!(&reopened.get_bytes("sb_0", v as u64).unwrap(), payload);
        }
        // Zero-copy reads, all held alive at once (every blob is its own
        // mapping; none may alias or outlive another's bytes), against the
        // plain store as oracle.
        let held: Vec<_> = (0..traj.len())
            .map(|v| reopened.get_bytes("sb_0", v as u64).unwrap())
            .collect();
        for (v, mapped) in held.iter().enumerate() {
            let oracle = plain.get_bytes("sb_0", v as u64).unwrap();
            prop_assert_eq!(mapped, &oracle, "mapped read diverged at {}", v);
        }
        // Every blob's content hash was checked by its first read; the
        // re-reads above were covered by the payload CRC alone.
        let after_first_pass = reopened.stats();
        prop_assert!(after_first_pass.dedup_hash_verifies <= after_first_pass.dedup_entries);
        for v in 0..traj.len() {
            reopened.get_bytes("sb_0", v as u64).unwrap();
        }
        prop_assert_eq!(
            reopened.stats().dedup_hash_verifies,
            after_first_pass.dedup_hash_verifies
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
