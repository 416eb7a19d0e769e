//! The in-process half of a `--trace 1` run: spans around calls into each
//! layer's **public** functions, on the store the served fixture recorded
//! and on probes of the workload's own kind. Nothing here reaches into a
//! crate's internals — what cannot be timed from outside lands in a
//! residual row (`core.exec`, `registry.overhead`, `unattributed`).

use crate::report::Metric;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{probed_source, variant_source, Spec};
use crate::Res;
use flor_analysis::{instrument, slice_program};
use flor_chkpt::CheckpointStore;
use flor_core::profile::{CostProfile, COST_PROFILE_ARTIFACT};
use flor_core::record::{record, run_vanilla, source_version, RecordOptions};
use flor_core::replay::{replay_with_store, ReplayOptions};
use flor_core::vm::{compile_program_sliced, ModuleCache};
use flor_lang::{diff_programs, parse_source};
use flor_registry::{CachedResult, QueryCache, Registry};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Distinct fresh probes each per-query layer call is repeated over; the
/// reported value is the median.
pub const PROBES: u64 = 11;
/// Repetitions of the whole-run calls (`run_vanilla`, `record`, `open`).
const RUN_REPS: usize = 3;
/// Probe ids the in-process passes use: far from the serve phases' ids, so
/// every probe here is new to the registry's caches.
const FRONT_END_BASE: u64 = 700_000;
const REPLAY_BASE: u64 = 710_000;
const REGISTRY_BASE: u64 = 720_000;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn ns_to_us(samples: &[f64]) -> f64 {
    median(samples) / 1e3
}

fn ns_to_ms(samples: &[f64]) -> f64 {
    median(samples) / 1e6
}

/// Times every layer on the fixture at `registry_root` (whose server must
/// be gone: a second writable handle on a live store is not a supported
/// set-up). `scratch` receives the throw-away stores.
pub fn measure(
    spec: &Spec,
    registry_root: &Path,
    script: &str,
    spans: &Spans,
    scratch: &Path,
) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let run_id = spec.run_id(0);
    let registry = Registry::open(registry_root).map_err(err("open registry"))?;
    let store_root = registry
        .run(&run_id)
        .map_err(err("look up run"))?
        .store_root;

    // chkpt.open: fresh handles on the fixture store.
    let mut open_ns = Vec::new();
    for _ in 0..RUN_REPS {
        let (store, ns) = spans.time("chkpt.open", None, None, || {
            CheckpointStore::open(&store_root)
        });
        store.map_err(err("open store"))?;
        open_ns.push(ns);
    }
    out.push(Metric::new("chkpt.open_ms", ns_to_ms(&open_ns), "ms"));

    let store = Arc::new(CheckpointStore::open(&store_root).map_err(err("open store"))?);
    let recorded_src = String::from_utf8(
        store
            .get_artifact("source.flr")
            .map_err(err("read recorded source"))?,
    )
    .map_err(err("recorded source"))?;
    let profile = store
        .get_artifact(COST_PROFILE_ARTIFACT)
        .ok()
        .and_then(|b| String::from_utf8(b).ok())
        .and_then(|t| CostProfile::parse_text(&t));

    front_end(
        spec,
        script,
        &recorded_src,
        profile.as_ref(),
        &store,
        spans,
        &mut out,
    )?;
    query_calls(
        spec, script, &store, &registry, &run_id, scratch, spans, &mut out,
    )?;
    let payloads = restore_passes(&store_root, spans, &mut out)?;
    restage(&payloads, &scratch.join("restage"), spans, &mut out)?;
    drop(payloads);
    whole_runs(script, scratch, spans, &mut out)?;
    Ok(out)
}

/// The front-end calls a replay makes once each, in its order.
fn front_end(
    spec: &Spec,
    script: &str,
    recorded_src: &str,
    profile: Option<&CostProfile>,
    store: &CheckpointStore,
    spans: &Spans,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let module_cache = ModuleCache::new();
    let mut sliced = (0, 1000);
    let (mut parse, mut inst_ns, mut diff, mut slice, mut compile, mut hit) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for q in 0..PROBES {
        let probed = probed_source(script, spec.site, FRONT_END_BASE + q);
        let qid = Some(FRONT_END_BASE + q);
        let (progs, ns) = spans.time("lang.parse", None, qid, || {
            (parse_source(recorded_src), parse_source(&probed))
        });
        parse.push(ns);
        let recorded_prog = progs.0.map_err(err("parse recorded source"))?;
        let new_prog = progs.1.map_err(err("parse probed source"))?;
        let (inst, ns) = spans.time("analysis.instrument", None, qid, || instrument(&new_prog));
        inst_ns.push(ns);
        let (d, ns) = spans.time("lang.diff", None, qid, || {
            diff_programs(&recorded_prog, &inst.program)
        });
        diff.push(ns);
        if !d.is_pure_hindsight() {
            return Err(format!(
                "probe diff is not pure hindsight: {:?}",
                d.other_changes
            ));
        }
        let probed_blocks: HashSet<String> = d
            .probes
            .iter()
            .filter_map(|p| p.skipblock_id.clone())
            .collect();
        // The slicer's checkpoint-cut precondition, as replay derives it:
        // the profile claims dense checkpoints and the store still holds
        // every block's checkpoint at every profiled iteration. (Every
        // skipblock of these scripts sits inside the main loop.)
        let dense = profile.is_some_and(|p| {
            p.dense_checkpoints()
                && inst
                    .blocks
                    .iter()
                    .all(|b| (0..p.len() as u64).all(|g| store.contains(&b.id, g)))
        });
        let (plan, ns) = spans.time("analysis.slice", None, qid, || {
            slice_program(&inst.program, &probed_blocks, &inst.blocks, dense)
        });
        slice.push(ns);
        sliced = (plan.elided_stmts, plan.live_permille());
        let dead = if plan.is_active() {
            plan.dead.clone()
        } else {
            HashSet::new()
        };
        let (module, ns) = spans.time("lang.compile", None, qid, || {
            compile_program_sliced(&inst.program, &dead)
        });
        module.map_err(err("compile"))?;
        compile.push(ns);
        let key = source_version(&probed);
        module_cache
            .get_or_compile_sliced(&key, &inst.program, &dead)
            .map_err(err("compile into module cache"))?;
        let (module, ns) = spans.time("lang.compile_hit", None, qid, || {
            module_cache.get_or_compile_sliced(&key, &inst.program, &dead)
        });
        module.map_err(err("module cache hit"))?;
        hit.push(ns);
    }
    out.push(Metric::new("lang.parse_us", ns_to_us(&parse), "us"));
    out.push(Metric::new(
        "analysis.instrument_us",
        ns_to_us(&inst_ns),
        "us",
    ));
    out.push(Metric::new("lang.diff_us", ns_to_us(&diff), "us"));
    out.push(Metric::new("analysis.slice_us", ns_to_us(&slice), "us"));
    out.push(Metric::new("lang.compile_us", ns_to_us(&compile), "us"));
    out.push(Metric::new("lang.compile_hit_us", ns_to_us(&hit), "us"));
    out.push(Metric::new(
        "analysis.elided_stmts",
        f64::from(sliced.0),
        "count",
    ));
    out.push(Metric::new(
        "analysis.live_permille",
        f64::from(sliced.1),
        "permille",
    ));
    Ok(())
}

/// `get_bytes` over the store's whole checkpoint set — an outer-probe
/// query's restore schedule — once on a fresh handle and once warm, then
/// `codec::decode` of each payload. Returns the payloads for re-staging.
fn restore_passes(
    store_root: &Path,
    spans: &Spans,
    out: &mut Vec<Metric>,
) -> Res<Vec<(String, u64, flor_chkpt::Bytes)>> {
    let store = CheckpointStore::open(store_root).map_err(err("open store"))?;
    let schedule = store.entries();
    let links_before = store.delta_read_counters().1;
    let mut payloads = Vec::with_capacity(schedule.len());
    let (mut cold, mut warm, mut decode) = (vec![], vec![], vec![]);
    for (block, seq) in &schedule {
        let (bytes, ns) = spans.time("chkpt.restore", None, None, || store.get_bytes(block, *seq));
        cold.push(ns);
        payloads.push((block.clone(), *seq, bytes.map_err(err("get_bytes"))?));
    }
    let links = store.delta_read_counters().1 - links_before;
    for (block, seq) in &schedule {
        let (bytes, ns) = spans.time("chkpt.restore_warm", None, None, || {
            store.get_bytes(block, *seq)
        });
        bytes.map_err(err("get_bytes"))?;
        warm.push(ns);
    }
    for (_, _, bytes) in &payloads {
        let (val, ns) = spans.time("chkpt.decode", None, None, || {
            flor_chkpt::decode(bytes.as_ref())
        });
        val.map_err(err("decode"))?;
        decode.push(ns);
    }
    out.push(Metric::new("chkpt.restore_us", ns_to_us(&cold), "us"));
    out.push(Metric::new("chkpt.restore_warm_us", ns_to_us(&warm), "us"));
    out.push(Metric::new("chkpt.decode_us", ns_to_us(&decode), "us"));
    out.push(Metric::new(
        "chkpt.restores",
        schedule.len() as f64,
        "count",
    ));
    out.push(Metric::new(
        "chkpt.restore_bytes",
        payloads.iter().map(|(_, _, b)| b.len() as f64).sum(),
        "B",
    ));
    out.push(Metric::new(
        "chkpt.chain_links_per_restore",
        links as f64 / schedule.len().max(1) as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "chkpt.segment_cache_hits",
        store.stats().segment_cache_hits as f64,
        "count",
    ));
    Ok(payloads)
}

/// The write side: the same payloads through `batch()/stage()/commit()`
/// into an empty scratch store, in record order.
fn restage(
    payloads: &[(String, u64, flor_chkpt::Bytes)],
    scratch_store: &Path,
    spans: &Spans,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let store = CheckpointStore::open(scratch_store).map_err(err("open scratch store"))?;
    let (committed, ns) = spans.time("chkpt.commit", None, None, || {
        let mut batch = store.batch();
        for (block, seq, bytes) in payloads {
            batch.stage(block, *seq, bytes.as_ref());
        }
        batch.commit()
    });
    committed.map_err(err("commit"))?;
    let stats = store.stats();
    out.push(Metric::new("chkpt.commit_ms", ns / 1e6, "ms"));
    out.push(Metric::new(
        "chkpt.stored_bytes",
        stats.stored_bytes as f64,
        "B",
    ));
    out.push(Metric::new("chkpt.raw_bytes", stats.raw_bytes as f64, "B"));
    out.push(Metric::new(
        "chkpt.delta_entries",
        stats.delta_entries as f64,
        "count",
    ));
    out.push(Metric::new(
        "chkpt.keyframe_entries",
        stats.keyframe_entries as f64,
        "count",
    ));
    Ok(())
}

/// `run_vanilla` and `record` (default options) of the training script.
fn whole_runs(script: &str, scratch: &Path, spans: &Spans, out: &mut Vec<Metric>) -> Res<()> {
    let (mut vanilla, mut rec_ns, mut blocked, mut ckpts) = (vec![], vec![], vec![], vec![]);
    for rep in 0..RUN_REPS {
        let (log, ns) = spans.time("core.vanilla", None, None, || run_vanilla(script));
        log.map_err(err("vanilla run"))?;
        vanilla.push(ns);
        let opts = RecordOptions::new(scratch.join(format!("record{rep}")));
        let (report, ns) = spans.time("core.record", None, None, || record(script, &opts));
        let report = report.map_err(err("record"))?;
        rec_ns.push(ns);
        blocked.push(report.materializer.main_thread_ns as f64);
        ckpts.push(report.checkpoints as f64);
    }
    out.push(Metric::new("core.vanilla_ms", ns_to_ms(&vanilla), "ms"));
    out.push(Metric::new("core.record_ms", ns_to_ms(&rec_ns), "ms"));
    out.push(Metric::new(
        "core.submit_blocked_ms",
        ns_to_ms(&blocked),
        "ms",
    ));
    out.push(Metric::new("core.checkpoints", median(&ckpts), "count"));
    Ok(())
}

/// Per fresh probe, back to back so the two share the host's conditions:
/// `replay_with_store` as `flor serve` runs it (one worker, stealing on, a
/// module cache shared across jobs, a pooled store handle), then the
/// registry's calls around the same kind of replay — a fresh
/// `query_streaming`, a raw-key hit, a slice-memo hit — and the result
/// cache at this workload's log size.
#[allow(clippy::too_many_arguments)]
fn query_calls(
    spec: &Spec,
    script: &str,
    store: &Arc<CheckpointStore>,
    registry: &Registry,
    run_id: &str,
    scratch: &Path,
    spans: &Spans,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let opts = ReplayOptions {
        module_cache: Some(Arc::new(ModuleCache::new())),
        ..ReplayOptions::with_stealing(1)
    };
    let cache = QueryCache::open(scratch.join("query-cache")).map_err(err("open scratch cache"))?;
    let (mut replay, mut fresh, mut hit, mut slice_hit, mut get, mut put) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut stats: [Vec<f64>; 7] = Default::default();
    for q in 0..PROBES {
        let probed = probed_source(script, spec.site, REPLAY_BASE + q);
        let (report, ns) = spans.time("core.replay", None, Some(REPLAY_BASE + q), || {
            replay_with_store(&probed, store.clone(), &opts)
        });
        let report = report.map_err(err("replay"))?;
        if !report.anomalies.is_empty() {
            return Err(format!(
                "in-process replay anomalies: {:?}",
                report.anomalies
            ));
        }
        replay.push(ns);
        let s = &report.stats;
        for (samples, v) in stats.iter_mut().zip([
            s.restored,
            s.executed,
            s.restore_ns,
            s.prefetch_hits,
            s.ranges_executed,
            s.stream_first_entry_ns,
            s.chain_links,
        ]) {
            samples.push(v as f64);
        }

        let probed = probed_source(script, spec.site, REGISTRY_BASE + q);
        let qid = Some(REGISTRY_BASE + q);
        let mut streamed = 0usize;
        let (outcome, ns) = spans.time("registry.query", None, qid, || {
            registry.query_streaming(run_id, &probed, 1, &mut |ev| {
                if let flor_registry::QueryEvent::Entries(chunk) = ev {
                    streamed += chunk.len();
                }
            })
        });
        let outcome = outcome.map_err(err("fresh registry query"))?;
        if outcome.cached || streamed != outcome.log.len() || !outcome.anomalies.is_empty() {
            return Err("fresh registry query was cached, short or anomalous".into());
        }
        fresh.push(ns);
        let (again, ns) = spans.time("registry.hit", None, qid, || {
            registry.query(run_id, &probed, 1)
        });
        let again = again.map_err(err("repeat registry query"))?;
        if !again.cached || again.slice_cache_hits != 0 {
            return Err("repeat registry query missed the raw-key cache".into());
        }
        hit.push(ns);
        let variant = variant_source(&probed, q);
        let (memo, ns) = spans.time("registry.slice_hit", None, qid, || {
            registry.query(run_id, &variant, 1)
        });
        let memo = memo.map_err(err("variant registry query"))?;
        if !memo.cached || memo.slice_cache_hits != 1 {
            return Err("variant registry query missed the slice memo".into());
        }
        slice_hit.push(ns);
        let result = CachedResult {
            probes: again.probes,
            log: again.log,
        };
        let key = format!("{:016x}", REGISTRY_BASE + q);
        let (stored, ns) = spans.time("registry.cache_put", None, qid, || cache.put(&key, &result));
        stored.map_err(err("cache put"))?;
        put.push(ns);
        let (found, ns) = spans.time("registry.cache_get", None, qid, || cache.get(&key));
        if found.as_ref() != Some(&result) {
            return Err("query cache did not return what was put".into());
        }
        get.push(ns);
    }
    out.push(Metric::new("core.replay_ms", ns_to_ms(&replay), "ms"));
    out.push(Metric::new("core.restored", median(&stats[0]), "count"));
    out.push(Metric::new("core.executed", median(&stats[1]), "count"));
    out.push(Metric::new("core.restore_ms", ns_to_ms(&stats[2]), "ms"));
    out.push(Metric::new(
        "core.prefetch_hits",
        median(&stats[3]),
        "count",
    ));
    out.push(Metric::new(
        "core.ranges_executed",
        median(&stats[4]),
        "count",
    ));
    out.push(Metric::new(
        "core.first_entry_ms",
        ns_to_ms(&stats[5]),
        "ms",
    ));
    out.push(Metric::new("core.chain_links", median(&stats[6]), "count"));
    out.push(Metric::new("registry.query_ms", ns_to_ms(&fresh), "ms"));
    out.push(Metric::new("registry.hit_ms", ns_to_ms(&hit), "ms"));
    out.push(Metric::new(
        "registry.slice_hit_ms",
        ns_to_ms(&slice_hit),
        "ms",
    ));
    out.push(Metric::new("registry.cache_put_us", ns_to_us(&put), "us"));
    out.push(Metric::new("registry.cache_get_us", ns_to_us(&get), "us"));
    Ok(())
}
