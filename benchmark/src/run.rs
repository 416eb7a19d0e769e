//! The two run modes. `--trace 0`: repeated set-up, interleaved
//! `flor run`/`flor record` pairs, then a closed-loop serve phase over the
//! real socket, all checked — the end-to-end metrics. `--trace 1`: one
//! client, spans on, then the in-process layer passes — the per-layer
//! metrics and the budget that sums to the one-client latency.

use crate::check::{check_structure, oracle_log};
use crate::client::{Client, Reply};
use crate::fixture::{setup, Fixture, Flor, Server};
use crate::layers;
use crate::report::{
    assemble_end_to_end, budget, traced_metrics, Checked, EndToEndRaw, RunResult, SocketSide,
};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{plan_query, query_source, Class, Query, Rng, Spec, HOT_PROBES};
use crate::Res;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fewest queries a serve phase issues, so that at least ten samples lie
/// beyond the reported p90.
pub const MIN_QUERIES: u64 = 100;
/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Fewest and most `flor run`/`flor record` pairs.
const MIN_PAIRS: usize = 5;
const MAX_PAIRS: usize = 21;
/// Share of `--seconds` spent on the record pairs; the rest is the serve
/// phase.
const RECORD_SHARE: f64 = 0.3;
/// Sampled queries per class compared with the from-scratch oracle.
const ORACLE_SAMPLES: usize = 3;
/// Plan indices at and above this value are warm-ups and trace-mode class
/// probes; a measured serve phase never issues this many queries.
const RESERVED_INDEX: u64 = 500_000;
/// Hot probes a `--trace 1` run materializes for its repeat and variant
/// phases, and queries in each of those phases.
const TRACE_HOT: u64 = 4;
const TRACE_CLASS_QUERIES: u64 = 40;
/// Fewest fresh queries in each one-client phase of a `--trace 1` run.
const TRACE_MIN_QUERIES: u64 = 15;
/// How often the serve phase reads the server's resident set.
const RSS_PERIOD: Duration = Duration::from_millis(25);
/// `runs` round trips timed for `net.rtt_us`.
const RTT_SAMPLES: usize = 200;

/// What every run needs to know.
#[derive(Debug, Clone)]
pub struct Config {
    /// The release `flor` binary.
    pub flor: Flor,
    /// Where scratch directories and trace files go (inside the checkout).
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Analysts wait for their log, so load is a closed loop; never more
/// client threads (or server workers) than cores, and two at most.
pub fn client_count() -> usize {
    host_cores().min(2)
}

/// One issued query and what came back.
pub struct Served {
    /// The planned query.
    pub query: Query,
    /// Its probed source (kept for the oracle).
    pub source: String,
    /// The reply, or why there was none.
    pub reply: Res<Reply>,
}

/// A fixture and the server running on it.
struct Live<'a> {
    fx: &'a Fixture,
    server: &'a Server,
    spec: &'a Spec,
}

impl Live<'_> {
    /// Writes the query's probed source where the server can read it and
    /// streams it. The file write is outside the timed interval.
    fn issue(&self, client: &mut Option<Client>, query: Query, spans: Option<&Spans>) -> Served {
        let source = query_source(self.spec, &self.fx.scripts, &query);
        let path = self.fx.tmp.path().join(format!("q{}.flr", query.index));
        let reply = std::fs::write(&path, &source)
            .map_err(|e| format!("write {}: {e}", path.display()))
            .and_then(|()| match client {
                Some(c) => Ok(c),
                None => Ok(client.insert(Client::connect(self.server.socket())?)),
            })
            .and_then(|c| c.stream(&self.spec.run_id(query.run), &path));
        match (&reply, spans) {
            (Ok(r), Some(spans)) => {
                let qid = Some(query.index);
                let root = spans.record("query", r.sent, r.done, None, qid);
                spans.record("serve.ack", r.sent, r.acked, Some(root), qid);
                let first = r.first_entry.unwrap_or(r.done);
                spans.record("serve.first_entry", r.acked, first, Some(root), qid);
                spans.record("serve.stream", first, r.done, Some(root), qid);
            }
            // After a refusal or a missed deadline the stream's state is
            // unknown: the next query starts on a new connection.
            (Err(_), _) => *client = None,
            _ => {}
        }
        Served {
            query,
            source,
            reply,
        }
    }

    /// A closed loop of `clients` threads, one connection each, drawing
    /// plan indices from a shared counter until `window` has passed and at
    /// least `min_queries` were issued. Returns what was served, the
    /// phase's wall seconds (first submission → last completion), and the
    /// server's resident set, MiB: the median of a reading every
    /// `RSS_PERIOD` (a replay's buffers come and go, so single readings
    /// swing by a third).
    fn closed_loop(
        &self,
        clients: usize,
        window: Duration,
        min_queries: u64,
        make_query: &(dyn Fn(u64) -> Query + Sync),
        spans: Option<&Spans>,
    ) -> (Vec<Served>, f64, Res<f64>) {
        let next = AtomicU64::new(0);
        let running = AtomicBool::new(true);
        let start = Instant::now();
        let (mut served, rss) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut readings = Vec::new();
                while running.load(Ordering::Relaxed) {
                    readings.push(self.server.rss_mib());
                    std::thread::sleep(RSS_PERIOD);
                }
                readings.into_iter().collect::<Res<Vec<f64>>>()
            });
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = None;
                        let mut mine = Vec::new();
                        while start.elapsed() < window || next.load(Ordering::Relaxed) < min_queries
                        {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            mine.push(self.issue(&mut client, make_query(index), spans));
                        }
                        mine
                    })
                })
                .collect();
            let served: Vec<Served> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("client threads return errors, never panic"))
                .collect();
            running.store(false, Ordering::Relaxed);
            (served, sampler.join().expect("the sampler never panics"))
        });
        let wall = start.elapsed().as_secs_f64();
        served.sort_by_key(|s| s.query.index);
        (served, wall, rss.map(|readings| median(&readings)))
    }

    /// Untimed: a fresh query per run, and the first `hot` probes of the
    /// hot set once verbatim and once reformatted, so that caches, pooled
    /// store handles and lazy set-up are as a long-running service has
    /// them. The first-query cold-open cost is `chkpt.open_ms` in the
    /// traced run.
    fn warm_up(&self, client: &mut Option<Client>, seed: u64, hot: u64) -> Res<()> {
        let spec = self.spec;
        let fresh =
            (0..spec.runs).map(|run| Query::fresh(spec, seed, RESERVED_INDEX + run as u64, run));
        let hot = (0..hot).flat_map(|h| {
            [Class::Repeat, Class::Variant]
                .map(|class| Query::hot(spec, seed, class, RESERVED_INDEX + 100 + h, h))
        });
        for query in fresh.chain(hot) {
            self.issue(client, query, None).reply?;
        }
        Ok(())
    }
}

/// Interleaved `flor run` / `flor record` pairs of `script`, alternating
/// which goes first, until `budget` is spent (within the pair limits).
/// Every record goes into its own empty registry so none dedups against
/// an earlier one.
fn record_pairs(
    cfg: &Config,
    script: &Path,
    scratch: &Path,
    budget: Duration,
    raw: &mut EndToEndRaw,
) -> Res<()> {
    let start = Instant::now();
    for pair in 0..MAX_PAIRS {
        if pair >= MIN_PAIRS && start.elapsed() >= budget {
            break;
        }
        let registry = scratch.join(format!("pair{pair}"));
        let mut record = || -> Res<()> {
            let rec = cfg.flor.record(script, &registry, "r", &[])?;
            raw.record_s.push(rec.wall_s);
            raw.adaptive_checkpoints.push(rec.checkpoints as f64);
            Ok(())
        };
        if pair % 2 == 0 {
            raw.run_s.push(cfg.flor.run_vanilla(script)?);
            record()?;
        } else {
            record()?;
            raw.run_s.push(cfg.flor.run_vanilla(script)?);
        }
        let _ = std::fs::remove_dir_all(&registry);
    }
    Ok(())
}

/// Checks every served query's structure, and a seeded sample per class —
/// `ORACLE_SAMPLES` of the first `MIN_QUERIES` plan indices — against the
/// from-scratch oracle.
fn check(spec: &Spec, fx: &Fixture, seed: u64, served: &[Served]) -> Checked {
    let mut failures: Vec<String> = Vec::new();
    let mut correct = vec![false; served.len()];
    for (i, s) in served.iter().enumerate() {
        let verdict = match &s.reply {
            Ok(reply) => check_structure(spec, &fx.record_logs[s.query.run], &s.query, reply),
            Err(e) => Err(e.clone()),
        };
        match verdict {
            Ok(()) => correct[i] = true,
            Err(e) => failures.push(format!(
                "query {} ({:?}): {e}",
                s.query.index, s.query.class
            )),
        }
    }
    let mut checked = Checked {
        attempted: served.len() as u64,
        ..Checked::default()
    };
    for class in Class::ALL {
        let mut pool: Vec<usize> = (0..served.len())
            .filter(|&i| served[i].query.class == class && served[i].query.index < MIN_QUERIES)
            .collect();
        let mut rng = Rng::new(seed, u64::MAX - class as u64);
        for _ in 0..ORACLE_SAMPLES.min(pool.len()) {
            let i = pool.swap_remove(rng.below(pool.len() as u64) as usize);
            checked.oracle_checked += 1;
            let equal = match (&served[i].reply, oracle_log(&served[i].source)) {
                (Ok(reply), Ok(oracle)) => reply.entries == oracle,
                _ => false,
            };
            if equal {
                checked.oracle_equal += 1;
            } else if std::mem::take(&mut correct[i]) {
                failures.push(format!(
                    "query {}: streamed log differs from the from-scratch oracle",
                    served[i].query.index
                ));
            }
        }
    }
    for (s, _) in served.iter().zip(&correct).filter(|(_, ok)| **ok) {
        let reply = s.reply.as_ref().expect("correct queries have replies");
        checked.latency_ms.push(reply.latency_ms());
        checked.ttfe_ms.push(reply.ttfe_ms());
    }
    checked.failed = checked.attempted - checked.latency_ms.len() as u64;
    checked.failures = failures.into_iter().take(5).collect();
    checked
}

/// Median latency, ms, of the queries in `served` that got a reply.
fn p50_ms<'a>(served: impl IntoIterator<Item = &'a Served>) -> f64 {
    let ms: Vec<f64> = served
        .into_iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .map(Reply::latency_ms)
        .collect();
    median(&ms)
}

/// The `--trace 0` run.
pub fn run_end_to_end(cfg: &Config, spec: &Spec) -> Res<RunResult> {
    let clients = client_count();
    let mut raw = EndToEndRaw {
        host_cores: host_cores(),
        clients,
        ..EndToEndRaw::default()
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;

    // Set-up, several times. The fixture that gets served is the one with
    // the median stored size: where the store's layout depends on a race
    // (out-of-order materializer batches restart delta chains), that is
    // the typical layout, not whichever came last.
    // One untimed set-up comes first: the binary's pages and the scratch
    // directory's metadata are cold on a run's first process spawns.
    let set_up = |tag: &str| setup(&cfg.flor, spec, cfg.seed, &cfg.out_dir, clients, tag);
    drop(set_up("warm")?);
    let mut fixtures = (0..SETUP_REPS)
        .map(|rep| set_up(&format!("fx{rep}")))
        .collect::<Res<Vec<Fixture>>>()?;
    raw.setup_s = fixtures.iter().map(|fx| fx.setup_s).collect();
    fixtures.sort_by_key(|fx| fx.stored_bytes);
    let fx = fixtures.swap_remove(SETUP_REPS / 2);
    drop(fixtures);
    raw.stored_bytes = fx.stored_bytes;
    raw.raw_bytes = fx.raw_bytes;
    raw.checkpoints = fx.checkpoints;

    record_pairs(
        cfg,
        &fx.script_paths[0],
        fx.tmp.path(),
        Duration::from_secs_f64(cfg.seconds * RECORD_SHARE),
        &mut raw,
    )?;

    let server = fx.serve(&cfg.flor, clients)?;
    let live = Live {
        fx: &fx,
        server: &server,
        spec,
    };
    let hot_classes = spec.repeat_share + spec.variant_share > 0.0;
    live.warm_up(
        &mut None,
        cfg.seed,
        if hot_classes { HOT_PROBES } else { 0 },
    )?;
    let (served, wall, rss) = live.closed_loop(
        clients,
        Duration::from_secs_f64(cfg.seconds * (1.0 - RECORD_SHARE)),
        MIN_QUERIES,
        &|index| plan_query(spec, cfg.seed, index),
        None,
    );
    drop(server);
    raw.serve_wall_s = wall;
    raw.serve_rss_mib = rss?;
    raw.checked = check(spec, &fx, cfg.seed, &served);
    let mut result = assemble_end_to_end(spec.name, &raw);
    if hot_classes {
        let p50 = |class| p50_ms(served.iter().filter(|s| s.query.class == class));
        result.notes.push(format!(
            "per class p50: fresh {:.4} ms, repeat {:.4} ms, variant {:.4} ms",
            p50(Class::Fresh),
            p50(Class::Repeat),
            p50(Class::Variant)
        ));
    }
    Ok(result)
}

/// The `--trace 1` run.
pub fn run_traced(cfg: &Config, spec: &Spec) -> Res<RunResult> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let spans = Spans::default();
    let fx = setup(
        &cfg.flor,
        spec,
        cfg.seed,
        &cfg.out_dir,
        client_count(),
        "trace",
    )?;
    let server = fx.serve(&cfg.flor, client_count())?;
    let live = Live {
        fx: &fx,
        server: &server,
        spec,
    };
    let mut client = Some(Client::connect(server.socket())?);
    live.warm_up(&mut client, cfg.seed, TRACE_HOT)?;

    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    let conn = client.as_mut().expect("warm-up leaves a live connection");
    for _ in 0..RTT_SAMPLES {
        let (reply, ns) = spans.time("net.rtt", None, None, || conn.runs_round_trip(spec.runs));
        reply?;
        rtt.push(ns);
    }
    drop(client);

    // One client: fresh probes of the workload's kind, spans off and then
    // on (the difference between the two medians is the tracing overhead),
    // then repeats and variants of a few hot probes.
    let window = Duration::from_secs_f64(cfg.seconds * 0.25);
    let fresh = |index: u64| Query::fresh(spec, cfg.seed, index, index as usize);
    let (untraced, ..) = live.closed_loop(1, window, TRACE_MIN_QUERIES, &fresh, None);
    let offset = untraced.len() as u64;
    let (traced, ..) = live.closed_loop(
        1,
        window,
        TRACE_MIN_QUERIES,
        &|i| fresh(offset + i),
        Some(&spans),
    );
    let hot_phase = |class: Class| {
        let base = RESERVED_INDEX + 1000 * (1 + class as u64);
        let hot = |i| Query::hot(spec, cfg.seed, class, base + i, i % TRACE_HOT);
        live.closed_loop(1, Duration::ZERO, TRACE_CLASS_QUERIES, &hot, Some(&spans))
            .0
    };
    let repeats = hot_phase(Class::Repeat);
    let variants = hot_phase(Class::Variant);
    // The server must be gone before another writable handle opens its
    // stores.
    drop(server);

    // serve.entry_us: on cache-hit streams, (+done - first +entry) / entries.
    let entry_us: Vec<f64> = repeats
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .filter_map(|r| {
            Some((r.done - r.first_entry?).as_secs_f64() * 1e6 / r.entries.len() as f64)
        })
        .collect();
    let socket = SocketSide {
        fresh_ms: p50_ms(&untraced),
        traced_fresh_ms: p50_ms(&traced),
        repeat_ms: p50_ms(&repeats),
        variant_ms: p50_ms(&variants),
        rtt_us: median(&rtt) / 1e3,
        entry_us: median(&entry_us),
    };
    let served: Vec<Served> = [untraced, traced, repeats, variants]
        .into_iter()
        .flatten()
        .collect();
    let checked = check(spec, &fx, cfg.seed, &served);

    let layer = layers::measure(spec, &fx.registry, &fx.scripts[0], &spans, fx.tmp.path())?;
    let b = budget(&layer, socket.fresh_ms, socket.rtt_us);
    let trace_path = cfg.out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::write(&trace_path, spans.to_json(spec.name))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut notes = vec![format!(
        "workload {}: traced run, 1 client, host_cores {}; spans -> {}",
        spec.name,
        host_cores(),
        trace_path.display()
    )];
    notes.extend(b.table());
    notes.push(format!(
        "separations: core.exec is {:.1}% of the total, chkpt.restore {:.1}%, \
         repeat p50 is {:.1}x below fresh p50",
        100.0 * b.row("core.exec") / b.total_ms,
        100.0 * b.row("chkpt.restore") / b.total_ms,
        b.total_ms / socket.repeat_ms.max(1e-9)
    ));
    notes.extend(checked.failures.iter().map(|f| format!("failure: {f}")));
    Ok(RunResult {
        correct: checked.correct(),
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: traced_metrics(layer, &b, &socket),
        notes,
    })
}
