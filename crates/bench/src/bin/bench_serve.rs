//! Emits `BENCH_serve.json`: the async multi-tenant query service under
//! realistic socket load. The fixture is one recorded training run with
//! an inner-loop probe; every phase drives the real server (a reader and
//! a writer thread per connection) through real sockets with the line
//! protocol. Columns:
//!
//! - `serial`: one closed-loop client streaming the same (warm-cache)
//!   hindsight query, waiting for each `+done` before the next `stream`.
//!   Reports qps and per-round TTFE (send → first `+entry`) p50/p99.
//!   The throughput phases emulate a 2ms client RTT (loopback has none;
//!   the column is labeled): a serialized issuer stalls one RTT per
//!   round, which is the idle time an async server reclaims.
//! - `concurrent`: 16 closed-loop clients over 16 connections against
//!   the same server, same emulated RTT. `qps_speedup` is its aggregate
//!   qps over `serial` — the connections' threads overlap the clients'
//!   RTTs, so aggregate throughput must be ≥4× the serialized
//!   single-client baseline (asserted in-binary).
//! - `admission`: the 16-client phase re-run with per-tenant token
//!   buckets, concurrent-job limits, and backlog shedding switched on
//!   (generously, so nothing is actually shed): `admission_overhead` is
//!   its qps over the uncontrolled run, and must stay ≥0.7× (the
//!   admission door is O(1) per submission). A separate shed demo with
//!   `max_tenant_jobs = 1` pipelines fresh queries and asserts that at
//!   least one is refused with a one-line reason.
//! - `fresh`: TTFE p50/p99 of genuinely replaying queries (each probe
//!   carries a distinct constant, defeating both the query cache and the
//!   cross-query slice memo), 4 clients — the baseline for:
//! - `slow_reader`: the same 4-client fresh workload while a fifth
//!   connection has streamed hundreds of queries and never reads a byte
//!   (Unix socket + minimum SO_SNDBUF, so its output genuinely jams).
//!   Per-connection backpressure must confine the damage:
//!   `p99_ratio = with_slow / baseline` is asserted ≤1.5× in-binary
//!   (plus a 25ms absolute allowance for scheduler noise at p99).
//!
//! ```text
//! cargo run --release -p flor-bench --bin bench_serve [-- OUT.json]
//! ```
//!
//! Quick mode (`FLOR_BENCH_QUICK=1`, used by `tools/bench.sh` in CI)
//! trims round counts; the reported ratios are scale-invariant.

use flor_registry::{
    AdmissionPolicy, Conn, Endpoint, Registry, Server, ServerConfig, ServerHandle,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training-shaped fixture: 6 epochs × 8 batches, small enough that a
/// fresh sliced replay is milliseconds but real work, with enough log
/// entries (48 per query) that streaming them is a real payload.
const TRAIN_SRC: &str = "\
import flor
data = synth_data(n=160, dim=8, classes=2, seed=11)
loader = dataloader(data, batch_size=20, seed=11)
net = mlp(input=8, hidden=8, classes=2, depth=1, seed=11)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range(6):
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
";

/// An inner-loop probe reading per-batch state (`loss` is live and
/// changes every step, so slicing cannot skip the loop body). The
/// constant makes each variant a distinct computation: a new query-cache
/// key AND a new slice class, so replay is genuinely paid.
fn fresh_probe(k: u64) -> String {
    let out = TRAIN_SRC.replace(
        "        avg.update(loss)\n",
        &format!("        avg.update(loss)\n        log(\"probe{k}\", loss + {k})\n"),
    );
    assert_ne!(out, TRAIN_SRC);
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flor-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Minimal blocking protocol client over the real socket.
struct Client {
    conn: Arc<Conn>,
    reader: BufReader<ArcConn>,
}

struct ArcConn(Arc<Conn>);
impl std::io::Read for ArcConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Client {
    fn connect(ep: &Endpoint) -> Client {
        let conn = Arc::new(Conn::connect(ep).expect("connect"));
        let mut c = Client {
            reader: BufReader::new(ArcConn(conn.clone())),
            conn,
        };
        let banner = c.read_line();
        assert!(banner.starts_with("# serving registry"), "{banner}");
        c
    }

    fn send(&mut self, line: &str) {
        (&*self.conn)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn read_line(&mut self) -> String {
        let mut s = String::new();
        let n = self.reader.read_line(&mut s).expect("read");
        assert!(n > 0, "unexpected EOF from server");
        s.trim_end_matches('\n').to_string()
    }

    /// One closed-loop round: `stream` the query, record TTFE (first
    /// `+entry` of this job), return once this job's `+done` arrives.
    /// `rtt` emulates the client's network round-trip (loopback has
    /// none): the issuer cannot see a response sooner than one RTT
    /// after asking, which is precisely the per-round stall a
    /// serialized client pays and concurrent clients overlap.
    fn stream_round(&mut self, query_path: &str, rtt: Duration) -> u64 {
        let t0 = Instant::now();
        self.send(&format!("stream bench {query_path}"));
        if !rtt.is_zero() {
            std::thread::sleep(rtt);
        }
        let queued = self.read_line();
        assert!(queued.starts_with("queued job "), "{queued}");
        let id: u64 = queued["queued job ".len()..]
            .split(':')
            .next()
            .unwrap()
            .parse()
            .expect("job id");
        let entry_tag = format!("+entry {id} ");
        let done_tag = format!("+done {id} ");
        let mut ttfe_ns = 0u64;
        loop {
            let line = self.read_line();
            if ttfe_ns == 0 && line.starts_with(&entry_tag) {
                ttfe_ns = t0.elapsed().as_nanos() as u64;
            }
            if line.starts_with(&done_tag) {
                assert!(!line.contains("FAILED"), "{line}");
                return ttfe_ns;
            }
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `clients` closed-loop connections, `rounds` streams each; returns
/// (aggregate qps, all TTFE samples in ns).
fn closed_loop(
    ep: &Endpoint,
    clients: usize,
    rounds: usize,
    paths: &[String],
    rtt: Duration,
) -> (f64, Vec<u64>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let ttfes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut c = Client::connect(ep);
                    let mut local = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let path = &paths[next.fetch_add(1, Ordering::Relaxed) % paths.len()];
                        local.push(c.stream_round(path, rtt));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    let wall = t0.elapsed().as_secs_f64();
    ((clients * rounds) as f64 / wall, ttfes)
}

fn start(registry: &Arc<Registry>, config: ServerConfig) -> (ServerHandle, Endpoint) {
    let handle = Server::start(registry.clone(), config).expect("start server");
    let ep = handle.local_endpoints()[0].clone();
    (handle, ep)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let quick = std::env::var("FLOR_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // (serial rounds, rounds per concurrent client, fresh queries per
    // client, pipelined streams the slow reader jams with).
    let (serial_rounds, conc_rounds, fresh_per_client, slow_pipeline) = if quick {
        (60usize, 12usize, 5usize, 150usize)
    } else {
        (200, 40, 12, 300)
    };
    let clients = 16usize;
    let fresh_clients = 4usize;
    // The throughput phases emulate a 2ms client RTT (a same-region
    // datacenter link; loopback has none). A serialized issuer pays it
    // once per round; 16 concurrent connections overlap it — the very
    // idle time a server with concurrent connections reclaims. The
    // TTFE phases measure the server itself and stay RTT-free.
    let rtt = Duration::from_millis(2);

    let dir = tmp_dir("fixture");
    let registry = Arc::new(Registry::open(dir.join("registry")).expect("open registry"));
    eprintln!("recording 6x8 training fixture…");
    registry
        .record_run("bench", TRAIN_SRC, |o| o.adaptive = false)
        .expect("record fixture");
    // The warm query all throughput phases share, and distinct fresh
    // probes (one constant each, numbered across phases so nothing is
    // ever served from a cache it didn't earn).
    let warm_path = dir.join("warm.flr");
    std::fs::write(&warm_path, fresh_probe(0)).expect("write warm probe");
    let warm = vec![warm_path.display().to_string()];
    let mut fresh_counter = 1u64;
    let mut fresh_batch = |n: usize| -> Vec<String> {
        (0..n)
            .map(|_| {
                let k = fresh_counter;
                fresh_counter += 1;
                let p = dir.join(format!("fresh{k}.flr"));
                std::fs::write(&p, fresh_probe(k)).expect("write fresh probe");
                p.display().to_string()
            })
            .collect()
    };

    // ── serial: one closed-loop client on the warm query ──────────────
    eprintln!("serial: 1 client × {serial_rounds} warm streams…");
    let (handle, ep) = start(&registry, ServerConfig::default());
    {
        // Cache warm-up round, excluded from timing.
        let mut c = Client::connect(&ep);
        c.stream_round(&warm[0], Duration::ZERO);
    }
    let (qps_serial, mut serial_ttfe) = closed_loop(&ep, 1, serial_rounds, &warm, rtt);
    drop(handle);
    serial_ttfe.sort_unstable();
    let serial_p50 = percentile(&serial_ttfe, 0.50);
    let serial_p99 = percentile(&serial_ttfe, 0.99);

    // ── concurrent: 16 clients, same warm query, no admission ─────────
    eprintln!("concurrent: {clients} clients × {conc_rounds} warm streams…");
    let (handle, ep) = start(&registry, ServerConfig::default());
    {
        let mut c = Client::connect(&ep);
        c.stream_round(&warm[0], Duration::ZERO);
    }
    let (qps_conc, _) = closed_loop(&ep, clients, conc_rounds, &warm, rtt);
    drop(handle);
    let qps_speedup = qps_conc / qps_serial;

    // ── admission: same load with every limit switched on ─────────────
    eprintln!("admission: {clients} clients × {conc_rounds} with generous quotas…");
    let (handle, ep) = start(
        &registry,
        ServerConfig {
            admission: AdmissionPolicy {
                max_queue_depth: 4096,
                max_tenant_jobs: 64,
                tenant_burst: 1_000_000,
                tenant_refill_per_sec: 1_000_000.0,
                max_backlog_ms: 60_000,
            },
            ..ServerConfig::default()
        },
    );
    {
        let mut c = Client::connect(&ep);
        c.stream_round(&warm[0], Duration::ZERO);
    }
    let (qps_admitted, _) = closed_loop(&ep, clients, conc_rounds, &warm, rtt);
    drop(handle);
    let admission_overhead = qps_admitted / qps_conc;

    // Shed demo: one tenant capped at a single concurrent job pipelines
    // fresh queries; the door must refuse at least one with a reason.
    eprintln!("admission: shed demo (max_tenant_jobs = 1)…");
    let (handle, ep) = start(
        &registry,
        ServerConfig {
            admission: AdmissionPolicy {
                max_tenant_jobs: 1,
                ..AdmissionPolicy::unlimited()
            },
            ..ServerConfig::default()
        },
    );
    let sheds = {
        let mut c = Client::connect(&ep);
        c.send("tenant bench-shed");
        assert_eq!(c.read_line(), "tenant set: \"bench-shed\"");
        let burst = fresh_batch(6);
        for p in &burst {
            c.send(&format!("query bench {p}"));
        }
        let mut queued = 0usize;
        let mut denied = 0usize;
        while queued + denied < burst.len() {
            let line = c.read_line();
            if line.starts_with("queued job ") {
                queued += 1;
            } else if line.starts_with("admission denied") {
                denied += 1;
            }
        }
        denied as u64
    };
    drop(handle);
    assert!(sheds >= 1, "capped tenant must shed at least one query");

    // ── fresh-replay TTFE, then the same with a jammed slow reader ────
    // Unix socket + minimum SO_SNDBUF: a non-reading peer's output jams
    // in its own buffers instead of vanishing into the peer's TCP
    // receive window. Stall-dropping is disabled so the jam persists
    // for the whole phase.
    let sock_config = || ServerConfig {
        endpoints: vec![Endpoint::Unix(dir.join("bench.sock"))],
        sndbuf: 1,
        write_stall_timeout_ms: 0,
        ..ServerConfig::default()
    };
    eprintln!("fresh: {fresh_clients} clients × {fresh_per_client} distinct replays…");
    let (handle, ep) = start(&registry, sock_config());
    let paths = fresh_batch(fresh_clients * fresh_per_client);
    let (_, mut base_ttfe) =
        closed_loop(&ep, fresh_clients, fresh_per_client, &paths, Duration::ZERO);
    drop(handle);
    base_ttfe.sort_unstable();
    let fresh_p50 = percentile(&base_ttfe, 0.50);
    let fresh_p99 = percentile(&base_ttfe, 0.99);

    eprintln!("slow reader: same fresh load beside a never-reading stream…");
    let _ = std::fs::remove_file(dir.join("bench.sock"));
    let (handle, ep) = start(&registry, sock_config());
    let slow = Conn::connect(&ep).expect("slow connect");
    let mut jam = String::new();
    for _ in 0..slow_pipeline {
        let _ = writeln!(jam, "stream bench {}", warm[0]);
    }
    (&slow).write_all(jam.as_bytes()).expect("jam writes");
    let paths = fresh_batch(fresh_clients * fresh_per_client);
    let (_, mut slow_ttfe) =
        closed_loop(&ep, fresh_clients, fresh_per_client, &paths, Duration::ZERO);
    drop(handle);
    drop(slow);
    slow_ttfe.sort_unstable();
    let slow_p99 = percentile(&slow_ttfe, 0.99);
    let p99_ratio = slow_p99 as f64 / fresh_p99.max(1) as f64;

    eprintln!(
        "serve: serial {qps_serial:.0} qps (TTFE p50 {:.2}ms p99 {:.2}ms), {clients} clients \
         {qps_conc:.0} qps — {qps_speedup:.2}x; admission {qps_admitted:.0} qps \
         ({admission_overhead:.2}x, {sheds} shed in demo); fresh TTFE p50 {:.2}ms p99 {:.2}ms, \
         beside slow reader p99 {:.2}ms — {p99_ratio:.2}x",
        serial_p50 as f64 / 1e6,
        serial_p99 as f64 / 1e6,
        fresh_p50 as f64 / 1e6,
        fresh_p99 as f64 / 1e6,
        slow_p99 as f64 / 1e6,
    );
    assert!(
        qps_speedup >= 4.0,
        "16 concurrent clients must pipeline to ≥4× the serialized qps: got {qps_speedup:.2}x"
    );
    assert!(
        admission_overhead >= 0.7,
        "the admission door is O(1) and must not cost the service its throughput: \
         got {admission_overhead:.2}x"
    );
    assert!(
        slow_p99 as f64 <= fresh_p99 as f64 * 1.5 + 25e6,
        "a slow reader must not degrade other connections' p99 TTFE past 1.5×: \
         {:.2}ms → {:.2}ms ({p99_ratio:.2}x)",
        fresh_p99 as f64 / 1e6,
        slow_p99 as f64 / 1e6,
    );

    let mut body = String::new();
    let _ = writeln!(body, "{{");
    let _ = writeln!(body, "  \"bench\": \"serve\",");
    let _ = writeln!(
        body,
        "  \"description\": \"async multi-tenant query service over real sockets: closed-loop \
         warm-cache streaming qps for 1 vs 16 clients under an emulated 2ms client RTT (the \
         connections' threads overlap the clients' round-trips, so \
         concurrent aggregate qps is held ≥4x the serialized baseline), the same \
         load under full admission control, a shed demo with a capped tenant, and fresh-replay \
         TTFE p50/p99 with and without a never-reading peer jamming its own Unix-socket \
         buffers (per-connection backpressure holds the others' p99 within 1.5x)\","
    );
    let _ = writeln!(body, "  \"quick\": {quick},");
    let _ = writeln!(
        body,
        "  \"fixture\": {{\"epochs\": 6, \"batches\": 8, \"emulated_rtt_ms\": 2, \
         \"serial_rounds\": {serial_rounds}, \
         \"concurrent_clients\": {clients}, \"rounds_per_client\": {conc_rounds}, \
         \"fresh_clients\": {fresh_clients}, \"fresh_per_client\": {fresh_per_client}, \
         \"slow_pipeline\": {slow_pipeline}}},"
    );
    let _ = writeln!(
        body,
        "  \"serial\": {{\"qps\": {qps_serial:.1}, \"ttfe_p50_ns\": {serial_p50}, \
         \"ttfe_p99_ns\": {serial_p99}}},"
    );
    let _ = writeln!(body, "  \"concurrent\": {{\"qps\": {qps_conc:.1}}},");
    let _ = writeln!(
        body,
        "  \"admission\": {{\"qps\": {qps_admitted:.1}, \"shed_demo_refusals\": {sheds}}},"
    );
    let _ = writeln!(
        body,
        "  \"fresh\": {{\"ttfe_p50_ns\": {fresh_p50}, \"ttfe_p99_ns\": {fresh_p99}}},"
    );
    let _ = writeln!(
        body,
        "  \"slow_reader\": {{\"with_slow_p99_ns\": {slow_p99}, \"p99_ratio\": {p99_ratio:.3}}},"
    );
    let _ = writeln!(body, "  \"qps_speedup\": {qps_speedup:.2},");
    let _ = writeln!(body, "  \"admission_overhead\": {admission_overhead:.2}");
    let _ = writeln!(body, "}}");

    std::fs::write(&out_path, &body).expect("write BENCH_serve.json");
    eprintln!("wrote {out_path}");
}
