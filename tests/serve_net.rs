//! Network-level tests of the socket query service: the serve protocol
//! over real TCP and Unix sockets, plus fault injection — client
//! disconnects mid-stream, torn half-written lines, oversized garbage,
//! and a slow reader hitting the stall timeout. In every case the server
//! must keep serving other connections, release the dead client's jobs,
//! and never panic.

#![cfg(unix)]

use flor_registry::{
    AdmissionPolicy, Conn, Endpoint, Registry, Server, ServerConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRAIN_SRC: &str = "\
import flor
data = synth_data(n=40, dim=8, classes=2, seed=5)
loader = dataloader(data, batch_size=20, seed=5)
net = mlp(input=8, hidden=8, classes=2, depth=1, seed=5)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range(4):
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

/// Same shape scaled up (big dataset, 16 epochs) so a hindsight query
/// with a live full-dataset probe replays long enough to disconnect or
/// stall mid-flight.
fn heavy_src() -> String {
    TRAIN_SRC
        .replace("n=40", "n=800")
        .replace("batch_size=20", "batch_size=40")
        .replace("range(4)", "range(16)")
        .replace("hidden=8,", "hidden=32,")
}

fn probe(src: &str) -> String {
    let out = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hs_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(out, src);
    out
}

/// A probe in the inner loop whose logged value needs a full-dataset
/// evaluation per batch step: live (logged), per-batch state → slicing
/// cannot elide it, so the replay genuinely grinds.
fn heavy_probe(src: &str) -> String {
    let out = src.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_acc\", evaluate(net, data))\n",
    );
    assert_ne!(out, src);
    out
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-serve-net-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Registry with a quick run ("fast") and a heavy one ("slow"), plus the
/// probed sources written to files the protocol can reference.
fn fixture(tag: &str) -> (Arc<Registry>, PathBuf, PathBuf, PathBuf) {
    let dir = tmpdir(tag);
    let registry = Arc::new(Registry::open(dir.join("registry")).unwrap());
    registry
        .record_run("fast", TRAIN_SRC, |o| o.adaptive = false)
        .unwrap();
    let heavy = heavy_src();
    registry
        .record_run("slow", &heavy, |o| o.adaptive = false)
        .unwrap();
    let fast_q = dir.join("fast.flr");
    std::fs::write(&fast_q, probe(TRAIN_SRC)).unwrap();
    let slow_q = dir.join("slow.flr");
    std::fs::write(&slow_q, heavy_probe(&heavy)).unwrap();
    (registry, dir, fast_q, slow_q)
}

fn start(registry: Arc<Registry>, config: ServerConfig) -> (ServerHandle, Endpoint) {
    let handle = Server::start(registry, config).unwrap();
    let ep = handle.local_endpoints()[0].clone();
    (handle, ep)
}

struct Client {
    conn: Arc<Conn>,
    reader: BufReader<ArcConn>,
}

/// BufReader needs an owned `io::Read`; wrap the shared client socket.
struct ArcConn(Arc<Conn>);
impl std::io::Read for ArcConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Client {
    fn connect(ep: &Endpoint) -> Client {
        let conn = Arc::new(Conn::connect(ep).unwrap());
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
            .unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut s = String::new();
        let n = self.reader.read_line(&mut s).unwrap();
        assert!(n > 0, "unexpected EOF from server");
        let s = s.trim_end_matches('\n').to_string();
        if std::env::var_os("FLOR_SERVE_NET_DEBUG").is_some() {
            eprintln!("<< {s}");
        }
        s
    }

    /// Reads lines until one satisfies `pred`, returning everything read.
    fn read_until(&mut self, pred: impl Fn(&str) -> bool) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let l = self.read_line();
            let done = pred(&l);
            lines.push(l);
            if done {
                return lines;
            }
        }
    }

    /// Sends `quit` and drains to EOF, returning the remaining lines.
    fn quit(mut self) -> Vec<String> {
        self.send("quit");
        let mut lines = Vec::new();
        loop {
            let mut s = String::new();
            if self.reader.read_line(&mut s).unwrap() == 0 {
                return lines;
            }
            lines.push(s.trim_end_matches('\n').to_string());
        }
    }
}

#[test]
fn tcp_protocol_streams_entries_and_reports_in_order() {
    let (registry, _dir, fast_q, _slow_q) = fixture("tcp");
    let (_handle, ep) = start(registry, ServerConfig::default());
    let mut c = Client::connect(&ep);

    c.send("runs");
    let (r1, r2) = (c.read_line(), c.read_line());
    assert!(r1.starts_with("run \""), "{r1}");
    assert!(r2.starts_with("run \""), "{r2}");

    // Streamed query: entries arrive as +entry lines, then +done.
    c.send(&format!("stream fast {}", fast_q.display()));
    let queued = c.read_line();
    assert!(queued.starts_with("queued job 1:"), "{queued}");
    let lines = c.read_until(|l| l.starts_with("+done 1 "));
    let entries: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("+entry 1 "))
        .collect();
    // 4 epochs × (loss + hindsight probe) in record order.
    assert_eq!(entries.len(), 8, "{lines:?}");
    assert!(entries[0].contains("[it000000]"), "{:?}", entries[0]);
    assert!(entries[7].contains("hs_wnorm"), "{:?}", entries[7]);
    let done = lines.last().unwrap();
    assert!(done.contains("8 entries, 0 anomalies"), "{done}");

    // An identical plain query is a cache hit, reported by drain.
    c.send(&format!("query fast {}", fast_q.display()));
    assert!(c.read_line().starts_with("queued job 2:"));
    c.send("drain");
    let report = c.read_until(|l| l.starts_with("job 2 done:"));
    assert!(report.last().unwrap().contains("(cached)"), "{report:?}");

    let tail = c.quit();
    assert_eq!(tail.last().unwrap(), "# served 2 job(s)", "{tail:?}");
}

#[test]
fn unix_socket_tenants_quotas_and_per_tenant_metrics() {
    let (registry, dir, fast_q, slow_q) = fixture("unix");
    let config = ServerConfig {
        endpoints: vec![Endpoint::Unix(dir.join("serve.sock"))],
        admission: AdmissionPolicy {
            max_tenant_jobs: 1,
            ..AdmissionPolicy::unlimited()
        },
        ..ServerConfig::default()
    };
    let (_handle, ep) = start(registry, config);
    let mut c = Client::connect(&ep);

    c.send("tenant net-alice");
    assert_eq!(c.read_line(), "tenant set: \"net-alice\"");
    c.send("tenant bad name!");
    assert!(c.read_line().starts_with("unknown command"));

    // One concurrent job per tenant: the second submission while the
    // heavy job runs is shed with a one-line reason.
    c.send(&format!("query slow {}", slow_q.display()));
    assert!(c.read_line().starts_with("queued job 1:"));
    c.send(&format!("query fast {}", fast_q.display()));
    let denied = c.read_line();
    assert!(
        denied.contains("admission denied") && denied.contains("concurrent-job limit"),
        "{denied}"
    );

    // After the job finishes the slot frees up.
    c.send("drain");
    c.read_until(|l| l.starts_with("job 1 done:"));
    c.send(&format!("query fast {}", fast_q.display()));
    assert!(c.read_line().starts_with("queued job 2:"));
    // Drained, the session reports each completion as it lands: read job
    // 2's before asking for metrics, so no report can come between a
    // `metrics` command and its reply.
    c.read_until(|l| l.starts_with("job 2 done:"));

    // Per-tenant metrics: one JSON line scoped to this tenant's counters.
    c.send("metrics net-alice");
    let json = c.read_line();
    assert!(json.contains("tenant.net-alice.queries"), "{json}");
    assert!(json.contains("tenant.net-alice.shed"), "{json}");
    assert!(!json.contains("\"serve.accepted\""), "{json}");
    c.send("metrics");
    let all = c.read_line();
    assert!(all.contains("serve.accepted"), "{all}");

    let tail = c.quit();
    assert_eq!(tail.last().unwrap(), "# served 2 job(s)", "{tail:?}");
}

#[test]
fn disconnect_mid_stream_cancels_the_job_and_other_clients_proceed() {
    let (registry, _dir, fast_q, slow_q) = fixture("dc");
    let (_handle, ep) = start(registry, ServerConfig::default());

    // Client A starts a heavy streamed query, confirms it queued, then
    // vanishes without reading its stream.
    {
        let mut a = Client::connect(&ep);
        a.send(&format!("stream slow {}", slow_q.display()));
        assert!(a.read_line().starts_with("queued job 1:"));
        // Drop: the TCP socket closes with the stream mid-flight.
    }

    // Client B is unaffected and can watch job 1 die: the server aborts
    // A's session, fires the cooperative cancel, and the slot frees.
    let mut b = Client::connect(&ep);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "job 1 never went terminal");
        b.send("status 1");
        let line = b.read_line();
        // Another connection's job is visible only while it is live.
        if line == "job 1: unknown" {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    b.send(&format!("query fast {}", fast_q.display()));
    assert!(b.read_line().starts_with("queued job 2:"));
    b.send("drain");
    let report = b.read_until(|l| l.starts_with("job 2 done:"));
    assert!(report.last().unwrap().contains("0 anomalies"), "{report:?}");
    let tail = b.quit();
    assert_eq!(tail.last().unwrap(), "# served 1 job(s)");
}

#[test]
fn torn_lines_and_oversized_garbage_never_kill_the_server() {
    let (registry, _dir, fast_q, _slow_q) = fixture("torn");
    let (_handle, ep) = start(registry, ServerConfig::default());

    // A half-written command with no newline, then EOF: the fragment is
    // dropped (it was never a complete command) and the session closes
    // with a clean zero-job report.
    {
        let mut c = Client::connect(&ep);
        (&*c.conn).write_all(b"que").unwrap();
        c.conn.shutdown_write().unwrap();
        let tail = c.read_until(|l| l.starts_with("# served"));
        assert_eq!(tail.last().unwrap(), "# served 0 job(s)");
    }

    // >64KiB of newline-free garbage: the server rejects the line and
    // closes that connection only.
    {
        let conn = Conn::connect(&ep).unwrap();
        let garbage = vec![b'x'; 80 * 1024];
        // The server may close before accepting every byte; EPIPE here is
        // part of the scenario, not a failure.
        let _ = (&conn).write_all(&garbage);
        let mut all = String::new();
        let mut r = BufReader::new(ArcConn(Arc::new(conn)));
        while r
            .read_line({
                all.clear();
                &mut all
            })
            .unwrap_or(0)
            > 0
        {
            if all.contains("line too long") {
                break;
            }
        }
        assert!(all.contains("line too long"), "{all:?}");
    }

    // A third, well-behaved client is fully served.
    let mut c = Client::connect(&ep);
    c.send(&format!("query fast {}", fast_q.display()));
    assert!(c.read_line().starts_with("queued job"));
    c.send("drain");
    c.read_until(|l| l.contains(" done:"));
    let tail = c.quit();
    assert!(tail.last().unwrap().starts_with("# served 1"), "{tail:?}");
}

/// A `flor connect`-shaped client: submits a streamed query, half-closes
/// (stdin EOF), then lags before draining the stream. This pins down two
/// server invariants at once:
///
/// - the lag jams the connection's writes with a tiny sink cap, so the
///   bounded `JobSink` drops chunks mid-stream — the delivered `+entry`
///   lines must still be the job's full log, in order, without gaps or
///   duplicates (sticky drops + the completion catch-up);
/// - after EOF on the half-closed socket the server must keep serving
///   (not drop the peer) until the stream finishes, then close cleanly.
#[test]
fn half_close_with_lagging_reader_still_delivers_a_gapless_stream() {
    let (registry, dir, _fast_q, slow_q) = fixture("halfclose");
    let config = ServerConfig {
        endpoints: vec![Endpoint::Unix(dir.join("halfclose.sock"))],
        // Unix socket + minimal SO_SNDBUF: in-flight bytes charge to the
        // server, so a few KiB of unread output jam it.
        sndbuf: 1,
        // A sink this small overflows as soon as the write buffer jams.
        entry_queue_cap: 2,
        write_stall_timeout_ms: 0, // lag is the scenario, not a fault
        ..ServerConfig::default()
    };
    let (handle, ep) = start(registry.clone(), config);
    let drops_before = flor_obs::metrics::counter("scheduler.sink_dropped_entries").get();

    let mut c = Client::connect(&ep);
    // Jam the connection before the job emits anything. Each `status` of
    // a non-numeric id echoes the id back, so these four lines queue
    // 64 KiB of replies the client does not read: far more than the
    // clamped socket buffer (the kernel minimum, a few KiB) holds, so the
    // connection's writer blocks. It then drains nothing from the job's
    // sink, which keeps the first range's entries and progress
    // and drops every later range. One worker replays the 16 epochs as
    // `RANGES_PER_WORKER` (4) micro-ranges, so the sink overflows however
    // the run's cost profile sizes them. Jamming on the stream's own
    // output would not do: whether the sink then overflows depends on
    // where those wall-clock range sizes fall against the jam.
    let filler = "x".repeat(16 * 1024);
    for _ in 0..4 {
        c.send(&format!("status {filler}"));
    }
    c.send(&format!("stream slow {}", slow_q.display()));
    // stdin EOF while the replay is still running.
    c.conn.shutdown_write().unwrap();
    // Lag until the whole replay has run against the jammed connection,
    // so most of the log must arrive via the completion catch-up. The
    // scheduler forgets a job as it finishes (its terminal state is in
    // the session's sink, and arrives below as the stream's `+done`); a
    // drop shows the server has read the `stream` line, so job 1 missing
    // from the scheduler after one means it finished.
    let overflowed =
        || flor_obs::metrics::counter("scheduler.sink_dropped_entries").get() > drops_before;
    let deadline = Instant::now() + Duration::from_secs(60);
    while (!overflowed() || handle.scheduler().status(1).is_some()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        overflowed(),
        "scenario never overflowed the sink (nothing to catch up)"
    );
    assert!(
        handle.scheduler().status(1).is_none(),
        "job 1 never finished"
    );

    for _ in 0..4 {
        assert_eq!(c.read_line(), format!("bad job id {filler:?}"));
    }
    assert!(c.read_line().starts_with("queued job 1:"));
    let lines = c.read_until(|l| l.starts_with("# served"));
    assert_eq!(lines.last().unwrap(), "# served 1 job(s)");
    assert!(
        lines.iter().any(|l| l.starts_with("+done 1 run \"slow\"")),
        "{lines:?}"
    );

    // Ground truth: the same query again is a cache hit on the log the
    // streamed job materialized. The `+entry` lines must be exactly that
    // log — gaps, duplicates, or reordering from the drop-then-recover
    // cycle all break sequence equality (the log legitimately repeats
    // identical lines, so set-based checks would miss corruption).
    let probed = std::fs::read_to_string(&slow_q).unwrap();
    let truth = registry.query("slow", &probed, 1).unwrap();
    assert!(truth.cached, "expected the streamed job's cached log");
    let expected: Vec<String> = truth.log.iter().map(|e| format!("+entry 1 {e}")).collect();
    let streamed: Vec<String> = lines
        .iter()
        .filter(|l| l.starts_with("+entry 1 "))
        .cloned()
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(streamed, expected);
}

#[test]
fn slow_reader_is_dropped_on_stall_without_blocking_other_connections() {
    let (registry, dir, fast_q, slow_q) = fixture("stall");
    let config = ServerConfig {
        // A Unix socket charges all in-flight bytes to the sender's
        // SO_SNDBUF (TCP would park the stream in the peer's receive
        // buffer and never stall), so with the buffer clamped to the
        // kernel minimum a non-reading peer jams within one stream.
        endpoints: vec![Endpoint::Unix(dir.join("stall.sock"))],
        pool_workers: 2,
        sndbuf: 1,
        write_stall_timeout_ms: 300,
        ..ServerConfig::default()
    };
    let (_handle, ep) = start(registry, config);
    let stalls_before = flor_obs::metrics::counter("serve.stalled_drops").get();

    // The slow reader: streams the heavy query (hundreds of +entry lines)
    // and never reads a byte.
    let mut slow = Client::connect(&ep);
    slow.send(&format!("stream slow {}", slow_q.display()));

    // Meanwhile a normal client gets full service from the same server.
    let mut fast = Client::connect(&ep);
    fast.send(&format!("query fast {}", fast_q.display()));
    assert!(fast.read_line().starts_with("queued job"));
    fast.send("drain");
    let report = fast.read_until(|l| l.contains(" done:"));
    assert!(report.last().unwrap().contains("0 anomalies"), "{report:?}");

    // The stalled connection is eventually dropped by the server. Wait
    // on the process-global counter first so a regression fails the
    // assert instead of hanging the blocking drain-read below.
    let deadline = Instant::now() + Duration::from_secs(30);
    while flor_obs::metrics::counter("serve.stalled_drops").get() == stalls_before {
        assert!(Instant::now() < deadline, "stalled reader never dropped");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Its socket then reaches EOF/reset even though the client never
    // sent `quit`: drain whatever was buffered pre-stall, then observe
    // the close.
    let mut buf = [0u8; 4096];
    loop {
        match std::io::Read::read(&mut &*slow.conn, &mut buf) {
            Ok(0) | Err(_) => break, // dropped by the server
            Ok(_) => {}              // drain what was buffered pre-stall
        }
    }

    // The server is still healthy afterwards.
    let tail = fast.quit();
    assert!(tail.last().unwrap().starts_with("# served 1"), "{tail:?}");
}

/// A Unix listener binds over the socket file a previous server left
/// behind and unlinks its path at shutdown; a TCP listener on port 0
/// reports the port the kernel chose. Both serve.
#[test]
fn listeners_replace_a_stale_socket_file_and_resolve_port_zero() {
    let dir = tmpdir("listeners");
    let registry = Arc::new(Registry::open(dir.join("registry")).unwrap());
    let path = dir.join("stale.sock");
    // `std` leaves the socket file of a dropped listener behind.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let config = ServerConfig {
        endpoints: vec![
            Endpoint::Unix(path.clone()),
            Endpoint::Tcp(std::net::Ipv4Addr::LOCALHOST, 0),
        ],
        ..ServerConfig::default()
    };
    let mut handle = Server::start(registry, config).unwrap();
    let eps = handle.local_endpoints().to_vec();
    assert_eq!(eps[0], Endpoint::Unix(path.clone()));
    assert!(
        matches!(eps[1], Endpoint::Tcp(ip, port) if ip.is_loopback() && port != 0),
        "{eps:?}"
    );
    for ep in &eps {
        let tail = Client::connect(ep).quit();
        assert_eq!(tail, ["# served 0 job(s)"], "{ep}");
    }
    handle.shutdown();
    assert!(!path.exists(), "shutdown should unlink {path:?}");
}

/// Reads `conn` on a thread until EOF or an error; the receiver gets the
/// outcome (true for EOF or a reset) once the peer has closed.
fn watch_for_close(conn: Arc<Conn>) -> std::sync::mpsc::Receiver<bool> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            match std::io::Read::read(&mut &*conn, &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let _ = tx.send(true);
    });
    rx
}

/// Shutdown with live connections: one idle client blocked in `read`,
/// and one whose heavy stream sits behind unread output on a jammed Unix
/// socket (its writer thread blocked in a write that never times out).
/// Shutdown returns promptly, closes both sockets, cancels the jammed
/// job and counts the aborted connections; the registry and tenant are
/// then served by a fresh server as before.
#[test]
fn shutdown_with_live_connections_closes_them_and_cancels_their_jobs() {
    let (registry, dir, fast_q, slow_q) = fixture("shutdown");
    let config = || ServerConfig {
        endpoints: vec![Endpoint::Unix(dir.join("shutdown.sock"))],
        admission: AdmissionPolicy {
            max_tenant_jobs: 1,
            ..AdmissionPolicy::unlimited()
        },
        sndbuf: 1,
        write_stall_timeout_ms: 0,
        ..ServerConfig::default()
    };
    let (handle, ep) = start(registry.clone(), config());
    let aborted_before = flor_obs::metrics::counter("serve.aborted_conns").get();

    let idle = Client::connect(&ep);
    let idle_closed = watch_for_close(idle.conn.clone());
    let mut jammed = Client::connect(&ep);
    jammed.send("tenant net-shutdown");
    assert_eq!(jammed.read_line(), "tenant set: \"net-shutdown\"");
    // 16 KiB of reply the client never reads: far more than the clamped
    // socket buffer, so the writer thread blocks, and the stream's
    // acknowledgement and output queue behind it.
    jammed.send(&format!("status {}", "x".repeat(16 * 1024)));
    jammed.send(&format!("stream slow {}", slow_q.display()));
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.scheduler().status(1).is_none() {
        assert!(Instant::now() < deadline, "job 1 never submitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let jammed_closed = watch_for_close(jammed.conn.clone());

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut handle = handle;
        handle.shutdown();
        let _ = tx.send(handle);
    });
    let handle = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown did not return within 10 s");
    for (closed, who) in [(idle_closed, "idle"), (jammed_closed, "jammed")] {
        assert!(
            closed.recv_timeout(Duration::from_secs(10)).is_ok(),
            "the {who} client never saw its socket close"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.scheduler().status(1).is_some() {
        assert!(
            Instant::now() < deadline,
            "the jammed job was never cancelled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(flor_obs::metrics::counter("serve.aborted_conns").get() >= aborted_before + 2);
    drop(handle);

    // The tenant's one job slot is free on a fresh server.
    let (_handle, ep) = start(registry, config());
    let mut c = Client::connect(&ep);
    c.send("tenant net-shutdown");
    assert_eq!(c.read_line(), "tenant set: \"net-shutdown\"");
    c.send(&format!("query fast {}", fast_q.display()));
    assert!(c.read_line().starts_with("queued job 1:"));
    c.send("drain");
    c.read_until(|l| l.starts_with("job 1 done:"));
    let tail = c.quit();
    assert_eq!(tail.last().unwrap(), "# served 1 job(s)", "{tail:?}");
}
