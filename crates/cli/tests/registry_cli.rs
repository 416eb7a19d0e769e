//! Integration tests for the registry-facing CLI surface: `record
//! --registry`, `runs list`, `runs show`, `query`, and `serve` — both
//! through the library entry point (`run_cli` / `serve_io`) and through
//! the real `flor` binary with piped stdin.

use flor_cli::{run_cli, serve_io, CliError};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const SCRIPT: &str = "\
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

fn setup(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "flor-regcli-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("train.flr");
    std::fs::write(&script, SCRIPT).unwrap();
    let probed = SCRIPT.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(probed, SCRIPT);
    let probed_path = dir.join("probed.flr");
    std::fs::write(&probed_path, probed).unwrap();
    (dir.join("registry"), script, probed_path)
}

fn cli(parts: &[&str]) -> Result<String, CliError> {
    let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    run_cli(&raw)
}

fn record_into(registry: &Path, script: &Path, run_id: &str) {
    let out = cli(&[
        "record",
        script.to_str().unwrap(),
        "--registry",
        registry.to_str().unwrap(),
        "--run-id",
        run_id,
        "--no-adaptive",
    ])
    .unwrap();
    assert!(out.contains("# recorded"), "{out}");
    assert!(
        out.contains(&format!("# registered run {run_id:?}")),
        "{out}"
    );
}

#[test]
fn record_registers_and_runs_list_shows_it() {
    let (registry, script, _) = setup("list");
    record_into(&registry, &script, "alice-cv");
    record_into(&registry, &script, "bob-nlp");

    let out = cli(&["runs", "list", "--registry", registry.to_str().unwrap()]).unwrap();
    assert!(out.contains("alice-cv"), "{out}");
    assert!(out.contains("bob-nlp"), "{out}");
    assert!(out.contains("# 2 run(s) cataloged"), "{out}");
}

#[test]
fn runs_show_prints_catalog_detail_and_source() {
    let (registry, script, _) = setup("show");
    record_into(&registry, &script, "alice-cv");
    let out = cli(&[
        "runs",
        "show",
        "alice-cv",
        "--registry",
        registry.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("run:             alice-cv"), "{out}");
    assert!(out.contains("iterations:      4"), "{out}");
    // The de-instrumented source comes back verbatim.
    assert!(out.contains("optimizer.step()"), "{out}");
    assert!(!out.contains("skipblock"), "{out}");

    let err = cli(&[
        "runs",
        "show",
        "nope",
        "--registry",
        registry.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Failed(m) if m.contains("unknown run")));
}

#[test]
fn query_materializes_and_second_hit_is_cached() {
    let (registry, script, probed) = setup("query");
    record_into(&registry, &script, "alice-cv");
    let reg = registry.to_str().unwrap();
    let out = cli(&[
        "query",
        "alice-cv",
        probed.to_str().unwrap(),
        "--registry",
        reg,
        "--workers",
        "2",
    ])
    .unwrap();
    assert_eq!(out.matches("hindsight_wnorm\t").count(), 4, "{out}");
    assert!(out.contains("(fresh)"), "{out}");
    assert!(!out.contains("ANOMALY"), "{out}");

    let again = cli(&[
        "query",
        "alice-cv",
        probed.to_str().unwrap(),
        "--registry",
        reg,
    ])
    .unwrap();
    assert!(again.contains("(cached)"), "{again}");
    assert_eq!(again.matches("hindsight_wnorm\t").count(), 4, "{again}");
}

#[test]
fn serve_processes_queued_queries_from_input() {
    let (registry, script, probed) = setup("serve");
    record_into(&registry, &script, "run-a");
    record_into(&registry, &script, "run-b");

    let commands = format!(
        "runs\nquery run-a {p} 1\nquery run-b {p} 0\nquery bogus {p}\nquit\n",
        p = probed.display()
    );
    let mut out = Vec::new();
    serve_io(&registry, 2, commands.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("# serving"), "{out}");
    assert!(out.contains("run \"run-a\" gen 0"), "{out}");
    assert!(out.contains("queued job 1"), "{out}");
    assert!(out.contains("job 1 done: run \"run-a\""), "{out}");
    assert!(out.contains("job 2 done: run \"run-b\""), "{out}");
    assert!(
        out.contains("job 3 FAILED") && out.contains("unknown run"),
        "{out}"
    );
    assert!(out.contains("# served 3 job(s)"), "{out}");
}

#[test]
fn serve_status_and_cancel_commands() {
    let (registry, script, probed) = setup("serve-ctl");
    record_into(&registry, &script, "run-a");
    let commands = format!(
        "query run-a {p}\ndrain\nstatus 1\ncancel 1\nstatus 99\n\
         cancel notanumber\nquery run-a missing.flr\nquery run-a {p} loud\nquit\n",
        p = probed.display()
    );
    let mut out = Vec::new();
    serve_io(&registry, 1, commands.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("job 1 done"), "{out}");
    assert!(out.contains("job 1: completed"), "{out}");
    assert!(out.contains("job 1: not cancellable"), "{out}");
    assert!(out.contains("job 99: unknown"), "{out}");
    // Malformed commands report inline and do not kill the server.
    assert!(out.contains("bad job id \"notanumber\""), "{out}");
    assert!(out.contains("cannot read missing.flr"), "{out}");
    assert!(out.contains("bad priority \"loud\""), "{out}");
    assert!(out.contains("# served 1 job(s)"), "{out}");
}

#[test]
fn runs_show_json_parses_and_matches_pretty() {
    let (registry, script, _) = setup("show-json");
    record_into(&registry, &script, "alice-cv");
    let reg = registry.to_str().unwrap();
    let pretty = cli(&["runs", "show", "alice-cv", "--registry", reg]).unwrap();
    let out = cli(&["runs", "show", "alice-cv", "--registry", reg, "--json"]).unwrap();
    let doc = flor_obs::json::parse(out.trim()).expect("--json output parses");
    assert_eq!(
        doc.get("run_id").and_then(|v| v.as_str()),
        Some("alice-cv"),
        "{out}"
    );
    let iters = doc.get("iterations").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(iters, 4);
    // Both surfaces iterate RunRecord::fields(), so the numbers agree.
    assert!(
        pretty.contains(&format!("iterations:      {iters}")),
        "{pretty}"
    );
    for key in ["generation", "source_version", "store_root", "stored_bytes"] {
        assert!(doc.get(key).is_some(), "missing {key}: {out}");
    }
    // The JSON form is machine-facing: one line, no recorded source dump.
    assert_eq!(out.trim().lines().count(), 1, "{out}");
    assert!(!out.contains("optimizer.step()"), "{out}");
}

#[test]
fn serve_metrics_verb_emits_one_parseable_json_line() {
    let (registry, script, probed) = setup("serve-metrics");
    record_into(&registry, &script, "run-a");
    let commands = format!("query run-a {}\ndrain\nmetrics\nquit\n", probed.display());
    let mut out = Vec::new();
    serve_io(&registry, 1, commands.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let json_line = out
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("metrics line");
    let doc = flor_obs::json::parse(json_line).expect("metrics JSON parses");
    let counters = doc.get("counters").expect("counters object");
    // The job just drained, so the instrumented subsystems have counted.
    assert!(
        counters.get("registry.queries").and_then(|v| v.as_u64()) >= Some(1),
        "{json_line}"
    );
    assert!(doc.get("histograms").is_some(), "{json_line}");
}

#[test]
fn usage_errors_for_registry_commands() {
    assert!(matches!(
        cli(&["runs", "list"]),
        Err(CliError::Usage(m)) if m.contains("--registry")
    ));
    assert!(matches!(
        cli(&["runs", "bogus", "--registry", "/tmp/x"]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        cli(&["query", "only-run-id", "--registry", "/tmp/x"]),
        Err(CliError::Usage(_) | CliError::Failed(_))
    ));
}

/// True end-to-end: spawn the compiled `flor` binary, pipe `serve` its
/// commands over stdin, and check the streamed output.
#[test]
fn serve_end_to_end_through_the_binary() {
    let (registry, script, probed) = setup("binary");
    let flor = env!("CARGO_BIN_EXE_flor");

    let record = Command::new(flor)
        .args([
            "record",
            script.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
            "--run-id",
            "e2e-run",
            "--no-adaptive",
        ])
        .output()
        .unwrap();
    assert!(record.status.success(), "{:?}", record);

    let list = Command::new(flor)
        .args(["runs", "list", "--registry", registry.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(list.status.success());
    assert!(String::from_utf8_lossy(&list.stdout).contains("e2e-run"));

    let mut serve = Command::new(flor)
        .args([
            "serve",
            "--registry",
            registry.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(format!("query e2e-run {}\nquit\n", probed.display()).as_bytes())
        .unwrap();
    let out = serve.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("queued job 1"), "{text}");
    assert!(text.contains("job 1 done: run \"e2e-run\""), "{text}");
}

/// A server out of file descriptors cannot accept, and the connection
/// left in the queue keeps its listener ready: the acceptor must back off
/// rather than retry at once and spin a core until a descriptor frees.
/// Runs `flor serve --listen` under a small descriptor limit, exhausts it
/// with idle clients, and reads the server's CPU time from `/proc`.
#[cfg(target_os = "linux")]
#[test]
fn serve_backs_off_when_accept_runs_out_of_descriptors() {
    use flor_registry::{Conn, Endpoint};
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    let (registry, _, _) = setup("emfile");
    let mut serve = Command::new("bash")
        .args([
            "-c",
            "ulimit -n 48 && exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_flor"),
        ])
        .args(["serve", "--listen", "tcp:127.0.0.1:0", "--registry"])
        .arg(&registry)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut listening = String::new();
    BufReader::new(serve.stdout.take().unwrap())
        .read_line(&mut listening)
        .unwrap();
    let ep = listening
        .trim()
        .strip_prefix("# listening on ")
        .map(|s| Endpoint::parse(s).unwrap())
        .unwrap_or_else(|| panic!("{listening:?}"));
    let probe = Conn::connect(&ep).unwrap();
    let mut replies = BufReader::new(&probe);
    let mut line = String::new();
    replies.read_line(&mut line).unwrap();
    assert!(line.starts_with("# serving registry"), "{line}");
    // Each connection holds two of the server's 48 descriptors, so these
    // run it out; the kernel still completes every connect.
    let idle: Vec<Conn> = (0..48).map(|_| Conn::connect(&ep).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(300));

    // utime + stime, in clock ticks (100 per second on Linux).
    let cpu_ticks = || {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", serve.id())).unwrap();
        let fields: Vec<u64> = stat
            .rsplit_once(") ")
            .unwrap()
            .1
            .split(' ')
            .skip(11)
            .take(2)
            .map(|f| f.parse().unwrap())
            .collect();
        fields[0] + fields[1]
    };
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let busy = cpu_ticks() - before;

    (&probe).write_all(b"metrics\n").unwrap();
    line.clear();
    replies.read_line(&mut line).unwrap();
    serve.kill().unwrap();
    serve.wait().unwrap();
    drop(idle);
    assert!(
        busy < 30,
        "the server burned {busy} ticks of CPU in one idle second"
    );
    assert!(line.contains("\"serve.accept_errors\""), "{line}");
}
