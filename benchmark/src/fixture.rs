//! Everything that touches the filesystem or a child process: the scratch
//! directory, the `flor` binary driven as a child, the `flor serve`
//! process, and the timed set-up that turns a seed into a served registry.

use crate::workload::Spec;
use crate::Res;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A scratch directory removed on drop — including on unwind, so a failed
/// run leaves nothing behind.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<parent>/tmp-<pid>-<tag>` (emptying any leftover of the
    /// same name). `parent` is kept relative so Unix-socket paths below it
    /// stay under the 108-byte `sun_path` limit however deep the checkout.
    pub fn new(parent: &Path, tag: &str) -> Res<TempDir> {
        let path = parent.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(path) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// What one `flor record` child reported.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Process spawn to exit, seconds (the final materializer flush counts).
    pub wall_s: f64,
    /// Checkpoints materialized.
    pub checkpoints: u64,
    /// Uncompressed checkpoint bytes.
    pub raw_bytes: u64,
    /// The record log as printed, one entry per line.
    pub log: Vec<String>,
}

/// The release `flor` binary, driven as child processes.
#[derive(Debug, Clone)]
pub struct Flor {
    bin: PathBuf,
}

impl Flor {
    /// Wraps the binary at `bin`.
    pub fn new(bin: PathBuf) -> Res<Flor> {
        if !bin.is_file() {
            return Err(format!("flor binary not found at {}", bin.display()));
        }
        Ok(Flor { bin })
    }

    /// Runs `flor <args>` to completion; returns wall seconds and stdout.
    fn run(&self, args: &[&str]) -> Res<(f64, String)> {
        let t0 = Instant::now();
        let out = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawn flor {}: {e}", args[0]))?;
        let wall = t0.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!(
                "flor {} exited with {}: {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok((wall, String::from_utf8_lossy(&out.stdout).into_owned()))
    }

    /// `flor run <script>`: the un-instrumented training run. Wall seconds.
    pub fn run_vanilla(&self, script: &Path) -> Res<f64> {
        Ok(self.run(&["run", &script.to_string_lossy()])?.0)
    }

    /// `flor record <script> --registry <registry> --run-id <run_id>
    /// <flags…>`; no flags is the default a user gets.
    pub fn record(
        &self,
        script: &Path,
        registry: &Path,
        run_id: &str,
        flags: &[&str],
    ) -> Res<Recorded> {
        let script = script.to_string_lossy();
        let registry = registry.to_string_lossy();
        let mut args = vec![
            "record",
            &*script,
            "--registry",
            &*registry,
            "--run-id",
            run_id,
        ];
        args.extend_from_slice(flags);
        let (wall_s, stdout) = self.run(&args)?;
        // "# recorded in 0.790s: 23 checkpoints, 6962997 raw bytes (…)"
        let line = stdout
            .lines()
            .find(|l| l.starts_with("# recorded in "))
            .ok_or("flor record printed no '# recorded' line")?;
        let num_before = |marker: &str| -> Res<u64> {
            line.split(marker)
                .next()
                .and_then(|head| head.rsplit([' ', ':']).next())
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("cannot read the number before {marker:?} in {line:?}"))
        };
        Ok(Recorded {
            wall_s,
            checkpoints: num_before(" checkpoints")?,
            raw_bytes: num_before(" raw bytes")?,
            log: stdout
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        })
    }
}

/// A running `flor serve --listen unix:<socket>` child. Killed and reaped
/// on drop.
pub struct Server {
    child: Child,
    /// Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Server {
    /// Starts the server and waits for its `# listening on` line.
    pub fn start(flor: &Flor, registry: &Path, socket: &Path, workers: usize) -> Res<Server> {
        let mut child = Command::new(&flor.bin)
            .args(["serve", "--registry"])
            .arg(registry)
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn flor serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            socket: socket.to_path_buf(),
        };
        if !matches!(read, Ok(n) if n > 0) || !line.starts_with("# listening on ") {
            let status = server.child.try_wait().ok().flatten();
            return Err(format!(
                "flor serve did not come up (first line {line:?}, exit status {status:?})"
            ));
        }
        Ok(server)
    }

    /// The Unix socket the server listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Resident set (`VmRSS`) of the server process right now, MiB.
    pub fn rss_mib(&self) -> Res<f64> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmRSS line in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `flor serve --listen` has no shutdown verb: it serves until killed.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A recorded registry: what set-up produces.
pub struct Fixture {
    /// The registry's root.
    pub registry: PathBuf,
    /// The sweep's training scripts, by run.
    pub scripts: Vec<String>,
    /// Where those scripts were written.
    pub script_paths: Vec<PathBuf>,
    /// Each run's record log, one entry per line.
    pub record_logs: Vec<Vec<String>>,
    /// Uncompressed checkpoint bytes across the sweep.
    pub raw_bytes: u64,
    /// Checkpoints across the sweep.
    pub checkpoints: u64,
    /// Bytes on disk for the recorded generations plus the dedup arena.
    pub stored_bytes: u64,
    /// Seconds set-up took.
    pub setup_s: f64,
    /// Scratch directory holding all of the above.
    pub tmp: TempDir,
}

/// Set-up, timed: generate the sweep's scripts from the seed, record each
/// into a fresh registry through `flor record` with the workload's
/// `fixture_flags`, start `flor serve`, and read the banner off a first
/// connection. The server is stopped again (untimed): the caller serves
/// the fixture it settles on.
pub fn setup(
    flor: &Flor,
    spec: &Spec,
    seed: u64,
    out_dir: &Path,
    workers: usize,
    tag: &str,
) -> Res<Fixture> {
    let t0 = Instant::now();
    let tmp = TempDir::new(out_dir, tag)?;
    let registry = tmp.path().join("reg");
    let mut scripts = Vec::new();
    let mut script_paths = Vec::new();
    let mut record_logs = Vec::new();
    let (mut raw_bytes, mut checkpoints) = (0, 0);
    for run in 0..spec.runs {
        let src = spec.script_source(seed, run);
        let path = tmp.path().join(format!("train{run}.flr"));
        std::fs::write(&path, &src).map_err(|e| format!("write {}: {e}", path.display()))?;
        let rec = flor.record(&path, &registry, &spec.run_id(run), spec.fixture_flags)?;
        raw_bytes += rec.raw_bytes;
        checkpoints += rec.checkpoints;
        record_logs.push(rec.log);
        scripts.push(src);
        script_paths.push(path);
    }
    let stored_bytes = dir_bytes(&registry.join("stores")) + dir_bytes(&registry.join("dedup"));
    let mut fixture = Fixture {
        registry,
        scripts,
        script_paths,
        record_logs,
        raw_bytes,
        checkpoints,
        stored_bytes,
        setup_s: 0.0,
        tmp,
    };
    let _server = fixture.serve(flor, workers)?;
    fixture.setup_s = t0.elapsed().as_secs_f64();
    Ok(fixture)
}

impl Fixture {
    /// Starts `flor serve` on this registry and reads the banner off a
    /// first connection.
    pub fn serve(&self, flor: &Flor, workers: usize) -> Res<Server> {
        let server = Server::start(
            flor,
            &self.registry,
            &self.tmp.path().join("s.sock"),
            workers,
        )?;
        crate::client::Client::connect(server.socket())?;
        Ok(server)
    }
}
