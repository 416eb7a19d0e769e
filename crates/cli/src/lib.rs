//! Implementation of the `flor` command-line tool (library form, so the
//! command surface is unit-testable without spawning processes).

#![warn(missing_docs)]

use flor_analysis::instrument::instrument;
use flor_core::record::{record, run_vanilla, RecordOptions};
use flor_core::replay::{replay, replay_reference, Postamble, ReplayOptions, ReplayReport};
use flor_core::sample::replay_sample;
use flor_core::{InitMode, Section};
use flor_lang::{parse, print_program};
use flor_registry::{
    Conn, Endpoint, Registry, ReplayScheduler, ServeSession, Server, ServerConfig, SessionControl,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Usage text.
pub const USAGE: &str = "\
usage:
  flor run      <script.flr>
  flor record   <script.flr> --store <dir> [--epsilon F] [--no-adaptive]
                [--registry <dir>] [--run-id <id>] [--delta-keyframe K]
  flor replay   <script.flr> --store <dir> [--workers N] [--weak]
  flor replay   <script.flr> --store <dir> --reference
  flor sample   <script.flr> --store <dir> --iters 3,7,12
  flor inspect  <script.flr>
  flor log      --store <dir>
  flor store    stats --store <dir> [--json]
  flor store    compact --store <dir>
  flor runs     list --registry <dir>
  flor runs     show <run-id> --registry <dir> [--json]
  flor runs     prune <run-id> --registry <dir> [--keep N]
  flor query    <run-id> <probed.flr> --registry <dir> [--workers N] [--stream]
                [--trace <out.json>]
  flor serve    --registry <dir> [--workers N] [--listen <endpoint>]...
                [--queue-limit N] [--tenant-jobs N] [--tenant-burst N]
                [--tenant-refill PER-SEC] [--max-backlog-ms MS]
  flor connect  <endpoint>

replay always slices, steals and runs the bytecode VM; --reference is the
oracle it is tested against (one worker tree-walking the unsliced program).
endpoints are tcp:<ip>:<port>, <ip>:<port>, or unix:<path>";

/// Every flag each subcommand accepts; a trailing `=` marks one that takes
/// a value. Anything else is a usage error: a misspelt flag must not
/// silently run the default.
const FLAGS: &[(&str, &str)] = &[
    ("run", ""),
    (
        "record",
        "store= epsilon= no-adaptive registry= run-id= delta-keyframe=",
    ),
    ("replay", "store= workers= weak reference"),
    ("sample", "store= iters="),
    ("inspect", ""),
    ("log", "store="),
    ("store", "store= json"),
    ("runs", "registry= json keep="),
    ("query", "registry= workers= stream trace="),
    (
        "serve",
        "registry= workers= listen= queue-limit= tenant-jobs= tenant-burst= tenant-refill= \
         max-backlog-ms=",
    ),
    ("connect", ""),
];

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; print usage.
    Usage(String),
    /// The operation itself failed.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<flor_core::FlorError> for CliError {
    fn from(e: flor_core::FlorError) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<flor_registry::RegistryError> for CliError {
    fn from(e: flor_registry::RegistryError) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `raw` (subcommand first) into positionals and the flags
    /// [`FLAGS`] lists for that subcommand.
    fn parse(raw: &'a [String]) -> Result<Self, CliError> {
        let cmd = raw.first().map(String::as_str).unwrap_or_default();
        let known = match FLAGS.iter().find(|(c, _)| *c == cmd) {
            Some((_, flags)) => *flags,
            None if cmd.is_empty() => return Err(CliError::Usage("missing command".into())),
            None => return Err(CliError::Usage(format!("unknown command {cmd:?}"))),
        };
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = raw[i].as_str();
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a);
                i += 1;
                continue;
            };
            let spec = known
                .split_whitespace()
                .find(|f| f.trim_end_matches('=') == name);
            match spec.map(|f| f.ends_with('=')) {
                Some(true) => {
                    let v = raw
                        .get(i + 1)
                        .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
                    flags.push((name, Some(v.as_str())));
                    i += 2;
                }
                Some(false) => {
                    flags.push((name, None));
                    i += 1;
                }
                None if ["steal", "no-vm", "no-slice"].contains(&name) => {
                    return Err(CliError::Usage(format!(
                        "--{name} was removed: replay always slices, steals and runs the VM; \
                         use flor replay --reference for the oracle"
                    )))
                }
                None => {
                    return Err(CliError::Usage(format!(
                        "unknown flag --{name} for flor {cmd}"
                    )))
                }
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// Every occurrence of a repeatable value flag (`--listen` …).
    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| *v)
            .collect()
    }

    /// A numeric flag with a default when absent.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("bad --{name} {v:?}")))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    }

    fn store(&self) -> Result<PathBuf, CliError> {
        self.value("store")
            .map(PathBuf::from)
            .ok_or_else(|| CliError::Usage("missing --store <dir>".into()))
    }

    fn registry(&self) -> Result<Registry, CliError> {
        let root = self
            .value("registry")
            .map(PathBuf::from)
            .ok_or_else(|| CliError::Usage("missing --registry <dir>".into()))?;
        Ok(Registry::open(root)?)
    }

    fn workers(&self, default: usize) -> Result<usize, CliError> {
        self.value("workers")
            .map(|w| {
                w.parse()
                    .map_err(|_| CliError::Usage(format!("bad --workers {w:?}")))
            })
            .transpose()
            .map(|w| w.unwrap_or(default))
    }

    fn script(&self, idx: usize) -> Result<String, CliError> {
        let path = self
            .positional
            .get(idx)
            .ok_or_else(|| CliError::Usage("missing script path".into()))?;
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))
    }
}

/// Runs one CLI invocation and returns its stdout text.
pub fn run_cli(raw: &[String]) -> Result<String, CliError> {
    let mut buf: Vec<u8> = Vec::new();
    run_cli_to(raw, &mut buf)?;
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// [`run_cli`] writing to `out` as output becomes available — the binary's
/// entry point. Most commands produce their whole output at the end, but a
/// streaming query (`flor query … --stream`) writes record-order entries
/// and progress lines *while the replay runs*, flushed per event.
pub fn run_cli_to(raw: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    let text = match args.positional[0] {
        "run" => cmd_run(&args),
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "sample" => cmd_sample(&args),
        "inspect" => cmd_inspect(&args),
        "log" => cmd_log(&args),
        "store" => cmd_store(&args),
        "runs" => cmd_runs(&args),
        "query" => return cmd_query(&args, out),
        "serve" => return cmd_serve(&args, out),
        "connect" => return cmd_connect(&args, out),
        other => unreachable!("{other:?} is in FLAGS but not dispatched"),
    }?;
    out.write_all(text.as_bytes())?;
    Ok(())
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let src = args.script(1)?;
    let (wall_ns, log) = run_vanilla(&src)?;
    let mut out = String::new();
    for e in &log {
        let _ = writeln!(out, "{e}");
    }
    let _ = writeln!(
        out,
        "# vanilla run finished in {:.3}s",
        wall_ns as f64 / 1e9
    );
    Ok(out)
}

fn cmd_record(args: &Args) -> Result<String, CliError> {
    // Flag errors before touching the filesystem: a store is required
    // unless the run is recorded into a registry-managed store.
    let registry_root = args.value("registry").map(PathBuf::from);
    let store = match &registry_root {
        None => Some(args.store()?),
        Some(_) => args.value("store").map(PathBuf::from),
    };
    let src = args.script(1)?;
    let mut opts = RecordOptions::new(store.clone().unwrap_or_default());
    if args.flag("no-adaptive") {
        opts.adaptive = false;
    }
    if let Some(eps) = args.value("epsilon") {
        opts.epsilon = eps
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --epsilon {eps:?}")))?;
    }
    if let Some(k) = args.value("delta-keyframe") {
        opts.delta_keyframe_interval = Some(
            k.parse()
                .map_err(|_| CliError::Usage(format!("bad --delta-keyframe {k:?}")))?,
        );
    }

    let mut registered = None;
    let report = match registry_root {
        None => record(&src, &opts)?,
        Some(root) => {
            let registry = Registry::open(root)?;
            let run_id = match args.value("run-id") {
                Some(id) => id.to_string(),
                None => default_run_id(args.positional.get(1).copied().unwrap_or("run")),
            };
            match store {
                // Explicit store + registry: record there, then catalog it.
                Some(store_root) => {
                    opts.store_root = store_root.clone();
                    let report = record(&src, &opts)?;
                    let rec = registry.register_report(&run_id, &src, &store_root, &report)?;
                    registered = Some(rec);
                    report
                }
                // Registry-managed store.
                None => {
                    let (report, rec) = registry.record_run(&run_id, &src, |o| {
                        o.adaptive = opts.adaptive;
                        o.epsilon = opts.epsilon;
                        o.delta_keyframe_interval = opts.delta_keyframe_interval;
                    })?;
                    registered = Some(rec);
                    report
                }
            }
        }
    };
    let mut out = String::new();
    for e in &report.log {
        let _ = writeln!(out, "{e}");
    }
    // A registry run interns its checkpoints into the shared arena, which
    // its own byte total leaves out: say where the bytes are.
    let on_disk = if report.arena_bytes == 0 {
        format!("{} on disk", report.stored_bytes)
    } else {
        format!(
            "{} on disk in its own segments, {} referenced in the shared arena",
            report.stored_bytes, report.arena_bytes
        )
    };
    let _ = writeln!(
        out,
        "# recorded in {:.3}s: {} checkpoints, {} raw bytes ({on_disk})",
        report.wall_ns as f64 / 1e9,
        report.checkpoints,
        report.raw_bytes,
    );
    let _ = writeln!(
        out,
        "# materializer: {:.3}ms caller-blocked over {} submits, {} group commits ({} checkpoints batched)",
        report.materializer.main_thread_ns as f64 / 1e6,
        report.materializer.jobs,
        report.materializer.group_commits,
        report.materializer.group_commit_jobs
    );
    let _ = writeln!(
        out,
        "# delta chains: {} delta checkpoint(s), {} keyframe(s)",
        report.materializer.delta_checkpoints, report.materializer.keyframe_checkpoints
    );
    for b in &report.blocks {
        let _ = writeln!(
            out,
            "# block {}: changeset {{{}}}",
            b.id,
            b.static_changeset.join(", ")
        );
    }
    for r in &report.refused {
        let _ = writeln!(out, "# refused {} ({})", r.header, r.reason.reason);
    }
    if let Some(rec) = registered {
        let _ = writeln!(
            out,
            "# registered run {:?} generation {} (source {})",
            rec.run_id, rec.generation, rec.source_version
        );
    }
    Ok(out)
}

/// Default run id for `record --registry`: the script's file stem.
fn default_run_id(script_path: &str) -> String {
    Path::new(script_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "run".to_string())
}

fn cmd_replay(args: &Args) -> Result<String, CliError> {
    let store = args.store()?;
    let reference = args.flag("reference");
    if reference && (args.flag("weak") || args.value("workers").is_some()) {
        return Err(CliError::Usage(
            "--reference is one strong-init worker; it takes no --workers or --weak".into(),
        ));
    }
    let src = args.script(1)?;
    let report = if reference {
        replay_reference(&src, store)?
    } else {
        let opts = ReplayOptions {
            workers: args.workers(1)?,
            init_mode: if args.flag("weak") {
                InitMode::Weak
            } else {
                InitMode::Strong
            },
            ..ReplayOptions::default()
        };
        replay(&src, store, &opts)?
    };
    let mut out = String::new();
    for e in &report.log {
        let _ = writeln!(out, "{e}");
    }
    let _ = writeln!(
        out,
        "# replayed in {:.3}s: {} restored, {} re-executed, {} probes",
        report.wall_ns as f64 / 1e9,
        report.stats.restored,
        report.stats.executed,
        report.probes.len()
    );
    let _ = writeln!(
        out,
        "# interpreter: {}",
        if reference { "reference" } else { "vm" }
    );
    write_replay_trailer(&mut out, &report);
    Ok(out)
}

/// The lines `flor replay` and `flor sample` both end with: what the
/// slicer did, whether the postamble ran, what the scheduler did, and
/// every deferred-check anomaly.
fn write_replay_trailer(out: &mut String, report: &ReplayReport) {
    match &report.slice_refusal {
        Some(reason) => {
            let _ = writeln!(out, "# slice: refused ({reason})");
        }
        None => {
            let _ = writeln!(
                out,
                "# slice: {} statement(s) elided, {:.1}% of program live",
                report.stats.statements_elided,
                report.stats.slice_fraction() * 100.0
            );
        }
    }
    match &report.postamble {
        Postamble::Memoized => {
            let post = report.log.iter().filter(|e| e.section == Section::Post);
            let _ = writeln!(
                out,
                "# postamble: memoized ({} recorded entries)",
                post.count()
            );
        }
        Postamble::Executed(reason) => {
            let _ = writeln!(out, "# postamble: executed ({reason})");
        }
    }
    let _ = writeln!(
        out,
        "# scheduler: {} range(s) executed, {} steal(s), first entry streamed after {:.3}ms",
        report.stats.ranges_executed,
        report.stats.steals,
        report.stats.stream_first_entry_ns as f64 / 1e6
    );
    for a in &report.anomalies {
        let _ = writeln!(out, "# ANOMALY: {a}");
    }
}

fn cmd_sample(args: &Args) -> Result<String, CliError> {
    let store = args.store()?;
    let src = args.script(1)?;
    let iters: Vec<u64> = args
        .value("iters")
        .ok_or_else(|| CliError::Usage("missing --iters".into()))?
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("bad iteration {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let report = replay_sample(&src, store, &iters)?;
    let mut out = String::new();
    for e in &report.log {
        let _ = writeln!(out, "{e}");
    }
    let _ = writeln!(
        out,
        "# sampled {} iteration(s) in {:.3}s: {} restored, {} re-executed",
        iters.len(),
        report.wall_ns as f64 / 1e9,
        report.stats.restored,
        report.stats.executed
    );
    write_replay_trailer(&mut out, &report);
    Ok(out)
}

fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let src = args.script(1)?;
    let prog = parse(&src).map_err(|e| CliError::Failed(e.to_string()))?;
    let report = instrument(&prog);
    let mut out = String::new();
    let _ = writeln!(out, "# instrumented program:");
    out.push_str(&print_program(&report.program));
    for b in &report.blocks {
        let _ = writeln!(
            out,
            "# block {}: changeset {{{}}}",
            b.id,
            b.static_changeset.join(", ")
        );
        for (stmt, rule) in &b.rule_trace {
            let _ = writeln!(out, "#   rule {rule}: {stmt}");
        }
    }
    for r in &report.refused {
        let _ = writeln!(out, "# refused {} — {}", r.header, r.reason.reason);
    }
    if let Some(m) = &report.main_loop {
        let _ = writeln!(out, "# main loop: for {} in {}", m.var, m.iter);
    }
    Ok(out)
}

fn cmd_log(args: &Args) -> Result<String, CliError> {
    let store = flor_chkpt::CheckpointStore::open(args.store()?)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let bytes = store
        .get_artifact("record_log.txt")
        .map_err(|e| CliError::Failed(e.to_string()))?;
    String::from_utf8(bytes).map_err(|_| CliError::Failed("record log is not UTF-8".into()))
}

/// `flor store stats|compact --store <dir>`: the storage-engine operator
/// surface — segment layout, dead bytes, zero-copy read counters, and
/// on-demand compaction/GC.
fn cmd_store(args: &Args) -> Result<String, CliError> {
    // `stats` is pure inspection and must be safe to run while another
    // process records into the store: open read-only (no repairs, no
    // deletes). `compact` mutates by design and takes a writable handle.
    let sub = args.positional.get(1).copied();
    let store = if sub == Some("compact") {
        flor_chkpt::CheckpointStore::open(args.store()?)
    } else {
        flor_chkpt::CheckpointStore::open_read_only(args.store()?)
    }
    .map_err(|e| CliError::Failed(e.to_string()))?;
    let render_stats = |s: &flor_chkpt::StoreStats| -> String {
        // Prose over the same `(name, value)` list `StoreStats::to_json`
        // serializes — a counter renamed or dropped on one side panics
        // here instead of silently drifting between the two surfaces.
        let fields = s.fields();
        let f = |name: &str| -> u64 {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("StoreStats::fields lost {name:?}"))
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "entries:      {} ({} in segments)",
            f("entries"),
            f("segment_entries")
        );
        let _ = writeln!(
            out,
            "segments:     {} ({} sealed), {} bytes on disk",
            f("segments"),
            f("sealed_segments"),
            f("segment_disk_bytes")
        );
        let _ = writeln!(
            out,
            "bytes:        {} raw, {} stored, {} dead in segments",
            f("raw_bytes"),
            f("stored_bytes"),
            f("dead_segment_bytes")
        );
        let _ = writeln!(
            out,
            "compression:  {:.2}x (raw/stored)",
            s.compression_ratio()
        );
        let _ = writeln!(
            out,
            "delta chains: {} delta entr{}, {} keyframe(s)",
            f("delta_entries"),
            if f("delta_entries") == 1 { "y" } else { "ies" },
            f("keyframe_entries")
        );
        // Depth histogram, trimmed at the deepest populated bucket.
        let deepest = s.chain_depth_hist.iter().rposition(|&c| c > 0).unwrap_or(0);
        let hist = s.chain_depth_hist[..=deepest]
            .iter()
            .enumerate()
            .map(|(d, c)| format!("{d}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "chain depths: {hist}");
        let _ = writeln!(
            out,
            "reads:        {} ({} zero-copy; segment cache {} hits / {} misses)",
            f("reads"),
            f("zero_copy_reads"),
            f("segment_cache_hits"),
            f("segment_cache_misses")
        );
        if f("delta_reads") > 0 {
            let _ = writeln!(
                out,
                "delta reads:  {} ({} links resolved, {} restore-cache hits)",
                f("delta_reads"),
                f("chain_links_resolved"),
                f("restore_cache_hits")
            );
        }
        let _ = writeln!(
            out,
            "compactions:  {} ({} bytes reclaimed)",
            f("compactions"),
            f("compaction_reclaimed_bytes")
        );
        let _ = writeln!(
            out,
            "mmap:         {} faults, {} fallbacks",
            f("mmap_faults"),
            f("mmap_fallbacks")
        );
        let _ = writeln!(
            out,
            "dedup:        {} arena-backed entr{} ({} bytes referenced), {} hits, {} hash verif{}",
            f("dedup_entries"),
            if f("dedup_entries") == 1 { "y" } else { "ies" },
            f("dedup_referenced_bytes"),
            f("dedup_hits"),
            f("dedup_hash_verifies"),
            if f("dedup_hash_verifies") == 1 {
                "y"
            } else {
                "ies"
            }
        );
        out
    };
    match sub {
        Some("stats") if args.flag("json") => {
            let mut out = store.stats().to_json();
            out.push('\n');
            Ok(out)
        }
        Some("stats") => {
            let mut out = render_stats(&store.stats());
            let r = store.recovery_report();
            if r.is_clean() {
                let _ = writeln!(out, "recovery:     clean");
            } else {
                let _ = writeln!(
                    out,
                    "recovery:     {} missing entr{} dropped, {} orphaned segment(s), \
                     {} stale temp file(s){}{}",
                    r.missing_entries.len(),
                    if r.missing_entries.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                    r.orphaned_segments.len(),
                    r.stale_temp_files,
                    if r.dropped_torn_tail {
                        ", torn manifest tail dropped"
                    } else {
                        ""
                    },
                    if r.repaired_manifest {
                        ", manifest repaired"
                    } else if r.repair_pending {
                        ", manifest repair pending (read-only open)"
                    } else {
                        ""
                    },
                );
                for m in &r.missing_entries {
                    let _ = writeln!(out, "  missing: {}.{} at {}", m.block_id, m.seq, m.location);
                }
            }
            Ok(out)
        }
        Some("compact") => {
            let report = store
                .compact()
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "# compacted: {} entries rewritten, {} segment(s) removed, \
                 {} bytes reclaimed",
                report.rewritten_entries, report.segments_removed, report.reclaimed_bytes
            );
            let _ = writeln!(
                out,
                "# delta chains: {} re-encoded, {} chain(s) folded into fresh keyframes",
                report.reencoded_entries, report.chains_folded
            );
            out.push_str(&render_stats(&store.stats()));
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "store expects stats|compact, got {other:?}"
        ))),
    }
}

fn cmd_runs(args: &Args) -> Result<String, CliError> {
    let registry = args.registry()?;
    match args.positional.get(1).copied() {
        Some("list") => {
            let mut out = String::new();
            let runs = registry.runs();
            let _ = writeln!(
                out,
                "{:<20} {:>3} {:>6} {:>6} {:>12} {:>9} {:>8}  source",
                "run", "gen", "iters", "ckpts", "stored_bytes", "overhead", "scale_c"
            );
            for r in &runs {
                let _ = writeln!(
                    out,
                    "{:<20} {:>3} {:>6} {:>6} {:>12} {:>8.2}% {:>8.2}  {}",
                    r.run_id,
                    r.generation,
                    r.iterations,
                    r.checkpoints,
                    r.stored_bytes,
                    r.record_overhead * 100.0,
                    r.scaling_c,
                    r.source_version,
                );
            }
            let _ = writeln!(out, "# {} run(s) cataloged", runs.len());
            Ok(out)
        }
        Some("show") => {
            let id = args
                .positional
                .get(2)
                .copied()
                .ok_or_else(|| CliError::Usage("missing run id".into()))?;
            let rec = registry.run(id)?;
            if args.flag("json") {
                let mut out = rec.to_json();
                out.push('\n');
                return Ok(out);
            }
            // Prose over the same field list `RunRecord::to_json`
            // serializes — a field renamed on one side panics here
            // instead of drifting between the two surfaces.
            let (strs, nums) = rec.fields();
            let fs = |name: &str| -> &str {
                strs.iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| v.as_str())
                    .unwrap_or_else(|| panic!("RunRecord::fields lost {name:?}"))
            };
            let fnum = |name: &str| -> f64 {
                nums.iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("RunRecord::fields lost {name:?}"))
            };
            let mut out = String::new();
            let _ = writeln!(out, "run:             {}", fs("run_id"));
            let _ = writeln!(out, "generation:      {}", fnum("generation"));
            let _ = writeln!(out, "source version:  {}", fs("source_version"));
            let _ = writeln!(out, "store root:      {}", fs("store_root"));
            let _ = writeln!(out, "iterations:      {}", fnum("iterations"));
            let _ = writeln!(out, "checkpoints:     {}", fnum("checkpoints"));
            let _ = writeln!(
                out,
                "bytes:           {} raw, {} stored",
                fnum("raw_bytes"),
                fnum("stored_bytes")
            );
            let _ = writeln!(
                out,
                "record overhead: {:.2}% (scaling c {:.3})",
                fnum("record_overhead") * 100.0,
                fnum("scaling_c")
            );
            let history = registry.catalog().history(id);
            if history.len() > 1 {
                let _ = writeln!(out, "generations:     {}", history.len());
            }
            let _ = writeln!(out, "--- recorded source ---");
            out.push_str(&registry.run_source(id)?);
            Ok(out)
        }
        Some("prune") => {
            let id = args
                .positional
                .get(2)
                .copied()
                .ok_or_else(|| CliError::Usage("missing run id".into()))?;
            let keep: usize = args
                .value("keep")
                .map(|k| {
                    k.parse()
                        .map_err(|_| CliError::Usage(format!("bad --keep {k:?}")))
                })
                .transpose()?
                .unwrap_or(flor_registry::RetentionPolicy::default().keep_latest);
            let pruned = registry
                .apply_retention(id, &flor_registry::RetentionPolicy { keep_latest: keep })?;
            let mut out = String::new();
            for r in &pruned {
                let _ = writeln!(
                    out,
                    "pruned generation {} ({} stored bytes at {})",
                    r.generation,
                    r.stored_bytes,
                    r.store_root.display()
                );
            }
            let _ = writeln!(
                out,
                "# {} generation(s) pruned, newest {keep} kept (metadata retained in catalog)",
                pruned.len()
            );
            Ok(out)
        }
        other => Err(CliError::Usage(format!(
            "runs expects list|show|prune, got {other:?}"
        ))),
    }
}

fn cmd_query(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let registry = args.registry()?;
    let run_id = args
        .positional
        .get(1)
        .copied()
        .ok_or_else(|| CliError::Usage("missing run id".into()))?;
    let probed_src = args.script(2)?;
    let workers = args.workers(1)?;
    // `--trace out.json` wraps the whole query in a tracing window and
    // writes a Chrome trace_event file: one lane per replay worker plus
    // the merge driver and materializer/scheduler roles.
    let trace_path = args.value("trace").map(PathBuf::from);
    let session = trace_path.as_ref().map(|_| flor_obs::TraceSession::start());
    let outcome = if args.flag("stream") {
        // Streaming mode: entries and progress are written (and flushed)
        // the moment the replay delivers them — leading iterations reach
        // the terminal while trailing workers are still replaying. I/O
        // errors inside the observer are deferred to the end (the replay
        // itself must not be torn down mid-range by a closed pipe).
        let mut io_err: Option<std::io::Error> = None;
        let outcome = registry.query_streaming(
            run_id,
            &probed_src,
            workers,
            &mut |ev: flor_registry::QueryEvent| {
                if io_err.is_some() {
                    return;
                }
                let result = (|| -> std::io::Result<()> {
                    match ev {
                        flor_registry::QueryEvent::Entries(chunk) => {
                            for e in &chunk {
                                writeln!(out, "{e}")?;
                            }
                        }
                        flor_registry::QueryEvent::Progress {
                            iterations_done,
                            iterations_total,
                            steals,
                        } => writeln!(
                            out,
                            "# progress {iterations_done}/{iterations_total} iterations, \
                             {steals} steal(s)"
                        )?,
                        flor_registry::QueryEvent::Anomaly(a) => {
                            writeln!(out, "# ANOMALY: {a}")?;
                        }
                    }
                    out.flush()
                })();
                io_err = result.err();
            },
        )?;
        if let Some(e) = io_err {
            return Err(e.into());
        }
        writeln!(
            out,
            "# stream: first entry after {:.3}ms, {} steal(s)",
            outcome.stream_first_entry_ns as f64 / 1e6,
            outcome.steals
        )?;
        outcome
    } else {
        let outcome = registry.query(run_id, &probed_src, workers)?;
        for e in &outcome.log {
            writeln!(out, "{e}")?;
        }
        for a in &outcome.anomalies {
            writeln!(out, "# ANOMALY: {a}")?;
        }
        outcome
    };
    writeln!(
        out,
        "# query {} ({}): {} probes, {} entries, {} restored, {} re-executed, {} steal(s)",
        outcome.key,
        if outcome.cached { "cached" } else { "fresh" },
        outcome.probes,
        outcome.log.len(),
        outcome.restored,
        outcome.executed,
        outcome.steals
    )?;
    match &outcome.slice_refusal {
        Some(reason) => writeln!(out, "# slice: refused ({reason})")?,
        None => writeln!(
            out,
            "# slice: {} statement(s) elided ({} permille live), {} slice-cache hit(s)",
            outcome.statements_elided, outcome.slice_permille, outcome.slice_cache_hits
        )?,
    }
    if let (Some(path), Some(session)) = (trace_path, session) {
        let trace = session.finish();
        std::fs::write(&path, trace.to_chrome_json())?;
        let cats: Vec<&str> = trace.categories().iter().map(|c| c.as_str()).collect();
        writeln!(
            out,
            "# trace: {} event(s) on {} lane(s) [{}] -> {}",
            trace.events.len(),
            trace.lanes().len(),
            cats.join(","),
            path.display()
        )?;
    }
    Ok(())
}

/// The `serve` loop over explicit I/O — a thin, byte-compatible adapter
/// over [`flor_registry::ServeSession`] (the same state machine the
/// socket server runs; `cmd_serve` wires this one to stdin/stdout, or to
/// listening sockets with `--listen`). Protocol: one command per line —
///
/// ```text
/// query <run-id> <probed.flr path> [priority]   enqueue a hindsight query
/// stream <run-id> <probed.flr path> [priority]  enqueue + stream +entry/+done lines
/// watch <job-id>                                stream +progress/+done for a job
/// status <job-id>                               poll a job
/// cancel <job-id>                               cancel a queued or running job
/// tenant <name>                                 tag later submissions for quotas
/// runs                                          list cataloged runs
/// metrics [tenant]                              metrics as one JSON line
/// drain                                         report all finished jobs
/// quit                                          drain and exit (EOF works too)
/// ```
pub fn serve_io(
    registry_root: &Path,
    pool_workers: usize,
    input: impl std::io::BufRead,
    mut out: impl std::io::Write,
) -> Result<(), CliError> {
    let registry = Arc::new(Registry::open(registry_root)?);
    let scheduler = Arc::new(ReplayScheduler::new(registry.clone(), pool_workers));
    writeln!(
        out,
        "{}",
        flor_registry::session::banner(registry_root, scheduler.pool_size())
    )?;
    let admission = Arc::new(flor_registry::AdmissionController::new(
        flor_registry::AdmissionPolicy::unlimited(),
    ));
    let mut session = ServeSession::new(registry, scheduler, admission, true, 1024, || {});
    let mut input = input.lines();
    loop {
        let mut lines = Vec::new();
        // EOF is `quit`: `finish` drains, reports and returns `Quit`.
        let ctl = match input.next() {
            Some(line) => session.handle_line(&line?, &mut lines)?,
            None => session.finish(&mut lines)?,
        };
        for l in &lines {
            writeln!(out, "{l}")?;
        }
        if ctl == SessionControl::Quit {
            return Ok(());
        }
    }
}

fn parse_endpoints(specs: &[&str]) -> Result<Vec<Endpoint>, CliError> {
    specs
        .iter()
        .map(|s| {
            Endpoint::parse(s).map_err(|e| CliError::Usage(format!("bad --listen {s:?}: {e}")))
        })
        .collect()
}

fn cmd_serve(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let root = args
        .value("registry")
        .map(PathBuf::from)
        .ok_or_else(|| CliError::Usage("missing --registry <dir>".into()))?;
    let workers = args.workers(2)?;
    let listens = args.values("listen");
    if listens.is_empty() {
        // Stdin mode: the original single-client protocol, byte-for-byte.
        let stdin = std::io::stdin();
        return serve_io(&root, workers, stdin.lock(), out);
    }
    let config = ServerConfig {
        endpoints: parse_endpoints(&listens)?,
        pool_workers: workers,
        queue_limit: args.num("queue-limit", 0usize)?,
        admission: flor_registry::AdmissionPolicy {
            max_queue_depth: args.num("queue-limit", 0usize)?,
            max_tenant_jobs: args.num("tenant-jobs", 0usize)?,
            tenant_burst: args.num("tenant-burst", 0u64)?,
            tenant_refill_per_sec: args.num("tenant-refill", 0.0f64)?,
            max_backlog_ms: args.num("max-backlog-ms", 0u64)?,
        },
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::new(Registry::open(&root)?), config)?;
    for ep in handle.local_endpoints() {
        writeln!(out, "# listening on {ep}")?;
    }
    out.flush()?;
    // Serve until the process is killed (ctrl-C); the handle's Drop then
    // aborts connections and drains the scheduler.
    loop {
        std::thread::park();
    }
}

/// `flor connect <endpoint>`: bridges stdin/stdout to a serve socket —
/// the interactive client for `flor serve --listen`. Lines typed on
/// stdin go to the server; everything the server sends (including async
/// `+entry`/`+done` stream lines) is printed as it arrives. EOF on stdin
/// half-closes the socket, and the session's final report drains before
/// exit.
fn cmd_connect(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let spec = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("missing endpoint".into()))?;
    let ep = Endpoint::parse(spec).map_err(|e| CliError::Usage(format!("bad endpoint: {e}")))?;
    let conn =
        Arc::new(Conn::connect(&ep).map_err(|e| CliError::Failed(format!("connect {ep}: {e}")))?);
    let writer = {
        let conn = conn.clone();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let _ = std::io::copy(&mut stdin.lock(), &mut &*conn);
            let _ = conn.shutdown_write();
        })
    };
    let mut sock = std::io::BufReader::new(&*conn);
    std::io::copy(&mut sock, out)?;
    let _ = writer.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn setup(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "flor-cli-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("train.flr");
        std::fs::write(&script, SCRIPT).unwrap();
        (dir.join("store"), script)
    }

    fn cli(parts: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run_cli(&raw)
    }

    #[test]
    fn run_executes_script() {
        let (_, script) = setup("run");
        let out = cli(&["run", script.to_str().unwrap()]).unwrap();
        assert_eq!(out.matches("loss\t").count(), 4, "{out}");
    }

    #[test]
    fn record_then_log_then_replay() {
        let (store, script) = setup("pipeline");
        let out = cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        assert!(out.contains("# recorded"), "{out}");
        assert!(out.contains("checkpoints"), "{out}");

        let log_out = cli(&["log", "--store", store.to_str().unwrap()]).unwrap();
        assert_eq!(log_out.matches("loss\t").count(), 4);

        // Probe the script and replay with workers.
        let probed = SCRIPT.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"wnorm\", net.weight_norm())\n",
        );
        let probed_path = script.with_file_name("probed.flr");
        std::fs::write(&probed_path, probed).unwrap();
        let out = cli(&[
            "replay",
            probed_path.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(out.contains("1 probes"), "{out}");
        assert_eq!(out.matches("wnorm\t").count(), 4, "{out}");
        assert!(!out.contains("ANOMALY"), "{out}");
    }

    #[test]
    fn sample_replays_selected_iterations() {
        let (store, script) = setup("sample");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let out = cli(&[
            "sample",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--iters",
            "1,3",
        ])
        .unwrap();
        assert!(out.contains("[it000001]"), "{out}");
        assert!(out.contains("[it000003]"), "{out}");
        assert!(!out.contains("[it000002]"), "{out}");
        assert!(out.contains("# scheduler: 2 range(s) executed"), "{out}");
        assert!(out.contains("# slice:"), "{out}");
        assert!(!out.contains("ANOMALY"), "{out}");
    }

    #[test]
    fn sample_of_an_impure_diff_reports_the_poisoning() {
        let (store, script) = setup("sample-impure");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let edited = script.with_file_name("edited.flr");
        std::fs::write(&edited, SCRIPT.replace("lr=0.1", "lr=0.05")).unwrap();
        let out = cli(&[
            "sample",
            edited.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--iters",
            "2",
        ])
        .unwrap();
        assert!(out.contains("# sampled 1 iteration(s)"), "{out}");
        assert!(
            out.contains("# ANOMALY: source changed beyond hindsight logging"),
            "{out}"
        );
        assert!(out.contains("# slice: refused"), "{out}");
    }

    #[test]
    fn inspect_shows_instrumentation() {
        let (_, script) = setup("inspect");
        let out = cli(&["inspect", script.to_str().unwrap()]).unwrap();
        assert!(out.contains("skipblock \"sb_0\":"), "{out}");
        assert!(out.contains("flor.partition"), "{out}");
        assert!(out.contains("changeset"), "{out}");
    }

    #[test]
    fn store_stats_and_compact_commands() {
        let (store, script) = setup("store-cmd");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let out = cli(&["store", "stats", "--store", store.to_str().unwrap()]).unwrap();
        assert!(out.contains("entries:"), "{out}");
        assert!(out.contains("segments:"), "{out}");
        assert!(out.contains("compression:"), "{out}");
        assert!(out.contains("delta chains:"), "{out}");
        assert!(out.contains("chain depths: 0:"), "{out}");
        assert!(out.contains("mmap:"), "{out}");
        assert!(out.contains("0 fallbacks"), "{out}");
        assert!(!out.contains("cold"), "{out}");
        assert!(out.contains("dedup:"), "{out}");
        assert!(out.contains("recovery:     clean"), "{out}");

        let out = cli(&["store", "compact", "--store", store.to_str().unwrap()]).unwrap();
        assert!(out.contains("# compacted:"), "{out}");
        assert!(out.contains("segment(s) removed"), "{out}");
        assert!(out.contains("chain(s) folded"), "{out}");
        assert!(out.contains("compactions:  1"), "{out}");

        // Compacted store still replays cleanly.
        let out = cli(&[
            "replay",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("# replayed"), "{out}");
        assert!(!out.contains("ANOMALY"), "{out}");

        assert!(matches!(
            cli(&["store", "bogus", "--store", store.to_str().unwrap()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn store_stats_json_parses_and_matches_pretty() {
        let (store, script) = setup("stats-json");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let pretty = cli(&["store", "stats", "--store", store.to_str().unwrap()]).unwrap();
        let out = cli(&[
            "store",
            "stats",
            "--store",
            store.to_str().unwrap(),
            "--json",
        ])
        .unwrap();
        let doc = flor_obs::json::parse(out.trim()).expect("--json output parses");
        let entries = doc.get("entries").and_then(|v| v.as_u64()).unwrap();
        assert!(entries > 0);
        // Same source list on both surfaces: the pretty line carries the
        // exact value the JSON reports.
        assert!(
            pretty.contains(&format!("entries:      {entries} (")),
            "{pretty}"
        );
        assert!(
            doc.get("compression_ratio")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        assert!(doc
            .get("chain_depth_hist")
            .and_then(|v| v.as_arr())
            .is_some());
        for key in [
            "segments",
            "raw_bytes",
            "stored_bytes",
            "reads",
            "mmap_fallbacks",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}: {out}");
        }
    }

    #[test]
    fn runs_prune_applies_retention() {
        let (dir, script) = setup("prune");
        let registry = dir.with_file_name("prune-registry");
        for _ in 0..3 {
            cli(&[
                "record",
                script.to_str().unwrap(),
                "--registry",
                registry.to_str().unwrap(),
                "--run-id",
                "train",
                "--no-adaptive",
            ])
            .unwrap();
        }
        let out = cli(&[
            "runs",
            "prune",
            "train",
            "--registry",
            registry.to_str().unwrap(),
            "--keep",
            "1",
        ])
        .unwrap();
        assert!(out.contains("# 2 generation(s) pruned"), "{out}");
        // History metadata survives; the live generation still queries.
        let out = cli(&[
            "runs",
            "show",
            "train",
            "--registry",
            registry.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("generations:     3"), "{out}");
        let probed = SCRIPT.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"wn\", net.weight_norm())\n",
        );
        let probed_path = script.with_file_name("probed-prune.flr");
        std::fs::write(&probed_path, probed).unwrap();
        let out = cli(&[
            "query",
            "train",
            probed_path.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.matches("wn\t").count(), 4, "{out}");
    }

    #[test]
    fn registry_record_summary_says_where_the_bytes_are() {
        // A registry run interns every checkpoint >= 1 KiB into the shared
        // arena, which its own byte total leaves out by design: the
        // summary must not read "(0 on disk)".
        let (dir, script) = setup("record-arena");
        let registry = dir.with_file_name("record-arena-registry");
        let big = SCRIPT.replace("hidden=8", "hidden=64");
        std::fs::write(&script, &big).unwrap();
        let out = cli(&[
            "record",
            script.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
            "--run-id",
            "train",
            "--no-adaptive",
        ])
        .unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("# recorded in "))
            .expect("summary line");
        let number_before = |marker: &str| -> u64 {
            let head = line.split(marker).next().unwrap();
            head.rsplit([' ', ':', '('])
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(number_before(" checkpoints"), 4, "{line}");
        let raw = number_before(" raw bytes");
        let arena = number_before(" referenced in the shared arena");
        assert!(arena > 0 && arena <= raw, "{line}");
        assert_eq!(number_before(" on disk in its own segments"), 0, "{line}");
    }

    #[test]
    fn query_stream_interleaves_progress() {
        let (dir, script) = setup("stream");
        let registry = dir.with_file_name("stream-registry");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
            "--run-id",
            "train",
            "--no-adaptive",
        ])
        .unwrap();
        let probed = SCRIPT.replace(
            "    log(\"loss\", avg.mean())\n",
            "    log(\"loss\", avg.mean())\n    log(\"wn\", net.weight_norm())\n",
        );
        let probed_path = script.with_file_name("probed-stream.flr");
        std::fs::write(&probed_path, probed).unwrap();
        let out = cli(&[
            "query",
            "train",
            probed_path.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
            "--workers",
            "2",
            "--stream",
        ])
        .unwrap();
        assert_eq!(out.matches("wn\t").count(), 4, "{out}");
        assert!(out.contains("# progress "), "{out}");
        assert!(out.contains("4/4 iterations"), "{out}");
        assert!(out.contains("# stream: first entry after"), "{out}");
        assert!(out.contains("(fresh)"), "{out}");
        // The cached repeat still streams: one chunk, full progress.
        let out = cli(&[
            "query",
            "train",
            probed_path.to_str().unwrap(),
            "--registry",
            registry.to_str().unwrap(),
            "--stream",
        ])
        .unwrap();
        assert!(out.contains("(cached)"), "{out}");
        assert_eq!(out.matches("wn\t").count(), 4, "{out}");
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(cli(&[]), Err(CliError::Usage(_))));
        assert!(matches!(cli(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(cli(&["replay", "x.flr"]), Err(CliError::Usage(_))));
        assert!(matches!(
            cli(&["record", "x.flr", "--store"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_and_removed_flags_are_usage_errors() {
        // One misspelt or misplaced flag per subcommand family: none may
        // silently run the default.
        for (argv, flag, cmd) in [
            (&["run", "x.flr", "--fast"][..], "fast", "run"),
            (
                &["record", "x.flr", "--store", "s", "--no-adaptve"],
                "no-adaptve",
                "record",
            ),
            (
                &["replay", "x.flr", "--store", "s", "--no-vmm"],
                "no-vmm",
                "replay",
            ),
            (
                &["sample", "x.flr", "--store", "s", "--iter", "1"],
                "iter",
                "sample",
            ),
            (&["inspect", "x.flr", "--json"], "json", "inspect"),
            (&["log", "--registry", "r"], "registry", "log"),
            (&["store", "stats", "--store", "s", "--jsn"], "jsn", "store"),
            (
                &["runs", "list", "--registry", "r", "--workers", "2"],
                "workers",
                "runs",
            ),
            (
                &["query", "r1", "x.flr", "--registry", "r", "--reference"],
                "reference",
                "query",
            ),
            (
                &["serve", "--registry", "r", "--listn", "tcp:127.0.0.1:0"],
                "listn",
                "serve",
            ),
            (
                &["connect", "tcp:127.0.0.1:1", "--stream"],
                "stream",
                "connect",
            ),
        ] {
            let err = cli(argv).unwrap_err().to_string();
            assert_eq!(
                err,
                format!("usage error: unknown flag --{flag} for flor {cmd}"),
                "{argv:?}"
            );
        }
        for (cmd, flag) in [
            ("replay", "--steal"),
            ("replay", "--no-vm"),
            ("replay", "--no-slice"),
            ("query", "--no-vm"),
            ("query", "--no-slice"),
        ] {
            let err = cli(&[cmd, "x.flr", flag]).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("usage error: {flag} was removed: replay always")),
                "{err}"
            );
            assert!(err.contains("flor replay --reference"), "{err}");
        }
        // The oracle is one strong-init worker, not a mode of the others.
        let err = cli(&["replay", "x.flr", "--store", "s", "--reference", "--weak"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn missing_script_fails_cleanly() {
        let err = cli(&["run", "/nonexistent/path.flr"]).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }

    #[test]
    fn replay_weak_init_flag() {
        let (store, script) = setup("weak");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let out = cli(&[
            "replay",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--workers",
            "2",
            "--weak",
        ])
        .unwrap();
        assert!(out.contains("# replayed"), "{out}");
        assert!(!out.contains("ANOMALY"), "{out}");
    }

    #[test]
    fn replay_reference_flag_matches_vm_output() {
        let (store, script) = setup("reference");
        cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--no-adaptive",
        ])
        .unwrap();
        let vm = cli(&[
            "replay",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .unwrap();
        assert!(vm.contains("# interpreter: vm"), "{vm}");
        assert!(vm.contains("# scheduler:"), "{vm}");
        let reference = cli(&[
            "replay",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--reference",
        ])
        .unwrap();
        assert!(
            reference.contains("# interpreter: reference"),
            "{reference}"
        );
        assert!(
            reference.contains("# slice: 0 statement(s) elided"),
            "{reference}"
        );
        // Same log lines from the production path and its oracle.
        let logs = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(logs(&vm), logs(&reference));
    }

    #[test]
    fn record_with_custom_epsilon() {
        let (store, script) = setup("eps");
        let out = cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--epsilon",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("# recorded"), "{out}");
        let err = cli(&[
            "record",
            script.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--epsilon",
            "bogus",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }
}
