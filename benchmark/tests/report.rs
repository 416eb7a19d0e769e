//! The layer rows plus `unattributed_ms` sum to the total, and the emitted
//! result lines parse with `flor_obs::json` and carry exactly the metrics
//! `BENCHMARK.json` names, with its units.

use flor_benchmark::agree::{bounds, compare};
use flor_benchmark::layers;
use flor_benchmark::report::{
    assemble_end_to_end, budget, traced_metrics, value_of, Checked, EndToEndRaw, Metric, RunResult,
    SocketSide,
};
use flor_benchmark::spans::Spans;
use flor_benchmark::workload::{spec, WORKLOADS};
use flor_obs::json::{self, Json};
use flor_registry::Registry;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The per-layer medians the budget reads, as `layers::measure` names them.
fn layer() -> Vec<Metric> {
    [
        ("registry.query_ms", 14.0, "ms"),
        ("core.replay_ms", 12.5, "ms"),
        ("core.restore_ms", 9.0, "ms"),
        ("lang.parse_us", 60.0, "us"),
        ("analysis.instrument_us", 30.0, "us"),
        ("lang.diff_us", 20.0, "us"),
        ("analysis.slice_us", 70.0, "us"),
        ("lang.compile_us", 10.0, "us"),
    ]
    .map(|(name, value, unit)| Metric::new(name, value, unit))
    .to_vec()
}

#[test]
fn rows_plus_unattributed_equal_the_total() {
    let b = budget(&layer(), 21.5, 40.0);
    let rows: f64 = b.rows.iter().map(|(_, ms)| ms).sum();
    assert!((rows + b.unattributed_ms - b.total_ms).abs() < 1e-9);
    // Inside-out: the replay's rows add up to the replay, the registry's
    // to the registry query.
    let replay: f64 = [
        "lang.parse",
        "analysis.instrument",
        "lang.diff",
        "analysis.slice",
    ]
    .iter()
    .chain(&["lang.compile", "chkpt.restore", "core.exec"])
    .map(|n| b.row(n))
    .sum();
    assert!((replay - 12.5).abs() < 1e-9);
    assert!((replay + b.row("registry.overhead") - 14.0).abs() < 1e-9);
    assert!((b.unattributed_ms - (21.5 - 14.0 - 0.04)).abs() < 1e-9);
    assert_eq!(b.table().len(), b.rows.len() + 2);
}

fn sample_end_to_end() -> RunResult {
    assemble_end_to_end(
        "cv_outer",
        &EndToEndRaw {
            host_cores: 2,
            clients: 2,
            setup_s: vec![0.2, 0.3, 0.25],
            run_s: vec![0.16, 0.17, 0.15],
            record_s: vec![0.2, 0.22, 0.21],
            adaptive_checkpoints: vec![8.0, 9.0, 8.0],
            stored_bytes: 3_636_375,
            raw_bytes: 3_632_868,
            checkpoints: 12,
            checked: Checked {
                latency_ms: (1..=200).map(f64::from).collect(),
                ttfe_ms: (1..=200).map(|i| f64::from(i) / 2.0).collect(),
                attempted: 200,
                failed: 0,
                oracle_checked: 3,
                oracle_equal: 3,
                failures: vec![],
            },
            serve_wall_s: 10.0,
            serve_rss_mib: 32.5,
        },
    )
}

/// Asserts that `line` parses and its `metrics` are exactly `declared`
/// (BENCHMARK.json's list under `section`), unit for unit.
fn assert_carries(line: &str, section: &str) {
    let doc = json::parse(line).expect("result line parses");
    let Json::Obj(top) = &doc else {
        panic!("result is an object")
    };
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    let spec = json::parse(&benchmark_json()).unwrap();
    let declared = spec.get(section).and_then(Json::as_arr).unwrap();
    assert_eq!(declared.len(), metrics.len(), "{section}: metric count");
    for d in declared {
        let name = d.get("name").and_then(Json::as_str).unwrap();
        let emitted = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} not emitted"));
        assert_eq!(
            emitted.get("unit").and_then(Json::as_str),
            d.get("unit").and_then(Json::as_str),
            "{name}"
        );
        assert!(
            emitted.get("value").and_then(Json::as_f64).is_some(),
            "{name}"
        );
    }
}

#[test]
fn result_lines_carry_every_metric_benchmark_json_names() {
    let e2e = sample_end_to_end();
    assert!(e2e.correct);
    assert!((e2e.value("record_slowdown").unwrap() - 0.21 / 0.16).abs() < 1e-9);
    assert!((e2e.value("qps").unwrap() - 20.0).abs() < 1e-9);
    assert!((e2e.value("query_p90_ms").unwrap() - 180.1).abs() < 1e-9);
    assert_carries(&e2e.json_line(), "end_to_end");
}

/// The per-layer list, from a real pass of `layers::measure` over a small
/// recorded registry: every public call runs, and what it reports plus the
/// budget's and the socket side's rows is exactly `BENCHMARK.json`'s list.
#[test]
fn a_traced_result_carries_every_per_layer_metric_benchmark_json_names() {
    let spec = spec("cv_outer").unwrap();
    let root = std::env::temp_dir().join(format!("flor-benchmark-layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let script = spec.script_source(3, 0);
    Registry::open(root.join("reg"))
        .unwrap()
        .record_run(&spec.run_id(0), &script, |o| o.adaptive = false)
        .unwrap();
    let spans = Spans::default();
    let layer = layers::measure(spec, &root.join("reg"), &script, &spans, &root).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(value_of(&layer, "core.restored"), Some(12.0));
    assert_eq!(value_of(&layer, "chkpt.restores"), Some(12.0));
    assert!(value_of(&layer, "core.replay_ms").unwrap() > 0.0);

    let socket = SocketSide {
        fresh_ms: 21.5,
        traced_fresh_ms: 21.7,
        repeat_ms: 0.2,
        variant_ms: 1.2,
        rtt_us: 40.0,
        entry_us: 0.2,
    };
    let b = budget(&layer, socket.fresh_ms, socket.rtt_us);
    let result = RunResult {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: traced_metrics(layer, &b, &socket),
        notes: vec![],
    };
    let rows: f64 = b.rows.iter().map(|(_, ms)| ms).sum();
    assert!((rows + result.value("unattributed_ms").unwrap() - 21.5).abs() < 1e-9);
    assert_carries(&result.json_line(), "per_layer");
    assert!(spans
        .to_json("cv_outer")
        .contains("\"name\":\"core.replay\""));
}

#[test]
fn benchmark_json_names_the_workloads_and_a_failed_run_is_incorrect() {
    let spec = json::parse(&benchmark_json()).unwrap();
    let declared: Vec<(&str, &str)> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap(),
                w.get("why").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        declared,
        WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect::<Vec<_>>()
    );
    assert!(declared
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let mut raw = EndToEndRaw {
        run_s: vec![1.0],
        record_s: vec![1.0],
        checked: Checked {
            latency_ms: vec![1.0],
            attempted: 2,
            failed: 1,
            oracle_checked: 1,
            oracle_equal: 1,
            ..Checked::default()
        },
        ..EndToEndRaw::default()
    };
    assert!(!assemble_end_to_end("x", &raw).correct);
    raw.checked.failed = 0;
    assert!(assemble_end_to_end("x", &raw).correct);
    raw.checked.oracle_equal = 0;
    assert!(!assemble_end_to_end("x", &raw).correct);
}

#[test]
fn agreement_is_judged_against_each_metrics_own_bound() {
    let bounds = bounds(&benchmark_json()).unwrap();
    assert!(bounds.iter().any(|b| b.name == "setup_s"));
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    let first = sample_end_to_end();
    let mut second = first.clone();
    let p50 = second
        .metrics
        .iter_mut()
        .find(|m| m.name == "query_p50_ms")
        .unwrap();
    p50.value *= 1.5;
    let rows = compare(&bounds, &first, &second).unwrap();
    assert_eq!(rows.len(), bounds.len());
    for row in rows {
        assert_eq!(row.agrees(), row.metric != "query_p50_ms", "{}", row.metric);
    }
}
