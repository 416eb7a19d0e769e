//! The probe generator, checked against an in-process `Registry`: fresh
//! probes get distinct query keys *and* distinct slice classes (each one
//! replays), a variant gets a new key but lands in its original's slice
//! class (served from the slice memo), a repeat hits the raw key.

use flor_benchmark::check::{check_structure, oracle_log};
use flor_benchmark::client::Reply;
use flor_benchmark::workload::{
    plan_query, probed_source, query_source, spec, variant_source, Class, ProbeSite, Query,
    WORKLOADS,
};
use flor_registry::Registry;
use std::collections::HashSet;
use std::time::Instant;

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flor-benchmark-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn classes_reach_the_caches_they_are_named_for() {
    let spec = spec("serve_mix").unwrap();
    let root = tmp("probes");
    let registry = Registry::open(&root).unwrap();
    let script = spec.script_source(7, 0);
    registry
        .record_run("r0", &script, |o| o.adaptive = false)
        .unwrap();

    // Two fresh probes: both replay, under different keys.
    let fresh: Vec<_> = [0, 1]
        .map(|i| Query::fresh(spec, 7, i, 0))
        .iter()
        .map(|q| {
            registry
                .query("r0", &probed_source(&script, spec.site, q.k), 1)
                .unwrap()
        })
        .collect();
    assert!(fresh.iter().all(|o| !o.cached && o.slice_cache_hits == 0));
    assert_ne!(fresh[0].key, fresh[1].key);
    assert_eq!(fresh[0].probes, 1);

    // A hot probe: fresh the first time, a raw-key hit when repeated, a
    // slice-memo hit under a new key when reformatted — every time.
    let hot = Query::hot(spec, 7, Class::Repeat, 10, 0);
    let hot_src = probed_source(&script, spec.site, hot.k);
    let first = registry.query("r0", &hot_src, 1).unwrap();
    assert!(!first.cached);
    let repeat = registry.query("r0", &hot_src, 1).unwrap();
    assert!(repeat.cached && repeat.slice_cache_hits == 0);
    assert_eq!(repeat.key, first.key);
    let mut keys = HashSet::from([first.key.clone()]);
    for index in [11, 12, 500_000] {
        let variant = Query::hot(spec, 7, Class::Variant, index, 0);
        let src = variant_source(&hot_src, variant.variant);
        let served = registry.query("r0", &src, 1).unwrap();
        assert!(served.cached, "variant {index} replayed");
        assert_eq!(
            served.slice_cache_hits, 1,
            "variant {index} missed the memo"
        );
        assert_eq!(served.log, first.log);
        assert!(keys.insert(served.key), "variant {index} reused a raw key");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn plan_is_a_function_of_the_seed_with_the_stated_mix() {
    let spec = spec("serve_mix").unwrap();
    let plan = |seed| {
        (0..2000)
            .map(|i| plan_query(spec, seed, i))
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(3), plan(3));
    assert_ne!(plan(3), plan(4));
    let share = |class| plan(3).iter().filter(|q| q.class == class).count() as f64 / 2000.0;
    assert!((share(Class::Repeat) - 0.75).abs() < 0.05);
    assert!((share(Class::Variant) - 0.1).abs() < 0.05);
    assert!((share(Class::Fresh) - 0.15).abs() < 0.05);
    // Fresh probe ids never collide with each other or with the hot set.
    let fresh: Vec<u64> = plan(3)
        .iter()
        .filter(|q| q.class == Class::Fresh)
        .map(|q| q.k)
        .collect();
    let hot: HashSet<u64> = plan(3)
        .iter()
        .filter(|q| q.class != Class::Fresh)
        .map(|q| q.k)
        .collect();
    assert_eq!(fresh.iter().collect::<HashSet<_>>().len(), fresh.len());
    assert!(fresh.iter().all(|k| !hot.contains(k)));
    assert!(hot.len() <= 32);
    // The other workloads are all fresh, at their own probe site.
    for w in &WORKLOADS[..3] {
        assert!((0..200).all(|i| plan_query(w, 3, i).class == Class::Fresh));
    }
    assert_eq!(spec.site, ProbeSite::Outer);
}

/// The structural check accepts what a from-scratch run prints and rejects
/// a dropped entry, an altered recorded entry and a dirty `+done`.
#[test]
fn structure_check_accepts_the_oracle_and_rejects_damage() {
    let spec = spec("cv_inner").unwrap();
    let script = spec.script_source(5, 0);
    let record_log = oracle_log(&script).unwrap();
    let query = plan_query(spec, 5, 0);
    let entries = oracle_log(&query_source(spec, &[script], &query)).unwrap();
    assert_eq!(
        entries.len() as u64,
        record_log.len() as u64 + spec.probe_entries()
    );
    let now = Instant::now();
    let reply = |entries: Vec<String>, done: &str| Reply {
        sent: now,
        acked: now,
        first_entry: Some(now),
        done: now,
        done_line: format!("run \"r0\" 00ff (fresh), {} entries, {done}", entries.len()),
        entries,
        anomalies: 0,
    };
    let ok = reply(entries.clone(), "0 anomalies");
    check_structure(spec, &record_log, &query, &ok).unwrap();
    let mut short = entries.clone();
    short.remove(3);
    assert!(check_structure(spec, &record_log, &query, &reply(short, "0 anomalies")).is_err());
    let mut altered = entries.clone();
    let loss = altered.iter().position(|e| e.contains("loss\t")).unwrap();
    altered[loss].push('1');
    assert!(check_structure(spec, &record_log, &query, &reply(altered, "0 anomalies")).is_err());
    assert!(check_structure(spec, &record_log, &query, &reply(entries, "1 anomalies")).is_err());
    let cached = Reply {
        done_line: ok.done_line.replace("(fresh)", "(cached)"),
        ..ok
    };
    assert!(check_structure(spec, &record_log, &query, &cached).is_err());
}
