//! Compiled-module caching and front-end passes across registry queries.
//!
//! This file is its own test binary on purpose: the `vm.compile` /
//! `vm.module_cache_hits` / `replay.plans` counters are process-wide, and
//! the assertions here are exact deltas — sharing a process with other
//! query tests would race them.

use flor_registry::Registry;
use std::path::PathBuf;

fn tmproot(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flor-registry-vm-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SRC: &str = "\
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

#[test]
fn second_query_reuses_compiled_module_without_compiling() {
    let root = tmproot("module-cache");
    let reg = Registry::open(&root).unwrap();
    // Two runs of the same source: queries against them share a probed
    // source version but have distinct query-cache keys, so the second
    // query replays fresh — the compiled module is the only thing shared.
    reg.record_run("run-a", SRC, |o| o.adaptive = false)
        .unwrap();
    reg.record_run("run-b", SRC, |o| o.adaptive = false)
        .unwrap();
    let probed = SRC.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(probed, SRC);

    let compiles = || flor_obs::metrics::counter("vm.compile").get();
    let hits = || flor_obs::metrics::counter("vm.module_cache_hits").get();

    let c0 = compiles();
    let a = reg.query("run-a", &probed, 2).unwrap();
    assert!(!a.cached);
    let c1 = compiles();
    assert_eq!(c1 - c0, 1, "first query compiles the probed source once");

    let h1 = hits();
    let b = reg.query("run-b", &probed, 2).unwrap();
    assert!(
        !b.cached,
        "distinct run => fresh replay, not a result-cache hit"
    );
    let c2 = compiles();
    let h2 = hits();
    assert_eq!(c2 - c1, 0, "second query must reuse the compiled module");
    assert_eq!(h2 - h1, 1, "…via exactly one module-cache hit");

    // Same hindsight answer from both runs.
    assert_eq!(a.log, b.log);
    assert_eq!(a.probes, 1);

    // The front end (parse, instrument, diff, slice) runs once per query
    // that gets past the raw-key cache, and never for one that does not.
    // (Same test function — these assertions share the process-wide
    // counters with the ones above.)
    let plans = || flor_obs::metrics::counter("replay.plans").get();
    let probed2 = SRC.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"hindsight_gn\", net.grad_norm())\n",
    );
    let p0 = plans();
    let fresh = reg.query("run-a", &probed2, 2).unwrap();
    assert!(!fresh.cached && fresh.anomalies.is_empty(), "{fresh:?}");
    assert_eq!(plans() - p0, 1, "a fresh query plans once");
    let variant = probed2.replace("import flor\n", "import flor\n\n");
    let memo = reg.query("run-a", &variant, 2).unwrap();
    assert_eq!(memo.slice_cache_hits, 1, "{memo:?}");
    assert_eq!(plans() - p0, 2, "a slice-memo variant plans once");
    assert!(reg.query("run-a", &variant, 2).unwrap().cached);
    assert!(reg.query("run-a", &probed2, 2).unwrap().cached);
    assert_eq!(plans() - p0, 2, "raw-key hits never reach the front end");
}
