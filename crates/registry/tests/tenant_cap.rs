//! What an unauthenticated peer can make the server allocate with the
//! `tenant` verb is bounded.
//!
//! This file is its own test binary on purpose: the tenant table is
//! process-wide, and filling it here would starve every other session
//! test sharing the process.

use flor_registry::admission::{MAX_TENANTS, MAX_TENANT_NAME_BYTES};
use flor_registry::{
    AdmissionController, AdmissionPolicy, Registry, ReplayScheduler, ServeSession,
};
use std::sync::Arc;

#[test]
fn tenant_names_and_their_number_are_bounded() {
    let root = std::env::temp_dir().join(format!("flor-tenant-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Arc::new(Registry::open(&root).unwrap());
    let scheduler = Arc::new(ReplayScheduler::new(registry.clone(), 1));
    let admission = Arc::new(AdmissionController::new(AdmissionPolicy::unlimited()));
    let mut session = ServeSession::new(registry, scheduler, admission, true, 16, || {});
    let mut say = |line: &str| -> String {
        let mut out = Vec::new();
        session.handle_line(line, &mut out).unwrap();
        assert_eq!(out.len(), 1, "{line:?} -> {out:?}");
        out.remove(0)
    };

    // Length: the limit itself is fine, one byte more is not, and the
    // refusal does not echo the name back.
    let longest = "a".repeat(MAX_TENANT_NAME_BYTES);
    assert_eq!(
        say(&format!("tenant {longest}")),
        format!("tenant set: {longest:?}")
    );
    let reply = say(&format!("tenant {longest}a"));
    assert_eq!(
        reply,
        format!("bad tenant: name over {MAX_TENANT_NAME_BYTES} bytes")
    );
    assert!(say("tenant no/slash").starts_with("bad tenant \"no/slash\""));

    // Count: the table fills (the refused names above took no slot)…
    for i in 1..MAX_TENANTS {
        assert_eq!(
            say(&format!("tenant t{i}")),
            format!("tenant set: \"t{i}\"")
        );
    }
    // …then a new name is refused and registers nothing: no metric, and
    // the session keeps the tenant it had.
    assert_eq!(say("tenant one-too-many"), "error: too many tenants");
    let tagged = flor_obs::metrics::snapshot_prefixed("tenant.one-too-many.");
    assert!(tagged.counters.is_empty() && tagged.histograms.is_empty());
    // An already-known tenant still works at the cap, from any session.
    assert_eq!(say("tenant t7"), "tenant set: \"t7\"");
    assert_eq!(
        say(&format!("tenant {longest}")),
        format!("tenant set: {longest:?}")
    );
    assert_eq!(say("tenant another-new-one"), "error: too many tenants");
    let _ = std::fs::remove_dir_all(&root);
}
