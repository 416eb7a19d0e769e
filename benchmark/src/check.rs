//! Output checks. Every query gets the structural check; a seeded sample
//! per class is also compared byte for byte with a from-scratch run of the
//! probed source — the paper's contract: a hindsight log equals what the
//! run would have printed had the statement been there from the start.

use crate::client::Reply;
use crate::workload::{probe_key, Class, Query, Spec};
use crate::Res;

/// The log key of a printed entry (`[it000003] key\tvalue`).
fn entry_key(entry: &str) -> Option<&str> {
    entry.split_once("] ")?.1.split_once('\t').map(|(k, _)| k)
}

/// Structural check of one reply against the run's record log: the probe
/// contributed exactly its expected entries, every other entry is
/// byte-equal to the record log in order, and the `+done` line is clean
/// and names the cache relation the query's class predicts.
pub fn check_structure(
    spec: &Spec,
    record_log: &[String],
    query: &Query,
    reply: &Reply,
) -> Res<()> {
    if reply.anomalies > 0 {
        return Err(format!("{} +anomaly line(s)", reply.anomalies));
    }
    let key = probe_key(query.k);
    let (probe, recorded): (Vec<&String>, Vec<&String>) = reply
        .entries
        .iter()
        .partition(|e| entry_key(e) == Some(key.as_str()));
    if probe.len() as u64 != spec.probe_entries() {
        return Err(format!(
            "{} entries under {key:?}, expected {}",
            probe.len(),
            spec.probe_entries()
        ));
    }
    if !recorded.iter().copied().eq(record_log.iter()) {
        return Err("non-probe entries differ from the record log".into());
    }
    let served = match query.class {
        Class::Fresh => "(fresh)",
        Class::Repeat | Class::Variant => "(cached)",
    };
    let head = format!("run {:?} ", spec.run_id(query.run));
    let tail = format!(", {} entries, 0 anomalies", reply.entries.len());
    let done = &reply.done_line;
    if !(done.starts_with(&head) && done.ends_with(&tail) && done.contains(served)) {
        return Err(format!(
            "+done line {done:?} is not a clean {served} completion"
        ));
    }
    Ok(())
}

/// The oracle: a from-scratch vanilla run of the probed source, printed
/// entry by entry exactly as the server prints them.
pub fn oracle_log(probed_source: &str) -> Res<Vec<String>> {
    let (_, log) = flor_core::record::run_vanilla(probed_source)
        .map_err(|e| format!("oracle run failed: {e}"))?;
    Ok(log.iter().map(|e| e.to_string()).collect())
}
