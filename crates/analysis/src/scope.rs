//! Loop-scope filtering (paper §5.2.1, step 2).
//!
//! "Flor removes from the changeset any variable that is defined in the body
//! of the loop (henceforth 'loop-scoped variable'), under the assumption that
//! this variable is local to the loop and is not read after the end of the
//! loop. Loop-scoped variables are very common and can be large, so this
//! filtering step is necessary for controlling overhead on record."
//!
//! A name is loop-scoped iff it is defined (plain-name assigned, or a loop
//! variable) inside the loop body **and** was not already defined before the
//! loop in the enclosing program — FlorScript, like Python, has no block
//! scope, so "defined in the loop" only makes a variable loop-local when the
//! loop is its first definition.

use std::collections::BTreeSet;

/// Applies the loop-scope filter: removes from `raw_changeset` every name
/// that the loop defines (`loop_defined`) unless it was already defined
/// before the loop (`pre_defined`).
pub(crate) fn filter_loop_scoped(
    raw_changeset: &[String],
    loop_defined: &BTreeSet<String>,
    pre_defined: &BTreeSet<String>,
) -> Vec<String> {
    raw_changeset
        .iter()
        .filter(|name| !loop_defined.contains(*name) || pre_defined.contains(*name))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_lang::parse;

    #[test]
    fn filter_drops_fresh_loop_locals() {
        let raw = vec![
            "batch".to_string(),
            "preds".to_string(),
            "optimizer".to_string(),
        ];
        let loop_defined: BTreeSet<String> =
            ["batch", "preds"].iter().map(|s| s.to_string()).collect();
        let pre_defined = BTreeSet::new();
        assert_eq!(
            filter_loop_scoped(&raw, &loop_defined, &pre_defined),
            vec!["optimizer".to_string()]
        );
    }

    #[test]
    fn filter_keeps_predefined_names() {
        // avg_loss initialized before the loop must survive the filter even
        // though the loop assigns it.
        let raw = vec!["avg_loss".to_string(), "optimizer".to_string()];
        let loop_defined: BTreeSet<String> = ["avg_loss"].iter().map(|s| s.to_string()).collect();
        let pre_defined: BTreeSet<String> = ["avg_loss"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            filter_loop_scoped(&raw, &loop_defined, &pre_defined),
            vec!["avg_loss".to_string(), "optimizer".to_string()]
        );
    }

    /// The instrumented inner loop's changeset for `src`.
    fn changeset(src: &str) -> Vec<String> {
        let report = crate::instrument::instrument(&parse(src).unwrap());
        assert_eq!(report.blocks.len(), 1, "one inner loop");
        report.blocks[0].static_changeset.clone()
    }

    #[test]
    fn defined_before_walks_program_order() {
        let cs = changeset(
            "\
import flor
net = resnet()
opt = sgd(net)
for e in range(3):
    for b in loader.epoch():
        net = net.train_step(b)
        opt = sgd(net)
        fresh = net.train_step(b)
    log(\"x\", fresh)
",
        );
        assert!(cs.contains(&"net".to_string()), "{cs:?}");
        assert!(cs.contains(&"opt".to_string()), "{cs:?}");
        assert!(!cs.contains(&"fresh".to_string()), "{cs:?}");
    }

    #[test]
    fn defined_before_sees_outer_loop_vars_for_inner_loop() {
        let cs = changeset(
            "\
import flor
for e in range(3):
    acc = 0
    for b in loader.epoch():
        e = e + 1
        acc = acc + net.train_step(b)
        y = b
    log(\"acc\", acc)
",
        );
        assert!(
            cs.contains(&"e".to_string()),
            "outer loop var visible: {cs:?}"
        );
        assert!(
            cs.contains(&"acc".to_string()),
            "outer loop body assignment visible: {cs:?}"
        );
        assert!(!cs.contains(&"b".to_string()), "{cs:?}");
        assert!(!cs.contains(&"y".to_string()), "{cs:?}");
    }

    #[test]
    fn defined_before_stops_at_target() {
        let cs = changeset(
            "\
import flor
a = 1
for e in range(3):
    for i in range(2):
        a = a + 1
        late = a
    log(\"a\", a)
late = 2
",
        );
        assert!(cs.contains(&"a".to_string()), "{cs:?}");
        assert!(
            !cs.contains(&"late".to_string()),
            "later definitions must not count: {cs:?}"
        );
    }
}
