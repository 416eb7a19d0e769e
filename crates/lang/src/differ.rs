//! Structural program diff: probe detection for replay.
//!
//! At replay time Flor compares the current source against the copy saved at
//! record (paper §3.2): "Any differences between the source codes are due to
//! hindsight logging statements added by the model developer." This module
//! implements that comparison *structurally* over ASTs, so formatting is
//! irrelevant, and classifies every difference:
//!
//! - an **added log statement** (`log(...)` / `flor.log(...)`) is a *probe*,
//!   attributed to its innermost enclosing SkipBlock (or to the open program
//!   if it is outside every SkipBlock — an "outer-loop probe" in the paper's
//!   Figure 12 terminology);
//! - anything else (edits, deletions, added non-log statements) is an *other
//!   change* — the replay engine refuses to reuse checkpoints across such
//!   changes and warns the user.

use crate::ast::{Program, Stmt};
use crate::printer::print_stmt_at;

/// Where a probe landed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSite {
    /// Innermost enclosing SkipBlock id, or `None` for probes outside every
    /// SkipBlock (outer-loop probes — cheap on replay).
    pub skipblock_id: Option<String>,
    /// The probe statement itself (a log statement).
    pub stmt: Stmt,
}

/// Result of diffing a record-time program against a replay-time program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Added log statements, with their enclosing SkipBlock attribution.
    pub probes: Vec<ProbeSite>,
    /// Human-readable descriptions of all non-probe differences.
    pub other_changes: Vec<String>,
}

impl DiffReport {
    /// True if the only differences are hindsight probes.
    pub fn is_pure_hindsight(&self) -> bool {
        self.other_changes.is_empty()
    }
}

/// Diffs two programs (record version → replay version).
pub fn diff_programs(old: &Program, new: &Program) -> DiffReport {
    let mut report = DiffReport::default();
    diff_block(&old.body, &new.body, None, &mut report);
    report
}

/// A statement's alignment key: full text for simple statements, kind+header
/// for container statements (so body edits don't break header alignment).
fn stmt_key(stmt: &Stmt) -> String {
    match stmt {
        Stmt::For { var, iter, .. } => {
            format!("for {var} in {}:", crate::printer::print_expr(iter))
        }
        Stmt::If { cond, .. } => format!("if {}:", crate::printer::print_expr(cond)),
        Stmt::SkipBlock { id, .. } => format!("skipblock {id:?}:"),
        simple => print_stmt_at(simple, 0),
    }
}

fn diff_block(old: &[Stmt], new: &[Stmt], enclosing_sb: Option<&str>, report: &mut DiffReport) {
    let old_keys: Vec<String> = old.iter().map(stmt_key).collect();
    let new_keys: Vec<String> = new.iter().map(stmt_key).collect();
    let (n, m) = (old.len(), new.len());

    // LCS table over statement keys.
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if old_keys[i] == new_keys[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }

    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old_keys[i] == new_keys[j] {
            // Headers match: recurse into bodies of container statements.
            match (&old[i], &new[j]) {
                (Stmt::For { body: ob, .. }, Stmt::For { body: nb, .. }) => {
                    diff_block(ob, nb, enclosing_sb, report);
                }
                (
                    Stmt::If {
                        then: ot,
                        orelse: oe,
                        ..
                    },
                    Stmt::If {
                        then: nt,
                        orelse: ne,
                        ..
                    },
                ) => {
                    diff_block(ot, nt, enclosing_sb, report);
                    diff_block(oe, ne, enclosing_sb, report);
                }
                (Stmt::SkipBlock { id, body: ob }, Stmt::SkipBlock { body: nb, .. }) => {
                    diff_block(ob, nb, Some(id), report);
                }
                _ => {} // identical simple statements
            }
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            removed(&old[i], report);
            i += 1;
        } else {
            added(&new[j], enclosing_sb, report);
            j += 1;
        }
    }
    while i < n {
        removed(&old[i], report);
        i += 1;
    }
    while j < m {
        added(&new[j], enclosing_sb, report);
        j += 1;
    }
}

fn added(stmt: &Stmt, enclosing_sb: Option<&str>, report: &mut DiffReport) {
    if stmt.is_log_stmt() {
        report.probes.push(ProbeSite {
            skipblock_id: enclosing_sb.map(str::to_string),
            stmt: stmt.clone(),
        });
    } else {
        report.other_changes.push(format!(
            "added non-log statement: {}",
            print_stmt_at(stmt, 0).trim_end()
        ));
    }
}

fn removed(stmt: &Stmt, report: &mut DiffReport) {
    report.other_changes.push(format!(
        "removed statement: {}",
        print_stmt_at(stmt, 0).trim_end()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn report(old: &str, new: &str) -> DiffReport {
        diff_programs(&parse(old).unwrap(), &parse(new).unwrap())
    }

    const RECORDED: &str = "\
import flor
net = resnet(classes=10)
optimizer = sgd(net, lr=0.1)
for epoch in range(4):
    skipblock \"sb_0\":
        for batch in loader:
            loss = net.train_step(batch, optimizer)
    log(\"epoch\", epoch)
";

    #[test]
    fn identical_programs_have_empty_report() {
        let r = report(RECORDED, RECORDED);
        assert!(r.probes.is_empty());
        assert!(r.other_changes.is_empty());
        assert!(r.is_pure_hindsight());
    }

    #[test]
    fn probe_inside_skipblock_is_attributed() {
        let probed = RECORDED.replace(
            "            loss = net.train_step(batch, optimizer)\n",
            "            loss = net.train_step(batch, optimizer)\n            log(\"grad\", net.grad_norm())\n",
        );
        let r = report(RECORDED, &probed);
        assert!(r.is_pure_hindsight());
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].skipblock_id.as_deref(), Some("sb_0"));
    }

    #[test]
    fn probe_outside_skipblock_is_outer() {
        let probed = RECORDED.replace(
            "    log(\"epoch\", epoch)\n",
            "    log(\"epoch\", epoch)\n    log(\"wnorm\", net.weight_norm())\n",
        );
        let r = report(RECORDED, &probed);
        assert!(r.is_pure_hindsight());
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].skipblock_id, None);
    }

    #[test]
    fn formatting_differences_are_invisible() {
        // Extra blank lines and comments don't change the AST.
        let reformatted = RECORDED.replace("import flor\n", "import flor\n\n# comment\n");
        let r = report(RECORDED, &reformatted);
        assert!(r.probes.is_empty() && r.other_changes.is_empty());
    }

    #[test]
    fn non_log_addition_is_other_change() {
        let edited = RECORDED.replace(
            "    log(\"epoch\", epoch)\n",
            "    log(\"epoch\", epoch)\n    extra_work(net)\n",
        );
        let r = report(RECORDED, &edited);
        assert!(!r.is_pure_hindsight());
        assert_eq!(r.other_changes.len(), 1);
        assert!(r.other_changes[0].contains("extra_work"));
    }

    #[test]
    fn edited_statement_is_two_other_changes() {
        let edited = RECORDED.replace("lr=0.1", "lr=0.5");
        let r = report(RECORDED, &edited);
        assert_eq!(r.other_changes.len(), 2, "{:?}", r.other_changes);
        assert!(r.probes.is_empty());
    }

    #[test]
    fn removed_statement_is_other_change() {
        let edited = RECORDED.replace("    log(\"epoch\", epoch)\n", "");
        let r = report(RECORDED, &edited);
        assert_eq!(r.other_changes.len(), 1);
        assert!(r.other_changes[0].contains("removed"));
    }

    #[test]
    fn multiple_probes_in_different_scopes() {
        let probed = RECORDED
            .replace(
                "            loss = net.train_step(batch, optimizer)\n",
                "            loss = net.train_step(batch, optimizer)\n            log(\"loss\", loss)\n",
            )
            .replace(
                "    log(\"epoch\", epoch)\n",
                "    log(\"epoch\", epoch)\n    log(\"w\", net.weight_norm())\n",
            );
        let r = report(RECORDED, &probed);
        let mut scopes: Vec<_> = r.probes.iter().map(|p| p.skipblock_id.as_deref()).collect();
        scopes.sort();
        assert_eq!(scopes, [None, Some("sb_0")]);
    }

    #[test]
    fn nested_skipblocks_attribute_to_innermost() {
        let old = "\
skipblock \"outer\":
    for e in range(2):
        skipblock \"inner\":
            for b in loader:
                net.step(b)
";
        let new = "\
skipblock \"outer\":
    for e in range(2):
        skipblock \"inner\":
            for b in loader:
                net.step(b)
                log(\"x\", 1)
";
        let r = report(old, new);
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].skipblock_id.as_deref(), Some("inner"));
    }

    #[test]
    fn probe_added_in_if_branch_keeps_enclosure() {
        let old = "\
skipblock \"sb\":
    for b in loader:
        if b > 1:
            net.step(b)
";
        let new = "\
skipblock \"sb\":
    for b in loader:
        if b > 1:
            net.step(b)
            log(\"b\", b)
";
        let r = report(old, new);
        assert_eq!(r.probes.len(), 1);
        assert_eq!(r.probes[0].skipblock_id.as_deref(), Some("sb"));
    }

    #[test]
    fn changed_loop_header_is_other_change() {
        let old = "for e in range(2):\n    net.step(e)\n";
        let new = "for e in range(3):\n    net.step(e)\n";
        let r = report(old, new);
        assert!(!r.is_pure_hindsight());
    }
}
