//! Per-loop changeset construction (paper §5.2.1, step 1).
//!
//! Walks a loop's body — including the loop header and nested blocks — in
//! program order, applying Table 1's rules and accumulating the changeset.
//! Any `NoEstimate` outcome refuses the whole loop.

use crate::rules::{match_rule, RuleApplication, RuleId};
use flor_lang::ast::{Expr, Stmt};
use flor_lang::printer::print_stmt_at;
use std::collections::BTreeSet;

/// Why a loop was refused instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct RefusalReason {
    /// The rule that refused (0 or 5).
    pub rule: RuleId,
    /// The offending statement (pretty-printed).
    pub stmt: String,
    /// Explanation.
    pub reason: String,
}

/// Outcome of analyzing one loop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopAnalysis {
    /// Changeset after rule application (before loop-scope filtering),
    /// in first-added order.
    pub(crate) raw_changeset: Vec<String>,
    /// Names the loop *defines* (plain-name assignment targets and loop
    /// variables) — input to the scope filter.
    pub(crate) defined_names: BTreeSet<String>,
    /// Per-statement rule trace `(pretty stmt, rule number)` for statements
    /// that activated a rule — mirrors Figure 6's line-by-line comments.
    pub rule_trace: Vec<(String, u8)>,
    /// If set, the loop is refused and must be left uninstrumented.
    pub refusal: Option<RefusalReason>,
}

/// Analyzes a `for` loop: header plus body, recursively.
///
/// The loop header `for v in <iter>:` is treated as an implicit assignment
/// `v = <iter-element>` each iteration:
/// - `for b in loader.epoch():` matches rule 1 (`{loader, b}`), correctly
///   capturing that iterating the loader advances its RNG;
/// - `for e in range(n):` matches rule 2 (`{e}`);
/// - `for x in xs:` matches rule 3 (`{x}`).
///
/// # Panics
/// Panics if `stmt` is not a `For` loop.
pub(crate) fn analyze_loop(stmt: &Stmt) -> LoopAnalysis {
    let (var, iter, body) = match stmt {
        Stmt::For { var, iter, body } => (var, iter, body),
        other => panic!("analyze_loop on non-loop statement: {other:?}"),
    };
    let mut analysis = LoopAnalysis {
        raw_changeset: Vec::new(),
        defined_names: BTreeSet::new(),
        rule_trace: Vec::new(),
        refusal: None,
    };

    // Header: synthesize the implicit per-iteration assignment.
    let header = Stmt::Assign {
        targets: vec![Expr::Name(var.clone())],
        value: iter.clone(),
    };
    analysis.defined_names.insert(var.clone());
    apply(&header, format!("for {var} in …"), &mut analysis);
    if analysis.refusal.is_some() {
        return analysis;
    }

    walk(body, &mut analysis);
    analysis
}

fn walk(body: &[Stmt], analysis: &mut LoopAnalysis) {
    for stmt in body {
        if analysis.refusal.is_some() {
            return;
        }
        match stmt {
            Stmt::For { var, iter, body } => {
                // Nested loop: its header and body are side effects of the
                // enclosing loop too.
                analysis.defined_names.insert(var.clone());
                let header = Stmt::Assign {
                    targets: vec![Expr::Name(var.clone())],
                    value: iter.clone(),
                };
                apply(&header, format!("for {var} in …"), analysis);
                if analysis.refusal.is_some() {
                    return;
                }
                walk(body, analysis);
            }
            Stmt::If { then, orelse, .. } => {
                walk(then, analysis);
                walk(orelse, analysis);
            }
            Stmt::SkipBlock { body, .. } => walk(body, analysis),
            simple => {
                if let Stmt::Assign { targets, .. } = simple {
                    for t in targets {
                        if let Expr::Name(n) = t {
                            analysis.defined_names.insert(n.clone());
                        }
                    }
                }
                let text = print_stmt_at(simple, 0).trim_end().to_string();
                apply(simple, text, analysis);
            }
        }
    }
}

fn apply(stmt: &Stmt, text: String, analysis: &mut LoopAnalysis) {
    let changeset: BTreeSet<String> = analysis.raw_changeset.iter().cloned().collect();
    match match_rule(stmt, &changeset) {
        RuleApplication::Delta { rule, names } => {
            analysis.rule_trace.push((text, rule.number()));
            for n in names {
                if !analysis.raw_changeset.contains(&n) {
                    analysis.raw_changeset.push(n);
                }
            }
        }
        RuleApplication::NoEstimate { rule, reason } => {
            analysis.rule_trace.push((text.clone(), rule.number()));
            analysis.refusal = Some(RefusalReason {
                rule,
                stmt: text,
                reason,
            });
        }
        RuleApplication::NoMatch => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_lang::parse;

    fn first_loop(src: &str) -> Stmt {
        parse(src)
            .unwrap()
            .body
            .into_iter()
            .find(|s| matches!(s, Stmt::For { .. }))
            .expect("no loop in source")
    }

    #[test]
    fn training_loop_changeset() {
        // A Figure-6-style nested training loop.
        let src = "\
for batch in loader.epoch():
    optimizer.zero_grad()
    preds = net.forward(batch)
    loss = criterion.eval(preds, batch)
    avg_loss = avg_loss * 0.9 + loss * 0.1
    criterion.backward(net)
    optimizer.step()
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_none(), "refused: {:?}", a.refusal);
        assert_eq!(
            a.raw_changeset,
            vec![
                "loader",
                "batch",
                "optimizer",
                "net",
                "preds",
                "criterion",
                "loss",
                "avg_loss"
            ]
        );
        // Rule trace numbers per statement.
        let rules: Vec<u8> = a.rule_trace.iter().map(|(_, r)| *r).collect();
        assert_eq!(rules, vec![1, 4, 1, 1, 3, 4, 4]);
    }

    #[test]
    fn rule5_refuses_loop() {
        let src = "\
for epoch in range(10):
    net.train_epoch(loader)
    evaluate(net, test_data)
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_some());
        let refusal = a.refusal.unwrap();
        assert_eq!(refusal.rule, RuleId::Rule5);
        assert!(refusal.stmt.contains("evaluate"));
    }

    #[test]
    fn rule0_refuses_loop() {
        let src = "\
for i in range(10):
    acc = accumulate(x)
    acc = acc
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_some());
        assert_eq!(a.refusal.unwrap().rule, RuleId::Rule0);
    }

    #[test]
    fn nested_loop_effects_propagate_to_outer() {
        let src = "\
for epoch in range(5):
    for batch in loader.epoch():
        optimizer.step()
    scheduler.step()
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_none());
        assert!(a.raw_changeset.contains(&"optimizer".to_string()));
        assert!(a.raw_changeset.contains(&"scheduler".to_string()));
        assert!(a.raw_changeset.contains(&"loader".to_string()));
        assert!(a.defined_names.contains("batch"));
        assert!(a.defined_names.contains("epoch"));
    }

    #[test]
    fn rule5_in_nested_loop_refuses_outer() {
        let src = "\
for epoch in range(5):
    for batch in loader.epoch():
        mystery(batch)
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_some());
        assert_eq!(a.refusal.unwrap().rule, RuleId::Rule5);
    }

    #[test]
    fn if_branches_are_walked() {
        let src = "\
for i in range(5):
    if i > 2:
        optimizer.step()
    else:
        warmup.step()
";
        let a = analyze_loop(&first_loop(src));
        assert!(a.refusal.is_none());
        assert!(a.raw_changeset.contains(&"optimizer".to_string()));
        assert!(a.raw_changeset.contains(&"warmup".to_string()));
    }

    #[test]
    fn log_statements_do_not_refuse() {
        let src = "\
for i in range(5):
    optimizer.step()
    log(\"i\", i)
    flor.log(\"lr\", optimizer.lr)
";
        let a = analyze_loop(&first_loop(src));
        assert!(
            a.refusal.is_none(),
            "log statements must be exempt: {:?}",
            a.refusal
        );
    }

    #[test]
    fn range_header_is_rule2() {
        let a = analyze_loop(&first_loop("for e in range(3):\n    optimizer.step()\n"));
        assert_eq!(a.rule_trace[0].1, 2);
        assert_eq!(a.raw_changeset[0], "e");
    }

    #[test]
    fn loader_header_is_rule1() {
        let a = analyze_loop(&first_loop(
            "for b in loader.epoch():\n    optimizer.step()\n",
        ));
        assert_eq!(a.rule_trace[0].1, 1);
        assert_eq!(a.raw_changeset, vec!["loader", "b", "optimizer"]);
    }

    #[test]
    fn duplicate_names_not_repeated() {
        let src = "\
for i in range(3):
    optimizer.zero_grad()
    optimizer.step()
";
        let a = analyze_loop(&first_loop(src));
        assert_eq!(
            a.raw_changeset.iter().filter(|n| *n == "optimizer").count(),
            1
        );
    }
}
