//! Automatic instrumentation (paper §4.2, Figures 4 and 8).
//!
//! Transforms a user program in two ways:
//!
//! 1. **SkipBlock wrapping.** Every non-main loop whose side-effect analysis
//!    succeeds is enclosed in a `skipblock "sb_<n>":` construct. Refused
//!    loops (rule 0 / rule 5) are left intact — they will be fully
//!    re-executed on replay, exactly as the paper prescribes.
//! 2. **Main-loop generator wrapping.** The outermost loop's iterator is
//!    wrapped in `flor.partition(...)` (the Flor generator of Figure 8/9),
//!    which is the identity during record and partitions iterations across
//!    parallel workers during replay. The main loop is never wrapped in a
//!    SkipBlock: its body must remain executable for worker initialization.
//!
//! Instrumentation is deterministic: identical sources instrument to
//! identical programs with identical block ids, which is what lets the
//! replay-time source diff align record and replay versions.

use crate::changeset::{analyze_loop, RefusalReason};
use crate::scope::filter_loop_scoped;
use flor_lang::ast::{Arg, Expr, Program, Stmt};
use flor_lang::printer::print_expr;
use std::collections::BTreeSet;

/// Plan for one SkipBlock: its id and statically determined changeset.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Stable block id (`sb_0`, `sb_1`, … in traversal order).
    pub id: String,
    /// Changeset after loop-scope filtering (runtime augmentation still
    /// applies on top of this, per execution).
    pub static_changeset: Vec<String>,
    /// Rule trace: `(statement, rule number)` for each rule activation.
    pub rule_trace: Vec<(String, u8)>,
}

/// A loop the analysis refused to instrument.
#[derive(Debug, Clone, PartialEq)]
pub struct RefusedLoop {
    /// Pretty-printed loop header.
    pub header: String,
    /// Why it was refused.
    pub reason: RefusalReason,
}

/// Information about the detected main loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MainLoopInfo {
    /// Loop variable name.
    pub var: String,
    /// Pretty-printed iterator expression (pre-wrapping).
    pub iter: String,
}

/// Result of instrumenting a program.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentReport {
    /// The instrumented program.
    pub program: Program,
    /// One plan per SkipBlock, in id order.
    pub blocks: Vec<BlockPlan>,
    /// Loops left uninstrumented, with reasons.
    pub refused: Vec<RefusedLoop>,
    /// The main loop, if the program has a top-level loop.
    pub main_loop: Option<MainLoopInfo>,
    /// Whether the program opts in with `import flor`.
    pub(crate) has_flor_import: bool,
}

/// Instruments a user program. See module docs.
pub fn instrument(user: &Program) -> InstrumentReport {
    let mut ctx = Ctx {
        blocks: Vec::new(),
        refused: Vec::new(),
        next_id: 0,
        defined: BTreeSet::new(),
    };
    let has_flor_import = user
        .body
        .iter()
        .any(|s| matches!(s, Stmt::Import { module } if module == "flor"));

    let mut main_loop = None;
    let mut body = Vec::with_capacity(user.body.len());
    let mut seen_main = false;
    for stmt in &user.body {
        match stmt {
            Stmt::For {
                var,
                iter,
                body: loop_body,
            } if !seen_main => {
                // The first top-level loop is the main loop: wrap its
                // iterator in the Flor generator, instrument its body.
                seen_main = true;
                main_loop = Some(MainLoopInfo {
                    var: var.clone(),
                    iter: print_expr(iter),
                });
                // The main loop is never SkipBlocked (its body must stay
                // executable for parallel-replay worker initialization), but
                // we still run the analysis so refusals are reported, as in
                // the paper's Figure 6 ("Flor would refuse to instrument the
                // main loop due to line 21").
                if let Some(reason) = analyze_loop(stmt).refusal {
                    ctx.refused.push(RefusedLoop {
                        header: format!("for {var} in {}:", print_expr(iter)),
                        reason,
                    });
                }
                ctx.defined.insert(var.clone());
                let new_body = ctx.walk_body(loop_body);
                let wrapped_iter = Expr::call(
                    Expr::attr(Expr::name("flor"), "partition"),
                    vec![Arg::pos(iter.clone())],
                );
                body.push(Stmt::For {
                    var: var.clone(),
                    iter: wrapped_iter,
                    body: new_body,
                });
            }
            other => {
                body.push(ctx.walk_stmt(other));
            }
        }
    }

    InstrumentReport {
        program: Program::new(body),
        blocks: ctx.blocks,
        refused: ctx.refused,
        main_loop,
        has_flor_import,
    }
}

/// Removes instrumentation: unwraps SkipBlocks and `flor.partition` calls.
/// `strip(instrument(p).program) == p` for programs without pre-existing
/// instrumentation.
pub fn strip_instrumentation(prog: &Program) -> Program {
    fn strip_body(body: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(body.len());
        for stmt in body {
            match stmt {
                Stmt::SkipBlock { body, .. } => out.extend(strip_body(body)),
                Stmt::For { var, iter, body } => {
                    let iter = match iter {
                        Expr::Call { func, args }
                            if matches!(
                                func.as_ref(),
                                Expr::Attr { obj, name }
                                    if name == "partition" && obj.as_name() == Some("flor")
                            ) && args.len() == 1 =>
                        {
                            args[0].value.clone()
                        }
                        other => other.clone(),
                    };
                    out.push(Stmt::For {
                        var: var.clone(),
                        iter,
                        body: strip_body(body),
                    });
                }
                Stmt::If { cond, then, orelse } => out.push(Stmt::If {
                    cond: cond.clone(),
                    then: strip_body(then),
                    orelse: strip_body(orelse),
                }),
                other => out.push(other.clone()),
            }
        }
        out
    }
    Program::new(strip_body(&prog.body))
}

struct Ctx {
    blocks: Vec<BlockPlan>,
    refused: Vec<RefusedLoop>,
    next_id: usize,
    /// Names defined before the current program point.
    defined: BTreeSet<String>,
}

impl Ctx {
    fn walk_body(&mut self, body: &[Stmt]) -> Vec<Stmt> {
        body.iter().map(|s| self.walk_stmt(s)).collect()
    }

    fn walk_stmt(&mut self, stmt: &Stmt) -> Stmt {
        match stmt {
            Stmt::For { var, iter, body } => {
                // Candidate for SkipBlock wrapping: analyze before mutating
                // the defined set with the loop's own names.
                let analysis = analyze_loop(stmt);
                let pre_defined = self.defined.clone();
                self.defined.insert(var.clone());
                let new_body = self.walk_body(body);
                let new_loop = Stmt::For {
                    var: var.clone(),
                    iter: iter.clone(),
                    body: new_body,
                };
                match analysis.refusal {
                    None => {
                        let changeset = filter_loop_scoped(
                            &analysis.raw_changeset,
                            &analysis.defined_names,
                            &pre_defined,
                        );
                        let id = format!("sb_{}", self.next_id);
                        self.next_id += 1;
                        self.blocks.push(BlockPlan {
                            id: id.clone(),
                            static_changeset: changeset,
                            rule_trace: analysis.rule_trace,
                        });
                        Stmt::SkipBlock {
                            id,
                            body: vec![new_loop],
                        }
                    }
                    Some(reason) => {
                        self.refused.push(RefusedLoop {
                            header: format!("for {var} in {}:", print_expr(iter)),
                            reason,
                        });
                        new_loop
                    }
                }
            }
            Stmt::If { cond, then, orelse } => Stmt::If {
                cond: cond.clone(),
                then: self.walk_body(then),
                orelse: self.walk_body(orelse),
            },
            Stmt::SkipBlock { id, body } => {
                // Pre-existing instrumentation: leave untouched.
                Stmt::SkipBlock {
                    id: id.clone(),
                    body: body.to_vec(),
                }
            }
            Stmt::Assign { targets, value } => {
                for t in targets {
                    if let Expr::Name(n) = t {
                        self.defined.insert(n.clone());
                    }
                }
                Stmt::Assign {
                    targets: targets.clone(),
                    value: value.clone(),
                }
            }
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_lang::parse;
    use flor_lang::printer::print_program;

    /// A Figure-2-shaped training script.
    const FIG2: &str = "\
import flor
net = resnet(classes=100)
optimizer = sgd(net, lr=0.1)
loader = dataloader(cifar, batch_size=32)
for epoch in range(200):
    for batch in loader.epoch():
        optimizer.zero_grad()
        loss = net.train_step(batch)
        optimizer.step()
    evaluate(net, test_data)
    log(\"epoch\", epoch)
";

    #[test]
    fn figure4_shape() {
        // After instrumentation: main loop iterator wrapped in
        // flor.partition, nested training loop inside a SkipBlock, main loop
        // NOT wrapped (it contains a rule-5 call).
        let report = instrument(&parse(FIG2).unwrap());
        assert!(report.has_flor_import);
        assert_eq!(report.blocks.len(), 1);
        assert_eq!(report.blocks[0].id, "sb_0");
        assert_eq!(report.main_loop.as_ref().unwrap().var, "epoch");

        let printed = print_program(&report.program);
        assert!(
            printed.contains("for epoch in flor.partition(range(200)):"),
            "{printed}"
        );
        assert!(printed.contains("skipblock \"sb_0\":"), "{printed}");
        // The eval call is outside any skipblock.
        let sb_pos = printed.find("skipblock").unwrap();
        let eval_pos = printed.find("evaluate").unwrap();
        assert!(eval_pos > sb_pos);
    }

    #[test]
    fn figure6_walkthrough() {
        // Step-by-step reproduction of the paper's Figure 6 analysis on the
        // nested training loop: raw changeset → loop-scope filter. (Runtime
        // augmentation — adding `net` via the optimizer — is exercised in
        // flor-core where type information exists.)
        let report = instrument(&parse(FIG2).unwrap());
        let plan = &report.blocks[0];
        // Raw changeset in rule order: loader+batch (rule 1 header),
        // optimizer (rule 4), net+loss (rule 1), optimizer again (dedup).
        // Loop-scoped {batch, loss} are dropped by the scope filter.
        assert_eq!(plan.static_changeset, vec!["loader", "optimizer", "net"]);
        // Rule trace matches the statement forms.
        let rules: Vec<u8> = plan.rule_trace.iter().map(|(_, r)| *r).collect();
        assert_eq!(rules, vec![1, 4, 1, 4]); // header, zero_grad, train_step, step
                                             // The main loop is refused because of the rule-5 evaluate() call.
        assert_eq!(report.refused.len(), 1);
        assert!(report.refused[0].reason.reason.contains("evaluate"));
    }

    #[test]
    fn main_loop_never_skipblocked() {
        // Even a main loop that passes analysis is not wrapped.
        let src = "\
import flor
for epoch in range(10):
    optimizer.step()
";
        let report = instrument(&parse(src).unwrap());
        assert!(report.blocks.is_empty());
        assert!(report.main_loop.is_some());
        let printed = print_program(&report.program);
        assert!(!printed.contains("skipblock"));
        assert!(printed.contains("flor.partition"));
    }

    #[test]
    fn refused_inner_loop_left_intact() {
        let src = "\
import flor
for epoch in range(10):
    for batch in loader.epoch():
        mystery(batch)
";
        let report = instrument(&parse(src).unwrap());
        assert!(report.blocks.is_empty());
        // Both the main loop (effects propagate outward) and the inner loop
        // are refused.
        assert_eq!(report.refused.len(), 2);
        assert!(report
            .refused
            .iter()
            .all(|r| r.reason.reason.contains("mystery")));
        let printed = print_program(&report.program);
        assert!(!printed.contains("skipblock"));
    }

    #[test]
    fn multiple_inner_loops_get_distinct_ids() {
        let src = "\
import flor
for epoch in range(10):
    for batch in train_loader.epoch():
        optimizer.step()
    for batch in val_loader.epoch():
        meter.update(batch)
";
        let report = instrument(&parse(src).unwrap());
        assert_eq!(report.blocks.len(), 2);
        assert_eq!(report.blocks[0].id, "sb_0");
        assert_eq!(report.blocks[1].id, "sb_1");
    }

    #[test]
    fn instrumentation_is_deterministic() {
        let a = instrument(&parse(FIG2).unwrap());
        let b = instrument(&parse(FIG2).unwrap());
        assert_eq!(a.program, b.program);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn strip_is_inverse_of_instrument() {
        let user = parse(FIG2).unwrap();
        let report = instrument(&user);
        assert_eq!(strip_instrumentation(&report.program), user);
    }

    #[test]
    fn predefined_accumulator_survives_filter() {
        // avg_loss is defined before the loop, so even though the loop
        // assigns it, it stays in the changeset (it is live after the loop).
        let src = "\
import flor
avg_loss = 0.0
for epoch in range(5):
    for batch in loader.epoch():
        avg_loss = net.train_step(batch)
        optimizer.step()
    log(\"avg\", avg_loss)
";
        let report = instrument(&parse(src).unwrap());
        assert_eq!(report.blocks.len(), 1);
        assert!(
            report.blocks[0]
                .static_changeset
                .contains(&"avg_loss".to_string()),
            "{:?}",
            report.blocks[0].static_changeset
        );
    }

    #[test]
    fn no_import_flagged() {
        let report = instrument(&parse("x = 1\n").unwrap());
        assert!(!report.has_flor_import);
        assert!(report.main_loop.is_none());
    }

    #[test]
    fn instrumented_source_reparses() {
        let report = instrument(&parse(FIG2).unwrap());
        let printed = print_program(&report.program);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed, report.program);
    }
}
