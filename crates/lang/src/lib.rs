//! # flor-lang
//!
//! **FlorScript**: a small, Python-like training-script language — the
//! stand-in for Python source code in the flor-rs reproduction of *Hindsight
//! Logging for Model Training* (Garcia et al., VLDB 2020).
//!
//! Flor's record phase works by statically analyzing and instrumenting the
//! user's *source code* (paper §5.2), and its replay phase detects hindsight
//! probes by *diffing source versions* (§3.2, Figure 1: "Flor diffs the
//! current version of the source code with the version saved at record").
//! Reproducing those mechanisms requires an analyzable source language;
//! FlorScript keeps exactly the statement forms that Table 1's side-effect
//! rules pattern-match on:
//!
//! ```text
//! import flor                      # the paper's one-line opt-in
//! net = resnet(hidden=16)         # rule 2: v = func(args)
//! loss, preds = net.eval(batch)   # rule 1: v1..vn = obj.method(args)
//! lr = 0.1                        # rule 3: v1..vn = u1..um
//! optimizer.step()                # rule 4: obj.method(args)
//! shutil.rmtree(path)             # rule 5: func(args) — side effects!
//! for epoch in range(200):        # loops, the unit of checkpointing
//!     log("loss", loss)           # the log statement — a hindsight probe
//! ```
//!
//! The crate provides:
//! - `lexer`: indentation-aware tokenizer (INDENT/DEDENT, Python style),
//! - `parser`: recursive-descent parser to the [`ast`] types,
//! - [`printer`]: canonical pretty-printer (parse ∘ print = identity),
//! - [`differ`]: structural AST diff that classifies changes into *probes*
//!   (added log statements, keyed by enclosing SkipBlock) versus *other
//!   changes* (which invalidate checkpoint reuse),
//! - [`mod@compile`]: bytecode compiler lowering a program to the flat
//!   instruction stream `flor-core`'s replay VM executes (constant pool,
//!   slot-resolved variables, jump-based control flow).
//!
//! Flor's deferred correctness check compares log streams, not source
//! text: `flor-core`'s `replay::deferred_check` groups entries by key and
//! section.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod differ;
pub(crate) mod lexer;
pub(crate) mod parser;
pub mod printer;

pub use ast::{Arg, BinOp, Expr, Program, Stmt, UnaryOp};
pub use compile::{
    compile, compile_sliced, path_step, prune_program, stmt_count, CompileError, Module, Op,
    StmtPath,
};
pub use differ::{diff_programs, DiffReport, ProbeSite};
pub use parser::{parse, ParseError};
pub use printer::print_program;

/// Parses source text, returning the program or a parse error.
///
/// Convenience alias for [`parser::parse`].
pub fn parse_source(src: &str) -> Result<Program, ParseError> {
    parser::parse(src)
}
