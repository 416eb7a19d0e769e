//! The FlorScript abstract syntax tree.

use std::fmt;

/// A parsed FlorScript program: a list of top-level statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements in source order.
    pub body: Vec<Stmt>,
}

impl Program {
    /// A program from a statement list.
    pub fn new(body: Vec<Stmt>) -> Self {
        Program { body }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `not`
    Not,
}

/// A call argument: positional or keyword (`lr=0.1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Arg {
    /// Keyword name, if this is a keyword argument.
    pub name: Option<String>,
    /// Argument value.
    pub value: Expr,
}

impl Arg {
    /// Positional argument.
    pub fn pos(value: Expr) -> Self {
        Arg { name: None, value }
    }

    /// Keyword argument.
    pub fn kw(name: impl Into<String>, value: Expr) -> Self {
        Arg {
            name: Some(name.into()),
            value,
        }
    }
}

/// FlorScript expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// Attribute access `obj.name`.
    Attr {
        /// Receiver.
        obj: Box<Expr>,
        /// Attribute name.
        name: String,
    },
    /// Function or method call `f(a, b=c)`.
    Call {
        /// Callee (a [`Expr::Name`] for functions, [`Expr::Attr`] for
        /// methods).
        func: Box<Expr>,
        /// Arguments.
        args: Vec<Arg>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Subscript `obj[index]`.
    Subscript {
        /// Receiver.
        obj: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// List literal `[a, b]`.
    List(Vec<Expr>),
    /// Tuple `a, b` (parenthesized or bare on assignment RHS).
    Tuple(Vec<Expr>),
}

impl Expr {
    /// Builds `Expr::Name`.
    pub fn name(n: impl Into<String>) -> Self {
        Expr::Name(n.into())
    }

    /// Builds an attribute access.
    pub fn attr(obj: Expr, name: impl Into<String>) -> Self {
        Expr::Attr {
            obj: Box::new(obj),
            name: name.into(),
        }
    }

    /// Builds a call.
    pub fn call(func: Expr, args: Vec<Arg>) -> Self {
        Expr::Call {
            func: Box::new(func),
            args,
        }
    }

    /// If this expression is a plain name, returns it.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            Expr::Name(n) => Some(n),
            _ => None,
        }
    }

    /// The *root name* of an attribute/subscript chain:
    /// `optimizer.state[0].lr` → `optimizer`. Used by the side-effect
    /// analysis, which tracks whole objects.
    pub fn root_name(&self) -> Option<&str> {
        match self {
            Expr::Name(n) => Some(n),
            Expr::Attr { obj, .. } => obj.root_name(),
            Expr::Subscript { obj, .. } => obj.root_name(),
            _ => None,
        }
    }
}

/// FlorScript statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `import flor` (and friends).
    Import {
        /// Module name.
        module: String,
    },
    /// Assignment, possibly multi-target: `v1, v2 = expr`.
    Assign {
        /// Assignment targets (names, attributes, or subscripts).
        targets: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
    },
    /// Bare expression statement (typically a call).
    ExprStmt {
        /// The expression.
        expr: Expr,
    },
    /// `for var in iter:` loop.
    For {
        /// Loop variable.
        var: String,
        /// Iterated expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if cond:` / `else:`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch body.
        then: Vec<Stmt>,
        /// Else-branch body (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// A SkipBlock wrapping a loop — produced by Flor instrumentation
    /// (paper §4.2), printed as `skipblock "id":`.
    SkipBlock {
        /// Static identifier of this block (stable across runs).
        id: String,
        /// Enclosed statements (in practice, exactly one loop).
        body: Vec<Stmt>,
    },
    /// `pass`.
    Pass,
}

impl Stmt {
    /// True if this statement is a *log statement* — the hindsight probe
    /// form: a bare call to `log(...)` or `flor.log(...)`.
    pub fn is_log_stmt(&self) -> bool {
        match self {
            Stmt::ExprStmt {
                expr: Expr::Call { func, .. },
            } => match func.as_ref() {
                Expr::Name(n) => n == "log",
                Expr::Attr { obj, name } => name == "log" && obj.as_name() == Some("flor"),
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print_expr(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_name_walks_chains() {
        // optimizer.state[0].lr
        let e = Expr::attr(
            Expr::Subscript {
                obj: Box::new(Expr::attr(Expr::name("optimizer"), "state")),
                index: Box::new(Expr::Int(0)),
            },
            "lr",
        );
        assert_eq!(e.root_name(), Some("optimizer"));
        assert_eq!(Expr::Int(3).root_name(), None);
    }

    #[test]
    fn log_stmt_recognition() {
        let log = Stmt::ExprStmt {
            expr: Expr::call(Expr::name("log"), vec![Arg::pos(Expr::Str("x".into()))]),
        };
        assert!(log.is_log_stmt());

        let flor_log = Stmt::ExprStmt {
            expr: Expr::call(
                Expr::attr(Expr::name("flor"), "log"),
                vec![Arg::pos(Expr::Int(1))],
            ),
        };
        assert!(flor_log.is_log_stmt());

        let other = Stmt::ExprStmt {
            expr: Expr::call(Expr::name("print"), vec![]),
        };
        assert!(!other.is_log_stmt());

        let method = Stmt::ExprStmt {
            expr: Expr::call(Expr::attr(Expr::name("logger"), "log"), vec![]),
        };
        assert!(!method.is_log_stmt(), "only flor.log counts");
    }
}
