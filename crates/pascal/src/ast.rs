//! Abstract syntax for the Pascal subset.
//!
//! The recursive-descent parser produces this AST; from it the compiler
//! builds the attribute-grammar parse tree ([`crate::agtree`]) — and the
//! *direct* baseline compiler ([`crate::direct`]) walks it straight to
//! assembly, playing the role of the conventional vendor compiler the
//! paper compares against.
//!
//! Names and string literals are the lexer's shared handles
//! ([`crate::lex`]): every occurrence of one name in a program points
//! at one text.

use std::sync::Arc;

/// A whole program: `program name; decls begin … end.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program name.
    pub name: Arc<str>,
    /// Declarations (constants, variables, procedures — in source
    /// order, declare-before-use).
    pub decls: Vec<Decl>,
    /// Main statement body.
    pub body: Vec<Stmt>,
}

/// A type denotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `integer`
    Integer,
    /// `boolean`
    Boolean,
    /// `array [lo..hi] of integer` (element type fixed to integer in
    /// this subset)
    Array {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
}

/// One declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decl {
    /// `const name = value;`
    Const {
        /// Constant name.
        name: Arc<str>,
        /// Its (integer) value.
        value: i64,
    },
    /// `var a, b: t;`
    Var {
        /// Declared names.
        names: Vec<Arc<str>>,
        /// Their type.
        ty: TypeExpr,
    },
    /// `procedure p(params); decls begin … end;` — `result` is `Some`
    /// for functions.
    Proc {
        /// Procedure/function name.
        name: Arc<str>,
        /// Formal parameters.
        params: Vec<Param>,
        /// `Some(return type)` for functions.
        result: Option<TypeExpr>,
        /// Nested declarations.
        decls: Vec<Decl>,
        /// Body.
        body: Vec<Stmt>,
    },
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Arc<str>,
    /// Parameter type (integer or boolean; arrays are not passable in
    /// this subset).
    pub ty: TypeExpr,
    /// `true` for `var` (reference) parameters.
    pub by_ref: bool,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `target := value`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// Procedure call statement.
    Call {
        /// Procedure name.
        name: Arc<str>,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `if cond then …` with optional `else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch (empty when absent).
        els: Vec<Stmt>,
    },
    /// `while cond do …`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `write(arg, …)`
    Write {
        /// Arguments: expressions or string literals.
        args: Vec<WriteArg>,
    },
    /// `writeln(arg, …)`
    Writeln {
        /// Arguments (may be empty).
        args: Vec<WriteArg>,
    },
    /// `begin … end` used as a single statement.
    Compound(Vec<Stmt>),
    /// `;` — the empty statement.
    Empty,
}

/// Argument of `write`/`writeln`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteArg {
    /// An integer (or boolean) expression.
    Expr(Expr),
    /// A string literal.
    Str(Arc<str>),
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// Plain variable (or function-result name).
    Name(Arc<str>),
    /// Array element `a[e]`.
    Index {
        /// Array name.
        name: Arc<str>,
        /// Index expression.
        index: Expr,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (strict)
    And,
    /// `or` (strict)
    Or,
}

impl BinOp {
    /// `true` for the six relational operators.
    pub fn is_relation(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// `true`/`false`.
    Bool(bool),
    /// Variable, constant, or parameter reference.
    Name(Arc<str>),
    /// Array element.
    Index {
        /// Array name.
        name: Arc<str>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Function name.
        name: Arc<str>,
        /// Actual arguments.
        args: Vec<Expr>,
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
    /// Unary minus.
    Neg(Box<Expr>),
    /// `not e`.
    Not(Box<Expr>),
}

impl Expr {
    /// Number of AST nodes in this expression (used by size-based
    /// tests and workload accounting).
    pub fn size(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Bool(_) | Expr::Name(_) => 1,
            Expr::Index { index, .. } => 1 + index.size(),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Bin { lhs, rhs, .. } => 1 + lhs.size() + rhs.size(),
            Expr::Neg(e) | Expr::Not(e) => 1 + e.size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_size_counts_nodes() {
        // (1 + x) * f(2)
        let e = Expr::Bin {
            op: BinOp::Mul,
            lhs: Box::new(Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Num(1)),
                rhs: Box::new(Expr::Name("x".into())),
            }),
            rhs: Box::new(Expr::Call {
                name: "f".into(),
                args: vec![Expr::Num(2)],
            }),
        };
        assert_eq!(e.size(), 6);
    }

    #[test]
    fn relations_identified() {
        assert!(BinOp::Le.is_relation());
        assert!(!BinOp::Add.is_relation());
        assert!(!BinOp::And.is_relation());
    }
}
