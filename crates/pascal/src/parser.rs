//! Recursive-descent parser for the Pascal subset.
//!
//! Grammar (EBNF, declare-before-use):
//!
//! ```text
//! program   = "program" ident ";" decls "begin" stmts "end" "."
//! decls     = { const-decl | var-decl | proc-decl }
//! const-decl= "const" { ident "=" [-] num ";" }
//! var-decl  = "var" { ident {"," ident} ":" type ";" }
//! type      = "integer" | "boolean" | "array" "[" num ".." num "]" "of" "integer"
//! proc-decl = ("procedure" | "function") ident [ "(" params ")" ]
//!             [ ":" type ] ";" decls "begin" stmts "end" ";"
//! params    = ["var"] ident {"," ident} ":" type { ";" params }
//! stmts     = stmt { ";" stmt }
//! stmt      = [ assign | call | if | while | write | writeln | compound ]
//! ```

use crate::ast::*;
use crate::lex::{lex, LexError, Tok, Token};
use std::fmt;
use std::sync::Arc;

/// Parse error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (0 for end of input).
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            msg: e.msg,
        }
    }
}

/// The deepest nesting the parser accepts. Every recursive production
/// is one level: a compound statement, the body of an `if` or `while`,
/// a parenthesised, indexed or call-argument expression, a unary `-` or
/// `not`, and a procedure or function declared inside another. Past it
/// [`parse`] returns a [`ParseError`] naming the limit instead of
/// recursing on: a few kilobytes of `(` or `begin` would otherwise
/// overflow the stack of the thread that compiles them.
///
/// The parser is the stage that runs out of stack first. On a 2 MiB
/// thread stack (`std::thread::spawn`'s default, what a pool worker
/// has) a debug build parses about 240 levels of nested `begin`, 280 of
/// `if … then`, 330 of parentheses and 670 of unary minus; a release
/// build about 1 700 of parentheses and more of the rest. Everything
/// after the parser — the tree, both evaluators, the direct compiler —
/// holds at least as deep. The limit is well below the debug figure and
/// far above any program the repository compiles: the examples, the
/// test programs, the benchmark's inputs and the generator's programs
/// up to `GenConfig::huge()` nest at most 7 levels.
pub const MAX_NESTING: usize = 100;

/// Parses Pascal source into an AST.
///
/// # Errors
///
/// [`ParseError`] on lexical or syntactic errors, and on nesting deeper
/// than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let prog = p.program()?;
    if p.pos != p.toks.len() {
        return Err(p.err_here("trailing tokens after final '.'"));
    }
    Ok(prog)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Recursive productions open at the current position.
    depth: usize,
}

impl Parser {
    /// Runs `f` — one recursive production — one level deeper, or fails
    /// past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_here(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.line)
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    /// Moves the current token out and advances. The parser never
    /// reads a token behind its position again, so the slot is left
    /// holding a placeholder (only its line is read, for errors).
    fn bump(&mut self) -> Option<Tok> {
        let t = self
            .toks
            .get_mut(self.pos)
            .map(|t| std::mem::replace(&mut t.kind, Tok::Dot));
        self.pos += 1;
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err_here(format!("expected {want}, found {t}"))),
            None => Err(self.err_here(format!("expected {want}, found end of input"))),
        }
    }

    fn eat_if(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Arc<str>, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(s)) = self.bump() else {
                    unreachable!("peeked an identifier")
                };
                Ok(s)
            }
            Some(t) => Err(self.err_here(format!("expected identifier, found {t}"))),
            None => Err(self.err_here("expected identifier, found end of input")),
        }
    }

    fn number(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat_if(&Tok::Minus);
        match self.peek() {
            Some(Tok::Num(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(if neg { -n } else { n })
            }
            Some(t) => Err(self.err_here(format!("expected number, found {t}"))),
            None => Err(self.err_here("expected number, found end of input")),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.eat(&Tok::Program)?;
        let name = self.ident()?;
        self.eat(&Tok::Semi)?;
        let decls = self.decls()?;
        self.eat(&Tok::Begin)?;
        let body = self.stmts()?;
        self.eat(&Tok::End)?;
        self.eat(&Tok::Dot)?;
        Ok(Program { name, decls, body })
    }

    fn decls(&mut self) -> Result<Vec<Decl>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Const) => {
                    self.pos += 1;
                    // One or more `name = value;` groups.
                    loop {
                        let name = self.ident()?;
                        self.eat(&Tok::Eq)?;
                        let value = self.number()?;
                        self.eat(&Tok::Semi)?;
                        out.push(Decl::Const { name, value });
                        if !matches!(self.peek(), Some(Tok::Ident(_))) {
                            break;
                        }
                    }
                }
                Some(Tok::Var) => {
                    self.pos += 1;
                    loop {
                        let mut names = vec![self.ident()?];
                        while self.eat_if(&Tok::Comma) {
                            names.push(self.ident()?);
                        }
                        self.eat(&Tok::Colon)?;
                        let ty = self.type_expr()?;
                        self.eat(&Tok::Semi)?;
                        out.push(Decl::Var { names, ty });
                        if !matches!(self.peek(), Some(Tok::Ident(_))) {
                            break;
                        }
                    }
                }
                Some(Tok::Procedure) | Some(Tok::Function) => {
                    let is_func = self.peek() == Some(&Tok::Function);
                    self.pos += 1;
                    let name = self.ident()?;
                    let mut params = Vec::new();
                    if self.eat_if(&Tok::LParen) {
                        loop {
                            let by_ref = self.eat_if(&Tok::Var);
                            let mut names = vec![self.ident()?];
                            while self.eat_if(&Tok::Comma) {
                                names.push(self.ident()?);
                            }
                            self.eat(&Tok::Colon)?;
                            let ty = self.type_expr()?;
                            if matches!(ty, TypeExpr::Array { .. }) {
                                return Err(self.err_here("array parameters are not supported"));
                            }
                            for n in names {
                                params.push(Param {
                                    name: n,
                                    ty: ty.clone(),
                                    by_ref,
                                });
                            }
                            if !self.eat_if(&Tok::Semi) {
                                break;
                            }
                        }
                        self.eat(&Tok::RParen)?;
                    }
                    let result = if is_func {
                        self.eat(&Tok::Colon)?;
                        let ty = self.type_expr()?;
                        if matches!(ty, TypeExpr::Array { .. }) {
                            return Err(self.err_here("array results are not supported"));
                        }
                        Some(ty)
                    } else {
                        None
                    };
                    self.eat(&Tok::Semi)?;
                    let (decls, body) = self.nested(|p| {
                        let decls = p.decls()?;
                        p.eat(&Tok::Begin)?;
                        let body = p.stmts()?;
                        p.eat(&Tok::End)?;
                        Ok((decls, body))
                    })?;
                    self.eat(&Tok::Semi)?;
                    out.push(Decl::Proc {
                        name,
                        params,
                        result,
                        decls,
                        body,
                    });
                }
                _ => break,
            }
        }
        Ok(out)
    }

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let line = self.line();
        match self.bump() {
            Some(Tok::Integer) => Ok(TypeExpr::Integer),
            Some(Tok::Boolean) => Ok(TypeExpr::Boolean),
            Some(Tok::Array) => {
                self.eat(&Tok::LBrack)?;
                let lo = self.number()?;
                self.eat(&Tok::DotDot)?;
                let hi = self.number()?;
                self.eat(&Tok::RBrack)?;
                self.eat(&Tok::Of)?;
                self.eat(&Tok::Integer)?;
                if hi < lo {
                    return Err(self.err_here(format!("empty array range {lo}..{hi}")));
                }
                Ok(TypeExpr::Array { lo, hi })
            }
            Some(t) => Err(ParseError {
                line,
                msg: format!("expected a type, found {t}"),
            }),
            None => Err(self.err_here("expected a type, found end of input")),
        }
    }

    fn stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = vec![self.stmt()?];
        while self.eat_if(&Tok::Semi) {
            out.push(self.stmt()?);
        }
        // Drop trailing empties introduced by `;` before `end`.
        while out.len() > 1 && out.last() == Some(&Stmt::Empty) {
            out.pop();
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                match self.peek() {
                    Some(Tok::Assign) => {
                        self.pos += 1;
                        let value = self.expr()?;
                        Ok(Stmt::Assign {
                            target: LValue::Name(name),
                            value,
                        })
                    }
                    Some(Tok::LBrack) => {
                        self.pos += 1;
                        let index = self.expr()?;
                        self.eat(&Tok::RBrack)?;
                        self.eat(&Tok::Assign)?;
                        let value = self.expr()?;
                        Ok(Stmt::Assign {
                            target: LValue::Index { name, index },
                            value,
                        })
                    }
                    Some(Tok::LParen) => {
                        self.pos += 1;
                        let mut args = Vec::new();
                        if self.peek() != Some(&Tok::RParen) {
                            args.push(self.expr()?);
                            while self.eat_if(&Tok::Comma) {
                                args.push(self.expr()?);
                            }
                        }
                        self.eat(&Tok::RParen)?;
                        Ok(Stmt::Call { name, args })
                    }
                    _ => Ok(Stmt::Call {
                        name,
                        args: Vec::new(),
                    }),
                }
            }
            Some(Tok::If) => {
                self.pos += 1;
                let cond = self.expr()?;
                self.eat(&Tok::Then)?;
                let then = vec![self.nested(Self::stmt)?];
                let els = if self.eat_if(&Tok::Else) {
                    vec![self.nested(Self::stmt)?]
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Some(Tok::While) => {
                self.pos += 1;
                let cond = self.expr()?;
                self.eat(&Tok::Do)?;
                let body = vec![self.nested(Self::stmt)?];
                Ok(Stmt::While { cond, body })
            }
            Some(Tok::Write) => {
                self.pos += 1;
                Ok(Stmt::Write {
                    args: self.write_args()?,
                })
            }
            Some(Tok::Writeln) => {
                self.pos += 1;
                Ok(Stmt::Writeln {
                    args: self.write_args()?,
                })
            }
            Some(Tok::Begin) => {
                self.pos += 1;
                let body = self.nested(Self::stmts)?;
                self.eat(&Tok::End)?;
                Ok(Stmt::Compound(body))
            }
            _ => Ok(Stmt::Empty),
        }
    }

    fn write_args(&mut self) -> Result<Vec<WriteArg>, ParseError> {
        let mut args = Vec::new();
        if self.eat_if(&Tok::LParen) {
            if self.peek() != Some(&Tok::RParen) {
                loop {
                    if let Some(Tok::Str(_)) = self.peek() {
                        let Some(Tok::Str(s)) = self.bump() else {
                            unreachable!("peeked a string")
                        };
                        args.push(WriteArg::Str(s));
                    } else {
                        args.push(WriteArg::Expr(self.expr()?));
                    }
                    if !self.eat_if(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.eat(&Tok::RParen)?;
        }
        Ok(args)
    }

    // Expression precedence: relation < add < mul < unary.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.simple_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.simple_expr()?;
        Ok(Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn simple_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = if self.eat_if(&Tok::Minus) {
            Expr::Neg(Box::new(self.nested(Self::term)?))
        } else {
            self.term()?
        };
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                Some(Tok::Or) => BinOp::Or,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term()?;
            e = Expr::Bin {
                op,
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Div) => BinOp::Div,
                Some(Tok::Mod) => BinOp::Mod,
                Some(Tok::And) => BinOp::And,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.factor()?;
            e = Expr::Bin {
                op,
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Some(Tok::Num(n)) => Ok(Expr::Num(n)),
            Some(Tok::True) => Ok(Expr::Bool(true)),
            Some(Tok::False) => Ok(Expr::Bool(false)),
            Some(Tok::Not) => Ok(Expr::Not(Box::new(self.nested(Self::factor)?))),
            Some(Tok::Minus) => Ok(Expr::Neg(Box::new(self.nested(Self::factor)?))),
            Some(Tok::LParen) => {
                let e = self.nested(Self::expr)?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::LBrack) => {
                    self.pos += 1;
                    let index = self.nested(Self::expr)?;
                    self.eat(&Tok::RBrack)?;
                    Ok(Expr::Index {
                        name,
                        index: Box::new(index),
                    })
                }
                Some(Tok::LParen) => {
                    self.pos += 1;
                    let args = self.nested(|p| {
                        let mut args = Vec::new();
                        if p.peek() != Some(&Tok::RParen) {
                            args.push(p.expr()?);
                            while p.eat_if(&Tok::Comma) {
                                args.push(p.expr()?);
                            }
                        }
                        Ok(args)
                    })?;
                    self.eat(&Tok::RParen)?;
                    Ok(Expr::Call { name, args })
                }
                _ => Ok(Expr::Name(name)),
            },
            Some(t) => Err(ParseError {
                line,
                msg: format!("expected an expression, found {t}"),
            }),
            None => Err(self.err_here("expected an expression, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let p = parse("program p; begin end.").unwrap();
        assert_eq!(&*p.name, "p");
        assert!(p.decls.is_empty());
        assert_eq!(p.body, vec![Stmt::Empty]);
    }

    #[test]
    fn declarations() {
        let p = parse(
            "program p;\nconst k = 3; m = -1;\nvar a, b: integer; f: boolean;\n  arr: array [1..10] of integer;\nbegin end.",
        )
        .unwrap();
        assert_eq!(p.decls.len(), 5);
        assert_eq!(
            p.decls[0],
            Decl::Const {
                name: "k".into(),
                value: 3
            }
        );
        assert_eq!(
            p.decls[1],
            Decl::Const {
                name: "m".into(),
                value: -1
            }
        );
        assert!(matches!(&p.decls[2], Decl::Var { names, .. } if names.len() == 2));
        assert!(matches!(
            &p.decls[4],
            Decl::Var {
                ty: TypeExpr::Array { lo: 1, hi: 10 },
                ..
            }
        ));
    }

    #[test]
    fn procedures_and_functions() {
        let p = parse(
            "program p;\nprocedure q(x: integer; var y: integer);\nbegin y := x end;\nfunction f(n: integer): integer;\nbegin f := n * 2 end;\nbegin q(1, a) end.",
        )
        .unwrap();
        assert_eq!(p.decls.len(), 2);
        let Decl::Proc { params, result, .. } = &p.decls[0] else {
            panic!()
        };
        assert_eq!(params.len(), 2);
        assert!(!params[0].by_ref);
        assert!(params[1].by_ref);
        assert!(result.is_none());
        let Decl::Proc { result, .. } = &p.decls[1] else {
            panic!()
        };
        assert_eq!(result, &Some(TypeExpr::Integer));
    }

    #[test]
    fn precedence_mul_over_add_over_rel() {
        let p = parse("program p; begin x := 1 + 2 * 3 < 4 end.").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else {
            panic!()
        };
        // (1 + (2*3)) < 4
        let Expr::Bin {
            op: BinOp::Lt, lhs, ..
        } = value
        else {
            panic!("top must be <: {value:?}")
        };
        let Expr::Bin {
            op: BinOp::Add,
            rhs,
            ..
        } = lhs.as_ref()
        else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn control_flow_and_write() {
        let p = parse(
            "program p; begin if a < b then write('x', a) else while c do begin writeln end end.",
        )
        .unwrap();
        let Stmt::If { then, els, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(&then[0], Stmt::Write { args } if args.len() == 2));
        assert!(matches!(&els[0], Stmt::While { .. }));
    }

    #[test]
    fn array_assignment_and_indexing() {
        let p = parse("program p; begin a[i + 1] := a[i] * 2 end.").unwrap();
        let Stmt::Assign { target, value } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(target, LValue::Index { .. }));
        let Expr::Bin { lhs, .. } = value else {
            panic!()
        };
        assert!(matches!(lhs.as_ref(), Expr::Index { .. }));
    }

    #[test]
    fn error_reports_line() {
        let e = parse("program p;\nbegin\n x := ;\nend.").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("expression"));
    }

    #[test]
    fn missing_dot_is_error() {
        assert!(parse("program p; begin end").is_err());
    }

    #[test]
    fn nested_procedures() {
        let p = parse(
            "program p;\nprocedure outer;\n  var t: integer;\n  procedure inner;\n  begin t := 1 end;\nbegin inner end;\nbegin outer end.",
        )
        .unwrap();
        let Decl::Proc { decls, .. } = &p.decls[0] else {
            panic!()
        };
        assert!(matches!(&decls[1], Decl::Proc { name, .. } if &**name == "inner"));
    }
}
