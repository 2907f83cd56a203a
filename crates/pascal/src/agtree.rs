//! Builds the attribute-grammar parse tree from the AST.
//!
//! This is the parser's second half in the paper's architecture: the
//! (sequential) parser produces the attributed syntax tree that the
//! evaluators then decorate. Unique-id tokens are allocated here — the
//! parser is the single sequential point, so ids are globally unique
//! without any evaluator communication (§4.3).

use crate::ast::*;
use crate::grammar::PascalGrammar;
use crate::pval::PVal;
use paragram_core::tree::{BuiltNode, ChildSpec, ParseTree, TreeBuilder, TreeError};
use std::collections::HashMap;
use std::sync::Arc;

struct Conv<'a> {
    pg: &'a PascalGrammar,
    tb: TreeBuilder<PVal>,
    next_uid: i64,
    /// Identifier and literal text, interned for this build: a repeated
    /// name costs its tree a reference count, not an allocation.
    names: HashMap<&'a str, Arc<str>>,
}

/// Converts an AST into the attribute-grammar parse tree.
///
/// # Errors
///
/// Propagates [`TreeError`] — impossible for trees produced by the
/// parser unless the grammar and converter disagree (covered by tests).
pub fn build_tree(pg: &PascalGrammar, ast: &Program) -> Result<Arc<ParseTree<PVal>>, TreeError> {
    let mut c = Conv {
        pg,
        tb: TreeBuilder::new(&pg.grammar),
        next_uid: 1,
        names: HashMap::new(),
    };
    let decls = c.decls(&ast.decls);
    let stmts = c.stmts(&ast.body);
    let kids = [c.text(&ast.name), decls.into(), stmts.into()];
    let root = c.tb.node_full(pg.p_prog, kids);
    c.tb.finish(root).map(Arc::new)
}

// A token's values go straight into the tree's value slab, and a
// node's children are an array: nothing is allocated per node or
// token, only per distinct name.

impl<'a> Conv<'a> {
    /// An identifier or string-literal token.
    fn text(&mut self, text: &'a str) -> ChildSpec {
        let name = self.names.entry(text).or_insert_with(|| Arc::from(text));
        let value = PVal::Str(Arc::clone(name));
        self.tb.token([value])
    }

    fn num(&mut self, v: i64) -> ChildSpec {
        self.tb.token([PVal::Int(v)])
    }

    fn uid(&mut self) -> ChildSpec {
        let id = self.next_uid;
        self.next_uid += 1;
        self.num(id)
    }

    /// The list is built right to left, so unique ids are handed out
    /// last declaration first.
    fn decls(&mut self, ds: &'a [Decl]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_decls_nil);
        for d in ds.iter().rev() {
            tail = self.decl(d, tail);
        }
        tail
    }

    /// Prepends `d` to the declaration list `tail`: one node per
    /// declared name, so a multi-name `var` is expanded where it stands.
    fn decl(&mut self, d: &'a Decl, mut tail: BuiltNode) -> BuiltNode {
        let node = match d {
            Decl::Const { name, value } => {
                let kids = [self.text(name), self.num(*value)];
                self.tb.node_full(self.pg.p_const, kids)
            }
            Decl::Var { names, ty } => {
                for name in names.iter().rev() {
                    let id = self.text(name);
                    let node = match ty {
                        TypeExpr::Integer => self.tb.node_full(self.pg.p_var_int, [id]),
                        TypeExpr::Boolean => self.tb.node_full(self.pg.p_var_bool, [id]),
                        TypeExpr::Array { lo, hi } => {
                            let kids = [id, self.num(*lo), self.num(*hi)];
                            self.tb.node_full(self.pg.p_var_arr, kids)
                        }
                    };
                    tail = self.tb.node(self.pg.p_decls_cons, [node, tail]);
                }
                return tail;
            }
            Decl::Proc {
                name,
                params,
                result,
                decls,
                body,
            } => {
                let uid = self.uid();
                let ps = self.params(params);
                let ds = self.decls(decls);
                let ss = self.stmts(body);
                let id = self.text(name);
                match result {
                    None => self
                        .tb
                        .node_full(self.pg.p_proc, [id, uid, ps.into(), ds.into(), ss.into()]),
                    Some(rt) => {
                        let tyk = self.num(match rt {
                            TypeExpr::Boolean => 1,
                            _ => 0,
                        });
                        self.tb.node_full(
                            self.pg.p_func,
                            [id, uid, tyk, ps.into(), ds.into(), ss.into()],
                        )
                    }
                }
            }
        };
        self.tb.node(self.pg.p_decls_cons, [node, tail])
    }

    fn params(&mut self, ps: &'a [Param]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_params_nil);
        for p in ps.iter().rev() {
            let prod = match (&p.ty, p.by_ref) {
                (TypeExpr::Boolean, false) => self.pg.p_param_val_bool,
                (TypeExpr::Boolean, true) => self.pg.p_param_ref_bool,
                (_, false) => self.pg.p_param_val_int,
                (_, true) => self.pg.p_param_ref_int,
            };
            let id = self.text(&p.name);
            let node = self.tb.node_full(prod, [id]);
            tail = self.tb.node(self.pg.p_params_cons, [node, tail]);
        }
        tail
    }

    fn stmts(&mut self, ss: &'a [Stmt]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_stmts_nil);
        for s in ss.iter().rev() {
            let node = self.stmt(s);
            tail = self.tb.node(self.pg.p_stmts_cons, [node, tail]);
        }
        tail
    }

    fn stmt(&mut self, s: &'a Stmt) -> BuiltNode {
        match s {
            Stmt::Assign { target, value } => match target {
                LValue::Name(name) => {
                    let v = self.expr(value);
                    let kids = [self.text(name), v.into()];
                    self.tb.node_full(self.pg.p_assign, kids)
                }
                LValue::Index { name, index } => {
                    let i = self.expr(index);
                    let v = self.expr(value);
                    let kids = [self.text(name), i.into(), v.into()];
                    self.tb.node_full(self.pg.p_assign_idx, kids)
                }
            },
            Stmt::Call { name, args } => {
                let a = self.args(args);
                let kids = [self.text(name), a.into()];
                self.tb.node_full(self.pg.p_call, kids)
            }
            Stmt::If { cond, then, els } => {
                let uid = self.uid();
                let c = self.expr(cond);
                let t = self.stmts(then);
                if els.is_empty() {
                    self.tb.node_full(self.pg.p_if, [uid, c.into(), t.into()])
                } else {
                    let e = self.stmts(els);
                    self.tb
                        .node_full(self.pg.p_ifelse, [uid, c.into(), t.into(), e.into()])
                }
            }
            Stmt::While { cond, body } => {
                let uid = self.uid();
                let c = self.expr(cond);
                let b = self.stmts(body);
                self.tb
                    .node_full(self.pg.p_while, [uid, c.into(), b.into()])
            }
            Stmt::Write { args } => {
                let w = self.wargs(args);
                self.tb.node(self.pg.p_write, [w])
            }
            Stmt::Writeln { args } => {
                let w = self.wargs(args);
                self.tb.node(self.pg.p_writeln, [w])
            }
            Stmt::Compound(body) => {
                let b = self.stmts(body);
                self.tb.node(self.pg.p_compound, [b])
            }
            Stmt::Empty => self.tb.leaf(self.pg.p_empty),
        }
    }

    fn wargs(&mut self, ws: &'a [WriteArg]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_wargs_nil);
        for w in ws.iter().rev() {
            tail = match w {
                WriteArg::Expr(e) => {
                    let x = self.expr(e);
                    self.tb.node(self.pg.p_wargs_expr, [x, tail])
                }
                WriteArg::Str(s) => {
                    let kids = [self.text(s), tail.into()];
                    self.tb.node_full(self.pg.p_wargs_str, kids)
                }
            };
        }
        tail
    }

    fn args(&mut self, es: &'a [Expr]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_args_nil);
        for e in es.iter().rev() {
            let x = self.expr(e);
            tail = self.tb.node(self.pg.p_args_cons, [x, tail]);
        }
        tail
    }

    fn expr(&mut self, e: &'a Expr) -> BuiltNode {
        match e {
            Expr::Num(n) => {
                let num = self.num(*n);
                self.tb.node_full(self.pg.p_num, [num])
            }
            Expr::Bool(true) => self.tb.leaf(self.pg.p_true),
            Expr::Bool(false) => self.tb.leaf(self.pg.p_false),
            Expr::Name(n) => {
                let id = self.text(n);
                self.tb.node_full(self.pg.p_name, [id])
            }
            Expr::Index { name, index } => {
                let i = self.expr(index);
                let kids = [self.text(name), i.into()];
                self.tb.node_full(self.pg.p_index, kids)
            }
            Expr::Call { name, args } => {
                let a = self.args(args);
                let kids = [self.text(name), a.into()];
                self.tb.node_full(self.pg.p_fcall, kids)
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                let prod = match op {
                    BinOp::Add => self.pg.p_add,
                    BinOp::Sub => self.pg.p_sub,
                    BinOp::Mul => self.pg.p_mul,
                    BinOp::Div => self.pg.p_div,
                    BinOp::Mod => self.pg.p_mod,
                    BinOp::And => self.pg.p_and,
                    BinOp::Or => self.pg.p_or,
                    BinOp::Eq => self.pg.p_eq,
                    BinOp::Ne => self.pg.p_ne,
                    BinOp::Lt => self.pg.p_lt,
                    BinOp::Le => self.pg.p_le,
                    BinOp::Gt => self.pg.p_gt,
                    BinOp::Ge => self.pg.p_ge,
                };
                self.tb.node(prod, [l, r])
            }
            Expr::Neg(x) => {
                let n = self.expr(x);
                self.tb.node(self.pg.p_neg, [n])
            }
            Expr::Not(x) => {
                let n = self.expr(x);
                self.tb.node(self.pg.p_not, [n])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar;
    use crate::parser::parse;

    #[test]
    fn builds_tree_for_small_program() {
        let pg = grammar::build();
        let ast = parse("program p;\nvar x, y: integer;\nbegin x := 1; y := x + 2; write(y) end.")
            .unwrap();
        let tree = build_tree(&pg, &ast).unwrap();
        assert!(tree.len() > 15);
        // Root is the prog production.
        assert_eq!(tree.node(tree.root()).prod, pg.p_prog);
    }

    #[test]
    fn uids_are_unique() {
        let pg = grammar::build();
        let ast = parse(
            "program p;\nprocedure q; begin if true then write(1) end;\nbegin if false then q else q; while false do q end.",
        )
        .unwrap();
        let tree = build_tree(&pg, &ast).unwrap();
        // Collect uid token values: every t_uid token in the tree.
        let mut uids = Vec::new();
        for id in tree.node_ids() {
            let prod = tree.grammar().prod(tree.node(id).prod);
            for (i, c) in tree.children(id).iter().enumerate() {
                if let paragram_core::tree::Child::Token(span) = *c {
                    if prod.rhs[i] == pg.t_uid {
                        uids.push(tree.token(span)[0].int());
                    }
                }
            }
        }
        assert_eq!(uids.len(), 4); // proc, if(inner), ifelse, while
        let mut sorted = uids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), uids.len(), "duplicate uids: {uids:?}");
    }

    #[test]
    fn multi_name_var_decls_flatten() {
        let pg = grammar::build();
        let ast = parse("program p; var a, b, c: integer; begin end.").unwrap();
        let tree = build_tree(&pg, &ast).unwrap();
        let var_nodes = tree
            .node_ids()
            .filter(|&n| tree.node(n).prod == pg.p_var_int)
            .count();
        assert_eq!(var_nodes, 3);
    }
}
