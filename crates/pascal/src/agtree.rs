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
use paragram_core::tree::{token, BuiltNode, ChildSpec, ParseTree, TreeBuilder, TreeError};
use std::sync::Arc;

struct Conv<'g> {
    pg: &'g PascalGrammar,
    tb: TreeBuilder<PVal>,
    next_uid: i64,
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
    };
    let decls = c.decls(&ast.decls);
    let stmts = c.stmts(&ast.body);
    let root = c.tb.node_full(
        pg.p_prog,
        vec![id_tok(&ast.name), decls.into(), stmts.into()],
    );
    c.tb.finish(root).map(Arc::new)
}

// A token's values go straight from an array into the tree's `Arc<[V]>`:
// a `Vec` in between is one more allocation per token, freed at once.

fn id_tok(name: &str) -> ChildSpec<PVal> {
    token([PVal::Str(Arc::from(name))])
}

fn num_tok(v: i64) -> ChildSpec<PVal> {
    token([PVal::Int(v)])
}

fn str_tok(s: &str) -> ChildSpec<PVal> {
    token([PVal::Str(Arc::from(s))])
}

impl<'g> Conv<'g> {
    fn uid(&mut self) -> ChildSpec<PVal> {
        let id = self.next_uid;
        self.next_uid += 1;
        num_tok(id)
    }

    /// The list is built right to left, so unique ids are handed out
    /// last declaration first.
    fn decls(&mut self, ds: &[Decl]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_decls_nil);
        for d in ds.iter().rev() {
            tail = self.decl(d, tail);
        }
        tail
    }

    /// Prepends `d` to the declaration list `tail`: one node per
    /// declared name, so a multi-name `var` is expanded where it stands.
    fn decl(&mut self, d: &Decl, mut tail: BuiltNode) -> BuiltNode {
        let node = match d {
            Decl::Const { name, value } => self
                .tb
                .node_full(self.pg.p_const, vec![id_tok(name), num_tok(*value)]),
            Decl::Var { names, ty } => {
                for name in names.iter().rev() {
                    let node = match ty {
                        TypeExpr::Integer => {
                            self.tb.node_full(self.pg.p_var_int, vec![id_tok(name)])
                        }
                        TypeExpr::Boolean => {
                            self.tb.node_full(self.pg.p_var_bool, vec![id_tok(name)])
                        }
                        TypeExpr::Array { lo, hi } => self.tb.node_full(
                            self.pg.p_var_arr,
                            vec![id_tok(name), num_tok(*lo), num_tok(*hi)],
                        ),
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
                match result {
                    None => self.tb.node_full(
                        self.pg.p_proc,
                        vec![id_tok(name), uid, ps.into(), ds.into(), ss.into()],
                    ),
                    Some(rt) => {
                        let tyk = num_tok(match rt {
                            TypeExpr::Boolean => 1,
                            _ => 0,
                        });
                        self.tb.node_full(
                            self.pg.p_func,
                            vec![id_tok(name), uid, tyk, ps.into(), ds.into(), ss.into()],
                        )
                    }
                }
            }
        };
        self.tb.node(self.pg.p_decls_cons, [node, tail])
    }

    fn params(&mut self, ps: &[Param]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_params_nil);
        for p in ps.iter().rev() {
            let prod = match (&p.ty, p.by_ref) {
                (TypeExpr::Boolean, false) => self.pg.p_param_val_bool,
                (TypeExpr::Boolean, true) => self.pg.p_param_ref_bool,
                (_, false) => self.pg.p_param_val_int,
                (_, true) => self.pg.p_param_ref_int,
            };
            let node = self.tb.node_full(prod, vec![id_tok(&p.name)]);
            tail = self.tb.node(self.pg.p_params_cons, [node, tail]);
        }
        tail
    }

    fn stmts(&mut self, ss: &[Stmt]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_stmts_nil);
        for s in ss.iter().rev() {
            let node = self.stmt(s);
            tail = self.tb.node(self.pg.p_stmts_cons, [node, tail]);
        }
        tail
    }

    fn stmt(&mut self, s: &Stmt) -> BuiltNode {
        match s {
            Stmt::Assign { target, value } => match target {
                LValue::Name(name) => {
                    let v = self.expr(value);
                    self.tb
                        .node_full(self.pg.p_assign, vec![id_tok(name), v.into()])
                }
                LValue::Index { name, index } => {
                    let i = self.expr(index);
                    let v = self.expr(value);
                    self.tb
                        .node_full(self.pg.p_assign_idx, vec![id_tok(name), i.into(), v.into()])
                }
            },
            Stmt::Call { name, args } => {
                let a = self.args(args);
                self.tb
                    .node_full(self.pg.p_call, vec![id_tok(name), a.into()])
            }
            Stmt::If { cond, then, els } => {
                let uid = self.uid();
                let c = self.expr(cond);
                let t = self.stmts(then);
                if els.is_empty() {
                    self.tb
                        .node_full(self.pg.p_if, vec![uid, c.into(), t.into()])
                } else {
                    let e = self.stmts(els);
                    self.tb
                        .node_full(self.pg.p_ifelse, vec![uid, c.into(), t.into(), e.into()])
                }
            }
            Stmt::While { cond, body } => {
                let uid = self.uid();
                let c = self.expr(cond);
                let b = self.stmts(body);
                self.tb
                    .node_full(self.pg.p_while, vec![uid, c.into(), b.into()])
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

    fn wargs(&mut self, ws: &[WriteArg]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_wargs_nil);
        for w in ws.iter().rev() {
            tail = match w {
                WriteArg::Expr(e) => {
                    let x = self.expr(e);
                    self.tb
                        .node_full(self.pg.p_wargs_expr, vec![x.into(), tail.into()])
                }
                WriteArg::Str(s) => self
                    .tb
                    .node_full(self.pg.p_wargs_str, vec![str_tok(s), tail.into()]),
            };
        }
        tail
    }

    fn args(&mut self, es: &[Expr]) -> BuiltNode {
        let mut tail = self.tb.leaf(self.pg.p_args_nil);
        for e in es.iter().rev() {
            let x = self.expr(e);
            tail = self
                .tb
                .node_full(self.pg.p_args_cons, vec![x.into(), tail.into()]);
        }
        tail
    }

    fn expr(&mut self, e: &Expr) -> BuiltNode {
        match e {
            Expr::Num(n) => self.tb.node_full(self.pg.p_num, vec![num_tok(*n)]),
            Expr::Bool(true) => self.tb.leaf(self.pg.p_true),
            Expr::Bool(false) => self.tb.leaf(self.pg.p_false),
            Expr::Name(n) => self.tb.node_full(self.pg.p_name, vec![id_tok(n)]),
            Expr::Index { name, index } => {
                let i = self.expr(index);
                self.tb
                    .node_full(self.pg.p_index, vec![id_tok(name), i.into()])
            }
            Expr::Call { name, args } => {
                let a = self.args(args);
                self.tb
                    .node_full(self.pg.p_fcall, vec![id_tok(name), a.into()])
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
            let node = tree.node(id);
            let prod = tree.grammar().prod(node.prod);
            for (i, c) in node.children.iter().enumerate() {
                if let paragram_core::tree::Child::Token(vals) = c {
                    if prod.rhs[i] == pg.t_uid {
                        uids.push(vals[0].int());
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
