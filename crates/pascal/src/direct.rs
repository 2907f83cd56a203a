//! A conventional single-pass compiler over the AST.
//!
//! This plays the role of the vendor Pascal compiler in the paper's
//! sequential comparison (§4.1): the same language, the same target and
//! calling conventions, but implemented as a straightforward mutable
//! tree walk with no attribute-grammar machinery at all. It is the
//! baseline the AG evaluators are benchmarked against, and an
//! independent implementation that end-to-end tests cross-check the AG
//! compiler's output behaviour against.

use crate::ast::*;
use crate::codegen as cg;
use crate::env::{scalar_ty, Entry, Env, ParamSig, SigList, Ty};
use paragram_rope::{Rope, RopeBuilder};
use std::sync::Arc;

/// Output of the direct compiler.
#[derive(Debug)]
pub struct DirectOutput {
    /// Generated assembly.
    pub asm: String,
    /// Semantic errors.
    pub errors: Vec<String>,
}

/// Compiles an AST directly (no attribute grammar).
pub fn compile_direct(ast: &Program) -> DirectOutput {
    let mut d = Direct {
        errors: Vec::new(),
        next_uid: 1,
    };
    let env = Env::new();
    let (env, off_out, proc_code) = d.decls(&ast.decls, env, 0, -8);
    let body = d.stmts(&ast.body, &env, 0);
    let mut b = RopeBuilder::new();
    cg::program_code(&mut b, off_out, &body, &proc_code);
    DirectOutput {
        asm: b.finish().flatten(),
        errors: d.errors,
    }
}

struct Direct {
    errors: Vec<String>,
    next_uid: i64,
}

impl Direct {
    fn uid(&mut self) -> i64 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// Two passes, matching the attribute grammar's scope semantics:
    /// first build the complete scope environment (symbol-table phase),
    /// then compile routine bodies against it (code-generation phase).
    /// This gives whole-scope visibility — mutual recursion works.
    fn decls(&mut self, ds: &[Decl], mut env: Env, level: u32, mut off: i32) -> (Env, i32, Rope) {
        struct PendingProc<'a> {
            label: Arc<str>,
            sig: SigList,
            is_func: bool,
            decls: &'a [Decl],
            body: &'a [Stmt],
        }
        let mut pending: Vec<PendingProc<'_>> = Vec::new();

        // Pass 1: the symbol table.
        for d in ds {
            match d {
                Decl::Const { name, value } => {
                    env = env.add(Arc::clone(name), Entry::Const(*value));
                }
                Decl::Var { names, ty } => {
                    for name in names {
                        match ty {
                            TypeExpr::Array { lo, hi } => {
                                let n = (hi - lo + 1).max(1);
                                let base = off - 4 * (n as i32 - 1);
                                env = env.add(
                                    Arc::clone(name),
                                    Entry::Arr {
                                        level,
                                        offset: base,
                                        lo: *lo,
                                        hi: *hi,
                                    },
                                );
                                off = base - 4;
                            }
                            _ => {
                                env = env.add(
                                    Arc::clone(name),
                                    Entry::Var {
                                        level,
                                        offset: off,
                                        ty: scalar_ty(ty),
                                        by_ref: false,
                                    },
                                );
                                off -= 4;
                            }
                        }
                    }
                }
                Decl::Proc {
                    name,
                    params,
                    result,
                    decls,
                    body,
                } => {
                    let uid = self.uid();
                    let label: Arc<str> = Arc::from(format!("P{uid}_{name}"));
                    let sig = SigList::from(
                        params
                            .iter()
                            .map(|p| ParamSig {
                                name: Arc::clone(&p.name),
                                ty: scalar_ty(&p.ty),
                                by_ref: p.by_ref,
                            })
                            .collect::<Vec<_>>(),
                    );
                    let entry = match result {
                        None => Entry::Proc {
                            label: Arc::clone(&label),
                            level: level + 1,
                            params: sig.clone(),
                        },
                        Some(rt) => Entry::Func {
                            label: Arc::clone(&label),
                            level: level + 1,
                            params: sig.clone(),
                            ret: scalar_ty(rt),
                        },
                    };
                    env = env.add(Arc::clone(name), entry);
                    pending.push(PendingProc {
                        label,
                        sig,
                        is_func: result.is_some(),
                        decls,
                        body,
                    });
                }
            }
        }

        // Pass 2: bodies against the complete scope.
        let mut b = RopeBuilder::new();
        for p in pending {
            let mut inner = env.clone();
            for (pname, pentry) in cg::param_entries(&p.sig, level + 1) {
                inner = inner.add(pname, pentry);
            }
            let inner_off = if p.is_func { -12 } else { -8 };
            let (inner_env, inner_off_out, nested) =
                self.decls(p.decls, inner, level + 1, inner_off);
            let body_code = self.stmts(p.body, &inner_env, level + 1);
            cg::prologue(&mut b, &p.label, inner_off_out, p.is_func);
            b.rope(&body_code);
            cg::epilogue(&mut b, p.is_func);
            b.rope(&nested);
        }
        (env, off, b.finish())
    }

    fn stmts(&mut self, ss: &[Stmt], env: &Env, level: u32) -> Rope {
        let mut b = RopeBuilder::new();
        for s in ss {
            b.rope(&self.stmt(s, env, level));
        }
        b.finish()
    }

    fn stmt(&mut self, s: &Stmt, env: &Env, level: u32) -> Rope {
        let mut b = RopeBuilder::new();
        match s {
            Stmt::Assign { target, value } => {
                let (vcode, vty) = self.expr(value, env, level);
                match target {
                    LValue::Name(name) => {
                        let slot = match env.lookup(name) {
                            Some(Entry::Var {
                                level: l,
                                offset,
                                ty,
                                by_ref,
                            }) => Some((*l, *offset, *by_ref, *ty)),
                            Some(Entry::Func { level: l, ret, .. }) => Some((*l, -8, false, *ret)),
                            Some(e) => {
                                self.errors
                                    .push(format!("cannot assign to {name:?} ({})", e.describe()));
                                None
                            }
                            None => {
                                self.errors
                                    .push(format!("assignment to undeclared name {name:?}"));
                                None
                            }
                        };
                        let Some((l, off, by_ref, ty)) = slot else {
                            return Rope::new();
                        };
                        if !ty.compatible(vty) {
                            self.errors
                                .push(format!("cannot assign {vty} to {name:?} of type {ty}"));
                        }
                        b.rope(&vcode);
                        cg::var_addr_to_r2(&mut b, l, off, by_ref, level);
                        cg::pop_to(&mut b, "r0");
                        b.text("\tmovl r0, (r2)\n");
                    }
                    LValue::Index { name, index } => {
                        let (icode, ity) = self.expr(index, env, level);
                        cg::expect_int("array index", ity, &mut self.errors);
                        cg::expect_int("array element value", vty, &mut self.errors);
                        let Some(Entry::Arr {
                            level: l,
                            offset,
                            lo,
                            ..
                        }) = env.lookup(name)
                        else {
                            self.errors.push(format!("undeclared array {name:?}"));
                            return Rope::new();
                        };
                        b.rope(&vcode);
                        b.rope(&icode);
                        cg::arr_base_to_r2(&mut b, *l, *offset, level);
                        cg::index_fixup(&mut b, *lo);
                        cg::pop_to(&mut b, "r0");
                        b.text("\tmovl r0, (r2)\n");
                    }
                }
            }
            Stmt::Call { name, args } => match env.lookup(name).cloned() {
                Some(Entry::Proc {
                    label,
                    level: plevel,
                    params,
                }) => {
                    let acode = self.args(args, &params, name, env, level);
                    cg::call(&mut b, &acode, args.len(), &label, plevel, level, false);
                }
                Some(Entry::Func { .. }) => {
                    self.errors
                        .push(format!("function {name:?} used as a procedure"));
                }
                Some(e) => {
                    self.errors
                        .push(format!("{name:?} is {}, not a procedure", e.describe()));
                }
                None => {
                    self.errors
                        .push(format!("call to undeclared procedure {name:?}"));
                }
            },
            Stmt::If { cond, then, els } => {
                let uid = self.uid();
                let (ccode, cty) = self.expr(cond, env, level);
                cg::expect_bool("if condition", cty, &mut self.errors);
                let tcode = self.stmts(then, env, level);
                b.rope(&ccode);
                cg::pop_to(&mut b, "r0");
                if els.is_empty() {
                    write!(b, "\ttstl r0\n\tbeql L{uid}x\n");
                    b.rope(&tcode);
                    write!(b, "L{uid}x:\n");
                } else {
                    let ecode = self.stmts(els, env, level);
                    write!(b, "\ttstl r0\n\tbeql L{uid}e\n");
                    b.rope(&tcode);
                    write!(b, "\tbrb L{uid}x\nL{uid}e:\n");
                    b.rope(&ecode);
                    write!(b, "L{uid}x:\n");
                }
            }
            Stmt::While { cond, body } => {
                let uid = self.uid();
                let (ccode, cty) = self.expr(cond, env, level);
                cg::expect_bool("while condition", cty, &mut self.errors);
                let bcode = self.stmts(body, env, level);
                write!(b, "L{uid}t:\n");
                b.rope(&ccode);
                cg::pop_to(&mut b, "r0");
                write!(b, "\ttstl r0\n\tbeql L{uid}x\n");
                b.rope(&bcode);
                write!(b, "\tbrb L{uid}t\nL{uid}x:\n");
            }
            Stmt::Write { args } => self.write_args(&mut b, args, env, level),
            Stmt::Writeln { args } => {
                self.write_args(&mut b, args, env, level);
                b.text("\twriteln\n");
            }
            Stmt::Compound(body) => return self.stmts(body, env, level),
            Stmt::Empty => {}
        }
        b.finish()
    }

    fn write_args(&mut self, b: &mut RopeBuilder, args: &[WriteArg], env: &Env, level: u32) {
        for a in args {
            match a {
                WriteArg::Expr(e) => {
                    let (ecode, _) = self.expr(e, env, level);
                    b.rope(&ecode);
                    cg::write_top(b);
                }
                WriteArg::Str(s) => cg::write_str(b, s),
            }
        }
    }

    fn args(
        &mut self,
        actuals: &[Expr],
        formals: &[ParamSig],
        name: &str,
        env: &Env,
        level: u32,
    ) -> Rope {
        if actuals.len() != formals.len() {
            self.errors.push(format!(
                "procedure {name:?} takes {} arguments, got {}",
                formals.len(),
                actuals.len()
            ));
        }
        let mut b = RopeBuilder::new();
        for (i, a) in actuals.iter().enumerate() {
            let formal = formals.get(i);
            if formal.is_some_and(|f| f.by_ref) {
                match self.addr_expr(a, env, level) {
                    Some(acode) => b.rope(&acode),
                    None => {
                        self.errors.push(format!(
                            "var argument {:?} must be a variable",
                            formal.expect("checked").name
                        ));
                        let (vcode, _) = self.expr(a, env, level);
                        b.rope(&vcode);
                    }
                }
            } else {
                let (vcode, vty) = self.expr(a, env, level);
                if let Some(f) = formal {
                    if !f.ty.compatible(vty) {
                        self.errors.push(format!(
                            "argument for {:?} must be {}, found {vty}",
                            f.name, f.ty
                        ));
                    }
                }
                b.rope(&vcode);
            }
        }
        b.finish()
    }

    /// Address-push code for `var` arguments, when the expression is
    /// addressable.
    fn addr_expr(&mut self, e: &Expr, env: &Env, level: u32) -> Option<Rope> {
        let mut b = RopeBuilder::new();
        match e {
            Expr::Name(name) => match env.lookup(name) {
                Some(Entry::Var {
                    level: l,
                    offset,
                    by_ref,
                    ..
                }) => cg::var_addr_to_r2(&mut b, *l, *offset, *by_ref, level),
                _ => return None,
            },
            Expr::Index { name, index } => match env.lookup(name).cloned() {
                Some(Entry::Arr {
                    level: l,
                    offset,
                    lo,
                    ..
                }) => {
                    let (icode, ity) = self.expr(index, env, level);
                    cg::expect_int("array index", ity, &mut self.errors);
                    b.rope(&icode);
                    cg::arr_base_to_r2(&mut b, l, offset, level);
                    cg::index_fixup(&mut b, lo);
                }
                _ => return None,
            },
            _ => return None,
        }
        b.text("\tpushl r2\n");
        Some(b.finish())
    }

    fn expr(&mut self, e: &Expr, env: &Env, level: u32) -> (Rope, Ty) {
        let mut b = RopeBuilder::new();
        // An erroneous expression is compiled to no code.
        let ty = match e {
            Expr::Num(n) => {
                cg::push_imm(&mut b, *n);
                Ty::Int
            }
            Expr::Bool(v) => {
                cg::push_imm(&mut b, i64::from(*v));
                Ty::Bool
            }
            Expr::Name(name) => match env.lookup(name).cloned() {
                Some(Entry::Const(v)) => {
                    cg::push_imm(&mut b, v);
                    Ty::Int
                }
                Some(Entry::Var {
                    level: l,
                    offset,
                    by_ref,
                    ty,
                }) => {
                    cg::push_var(&mut b, l, offset, by_ref, level);
                    ty
                }
                Some(Entry::Func {
                    label,
                    level: flevel,
                    params,
                    ret,
                }) if params.is_empty() => {
                    cg::call(&mut b, &Rope::new(), 0, &label, flevel, level, true);
                    ret
                }
                Some(Entry::Func { .. }) => {
                    self.errors
                        .push(format!("function {name:?} needs arguments"));
                    Ty::Error
                }
                Some(Entry::Arr { .. }) => {
                    self.errors.push(format!("array {name:?} used as a value"));
                    Ty::Error
                }
                Some(Entry::Proc { .. }) => {
                    self.errors
                        .push(format!("procedure {name:?} used as a value"));
                    Ty::Error
                }
                None => {
                    self.errors.push(format!("undeclared name {name:?}"));
                    Ty::Error
                }
            },
            Expr::Index { name, index } => {
                let (icode, ity) = self.expr(index, env, level);
                cg::expect_int("array index", ity, &mut self.errors);
                match env.lookup(name) {
                    Some(Entry::Arr {
                        level: l,
                        offset,
                        lo,
                        ..
                    }) => {
                        b.rope(&icode);
                        cg::arr_base_to_r2(&mut b, *l, *offset, level);
                        cg::index_fixup(&mut b, *lo);
                        b.text("\tpushl (r2)\n");
                        Ty::Int
                    }
                    Some(e) => {
                        self.errors
                            .push(format!("{name:?} is {}, not an array", e.describe()));
                        Ty::Error
                    }
                    None => {
                        self.errors.push(format!("undeclared array {name:?}"));
                        Ty::Error
                    }
                }
            }
            Expr::Call { name, args } => match env.lookup(name).cloned() {
                Some(Entry::Func {
                    label,
                    level: flevel,
                    params,
                    ret,
                }) => {
                    if params.len() != args.len() {
                        self.errors.push(format!(
                            "function {name:?} takes {} arguments, got {}",
                            params.len(),
                            args.len()
                        ));
                    }
                    let acode = self.args(args, &params, name, env, level);
                    cg::call(&mut b, &acode, args.len(), &label, flevel, level, true);
                    ret
                }
                Some(Entry::Proc { .. }) => {
                    self.errors
                        .push(format!("procedure {name:?} used in an expression"));
                    Ty::Error
                }
                Some(e) => {
                    self.errors
                        .push(format!("{name:?} is {}, not a function", e.describe()));
                    Ty::Error
                }
                None => {
                    self.errors
                        .push(format!("call to undeclared function {name:?}"));
                    Ty::Error
                }
            },
            Expr::Bin { op, lhs, rhs } => {
                let (lcode, lty) = self.expr(lhs, env, level);
                let (rcode, rty) = self.expr(rhs, env, level);
                b.rope(&lcode);
                b.rope(&rcode);
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        if !lty.compatible(rty) {
                            self.errors.push(format!("cannot compare {lty} with {rty}"));
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        cg::expect_bool("left operand", lty, &mut self.errors);
                        cg::expect_bool("right operand", rty, &mut self.errors);
                    }
                    _ => {
                        cg::expect_int("left operand", lty, &mut self.errors);
                        cg::expect_int("right operand", rty, &mut self.errors);
                    }
                }
                let (tail, arg, result): (fn(&mut RopeBuilder, &str), _, _) = match op {
                    BinOp::Add => (cg::arith, "addl2", Ty::Int),
                    BinOp::Sub => (cg::arith, "subl2", Ty::Int),
                    BinOp::Mul => (cg::arith, "mull2", Ty::Int),
                    BinOp::Div => (cg::arith, "divl2", Ty::Int),
                    BinOp::Mod => (cg::runtime2, "__mod", Ty::Int),
                    BinOp::And => (cg::runtime2, "__and", Ty::Bool),
                    BinOp::Or => (cg::runtime2, "__or", Ty::Bool),
                    BinOp::Eq => (cg::runtime2, "__eql", Ty::Bool),
                    BinOp::Ne => (cg::runtime2, "__neq", Ty::Bool),
                    BinOp::Lt => (cg::runtime2, "__lss", Ty::Bool),
                    BinOp::Le => (cg::runtime2, "__leq", Ty::Bool),
                    BinOp::Gt => (cg::runtime2, "__gtr", Ty::Bool),
                    BinOp::Ge => (cg::runtime2, "__geq", Ty::Bool),
                };
                tail(&mut b, arg);
                result
            }
            Expr::Neg(x) => {
                let (xcode, xty) = self.expr(x, env, level);
                cg::expect_int("negation operand", xty, &mut self.errors);
                b.rope(&xcode);
                cg::negate(&mut b);
                Ty::Int
            }
            Expr::Not(x) => {
                let (xcode, xty) = self.expr(x, env, level);
                cg::expect_bool("not operand", xty, &mut self.errors);
                b.rope(&xcode);
                cg::runtime1(&mut b, "__not");
                Ty::Bool
            }
        };
        (b.finish(), ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::run_asm;

    fn run_direct(src: &str) -> String {
        let ast = parse(src).unwrap();
        let out = compile_direct(&ast);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        run_asm(&out.asm).unwrap()
    }

    #[test]
    fn direct_compiles_and_runs() {
        let out = run_direct(
            "program p; var i, s: integer; begin i := 1; s := 0; while i <= 4 do begin s := s + i * i; i := i + 1 end; write(s) end.",
        );
        assert_eq!(out, "30");
    }

    #[test]
    fn direct_handles_procedures() {
        let out = run_direct(
            "program p; var r: integer;\nfunction add(a, b: integer): integer;\nbegin add := a + b end;\nbegin r := add(20, 22); write(r) end.",
        );
        assert_eq!(out, "42");
    }

    #[test]
    fn direct_reports_errors() {
        let ast = parse("program p; begin x := 1; q(2) end.").unwrap();
        let out = compile_direct(&ast);
        assert_eq!(out.errors.len(), 2);
    }

    /// The key cross-check: on valid programs, the direct compiler and
    /// the AG compiler must produce behaviourally identical programs.
    #[test]
    fn direct_matches_ag_compiler_behaviour() {
        let srcs = [
            "program p; var a: array [0..7] of integer; var i: integer;\nbegin i := 0; while i < 8 do begin a[i] := 7 * i; i := i + 1 end; write(a[3], ' ', a[7]) end.",
            "program p; var g: integer;\nprocedure bump(var x: integer);\nbegin x := x + 1 end;\nfunction twice(n: integer): integer;\nbegin twice := 2 * n end;\nbegin g := 1; bump(g); write(twice(g)) end.",
            "program p;\nprocedure o;\nvar t: integer;\n procedure i1;\n begin t := t + 10 end;\nbegin t := 1; i1; write(t) end;\nbegin o end.",
        ];
        let c = crate::Compiler::new();
        for src in srcs {
            let ag = c.compile(src).unwrap();
            assert!(ag.errors.is_empty());
            let ast = parse(src).unwrap();
            let direct = compile_direct(&ast);
            assert!(direct.errors.is_empty());
            assert_eq!(
                run_asm(&ag.asm).unwrap(),
                run_asm(&direct.asm).unwrap(),
                "behaviour mismatch for {src}"
            );
        }
    }
}
