//! The Pascal compiler as an attribute grammar.
//!
//! This is the reproduction of the paper's compiler specification (§3):
//! a grammar whose semantic rules perform symbol-table construction,
//! type checking and VAX code generation, all as pure functions. The
//! environment is threaded left-to-right through declarations
//! (declare-before-use), so the symbol-table phase is a sequential
//! chain while code generation parallelizes — exactly the Figure-6
//! behaviour.
//!
//! Paper-specific machinery:
//!
//! * statement lists, statements, procedure declarations and
//!   declaration lists are `%split` nonterminals (§3);
//! * the environment attributes are *priority* attributes (§4.3);
//! * control-flow and procedure labels come from unique-id *tokens*
//!   supplied by the parser — the paper's "unique value communicated by
//!   the parser" technique (§4.3), which keeps semantic rules pure and
//!   parallel evaluation label-collision-free.

use crate::codegen as cg;
use crate::env::{Entry, Env, ParamSig, SigList, Ty};
use crate::pval::PVal;
use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder, ProdId, SymbolId};
use paragram_rope::{Rope, RopeBuilder};
use std::sync::Arc;

/// Attribute ids of declaration-like symbols (`decls`, `decl`).
///
/// The two-visit structure of the paper's Figure 6 lives here: the
/// `env_in`/`env_out` chain is *visit 1* (sequential, cheap symbol-table
/// construction), while `genv` — the **complete** scope environment,
/// computed at the scope root from the chain's final output and passed
/// back down — gates *visit 2* (code generation, expensive and
/// parallel). Procedure bodies are compiled against `genv`, which also
/// gives whole-scope visibility (mutual recursion).
#[derive(Debug, Clone, Copy)]
pub struct DeclAttrs {
    /// Inherited (visit 1): environment before this declaration.
    pub env_in: AttrId,
    /// Inherited: static level.
    pub level: AttrId,
    /// Inherited: next free frame offset.
    pub off_in: AttrId,
    /// Inherited (visit 2): the complete enclosing-scope environment.
    pub genv: AttrId,
    /// Synthesized (visit 1): environment after.
    pub env_out: AttrId,
    /// Synthesized: next free frame offset after.
    pub off_out: AttrId,
    /// Synthesized (visit 2): code of contained procedure bodies.
    pub code: AttrId,
    /// Synthesized (visit 2): semantic errors.
    pub errs: AttrId,
}

/// Attribute ids of statement-like symbols (`stmts`, `stmt`, `wargs`).
#[derive(Debug, Clone, Copy)]
pub struct StmtAttrs {
    /// Inherited: environment.
    pub env: AttrId,
    /// Inherited: static level.
    pub level: AttrId,
    /// Synthesized: code.
    pub code: AttrId,
    /// Synthesized: semantic errors.
    pub errs: AttrId,
}

/// Attribute ids of `expr`.
#[derive(Debug, Clone, Copy)]
pub struct ExprAttrs {
    /// Inherited: environment.
    pub env: AttrId,
    /// Inherited: static level.
    pub level: AttrId,
    /// Synthesized: value code (pushes one longword).
    pub code: AttrId,
    /// Synthesized: address code (pushes the address; `Unit` when not
    /// addressable — used for `var` arguments).
    pub addr: AttrId,
    /// Synthesized: type.
    pub ty: AttrId,
    /// Synthesized: semantic errors.
    pub errs: AttrId,
}

/// Attribute ids of `args` (actual-argument lists).
#[derive(Debug, Clone, Copy)]
pub struct ArgsAttrs {
    /// Inherited: environment.
    pub env: AttrId,
    /// Inherited: static level.
    pub level: AttrId,
    /// Inherited: formal signatures still expected.
    pub sig_rest: AttrId,
    /// Synthesized: argument code (pushed left-to-right).
    pub code: AttrId,
    /// Synthesized: number of actuals.
    pub count: AttrId,
    /// Synthesized: semantic errors.
    pub errs: AttrId,
}

/// The built grammar plus every id the tree builder needs.
#[allow(missing_docs)]
pub struct PascalGrammar {
    pub grammar: Arc<Grammar<PVal>>,

    // Symbols.
    pub s: SymbolId,
    pub decls: SymbolId,
    pub decl: SymbolId,
    pub params: SymbolId,
    pub param: SymbolId,
    pub stmts: SymbolId,
    pub stmt: SymbolId,
    pub wargs: SymbolId,
    pub args: SymbolId,
    pub expr: SymbolId,
    // Terminals.
    pub t_id: SymbolId,
    pub t_num: SymbolId,
    pub t_str: SymbolId,
    pub t_uid: SymbolId,
    pub t_tyk: SymbolId,

    // Attribute groups.
    pub s_code: AttrId,
    pub s_errs: AttrId,
    pub a_decls: DeclAttrs,
    pub a_decl: DeclAttrs,
    pub a_stmts: StmtAttrs,
    pub a_stmt: StmtAttrs,
    pub a_wargs: StmtAttrs,
    pub a_args: ArgsAttrs,
    pub a_expr: ExprAttrs,
    pub params_sig: AttrId,
    pub param_sig: AttrId,

    // Productions.
    pub p_prog: ProdId,
    pub p_decls_cons: ProdId,
    pub p_decls_nil: ProdId,
    pub p_const: ProdId,
    pub p_var_int: ProdId,
    pub p_var_bool: ProdId,
    pub p_var_arr: ProdId,
    pub p_proc: ProdId,
    pub p_func: ProdId,
    pub p_params_cons: ProdId,
    pub p_params_nil: ProdId,
    pub p_param_val_int: ProdId,
    pub p_param_val_bool: ProdId,
    pub p_param_ref_int: ProdId,
    pub p_param_ref_bool: ProdId,
    pub p_stmts_cons: ProdId,
    pub p_stmts_nil: ProdId,
    pub p_assign: ProdId,
    pub p_assign_idx: ProdId,
    pub p_call: ProdId,
    pub p_if: ProdId,
    pub p_ifelse: ProdId,
    pub p_while: ProdId,
    pub p_write: ProdId,
    pub p_writeln: ProdId,
    pub p_compound: ProdId,
    pub p_empty: ProdId,
    pub p_wargs_expr: ProdId,
    pub p_wargs_str: ProdId,
    pub p_wargs_nil: ProdId,
    pub p_args_cons: ProdId,
    pub p_args_nil: ProdId,
    pub p_num: ProdId,
    pub p_true: ProdId,
    pub p_false: ProdId,
    pub p_name: ProdId,
    pub p_index: ProdId,
    pub p_fcall: ProdId,
    pub p_add: ProdId,
    pub p_sub: ProdId,
    pub p_mul: ProdId,
    pub p_div: ProdId,
    pub p_mod: ProdId,
    pub p_and: ProdId,
    pub p_or: ProdId,
    pub p_eq: ProdId,
    pub p_ne: ProdId,
    pub p_lt: ProdId,
    pub p_le: ProdId,
    pub p_gt: ProdId,
    pub p_ge: ProdId,
    pub p_neg: ProdId,
    pub p_not: ProdId,
}

/// Looks up the assignable slot for a name: ordinary variables, or the
/// result slot of a function (assignment to the function name).
fn assign_slot(env: &Env, name: &str) -> Option<(u32, i32, bool, Ty)> {
    match env.lookup(name)? {
        Entry::Var {
            level,
            offset,
            ty,
            by_ref,
        } => Some((*level, *offset, *by_ref, *ty)),
        Entry::Func { level, ret, .. } => Some((*level, -8, false, *ret)),
        _ => None,
    }
}

fn label_for(uid: i64, name: &str) -> Arc<str> {
    Arc::from(format!("P{uid}_{name}").as_str())
}

/// A code attribute holding what `emit` writes: every code rule builds
/// its value this way, so the literal text between two children's code
/// is one leaf.
fn code(emit: impl FnOnce(&mut RopeBuilder)) -> PVal {
    let mut b = RopeBuilder::new();
    emit(&mut b);
    PVal::Code(b.finish())
}

/// The empty code attribute (declarations without code, and whatever an
/// erroneous construct is compiled to).
fn no_code() -> PVal {
    PVal::Code(Rope::new())
}

/// Builds the Pascal attribute grammar (with priority attributes, the
/// default configuration).
///
/// # Panics
///
/// Panics only if the internal grammar definition is inconsistent —
/// covered by tests.
pub fn build() -> PascalGrammar {
    build_with(true)
}

/// Builds the grammar with or without priority-attribute markings —
/// the §4.3 ablation ("without priority attribute specifications,
/// pathological situations can occur whereby local attributes are
/// computed ahead of attributes that are required globally").
///
/// # Panics
///
/// See [`build`].
pub fn build_with(priority: bool) -> PascalGrammar {
    let mut g = GrammarBuilder::<PVal>::new();

    // Symbols.
    let s = g.nonterminal("S");
    let decls = g.nonterminal("decls");
    let decl = g.nonterminal("decl");
    let params = g.nonterminal("params");
    let param = g.nonterminal("param");
    let stmts = g.nonterminal("stmts");
    let stmt = g.nonterminal("stmt");
    let wargs = g.nonterminal("wargs");
    let args = g.nonterminal("args");
    let expr = g.nonterminal("expr");
    let t_id = g.terminal("ID");
    let t_num = g.terminal("NUM");
    let t_str = g.terminal("STR");
    let t_uid = g.terminal("UID");
    let t_tyk = g.terminal("TYK");
    let _id_text = g.synthesized(t_id, "text");
    let _num_val = g.synthesized(t_num, "val");
    let _str_text = g.synthesized(t_str, "text");
    let _uid_val = g.synthesized(t_uid, "uid");
    let _tyk_val = g.synthesized(t_tyk, "tyval");

    // Attributes.
    let s_code = g.synthesized(s, "code");
    let s_errs = g.synthesized(s, "errs");
    let mk_decl_attrs = |g: &mut GrammarBuilder<PVal>, sym: SymbolId| DeclAttrs {
        env_in: g.inherited(sym, "env_in"),
        level: g.inherited(sym, "level"),
        off_in: g.inherited(sym, "off_in"),
        genv: g.inherited(sym, "genv"),
        env_out: g.synthesized(sym, "env_out"),
        off_out: g.synthesized(sym, "off_out"),
        code: g.synthesized(sym, "code"),
        errs: g.synthesized(sym, "errs"),
    };
    let a_decls = mk_decl_attrs(&mut g, decls);
    let a_decl = mk_decl_attrs(&mut g, decl);
    let mk_stmt_attrs = |g: &mut GrammarBuilder<PVal>, sym: SymbolId| StmtAttrs {
        env: g.inherited(sym, "env"),
        level: g.inherited(sym, "level"),
        code: g.synthesized(sym, "code"),
        errs: g.synthesized(sym, "errs"),
    };
    let a_stmts = mk_stmt_attrs(&mut g, stmts);
    let a_stmt = mk_stmt_attrs(&mut g, stmt);
    let a_wargs = mk_stmt_attrs(&mut g, wargs);
    let a_args = ArgsAttrs {
        env: g.inherited(args, "env"),
        level: g.inherited(args, "level"),
        sig_rest: g.inherited(args, "sig_rest"),
        code: g.synthesized(args, "code"),
        count: g.synthesized(args, "count"),
        errs: g.synthesized(args, "errs"),
    };
    let a_expr = ExprAttrs {
        env: g.inherited(expr, "env"),
        level: g.inherited(expr, "level"),
        code: g.synthesized(expr, "code"),
        addr: g.synthesized(expr, "addr"),
        ty: g.synthesized(expr, "ty"),
        errs: g.synthesized(expr, "errs"),
    };
    let params_sig = g.synthesized(params, "sig");
    let param_sig = g.synthesized(param, "sig");

    // Priority: the (global) symbol-table attributes (§4.3).
    if priority {
        g.mark_priority(decls, a_decls.env_in);
        g.mark_priority(decls, a_decls.env_out);
        g.mark_priority(decls, a_decls.genv);
        g.mark_priority(decl, a_decl.env_in);
        g.mark_priority(decl, a_decl.env_out);
        g.mark_priority(decl, a_decl.genv);
    }

    // Split points (§3): statement lists, statements, procedure
    // declarations and declaration lists.
    g.mark_split(stmts, 30);
    g.mark_split(stmt, 40);
    g.mark_split(decl, 25);
    g.mark_split(decls, 25);

    // ---------------------------------------------------------------
    // Program.
    // ---------------------------------------------------------------
    // S -> ID decls stmts
    let p_prog = g.production("prog", s, [t_id, decls, stmts]);
    g.rule_direct(p_prog, (2, a_decls.env_in), [], |_| PVal::Env(Env::new()));
    g.rule_direct(p_prog, (2, a_decls.level), [], |_| PVal::Int(0));
    g.rule_direct(p_prog, (2, a_decls.off_in), [], |_| PVal::Int(-8));
    // The complete global scope flows back down for code generation
    // (visit 2) — this syn→inh dependency is what makes the grammar
    // two-visit and the codegen phase parallel.
    g.copy_rule(p_prog, (2, a_decls.genv), (2, a_decls.env_out));
    g.copy_rule(p_prog, (3, a_stmts.env), (2, a_decls.env_out));
    g.rule_direct(p_prog, (3, a_stmts.level), [], |_| PVal::Int(0));
    g.rule_with_cost_direct(
        p_prog,
        (0, s_code),
        [(2, a_decls.off_out), (3, a_stmts.code), (2, a_decls.code)],
        |a| code(|b| cg::program_code(b, a[0].int() as i32, a[1].code(), a[2].code())),
        4,
    );
    g.rule_direct(
        p_prog,
        (0, s_errs),
        [(2, a_decls.errs), (3, a_stmts.errs)],
        |a| PVal::errs_concat(&[&a[0], &a[1]]),
    );

    // ---------------------------------------------------------------
    // Declaration lists.
    // ---------------------------------------------------------------
    let p_decls_cons = g.production("decls_cons", decls, [decl, decls]);
    g.copy_rule(p_decls_cons, (1, a_decl.env_in), (0, a_decls.env_in));
    g.copy_rule(p_decls_cons, (1, a_decl.level), (0, a_decls.level));
    g.copy_rule(p_decls_cons, (1, a_decl.off_in), (0, a_decls.off_in));
    g.copy_rule(p_decls_cons, (1, a_decl.genv), (0, a_decls.genv));
    g.copy_rule(p_decls_cons, (2, a_decls.env_in), (1, a_decl.env_out));
    g.copy_rule(p_decls_cons, (2, a_decls.level), (0, a_decls.level));
    g.copy_rule(p_decls_cons, (2, a_decls.off_in), (1, a_decl.off_out));
    g.copy_rule(p_decls_cons, (2, a_decls.genv), (0, a_decls.genv));
    g.copy_rule(p_decls_cons, (0, a_decls.env_out), (2, a_decls.env_out));
    g.copy_rule(p_decls_cons, (0, a_decls.off_out), (2, a_decls.off_out));
    g.rule_with_cost_direct(
        p_decls_cons,
        (0, a_decls.code),
        [(1, a_decl.code), (2, a_decls.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                b.rope(a[1].code());
            })
        },
        2,
    );
    g.rule_direct(
        p_decls_cons,
        (0, a_decls.errs),
        [(1, a_decl.errs), (2, a_decls.errs)],
        |a| PVal::errs_concat(&[&a[0], &a[1]]),
    );

    let p_decls_nil = g.production("decls_nil", decls, []);
    g.copy_rule(p_decls_nil, (0, a_decls.env_out), (0, a_decls.env_in));
    g.copy_rule(p_decls_nil, (0, a_decls.off_out), (0, a_decls.off_in));
    g.rule_direct(p_decls_nil, (0, a_decls.code), [], |_| no_code());
    g.rule_direct(p_decls_nil, (0, a_decls.errs), [], |_| PVal::no_errs());

    // ---------------------------------------------------------------
    // Single declarations.
    // ---------------------------------------------------------------
    // const ID = NUM
    let p_const = g.production("const", decl, [t_id, t_num]);
    g.rule_with_cost_direct(
        p_const,
        (0, a_decl.env_out),
        [(0, a_decl.env_in), (1, AttrId(0)), (2, AttrId(0))],
        |a| {
            PVal::Env(
                a[0].env()
                    .add(Arc::clone(a[1].str()), Entry::Const(a[2].int())),
            )
        },
        3,
    );
    g.copy_rule(p_const, (0, a_decl.off_out), (0, a_decl.off_in));
    g.rule_direct(p_const, (0, a_decl.code), [], |_| no_code());
    g.rule_direct(p_const, (0, a_decl.errs), [], |_| PVal::no_errs());

    // var ID : integer|boolean
    for (p, ty) in [(Ty::Int, "var_int"), (Ty::Bool, "var_bool")]
        .map(|(t, n)| (n, t))
        .map(|(n, t)| (g.production(n, decl, [t_id]), t))
    {
        g.rule_with_cost(
            p,
            (0, a_decl.env_out),
            [
                (0, a_decl.env_in),
                (1, AttrId(0)),
                (0, a_decl.level),
                (0, a_decl.off_in),
            ],
            move |a| {
                PVal::Env(a[0].env().add(
                    Arc::clone(a[1].str()),
                    Entry::Var {
                        level: a[2].int() as u32,
                        offset: a[3].int() as i32,
                        ty,
                        by_ref: false,
                    },
                ))
            },
            3,
        );
        g.rule_direct(p, (0, a_decl.off_out), [(0, a_decl.off_in)], |a| {
            PVal::Int(a[0].int() - 4)
        });
        g.rule_direct(p, (0, a_decl.code), [], |_| no_code());
        g.rule_direct(p, (0, a_decl.errs), [], |_| PVal::no_errs());
    }
    let p_var_int = ProdId(p_const.0 + 1);
    let p_var_bool = ProdId(p_const.0 + 2);

    // var ID : array [NUM..NUM] of integer
    let p_var_arr = g.production("var_arr", decl, [t_id, t_num, t_num]);
    g.rule_with_cost_direct(
        p_var_arr,
        (0, a_decl.env_out),
        [
            (0, a_decl.env_in),
            (1, AttrId(0)),
            (2, AttrId(0)),
            (3, AttrId(0)),
            (0, a_decl.level),
            (0, a_decl.off_in),
        ],
        |a| {
            let (lo, hi) = (a[2].int(), a[3].int());
            let n = (hi - lo + 1).max(1);
            let base = a[5].int() as i32 - 4 * (n as i32 - 1);
            PVal::Env(a[0].env().add(
                Arc::clone(a[1].str()),
                Entry::Arr {
                    level: a[4].int() as u32,
                    offset: base,
                    lo,
                    hi,
                },
            ))
        },
        3,
    );
    g.rule_direct(
        p_var_arr,
        (0, a_decl.off_out),
        [(2, AttrId(0)), (3, AttrId(0)), (0, a_decl.off_in)],
        |a| {
            let n = (a[1].int() - a[0].int() + 1).max(1);
            PVal::Int(a[2].int() - 4 * n)
        },
    );
    g.rule_direct(p_var_arr, (0, a_decl.code), [], |_| no_code());
    g.rule_direct(p_var_arr, (0, a_decl.errs), [], |_| PVal::no_errs());

    // procedure ID (uid) (params) ; decls begin stmts end
    let p_proc = g.production("proc", decl, [t_id, t_uid, params, decls, stmts]);
    // function ID (uid) : TYK (params) ; decls begin stmts end
    let p_func = g.production("func", decl, [t_id, t_uid, t_tyk, params, decls, stmts]);

    // Shared closure bodies, parameterized over occurrence offsets.
    for (p, is_func) in [(p_proc, false), (p_func, true)] {
        // Occurrence layout: proc: 1=id 2=uid 3=params 4=decls 5=stmts
        //                    func: 1=id 2=uid 3=tyk 4=params 5=decls 6=stmts
        let (o_params, o_decls, o_stmts) = if is_func { (4, 5, 6) } else { (3, 4, 5) };
        let routine_entry = move |env: &Env,
                                  name: &Arc<str>,
                                  uid: i64,
                                  sig: &SigList,
                                  level: u32,
                                  ret: Option<Ty>|
              -> Env {
            let label = label_for(uid, name);
            let entry = match ret {
                None => Entry::Proc {
                    label,
                    level: level + 1,
                    params: sig.clone(),
                },
                Some(ret) => Entry::Func {
                    label,
                    level: level + 1,
                    params: sig.clone(),
                    ret,
                },
            };
            env.add(Arc::clone(name), entry)
        };
        // env_out: outer environment gains the routine.
        if is_func {
            g.rule_with_cost(
                p,
                (0, a_decl.env_out),
                [
                    (0, a_decl.env_in),
                    (1, AttrId(0)),
                    (2, AttrId(0)),
                    (3, AttrId(0)),
                    (o_params, params_sig),
                    (0, a_decl.level),
                ],
                move |a| {
                    let ret = if a[3].int() == 0 { Ty::Int } else { Ty::Bool };
                    PVal::Env(routine_entry(
                        a[0].env(),
                        a[1].str(),
                        a[2].int(),
                        a[4].sig(),
                        a[5].int() as u32,
                        Some(ret),
                    ))
                },
                3,
            );
        } else {
            g.rule_with_cost(
                p,
                (0, a_decl.env_out),
                [
                    (0, a_decl.env_in),
                    (1, AttrId(0)),
                    (2, AttrId(0)),
                    (o_params, params_sig),
                    (0, a_decl.level),
                ],
                move |a| {
                    PVal::Env(routine_entry(
                        a[0].env(),
                        a[1].str(),
                        a[2].int(),
                        a[3].sig(),
                        a[4].int() as u32,
                        None,
                    ))
                },
                3,
            );
        }
        // Inner declaration scope: the *complete* enclosing scope plus
        // parameter entries. Using `genv` (not `env_out`) is what gives
        // bodies whole-scope visibility and pushes all body work into
        // visit 2.
        g.rule_with_cost_direct(
            p,
            (o_decls, a_decls.env_in),
            [(0, a_decl.genv), (o_params, params_sig), (0, a_decl.level)],
            |a| {
                let mut env = a[0].env().clone();
                let level = a[2].int() as u32 + 1;
                for (name, entry) in cg::param_entries(a[1].sig(), level) {
                    env = env.add(name, entry);
                }
                PVal::Env(env)
            },
            3,
        );
        // The inner scope's own complete environment (nested routines
        // are mutually visible).
        g.copy_rule(p, (o_decls, a_decls.genv), (o_decls, a_decls.env_out));
        g.rule_direct(p, (o_decls, a_decls.level), [(0, a_decl.level)], |a| {
            PVal::Int(a[0].int() + 1)
        });
        g.rule(p, (o_decls, a_decls.off_in), [], move |_| {
            PVal::Int(if is_func { -12 } else { -8 })
        });
        g.copy_rule(p, (o_stmts, a_stmts.env), (o_decls, a_decls.env_out));
        g.rule_direct(p, (o_stmts, a_stmts.level), [(0, a_decl.level)], |a| {
            PVal::Int(a[0].int() + 1)
        });
        g.copy_rule(p, (0, a_decl.off_out), (0, a_decl.off_in));
        g.rule_with_cost(
            p,
            (0, a_decl.code),
            [
                (1, AttrId(0)),
                (2, AttrId(0)),
                (o_decls, a_decls.off_out),
                (o_stmts, a_stmts.code),
                (o_decls, a_decls.code),
            ],
            move |a| {
                code(|b| {
                    let label = label_for(a[1].int(), a[0].str());
                    cg::prologue(b, &label, a[2].int() as i32, is_func);
                    b.rope(a[3].code());
                    cg::epilogue(b, is_func);
                    b.rope(a[4].code());
                })
            },
            4,
        );
        g.rule_direct(
            p,
            (0, a_decl.errs),
            [(o_decls, a_decls.errs), (o_stmts, a_stmts.errs)],
            |a| PVal::errs_concat(&[&a[0], &a[1]]),
        );
    }

    // ---------------------------------------------------------------
    // Formal parameters.
    // ---------------------------------------------------------------
    let p_params_cons = g.production("params_cons", params, [param, params]);
    g.rule_direct(
        p_params_cons,
        (0, params_sig),
        [(1, param_sig), (2, params_sig)],
        |a| PVal::Sig(a[0].sig().concat(a[1].sig())),
    );
    let p_params_nil = g.production("params_nil", params, []);
    g.rule_direct(p_params_nil, (0, params_sig), [], |_| {
        PVal::Sig(SigList::default())
    });
    let param_prod = |name: &str, ty: Ty, by_ref: bool, g: &mut GrammarBuilder<PVal>| {
        let p = g.production(name, param, [t_id]);
        g.rule(p, (0, param_sig), [(1, AttrId(0))], move |a| {
            PVal::Sig(SigList::from(ParamSig {
                name: Arc::clone(a[0].str()),
                ty,
                by_ref,
            }))
        });
        p
    };
    let p_param_val_int = param_prod("param_val_int", Ty::Int, false, &mut g);
    let p_param_val_bool = param_prod("param_val_bool", Ty::Bool, false, &mut g);
    let p_param_ref_int = param_prod("param_ref_int", Ty::Int, true, &mut g);
    let p_param_ref_bool = param_prod("param_ref_bool", Ty::Bool, true, &mut g);

    // ---------------------------------------------------------------
    // Statement lists.
    // ---------------------------------------------------------------
    let p_stmts_cons = g.production("stmts_cons", stmts, [stmt, stmts]);
    g.copy_rule(p_stmts_cons, (1, a_stmt.env), (0, a_stmts.env));
    g.copy_rule(p_stmts_cons, (1, a_stmt.level), (0, a_stmts.level));
    g.copy_rule(p_stmts_cons, (2, a_stmts.env), (0, a_stmts.env));
    g.copy_rule(p_stmts_cons, (2, a_stmts.level), (0, a_stmts.level));
    g.rule_with_cost_direct(
        p_stmts_cons,
        (0, a_stmts.code),
        [(1, a_stmt.code), (2, a_stmts.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                b.rope(a[1].code());
            })
        },
        2,
    );
    g.rule_direct(
        p_stmts_cons,
        (0, a_stmts.errs),
        [(1, a_stmt.errs), (2, a_stmts.errs)],
        |a| PVal::errs_concat(&[&a[0], &a[1]]),
    );
    let p_stmts_nil = g.production("stmts_nil", stmts, []);
    g.rule_direct(p_stmts_nil, (0, a_stmts.code), [], |_| no_code());
    g.rule_direct(p_stmts_nil, (0, a_stmts.errs), [], |_| PVal::no_errs());

    // ---------------------------------------------------------------
    // Statements.
    // ---------------------------------------------------------------
    // ID := expr
    let p_assign = g.production("assign", stmt, [t_id, expr]);
    g.copy_rule(p_assign, (2, a_expr.env), (0, a_stmt.env));
    g.copy_rule(p_assign, (2, a_expr.level), (0, a_stmt.level));
    g.rule_with_cost_direct(
        p_assign,
        (0, a_stmt.code),
        [
            (0, a_stmt.env),
            (0, a_stmt.level),
            (1, AttrId(0)),
            (2, a_expr.code),
        ],
        |a| {
            let Some((lvl, off, by_ref, _)) = assign_slot(a[0].env(), a[2].str()) else {
                return no_code();
            };
            code(|b| {
                b.rope(a[3].code());
                cg::var_addr_to_r2(b, lvl, off, by_ref, a[1].int() as u32);
                cg::pop_to(b, "r0");
                b.text("\tmovl r0, (r2)\n");
            })
        },
        3,
    );
    g.rule_direct(
        p_assign,
        (0, a_stmt.errs),
        [
            (0, a_stmt.env),
            (1, AttrId(0)),
            (2, a_expr.ty),
            (2, a_expr.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[3].as_errs().to_vec();
            let name = a[1].str();
            match a[0].env().lookup(name) {
                None => errs.push(format!("assignment to undeclared name {name:?}")),
                Some(e) => match assign_slot(a[0].env(), name) {
                    Some((_, _, _, ty)) => {
                        if !ty.compatible(a[2].ty()) {
                            errs.push(format!(
                                "cannot assign {} to {name:?} of type {ty}",
                                a[2].ty()
                            ));
                        }
                    }
                    None => errs.push(format!("cannot assign to {name:?} ({})", e.describe())),
                },
            }
            PVal::errs(errs)
        },
    );

    // ID [ expr ] := expr
    let p_assign_idx = g.production("assign_idx", stmt, [t_id, expr, expr]);
    for occ in [2usize, 3] {
        g.copy_rule(p_assign_idx, (occ, a_expr.env), (0, a_stmt.env));
        g.copy_rule(p_assign_idx, (occ, a_expr.level), (0, a_stmt.level));
    }
    g.rule_with_cost_direct(
        p_assign_idx,
        (0, a_stmt.code),
        [
            (0, a_stmt.env),
            (0, a_stmt.level),
            (1, AttrId(0)),
            (2, a_expr.code),
            (3, a_expr.code),
        ],
        |a| {
            let Some(Entry::Arr {
                level, offset, lo, ..
            }) = a[0].env().lookup(a[2].str())
            else {
                return no_code();
            };
            code(|b| {
                // Value first, then index, so the index is on top.
                b.rope(a[4].code());
                b.rope(a[3].code());
                cg::arr_base_to_r2(b, *level, *offset, a[1].int() as u32);
                cg::index_fixup(b, *lo);
                cg::pop_to(b, "r0");
                b.text("\tmovl r0, (r2)\n");
            })
        },
        4,
    );
    g.rule_direct(
        p_assign_idx,
        (0, a_stmt.errs),
        [
            (0, a_stmt.env),
            (1, AttrId(0)),
            (2, a_expr.ty),
            (3, a_expr.ty),
            (2, a_expr.errs),
            (3, a_expr.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[4].as_errs().to_vec();
            errs.extend(a[5].as_errs().iter().cloned());
            let name = a[1].str();
            match a[0].env().lookup(name) {
                Some(Entry::Arr { .. }) => {}
                Some(e) => errs.push(format!("{name:?} is {}, not an array", e.describe())),
                None => errs.push(format!("undeclared array {name:?}")),
            }
            cg::expect_int("array index", a[2].ty(), &mut errs);
            cg::expect_int("array element value", a[3].ty(), &mut errs);
            PVal::errs(errs)
        },
    );

    // ID ( args )
    let p_call = g.production("call", stmt, [t_id, args]);
    g.copy_rule(p_call, (2, a_args.env), (0, a_stmt.env));
    g.copy_rule(p_call, (2, a_args.level), (0, a_stmt.level));
    g.rule_direct(
        p_call,
        (2, a_args.sig_rest),
        [(0, a_stmt.env), (1, AttrId(0))],
        |a| match a[0].env().lookup(a[1].str()) {
            Some(Entry::Proc { params, .. }) | Some(Entry::Func { params, .. }) => {
                PVal::Sig(params.clone())
            }
            _ => PVal::Sig(SigList::default()),
        },
    );
    g.rule_with_cost_direct(
        p_call,
        (0, a_stmt.code),
        [
            (0, a_stmt.env),
            (0, a_stmt.level),
            (1, AttrId(0)),
            (2, a_args.code),
            (2, a_args.count),
        ],
        |a| match a[0].env().lookup(a[2].str()) {
            Some(Entry::Proc { label, level, .. }) => code(|b| {
                cg::call(
                    b,
                    a[3].code(),
                    a[4].int() as usize,
                    label,
                    *level,
                    a[1].int() as u32,
                    false,
                )
            }),
            _ => no_code(),
        },
        3,
    );
    g.rule_direct(
        p_call,
        (0, a_stmt.errs),
        [
            (0, a_stmt.env),
            (1, AttrId(0)),
            (2, a_args.count),
            (2, a_args.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[3].as_errs().to_vec();
            let name = a[1].str();
            match a[0].env().lookup(name) {
                Some(Entry::Proc { params, .. }) => {
                    if params.len() as i64 != a[2].int() {
                        errs.push(format!(
                            "procedure {name:?} takes {} arguments, got {}",
                            params.len(),
                            a[2].int()
                        ));
                    }
                }
                Some(Entry::Func { .. }) => {
                    errs.push(format!("function {name:?} used as a procedure"))
                }
                Some(e) => errs.push(format!("{name:?} is {}, not a procedure", e.describe())),
                None => errs.push(format!("call to undeclared procedure {name:?}")),
            }
            PVal::errs(errs)
        },
    );

    // if/while share child wiring.
    let p_if = g.production("if", stmt, [t_uid, expr, stmts]);
    let p_ifelse = g.production("ifelse", stmt, [t_uid, expr, stmts, stmts]);
    let p_while = g.production("while", stmt, [t_uid, expr, stmts]);
    for (p, n_stmts) in [(p_if, 1), (p_ifelse, 2), (p_while, 1)] {
        g.copy_rule(p, (2, a_expr.env), (0, a_stmt.env));
        g.copy_rule(p, (2, a_expr.level), (0, a_stmt.level));
        for i in 0..n_stmts {
            g.copy_rule(p, (3 + i, a_stmts.env), (0, a_stmt.env));
            g.copy_rule(p, (3 + i, a_stmts.level), (0, a_stmt.level));
        }
    }
    g.rule_with_cost_direct(
        p_if,
        (0, a_stmt.code),
        [(1, AttrId(0)), (2, a_expr.code), (3, a_stmts.code)],
        |a| {
            code(|b| {
                let uid = a[0].int();
                b.rope(a[1].code());
                cg::pop_to(b, "r0");
                write!(b, "\ttstl r0\n\tbeql L{uid}x\n");
                b.rope(a[2].code());
                write!(b, "L{uid}x:\n");
            })
        },
        3,
    );
    g.rule_with_cost_direct(
        p_ifelse,
        (0, a_stmt.code),
        [
            (1, AttrId(0)),
            (2, a_expr.code),
            (3, a_stmts.code),
            (4, a_stmts.code),
        ],
        |a| {
            code(|b| {
                let uid = a[0].int();
                b.rope(a[1].code());
                cg::pop_to(b, "r0");
                write!(b, "\ttstl r0\n\tbeql L{uid}e\n");
                b.rope(a[2].code());
                write!(b, "\tbrb L{uid}x\nL{uid}e:\n");
                b.rope(a[3].code());
                write!(b, "L{uid}x:\n");
            })
        },
        3,
    );
    g.rule_with_cost_direct(
        p_while,
        (0, a_stmt.code),
        [(1, AttrId(0)), (2, a_expr.code), (3, a_stmts.code)],
        |a| {
            code(|b| {
                let uid = a[0].int();
                write!(b, "L{uid}t:\n");
                b.rope(a[1].code());
                cg::pop_to(b, "r0");
                write!(b, "\ttstl r0\n\tbeql L{uid}x\n");
                b.rope(a[2].code());
                write!(b, "\tbrb L{uid}t\nL{uid}x:\n");
            })
        },
        3,
    );
    g.rule_direct(
        p_if,
        (0, a_stmt.errs),
        [(2, a_expr.ty), (2, a_expr.errs), (3, a_stmts.errs)],
        |a| {
            let mut errs: Vec<String> = a[1].as_errs().to_vec();
            cg::expect_bool("if condition", a[0].ty(), &mut errs);
            errs.extend(a[2].as_errs().iter().cloned());
            PVal::errs(errs)
        },
    );
    g.rule_direct(
        p_ifelse,
        (0, a_stmt.errs),
        [
            (2, a_expr.ty),
            (2, a_expr.errs),
            (3, a_stmts.errs),
            (4, a_stmts.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[1].as_errs().to_vec();
            cg::expect_bool("if condition", a[0].ty(), &mut errs);
            errs.extend(a[2].as_errs().iter().cloned());
            errs.extend(a[3].as_errs().iter().cloned());
            PVal::errs(errs)
        },
    );
    g.rule_direct(
        p_while,
        (0, a_stmt.errs),
        [(2, a_expr.ty), (2, a_expr.errs), (3, a_stmts.errs)],
        |a| {
            let mut errs: Vec<String> = a[1].as_errs().to_vec();
            cg::expect_bool("while condition", a[0].ty(), &mut errs);
            errs.extend(a[2].as_errs().iter().cloned());
            PVal::errs(errs)
        },
    );

    // write / writeln
    let p_write = g.production("write", stmt, [wargs]);
    let p_writeln = g.production("writeln", stmt, [wargs]);
    for p in [p_write, p_writeln] {
        g.copy_rule(p, (1, a_wargs.env), (0, a_stmt.env));
        g.copy_rule(p, (1, a_wargs.level), (0, a_stmt.level));
        g.copy_rule(p, (0, a_stmt.errs), (1, a_wargs.errs));
    }
    g.copy_rule(p_write, (0, a_stmt.code), (1, a_wargs.code));
    g.rule_with_cost_direct(
        p_writeln,
        (0, a_stmt.code),
        [(1, a_wargs.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                b.text("\twriteln\n");
            })
        },
        2,
    );

    // begin stmts end
    let p_compound = g.production("compound", stmt, [stmts]);
    g.copy_rule(p_compound, (1, a_stmts.env), (0, a_stmt.env));
    g.copy_rule(p_compound, (1, a_stmts.level), (0, a_stmt.level));
    g.copy_rule(p_compound, (0, a_stmt.code), (1, a_stmts.code));
    g.copy_rule(p_compound, (0, a_stmt.errs), (1, a_stmts.errs));

    // empty
    let p_empty = g.production("empty", stmt, []);
    g.rule_direct(p_empty, (0, a_stmt.code), [], |_| no_code());
    g.rule_direct(p_empty, (0, a_stmt.errs), [], |_| PVal::no_errs());

    // write-argument lists
    let p_wargs_expr = g.production("wargs_expr", wargs, [expr, wargs]);
    g.copy_rule(p_wargs_expr, (1, a_expr.env), (0, a_wargs.env));
    g.copy_rule(p_wargs_expr, (1, a_expr.level), (0, a_wargs.level));
    g.copy_rule(p_wargs_expr, (2, a_wargs.env), (0, a_wargs.env));
    g.copy_rule(p_wargs_expr, (2, a_wargs.level), (0, a_wargs.level));
    g.rule_with_cost_direct(
        p_wargs_expr,
        (0, a_wargs.code),
        [(1, a_expr.code), (2, a_wargs.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                cg::write_top(b);
                b.rope(a[1].code());
            })
        },
        2,
    );
    g.rule_direct(
        p_wargs_expr,
        (0, a_wargs.errs),
        [(1, a_expr.errs), (2, a_wargs.errs)],
        |a| PVal::errs_concat(&[&a[0], &a[1]]),
    );
    let p_wargs_str = g.production("wargs_str", wargs, [t_str, wargs]);
    g.copy_rule(p_wargs_str, (2, a_wargs.env), (0, a_wargs.env));
    g.copy_rule(p_wargs_str, (2, a_wargs.level), (0, a_wargs.level));
    g.rule_with_cost_direct(
        p_wargs_str,
        (0, a_wargs.code),
        [(1, AttrId(0)), (2, a_wargs.code)],
        |a| {
            code(|b| {
                cg::write_str(b, a[0].str());
                b.rope(a[1].code());
            })
        },
        2,
    );
    g.copy_rule(p_wargs_str, (0, a_wargs.errs), (2, a_wargs.errs));
    let p_wargs_nil = g.production("wargs_nil", wargs, []);
    g.rule_direct(p_wargs_nil, (0, a_wargs.code), [], |_| no_code());
    g.rule_direct(p_wargs_nil, (0, a_wargs.errs), [], |_| PVal::no_errs());

    // actual-argument lists
    let p_args_cons = g.production("args_cons", args, [expr, args]);
    g.copy_rule(p_args_cons, (1, a_expr.env), (0, a_args.env));
    g.copy_rule(p_args_cons, (1, a_expr.level), (0, a_args.level));
    g.copy_rule(p_args_cons, (2, a_args.env), (0, a_args.env));
    g.copy_rule(p_args_cons, (2, a_args.level), (0, a_args.level));
    g.rule_direct(
        p_args_cons,
        (2, a_args.sig_rest),
        [(0, a_args.sig_rest)],
        |a| PVal::Sig(SigList::from(a[0].sig().get(1..).unwrap_or_default())),
    );
    g.rule_direct(p_args_cons, (0, a_args.count), [(2, a_args.count)], |a| {
        PVal::Int(a[0].int() + 1)
    });
    g.rule_with_cost_direct(
        p_args_cons,
        (0, a_args.code),
        [
            (0, a_args.sig_rest),
            (1, a_expr.code),
            (1, a_expr.addr),
            (2, a_args.code),
        ],
        |a| {
            let by_ref = a[0].sig().first().is_some_and(|p| p.by_ref);
            let arg = match &a[2] {
                PVal::Code(addr) if by_ref => addr,
                _ => a[1].code(), // a by-ref non-variable is reported separately
            };
            code(|b| {
                b.rope(arg);
                b.rope(a[3].code());
            })
        },
        2,
    );
    g.rule_direct(
        p_args_cons,
        (0, a_args.errs),
        [
            (0, a_args.sig_rest),
            (1, a_expr.ty),
            (1, a_expr.addr),
            (1, a_expr.errs),
            (2, a_args.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[3].as_errs().to_vec();
            if let Some(p) = a[0].sig().first() {
                if !p.ty.compatible(a[1].ty()) {
                    errs.push(format!(
                        "argument for {:?} must be {}, found {}",
                        p.name,
                        p.ty,
                        a[1].ty()
                    ));
                }
                if p.by_ref && matches!(a[2], PVal::Unit) {
                    errs.push(format!("var argument {:?} must be a variable", p.name));
                }
            }
            errs.extend(a[4].as_errs().iter().cloned());
            PVal::errs(errs)
        },
    );
    let p_args_nil = g.production("args_nil", args, []);
    g.rule_direct(p_args_nil, (0, a_args.count), [], |_| PVal::Int(0));
    g.rule_direct(p_args_nil, (0, a_args.code), [], |_| no_code());
    g.rule_direct(p_args_nil, (0, a_args.errs), [], |_| PVal::no_errs());

    // ---------------------------------------------------------------
    // Expressions.
    // ---------------------------------------------------------------
    let no_addr = |g: &mut GrammarBuilder<PVal>, p: ProdId, a: &ExprAttrs| {
        g.rule_direct(p, (0, a.addr), [], |_| PVal::Unit);
    };

    let p_num = g.production("num", expr, [t_num]);
    g.rule_direct(p_num, (0, a_expr.code), [(1, AttrId(0))], |a| {
        code(|b| cg::push_imm(b, a[0].int()))
    });
    no_addr(&mut g, p_num, &a_expr);
    g.rule_direct(p_num, (0, a_expr.ty), [], |_| PVal::Ty(Ty::Int));
    g.rule_direct(p_num, (0, a_expr.errs), [], |_| PVal::no_errs());

    let p_true = g.production("true", expr, []);
    let p_false = g.production("false", expr, []);
    for (p, v) in [(p_true, 1), (p_false, 0)] {
        g.rule(p, (0, a_expr.code), [], move |_| {
            code(|b| cg::push_imm(b, v))
        });
        no_addr(&mut g, p, &a_expr);
        g.rule_direct(p, (0, a_expr.ty), [], |_| PVal::Ty(Ty::Bool));
        g.rule_direct(p, (0, a_expr.errs), [], |_| PVal::no_errs());
    }

    let p_name = g.production("name", expr, [t_id]);
    g.rule_with_cost_direct(
        p_name,
        (0, a_expr.code),
        [(0, a_expr.env), (0, a_expr.level), (1, AttrId(0))],
        |a| {
            let cur = a[1].int() as u32;
            code(|b| match a[0].env().lookup(a[2].str()) {
                Some(Entry::Const(v)) => cg::push_imm(b, *v),
                Some(Entry::Var {
                    level,
                    offset,
                    by_ref,
                    ..
                }) => cg::push_var(b, *level, *offset, *by_ref, cur),
                Some(Entry::Func {
                    label,
                    level,
                    params,
                    ..
                }) if params.is_empty() => cg::call(b, &Rope::new(), 0, label, *level, cur, true),
                _ => {}
            })
        },
        2,
    );
    g.rule_direct(
        p_name,
        (0, a_expr.addr),
        [(0, a_expr.env), (0, a_expr.level), (1, AttrId(0))],
        |a| match a[0].env().lookup(a[2].str()) {
            Some(Entry::Var {
                level,
                offset,
                by_ref,
                ..
            }) => code(|b| {
                cg::var_addr_to_r2(b, *level, *offset, *by_ref, a[1].int() as u32);
                b.text("\tpushl r2\n");
            }),
            _ => PVal::Unit,
        },
    );
    g.rule_direct(
        p_name,
        (0, a_expr.ty),
        [(0, a_expr.env), (1, AttrId(0))],
        |a| {
            PVal::Ty(match a[0].env().lookup(a[1].str()) {
                Some(Entry::Const(_)) => Ty::Int,
                Some(Entry::Var { ty, .. }) => *ty,
                Some(Entry::Func { params, ret, .. }) if params.is_empty() => *ret,
                _ => Ty::Error,
            })
        },
    );
    g.rule_direct(
        p_name,
        (0, a_expr.errs),
        [(0, a_expr.env), (1, AttrId(0))],
        |a| {
            let name = a[1].str();
            match a[0].env().lookup(name) {
                None => PVal::err(format!("undeclared name {name:?}")),
                Some(Entry::Arr { .. }) => PVal::err(format!("array {name:?} used as a value")),
                Some(Entry::Proc { .. }) => {
                    PVal::err(format!("procedure {name:?} used as a value"))
                }
                Some(Entry::Func { params, .. }) if !params.is_empty() => {
                    PVal::err(format!("function {name:?} needs arguments"))
                }
                _ => PVal::no_errs(),
            }
        },
    );

    // ID [ expr ]
    let p_index = g.production("index", expr, [t_id, expr]);
    g.copy_rule(p_index, (2, a_expr.env), (0, a_expr.env));
    g.copy_rule(p_index, (2, a_expr.level), (0, a_expr.level));
    g.rule_with_cost_direct(
        p_index,
        (0, a_expr.code),
        [
            (0, a_expr.env),
            (0, a_expr.level),
            (1, AttrId(0)),
            (2, a_expr.code),
        ],
        |a| {
            let Some(Entry::Arr {
                level, offset, lo, ..
            }) = a[0].env().lookup(a[2].str())
            else {
                return no_code();
            };
            code(|b| {
                b.rope(a[3].code());
                cg::arr_base_to_r2(b, *level, *offset, a[1].int() as u32);
                cg::index_fixup(b, *lo);
                b.text("\tpushl (r2)\n");
            })
        },
        3,
    );
    g.rule_direct(
        p_index,
        (0, a_expr.addr),
        [
            (0, a_expr.env),
            (0, a_expr.level),
            (1, AttrId(0)),
            (2, a_expr.code),
        ],
        |a| {
            let Some(Entry::Arr {
                level, offset, lo, ..
            }) = a[0].env().lookup(a[2].str())
            else {
                return PVal::Unit;
            };
            code(|b| {
                b.rope(a[3].code());
                cg::arr_base_to_r2(b, *level, *offset, a[1].int() as u32);
                cg::index_fixup(b, *lo);
                b.text("\tpushl r2\n");
            })
        },
    );
    g.rule_direct(
        p_index,
        (0, a_expr.ty),
        [(0, a_expr.env), (1, AttrId(0))],
        |a| {
            PVal::Ty(match a[0].env().lookup(a[1].str()) {
                Some(Entry::Arr { .. }) => Ty::Int,
                _ => Ty::Error,
            })
        },
    );
    g.rule_direct(
        p_index,
        (0, a_expr.errs),
        [
            (0, a_expr.env),
            (1, AttrId(0)),
            (2, a_expr.ty),
            (2, a_expr.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[3].as_errs().to_vec();
            let name = a[1].str();
            match a[0].env().lookup(name) {
                Some(Entry::Arr { .. }) => {}
                Some(e) => errs.push(format!("{name:?} is {}, not an array", e.describe())),
                None => errs.push(format!("undeclared array {name:?}")),
            }
            cg::expect_int("array index", a[2].ty(), &mut errs);
            PVal::errs(errs)
        },
    );

    // ID ( args )
    let p_fcall = g.production("fcall", expr, [t_id, args]);
    g.copy_rule(p_fcall, (2, a_args.env), (0, a_expr.env));
    g.copy_rule(p_fcall, (2, a_args.level), (0, a_expr.level));
    g.rule_direct(
        p_fcall,
        (2, a_args.sig_rest),
        [(0, a_expr.env), (1, AttrId(0))],
        |a| match a[0].env().lookup(a[1].str()) {
            Some(Entry::Proc { params, .. }) | Some(Entry::Func { params, .. }) => {
                PVal::Sig(params.clone())
            }
            _ => PVal::Sig(SigList::default()),
        },
    );
    g.rule_with_cost_direct(
        p_fcall,
        (0, a_expr.code),
        [
            (0, a_expr.env),
            (0, a_expr.level),
            (1, AttrId(0)),
            (2, a_args.code),
            (2, a_args.count),
        ],
        |a| match a[0].env().lookup(a[2].str()) {
            Some(Entry::Func { label, level, .. }) => code(|b| {
                cg::call(
                    b,
                    a[3].code(),
                    a[4].int() as usize,
                    label,
                    *level,
                    a[1].int() as u32,
                    true,
                )
            }),
            _ => no_code(),
        },
        3,
    );
    no_addr(&mut g, p_fcall, &a_expr);
    g.rule_direct(
        p_fcall,
        (0, a_expr.ty),
        [(0, a_expr.env), (1, AttrId(0))],
        |a| {
            PVal::Ty(match a[0].env().lookup(a[1].str()) {
                Some(Entry::Func { ret, .. }) => *ret,
                _ => Ty::Error,
            })
        },
    );
    g.rule_direct(
        p_fcall,
        (0, a_expr.errs),
        [
            (0, a_expr.env),
            (1, AttrId(0)),
            (2, a_args.count),
            (2, a_args.errs),
        ],
        |a| {
            let mut errs: Vec<String> = a[3].as_errs().to_vec();
            let name = a[1].str();
            match a[0].env().lookup(name) {
                Some(Entry::Func { params, .. }) => {
                    if params.len() as i64 != a[2].int() {
                        errs.push(format!(
                            "function {name:?} takes {} arguments, got {}",
                            params.len(),
                            a[2].int()
                        ));
                    }
                }
                Some(Entry::Proc { .. }) => {
                    errs.push(format!("procedure {name:?} used in an expression"))
                }
                Some(e) => errs.push(format!("{name:?} is {}, not a function", e.describe())),
                None => errs.push(format!("call to undeclared function {name:?}")),
            }
            PVal::errs(errs)
        },
    );

    // Binary operators. Each gets its own production (as a real AG
    // would); code and typing rules are generated from a table.
    #[derive(Clone, Copy)]
    enum Kind {
        Arith(&'static str),
        Runtime2(&'static str),
        Rel(&'static str),
        Logic(&'static str),
    }
    let table: Vec<(&str, Kind)> = vec![
        ("add", Kind::Arith("addl2")),
        ("sub", Kind::Arith("subl2")),
        ("mul", Kind::Arith("mull2")),
        ("div", Kind::Arith("divl2")),
        ("mod", Kind::Runtime2("__mod")),
        ("and", Kind::Logic("__and")),
        ("or", Kind::Logic("__or")),
        ("eq", Kind::Rel("__eql")),
        ("ne", Kind::Rel("__neq")),
        ("lt", Kind::Rel("__lss")),
        ("le", Kind::Rel("__leq")),
        ("gt", Kind::Rel("__gtr")),
        ("ge", Kind::Rel("__geq")),
    ];
    let mut bin_ids = Vec::new();
    for (name, kind) in table {
        let p = g.production(name, expr, [expr, expr]);
        bin_ids.push(p);
        g.copy_rule(p, (1, a_expr.env), (0, a_expr.env));
        g.copy_rule(p, (1, a_expr.level), (0, a_expr.level));
        g.copy_rule(p, (2, a_expr.env), (0, a_expr.env));
        g.copy_rule(p, (2, a_expr.level), (0, a_expr.level));
        no_addr(&mut g, p, &a_expr);
        let (result_ty, operand) = match kind {
            Kind::Arith(_) | Kind::Runtime2(_) => (Ty::Int, Ty::Int),
            Kind::Rel(_) => (Ty::Bool, Ty::Int),
            Kind::Logic(_) => (Ty::Bool, Ty::Bool),
        };
        let is_eq = matches!(name, "eq" | "ne");
        g.rule_with_cost(
            p,
            (0, a_expr.code),
            [(1, a_expr.code), (2, a_expr.code)],
            move |a| {
                code(|b| {
                    b.rope(a[0].code());
                    b.rope(a[1].code());
                    match kind {
                        Kind::Arith(op) => cg::arith(b, op),
                        Kind::Runtime2(rt) | Kind::Rel(rt) | Kind::Logic(rt) => cg::runtime2(b, rt),
                    }
                })
            },
            2,
        );
        g.rule(p, (0, a_expr.ty), [], move |_| PVal::Ty(result_ty));
        g.rule(
            p,
            (0, a_expr.errs),
            [
                (1, a_expr.ty),
                (2, a_expr.ty),
                (1, a_expr.errs),
                (2, a_expr.errs),
            ],
            move |a| {
                let mut errs: Vec<String> = a[2].as_errs().to_vec();
                errs.extend(a[3].as_errs().iter().cloned());
                let (lt, rt) = (a[0].ty(), a[1].ty());
                if is_eq {
                    if !lt.compatible(rt) {
                        errs.push(format!("cannot compare {lt} with {rt}"));
                    }
                } else {
                    if !lt.compatible(operand) {
                        errs.push(format!("left operand must be {operand}, found {lt}"));
                    }
                    if !rt.compatible(operand) {
                        errs.push(format!("right operand must be {operand}, found {rt}"));
                    }
                }
                PVal::errs(errs)
            },
        );
    }
    let p_add = bin_ids[0];
    let p_sub = bin_ids[1];
    let p_mul = bin_ids[2];
    let p_div = bin_ids[3];
    let p_mod = bin_ids[4];
    let p_and = bin_ids[5];
    let p_or = bin_ids[6];
    let p_eq = bin_ids[7];
    let p_ne = bin_ids[8];
    let p_lt = bin_ids[9];
    let p_le = bin_ids[10];
    let p_gt = bin_ids[11];
    let p_ge = bin_ids[12];

    // Unary.
    let p_neg = g.production("neg", expr, [expr]);
    let p_not = g.production("not", expr, [expr]);
    for p in [p_neg, p_not] {
        g.copy_rule(p, (1, a_expr.env), (0, a_expr.env));
        g.copy_rule(p, (1, a_expr.level), (0, a_expr.level));
        no_addr(&mut g, p, &a_expr);
    }
    g.rule_with_cost_direct(
        p_neg,
        (0, a_expr.code),
        [(1, a_expr.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                cg::negate(b);
            })
        },
        2,
    );
    g.rule_direct(p_neg, (0, a_expr.ty), [], |_| PVal::Ty(Ty::Int));
    g.rule_direct(
        p_neg,
        (0, a_expr.errs),
        [(1, a_expr.ty), (1, a_expr.errs)],
        |a| {
            let mut errs: Vec<String> = a[1].as_errs().to_vec();
            cg::expect_int("negation operand", a[0].ty(), &mut errs);
            PVal::errs(errs)
        },
    );
    g.rule_with_cost_direct(
        p_not,
        (0, a_expr.code),
        [(1, a_expr.code)],
        |a| {
            code(|b| {
                b.rope(a[0].code());
                cg::runtime1(b, "__not");
            })
        },
        2,
    );
    g.rule_direct(p_not, (0, a_expr.ty), [], |_| PVal::Ty(Ty::Bool));
    g.rule_direct(
        p_not,
        (0, a_expr.errs),
        [(1, a_expr.ty), (1, a_expr.errs)],
        |a| {
            let mut errs: Vec<String> = a[1].as_errs().to_vec();
            cg::expect_bool("not operand", a[0].ty(), &mut errs);
            PVal::errs(errs)
        },
    );

    let grammar = Arc::new(g.build(s).expect("pascal grammar is well-formed"));
    PascalGrammar {
        grammar,
        s,
        decls,
        decl,
        params,
        param,
        stmts,
        stmt,
        wargs,
        args,
        expr,
        t_id,
        t_num,
        t_str,
        t_uid,
        t_tyk,
        s_code,
        s_errs,
        a_decls,
        a_decl,
        a_stmts,
        a_stmt,
        a_wargs,
        a_args,
        a_expr,
        params_sig,
        param_sig,
        p_prog,
        p_decls_cons,
        p_decls_nil,
        p_const,
        p_var_int,
        p_var_bool,
        p_var_arr,
        p_proc,
        p_func,
        p_params_cons,
        p_params_nil,
        p_param_val_int,
        p_param_val_bool,
        p_param_ref_int,
        p_param_ref_bool,
        p_stmts_cons,
        p_stmts_nil,
        p_assign,
        p_assign_idx,
        p_call,
        p_if,
        p_ifelse,
        p_while,
        p_write,
        p_writeln,
        p_compound,
        p_empty,
        p_wargs_expr,
        p_wargs_str,
        p_wargs_nil,
        p_args_cons,
        p_args_nil,
        p_num,
        p_true,
        p_false,
        p_name,
        p_index,
        p_fcall,
        p_add,
        p_sub,
        p_mul,
        p_div,
        p_mod,
        p_and,
        p_or,
        p_eq,
        p_ne,
        p_lt,
        p_le,
        p_gt,
        p_ge,
        p_neg,
        p_not,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragram_core::analysis::compute_plans;

    #[test]
    fn grammar_builds_and_is_ordered() {
        let pg = build();
        // Paper scale check: dozens of productions, hundreds of rules.
        assert!(
            pg.grammar.prods().len() >= 50,
            "{}",
            pg.grammar.prods().len()
        );
        assert!(
            pg.grammar.rule_count() >= 180,
            "{}",
            pg.grammar.rule_count()
        );
        // The grammar must be statically evaluable (l-ordered).
        let plans = compute_plans(pg.grammar.as_ref()).expect("pascal grammar is l-ordered");
        // Declarations are two-visit (symbol table, then codegen against
        // the complete scope); statements/expressions stay single-visit.
        for sym in [pg.decls, pg.decl] {
            assert_eq!(
                plans.phases.visit_count(sym),
                2,
                "{:?}",
                pg.grammar.symbol(sym).name
            );
            // env chain in visit 1, code in visit 2.
            assert_eq!(plans.phases.of(sym, pg.a_decls.env_out), 1);
            assert_eq!(plans.phases.of(sym, pg.a_decls.genv), 2);
            assert_eq!(plans.phases.of(sym, pg.a_decls.code), 2);
        }
        for sym in [pg.stmts, pg.stmt, pg.expr, pg.args] {
            assert_eq!(
                plans.phases.visit_count(sym),
                1,
                "{:?}",
                pg.grammar.symbol(sym).name
            );
        }
    }

    #[test]
    fn split_and_priority_annotations_present() {
        let pg = build();
        assert!(pg.grammar.symbol(pg.stmts).split.is_some());
        assert!(pg.grammar.symbol(pg.decl).split.is_some());
        assert!(pg.grammar.symbol(pg.decls).split.is_some());
        let env_in = &pg.grammar.symbol(pg.decls).attrs[pg.a_decls.env_in.0 as usize];
        assert!(env_in.priority, "symbol-table attributes are priority");
    }
}
