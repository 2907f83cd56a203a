//! Compiled visit programs: the plan segments of a grammar flattened
//! into one contiguous opcode stream.
//!
//! The segment interpreter ([`super::run_static_segment`]) walks the
//! analysis artifact directly: per step it chases
//! `plans.plan(prod).segments[seg][pc]` through two heap indirections,
//! looks the rule up in the production's rule vector, and iterates the
//! rule's own `args: Vec<OccRef>` — paying pointer-chasing and an
//! `Arc<dyn Fn>` virtual call on every rule application. Profiling (PR 3)
//! showed this dispatch cost, not cache locality, dominates the hot loop.
//!
//! [`VisitPrograms`] compiles all of that away at [`super::EvalPlan`]
//! build time:
//!
//! * **Opcode stream** — every segment of every production becomes a run
//!   of [`Op`]s in a single flat `code: Vec<Op>` for the whole grammar,
//!   terminated by [`Op::Ret`]. An interpreter frame is just
//!   `(NodeId, pc)`; no per-step segment lookups remain.
//! * **Offset tables** — `entry(prod, visit)` resolves through two dense
//!   tables: `prod_base[prod]` indexes into `entries`, and
//!   `entries[prod_base[prod] + visit - 1]` is the pc of that
//!   (production, visit) segment. Child visits re-enter through the same
//!   table (the child's production is tree data, so it is resolved at
//!   run time — everything else is resolved here).
//! * **Compiled rules** — [`Op::Eval`] carries an index into a dense
//!   [`CompiledRule`] table with the target and cost inlined and the
//!   argument occurrences pre-classified ([`Operand::Lhs`] /
//!   [`Operand::Node`] / [`Operand::Token`]) into one shared operand
//!   slab, so argument gathering walks contiguous memory instead of each
//!   rule's private `Vec<OccRef>`.
//! * **Direct-call table** — rules registered through
//!   [`crate::grammar::GrammarBuilder::rule_direct`] (or the spec
//!   layer's function registry) carry a plain `fn` pointer; the builder
//!   copies it into [`RuleCall::Direct`] so the interpreter's dispatch
//!   is a two-way match instead of an unconditional `Arc<dyn Fn>`
//!   virtual call. Rules nobody could name fall back to
//!   [`RuleCall::Boxed`] — the two paths are semantically identical
//!   (pinned by the equivalence property suite).
//!
//! Programs are grammar-level artifacts: building one is `O(total plan
//! steps)` and happens once per [`super::EvalPlan`], then every tree,
//! machine and worker thread shares it via `Arc`. The interpreter lives
//! in [`super::static_eval`] (`run_segment`) and is generic over
//! [`AttrSlots`], so region machines execute the same programs over
//! their `RegionStore`s.

use crate::analysis::{Plans, Step};
use crate::grammar::{AttrId, DirectFn, Grammar, OccRef, ProdId, RuleFn};
use crate::tree::{AttrSlots, Child, NodeId, ParseTree};
use crate::value::AttrValue;
use std::fmt;
use std::sync::Arc;

/// One opcode of a compiled visit program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Apply the compiled rule at this index in the program's rule
    /// table.
    Eval(u32),
    /// Descend into the child at RHS occurrence `occ` (1-based),
    /// executing its production's program for `visit` (1-based).
    Visit {
        /// RHS occurrence index, 1-based.
        occ: u16,
        /// Visit number, 1-based.
        visit: u16,
    },
    /// Segment terminator: pop the interpreter frame.
    Ret,
}

/// A pre-classified attribute occurrence: which store (or token) an
/// operand resolves through, decided at program-build time instead of
/// per application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Attribute of the node being visited.
    Lhs(AttrId),
    /// Attribute of a nonterminal child (1-based RHS occurrence).
    Node { occ: u16, attr: AttrId },
    /// Lexical attribute of a terminal child (1-based RHS occurrence).
    Token { occ: u16, attr: AttrId },
}

/// How a compiled rule's semantic function is invoked.
pub(crate) enum RuleCall<V> {
    /// Through the direct-call table: a plain `fn` pointer.
    Direct(DirectFn<V>),
    /// Fallback: the boxed closure of the original [`crate::grammar::Rule`].
    Boxed(RuleFn<V>),
}

/// A rule with everything the interpreter needs inlined: target, operand
/// range, cost and the (possibly devirtualized) call.
pub(crate) struct CompiledRule<V> {
    /// Where the result is stored (never [`Operand::Token`]).
    pub target: Operand,
    /// Operand range in [`VisitPrograms::operands`].
    pub args: (u32, u32),
    /// Abstract cost (mirrors [`crate::grammar::Rule::cost`]).
    pub cost: u64,
    /// Owning production and rule index — for diagnostics only.
    pub prod: ProdId,
    /// Rule index within the production — for diagnostics only.
    pub index: u32,
    /// The semantic function.
    pub call: RuleCall<V>,
}

/// The compiled visit programs of one grammar: a single opcode stream
/// with per-(production, visit) entry points. See the module docs for
/// the layout.
pub struct VisitPrograms<V> {
    code: Vec<Op>,
    operands: Vec<Operand>,
    rules: Vec<CompiledRule<V>>,
    /// `entries[prod_base[p] + visit - 1]` = pc of that segment.
    entries: Vec<u32>,
    /// Per-production offset into `entries`; one trailing sentinel.
    prod_base: Vec<u32>,
    /// How many rules dispatch through the direct-call table.
    direct_rules: usize,
}

impl<V: AttrValue> VisitPrograms<V> {
    /// Flattens `plans` into the compiled program representation.
    pub fn build(grammar: &Grammar<V>, plans: &Plans) -> Self {
        let mut p = VisitPrograms {
            code: Vec::with_capacity(plans.program_len()),
            operands: Vec::new(),
            rules: Vec::new(),
            entries: Vec::with_capacity(plans.segment_count()),
            prod_base: Vec::with_capacity(grammar.prods().len() + 1),
            direct_rules: 0,
        };
        for (pi, prod) in grammar.prods().iter().enumerate() {
            let prod_id = ProdId(pi as u32);
            p.prod_base.push(p.entries.len() as u32);
            let classify = |r: OccRef| -> Operand {
                if r.occ == 0 {
                    Operand::Lhs(r.attr)
                } else if grammar.symbol(prod.occ_symbol(r.occ)).terminal {
                    Operand::Token {
                        occ: r.occ as u16,
                        attr: r.attr,
                    }
                } else {
                    Operand::Node {
                        occ: r.occ as u16,
                        attr: r.attr,
                    }
                }
            };
            for segment in &plans.plan(prod_id).segments {
                p.entries.push(p.code.len() as u32);
                for step in segment {
                    match *step {
                        Step::Eval(ri) => {
                            let rule = &prod.rules[ri];
                            let a0 = p.operands.len() as u32;
                            p.operands.extend(rule.args.iter().map(|&a| classify(a)));
                            let call = match rule.direct {
                                Some(f) => {
                                    p.direct_rules += 1;
                                    RuleCall::Direct(f)
                                }
                                None => RuleCall::Boxed(Arc::clone(&rule.func)),
                            };
                            let rid = p.rules.len() as u32;
                            p.rules.push(CompiledRule {
                                target: classify(rule.target),
                                args: (a0, p.operands.len() as u32),
                                cost: rule.cost,
                                prod: prod_id,
                                index: ri as u32,
                                call,
                            });
                            p.code.push(Op::Eval(rid));
                        }
                        Step::Visit { occ, visit } => {
                            p.code.push(Op::Visit {
                                occ: occ as u16,
                                visit: visit as u16,
                            });
                        }
                    }
                }
                p.code.push(Op::Ret);
            }
        }
        p.prod_base.push(p.entries.len() as u32);
        p
    }

    /// The entry pc of the `visit`-th (1-based) segment of `prod`, or
    /// `None` when the production has no such visit.
    #[inline]
    pub(crate) fn entry(&self, prod: ProdId, visit: u32) -> Option<u32> {
        let base = self.prod_base[prod.0 as usize];
        let idx = base + visit.checked_sub(1)?;
        if idx < self.prod_base[prod.0 as usize + 1] {
            Some(self.entries[idx as usize])
        } else {
            None
        }
    }

    /// The opcode at `pc`.
    #[inline]
    pub(crate) fn op(&self, pc: u32) -> Op {
        self.code[pc as usize]
    }

    /// The compiled rule behind an [`Op::Eval`].
    #[inline]
    pub(crate) fn rule(&self, id: u32) -> &CompiledRule<V> {
        &self.rules[id as usize]
    }

    /// The operand slice of a compiled rule.
    #[inline]
    pub(crate) fn args_of(&self, rule: &CompiledRule<V>) -> &[Operand] {
        &self.operands[rule.args.0 as usize..rule.args.1 as usize]
    }

    /// Total number of opcodes (all segments, all productions).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// How many compiled rules dispatch through the direct-call table
    /// (the rest fall back to the boxed closure).
    pub fn direct_rule_count(&self) -> usize {
        self.direct_rules
    }
}

impl<V> fmt::Debug for VisitPrograms<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VisitPrograms({} ops, {} rules, {} direct)",
            self.code.len(),
            self.rules.len(),
            self.direct_rules
        )
    }
}

/// Resolves an operand to a value reference at `node` — the compiled
/// counterpart of [`crate::tree::occ_value`]. Returns `None` for a slot
/// not yet filled (or a tree/program mismatch, which the caller turns
/// into a [`super::EvalError::PlanInconsistency`]).
#[inline]
pub(crate) fn resolve_operand<'a, V: AttrValue, S: AttrSlots<V>>(
    tree: &'a ParseTree<V>,
    store: &'a S,
    node: NodeId,
    operand: Operand,
) -> Option<&'a V> {
    match operand {
        Operand::Lhs(attr) => store.get(node, attr),
        Operand::Node { occ, attr } => match *tree.children(node).get(occ as usize - 1)? {
            Child::Node(c) => store.get(c, attr),
            Child::Token(_) => None,
        },
        Operand::Token { occ, attr } => match *tree.children(node).get(occ as usize - 1)? {
            Child::Token(span) => tree.token(span).get(attr.0 as usize),
            Child::Node(_) => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::grammar::GrammarBuilder;

    /// A two-pass list grammar with a mix of direct and boxed rules.
    fn sample() -> (Arc<Grammar<i64>>, Plans) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let done = g.synthesized(s, "done");
        let decls = g.synthesized(l, "decls");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        let top = g.production("top", s, [l]);
        g.rule_direct(top, (1, env), [(1, decls)], |a| a[0] * 100);
        g.copy_rule(top, (0, done), (1, code));
        let cons = g.production("cons", l, [l]);
        g.rule_direct(cons, (0, decls), [(1, decls)], |a| a[0] + 1);
        g.rule(cons, (1, env), [(0, env)], |a| a[0] + 1);
        g.rule(cons, (0, code), [(1, code), (0, env)], |a| a[0] + a[1]);
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| 0);
        g.rule_direct(nil, (0, code), [(0, env)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let plans = compute_plans(&gr).unwrap();
        (gr, plans)
    }

    #[test]
    fn flattening_matches_plan_sizes() {
        let (g, plans) = sample();
        let p = VisitPrograms::build(&g, &plans);
        assert_eq!(p.code_len(), plans.program_len());
        // One compiled rule per Step::Eval: every rule of every
        // production is scheduled exactly once.
        let total_rules: usize = g.prods().iter().map(|pr| pr.rules.len()).sum();
        assert_eq!(p.rule_count(), total_rules);
        // rule_direct + copy_rule entries made it into the table.
        assert_eq!(p.direct_rule_count(), 4);
    }

    #[test]
    fn entries_cover_every_segment_and_end_in_ret() {
        let (g, plans) = sample();
        let p = VisitPrograms::build(&g, &plans);
        for (pi, _) in g.prods().iter().enumerate() {
            let prod = ProdId(pi as u32);
            let segs = plans.plan(prod).segments.len();
            for v in 1..=segs as u32 {
                let pc = p.entry(prod, v).expect("segment entry");
                // Walk to the terminator; every segment is Ret-terminated.
                let mut pc = pc;
                loop {
                    match p.op(pc) {
                        Op::Ret => break,
                        _ => pc += 1,
                    }
                }
            }
            assert_eq!(p.entry(prod, segs as u32 + 1), None);
            assert_eq!(p.entry(prod, 0), None);
        }
    }
}
