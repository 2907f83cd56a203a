//! The static (ordered) evaluator (Figures 2–3).
//!
//! Attributes are evaluated in the order fixed at grammar-analysis time:
//! per production, a visit sequence of `Eval`/`Visit` steps (see
//! [`crate::analysis`]). No dependency information is computed or stored
//! at evaluation time — this is exactly why the paper's measurements show
//! static evaluation beating dynamic evaluation sequentially.
//!
//! Two interpreters execute those sequences:
//!
//! * [`run_program_segment`] — the hot path: a compiled
//!   [`VisitPrograms`] opcode stream (see [`super::program`] for the
//!   format) whose inner loop is a match on opcodes with pre-resolved
//!   operands and devirtualized rule dispatch.
//! * [`run_static_segment`] — the reference segment walker over the raw
//!   analysis artifact, kept as the equivalence tests' oracle.
//!
//! Both are iterative (explicit frame stack, reused across calls via
//! [`EvalScratch`]) so deep parse trees — statement lists are a linear
//! chain — cannot overflow the call stack, and both are generic over
//! [`AttrSlots`] so region machines run them against region-local
//! storage.

use crate::analysis::{Plans, Step};
use crate::grammar::ArgScratch;
use crate::stats::EvalStats;
use crate::tree::{occ_slot, occ_value, AttrSlots, AttrStore, NodeId, ParseTree};
use crate::value::AttrValue;

use super::program::{resolve_operand, Op, Operand, RuleCall, VisitPrograms};
use super::EvalError;

/// Reusable evaluation scratch for the segment walkers: the argument
/// gatherer plus both interpreters' frame stacks, so repeated visits
/// amortize every allocation to zero. A machine (or any other caller)
/// keeps one alive across all of its visits.
pub struct EvalScratch<V> {
    /// Argument-gathering buffer for rule applications.
    pub(crate) arg: ArgScratch<V>,
    /// Program-interpreter frames: (node, program counter).
    frames: Vec<(NodeId, u32)>,
    /// Segment-interpreter frames: (node, segment, step index).
    seg_frames: Vec<(NodeId, u32, usize)>,
}

impl<V> Default for EvalScratch<V> {
    fn default() -> Self {
        EvalScratch {
            arg: ArgScratch::new(),
            frames: Vec::new(),
            seg_frames: Vec::new(),
        }
    }
}

impl<V> EvalScratch<V> {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<V> std::fmt::Debug for EvalScratch<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EvalScratch(frames cap {}, seg cap {})",
            self.frames.capacity(),
            self.seg_frames.capacity()
        )
    }
}

/// Evaluates every attribute instance of `tree` using precomputed visit
/// sequences, through the compiled-program path ([`VisitPrograms`] is
/// built here; callers holding an [`super::EvalPlan`] should use
/// [`static_eval_with_programs`] to amortize that build).
///
/// # Errors
///
/// [`EvalError::PlanInconsistency`] if a plan step reads an unavailable
/// instance — impossible for plans produced by
/// [`crate::analysis::compute_plans`] on the same grammar.
pub fn static_eval<V: AttrValue>(
    tree: &ParseTree<V>,
    plans: &Plans,
) -> Result<(AttrStore<V>, EvalStats), EvalError> {
    let programs = VisitPrograms::build(tree.grammar(), plans);
    static_eval_with_programs(tree, plans, &programs)
}

/// [`static_eval`] over an already-compiled program (the form batch
/// drivers and benchmarks use: the programs live in the shared
/// [`super::EvalPlan`]).
///
/// # Errors
///
/// As for [`static_eval`].
pub fn static_eval_with_programs<V: AttrValue>(
    tree: &ParseTree<V>,
    plans: &Plans,
    programs: &VisitPrograms<V>,
) -> Result<(AttrStore<V>, EvalStats), EvalError> {
    static_eval_with_scratch(tree, plans, programs, &mut EvalScratch::new())
}

/// [`static_eval_with_programs`] with the caller's [`EvalScratch`], so a
/// caller that evaluates tree after tree (a pool worker running
/// whole-tree jobs) grows the interpreter's buffers once.
///
/// # Errors
///
/// As for [`static_eval`].
pub fn static_eval_with_scratch<V: AttrValue>(
    tree: &ParseTree<V>,
    plans: &Plans,
    programs: &VisitPrograms<V>,
    scratch: &mut EvalScratch<V>,
) -> Result<(AttrStore<V>, EvalStats), EvalError> {
    let mut store = AttrStore::new(tree);
    let mut stats = EvalStats::default();
    let root_sym = tree.grammar().prod(tree.node(tree.root()).prod).lhs;
    for visit in 1..=plans.phases.visit_count(root_sym) {
        run_program_segment(
            tree,
            programs,
            &mut store,
            tree.root(),
            visit,
            &mut stats,
            scratch,
        )?;
    }
    Ok((store, stats))
}

/// [`static_eval`] through the reference segment interpreter — the
/// pre-compilation walker over the raw analysis artifact. Kept for
/// equivalence testing and benchmark comparison.
///
/// # Errors
///
/// As for [`static_eval`].
pub fn static_eval_segments<V: AttrValue>(
    tree: &ParseTree<V>,
    plans: &Plans,
) -> Result<(AttrStore<V>, EvalStats), EvalError> {
    let mut store = AttrStore::new(tree);
    let mut stats = EvalStats::default();
    let mut scratch = EvalScratch::new();
    let root_sym = tree.grammar().prod(tree.node(tree.root()).prod).lhs;
    for visit in 1..=plans.phases.visit_count(root_sym) {
        run_static_segment(
            tree,
            plans,
            &mut store,
            tree.root(),
            visit,
            &mut stats,
            &mut scratch,
        )?;
    }
    Ok((store, stats))
}

#[cold]
fn inconsistency(node: NodeId, step: String) -> EvalError {
    EvalError::PlanInconsistency { node, step }
}

/// Executes the `visit`-th (1-based) visit of `node` by interpreting the
/// compiled opcode stream: the hot inner loop of the static and combined
/// evaluators. Generic over the store ([`AttrSlots`]) so region machines
/// run the same programs against their region-local storage.
///
/// # Errors
///
/// [`EvalError::PlanInconsistency`] when an opcode's inputs are missing —
/// for the combined evaluator this would mean an inherited attribute of
/// the subtree root was not provided before the visit.
pub fn run_program_segment<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    programs: &VisitPrograms<V>,
    store: &mut S,
    node: NodeId,
    visit: u32,
    stats: &mut EvalStats,
    scratch: &mut EvalScratch<V>,
) -> Result<(), EvalError> {
    let entry = |n: NodeId, v: u32| -> Result<u32, EvalError> {
        programs
            .entry(tree.node(n).prod, v)
            .ok_or_else(|| inconsistency(n, format!("no visit {v} program for node's production")))
    };
    scratch.frames.clear();
    scratch.frames.push((node, entry(node, visit)?));
    while let Some(f) = scratch.frames.last_mut() {
        // Copy out the frame and advance its pc; the borrow of the frame
        // stack ends here so the opcode bodies can push and pop.
        let (n, pc) = {
            let frame = *f;
            f.1 += 1;
            frame
        };
        match programs.op(pc) {
            Op::Eval(rid) => {
                let rule = programs.rule(rid);
                let args = programs.args_of(rule);
                let value = scratch.arg.try_call_gathered(
                    args.len(),
                    |i| {
                        resolve_operand(tree, store, n, args[i]).ok_or_else(|| {
                            inconsistency(
                                n,
                                format!(
                                    "rule {} of {:?} reads unavailable {:?}",
                                    rule.index,
                                    tree.grammar().prod(rule.prod).name,
                                    args[i]
                                ),
                            )
                        })
                    },
                    |a| match &rule.call {
                        RuleCall::Direct(f) => f(a),
                        RuleCall::Boxed(f) => f(a),
                    },
                )?;
                match rule.target {
                    Operand::Lhs(attr) => store.set(n, attr, value),
                    Operand::Node { occ, attr } => {
                        let Some(c) = tree.child_node(n, occ as usize) else {
                            return Err(inconsistency(
                                n,
                                format!("rule target at non-node occurrence {occ}"),
                            ));
                        };
                        store.set(c, attr, value);
                    }
                    Operand::Token { occ, .. } => {
                        return Err(inconsistency(
                            n,
                            format!("rule target at token occurrence {occ}"),
                        ));
                    }
                }
                stats.static_applied += 1;
                stats.rule_cost_units += rule.cost;
            }
            Op::Visit { occ, visit } => {
                let Some(child) = tree.child_node(n, occ as usize) else {
                    return Err(inconsistency(
                        n,
                        format!("visit of non-node occurrence {occ}"),
                    ));
                };
                let pc = entry(child, visit as u32)?;
                scratch.frames.push((child, pc));
            }
            Op::Ret => {
                scratch.frames.pop();
            }
        }
    }
    Ok(())
}

/// Executes the `visit`-th (1-based) visit of `node` by walking the raw
/// plan segments — the reference interpreter [`run_program_segment`] was
/// compiled from. `scratch` is the caller's reusable state, so repeated
/// segments amortize both argument gathering and the traversal stack to
/// zero allocations.
///
/// # Errors
///
/// [`EvalError::PlanInconsistency`] when a step's inputs are missing.
pub fn run_static_segment<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    plans: &Plans,
    store: &mut S,
    node: NodeId,
    visit: u32,
    stats: &mut EvalStats,
    scratch: &mut EvalScratch<V>,
) -> Result<(), EvalError> {
    // Explicit interpreter stack: (node, segment index, program counter).
    scratch.seg_frames.clear();
    scratch.seg_frames.push((node, visit - 1, 0));
    let g = tree.grammar();
    while let Some((n, seg, pc)) = scratch.seg_frames.pop() {
        let prod_id = tree.node(n).prod;
        let plan = plans.plan(prod_id);
        let Some(segment) = plan.segments.get(seg as usize) else {
            return Err(EvalError::PlanInconsistency {
                node: n,
                step: format!("no segment {seg} in plan of {:?}", g.prod(prod_id).name),
            });
        };
        let Some(step) = segment.get(pc) else {
            continue; // segment finished; frame popped
        };
        // Re-push the frame with an advanced pc before possibly pushing
        // a child frame on top.
        scratch.seg_frames.push((n, seg, pc + 1));
        match *step {
            Step::Eval(ri) => {
                let rule = &g.prod(prod_id).rules[ri];
                let value = scratch.arg.try_apply(rule, |a| {
                    occ_value(tree, store, n, a.occ, a.attr).ok_or_else(|| {
                        EvalError::PlanInconsistency {
                            node: n,
                            step: format!(
                                "rule {ri} of {:?} reads unavailable ${}.{:?}",
                                g.prod(prod_id).name,
                                a.occ,
                                a.attr
                            ),
                        }
                    })
                })?;
                let (tn, ta) = occ_slot(tree, n, rule.target.occ, rule.target.attr);
                store.set(tn, ta, value);
                stats.static_applied += 1;
                stats.rule_cost_units += rule.cost;
            }
            Step::Visit { occ, visit } => {
                let Some(child) = tree.child_node(n, occ) else {
                    return Err(EvalError::PlanInconsistency {
                        node: n,
                        step: format!("visit of non-node occurrence {occ}"),
                    });
                };
                scratch.seg_frames.push((child, visit - 1, 0));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::eval::dynamic_eval;
    use crate::grammar::{AttrId, GrammarBuilder};
    use crate::tree::TreeBuilder;
    use std::sync::Arc;

    /// Static evaluation must agree with dynamic evaluation — the central
    /// equivalence invariant — through both interpreters.
    #[test]
    fn agrees_with_dynamic_on_two_pass_grammar() {
        // decls/env/code two-pass grammar over a list tree.
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let done = g.synthesized(s, "done");
        let decls = g.synthesized(l, "decls");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        let top = g.production("top", s, [l]);
        g.rule(top, (1, env), [(1, decls)], |a| a[0] * 100);
        g.rule(top, (0, done), [(1, code)], |a| a[0]);
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (0, decls), [(1, decls)], |a| a[0] + 1);
        g.rule(cons, (1, env), [(0, env)], |a| a[0] + 1);
        g.rule(cons, (0, code), [(1, code), (0, env)], |a| a[0] + a[1]);
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| 0);
        g.rule(nil, (0, code), [(0, env)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let plans = compute_plans(&gr).unwrap();

        let mut tb = TreeBuilder::new(&gr);
        let mut n = tb.leaf(nil);
        for _ in 0..10 {
            n = tb.node(cons, [n]);
        }
        let root = tb.node(top, [n]);
        let tree = tb.finish(root).unwrap();

        let (dyn_store, dyn_stats) = dynamic_eval(&tree).unwrap();
        let (stat_store, stat_stats) = static_eval(&tree, &plans).unwrap();
        let (seg_store, seg_stats) = static_eval_segments(&tree, &plans).unwrap();
        // Same number of rule applications, same values everywhere.
        assert_eq!(dyn_stats.dynamic_applied, stat_stats.static_applied);
        assert_eq!(stat_stats.dynamic_applied, 0);
        assert_eq!(stat_stats.graph_nodes, 0, "static pays no graph cost");
        assert_eq!(seg_stats.static_applied, stat_stats.static_applied);
        assert_eq!(seg_stats.rule_cost_units, stat_stats.rule_cost_units);
        for node in tree.node_ids() {
            let sym = gr.prod(tree.node(node).prod).lhs;
            for a in 0..gr.attr_count(sym) {
                let attr = AttrId(a as u32);
                assert_eq!(
                    dyn_store.get(node, attr),
                    stat_store.get(node, attr),
                    "program mismatch at {node:?} attr {attr:?}"
                );
                assert_eq!(
                    dyn_store.get(node, attr),
                    seg_store.get(node, attr),
                    "segment mismatch at {node:?} attr {attr:?}"
                );
            }
        }
    }

    /// Deep trees do not overflow the stack (iterative interpreters).
    #[test]
    fn deep_tree_no_stack_overflow() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let wrap = g.production("wrap", t, [t]);
        g.rule(wrap, (0, size), [(1, size)], |a| a[0] + 1);
        let stop = g.production("stop", t, []);
        g.rule(stop, (0, size), [], |_| 0);
        let gr = Arc::new(g.build(t).unwrap());
        let plans = compute_plans(&gr).unwrap();
        let mut tb = TreeBuilder::new(&gr);
        let mut n = tb.leaf(stop);
        for _ in 0..200_000 {
            n = tb.node(wrap, [n]);
        }
        let tree = tb.finish(n).unwrap();
        let (store, _) = static_eval(&tree, &plans).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&200_000));
        let (store, _) = static_eval_segments(&tree, &plans).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&200_000));
    }

    /// Tokens are read directly from the tree (pre-classified as
    /// `Operand::Token` in the compiled program).
    #[test]
    fn reads_token_values() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, [num]);
        g.rule(leaf, (0, size), [(1, val)], |a| a[0] + 1);
        let gr = Arc::new(g.build(t).unwrap());
        let plans = compute_plans(&gr).unwrap();
        let mut tb = TreeBuilder::new(&gr);
        let tok = tb.token([41i64]);
        let root = tb.node_full(leaf, [tok]);
        let tree = tb.finish(root).unwrap();
        let (store, _) = static_eval(&tree, &plans).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&42));
    }
}
