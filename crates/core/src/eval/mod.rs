//! The three evaluators of the paper.
//!
//! * [`dynamic_eval`] — Figure 1: build the instance dependency graph of
//!   the whole tree, topologically sort, evaluate. Handles every
//!   noncircular grammar but pays graph construction in time and space.
//! * [`static_eval`] — Figures 2–3: execute precomputed visit sequences
//!   with zero run-time dependency analysis. Requires an *l-ordered*
//!   grammar (see [`crate::analysis`]).
//! * [`Machine`] — the per-evaluator engine behind the **combined**
//!   evaluator (Figure 4) and both parallel runtimes: dynamic scheduling
//!   for spine nodes, static visit sequences for everything else.
//!
//! [`Evaluators`] bundles the analysis artifacts and picks the best
//! strategy available, falling back to dynamic evaluation for grammars
//! the static method cannot order (the paper's §4.1 caveat).
//!
//! # Compiled visit programs
//!
//! The static and combined evaluators do not interpret the analysis
//! artifact ([`crate::analysis::Plans`]) step by step. At [`EvalPlan`]
//! build time every production's plan segments are flattened into one
//! grammar-wide **visit program** ([`VisitPrograms`]):
//!
//! * **Opcode layout** — a single flat `Vec` of [`Op`]s:
//!   `Op::Eval(rule)` applies a compiled rule, `Op::Visit { occ, visit }`
//!   descends into a child's program, and `Op::Ret` terminates a
//!   segment. An interpreter frame is a bare `(node, pc)` pair.
//! * **Offset tables** — per-(production, visit) entry points: a dense
//!   `prod_base` table indexes a dense `entries` table mapping each
//!   (production, visit) pair to its first opcode. Child productions are
//!   tree data, so `Op::Visit` re-resolves through the same table at run
//!   time; all other operands (targets, arguments, costs) are resolved
//!   at build time into a shared operand slab.
//! * **Direct-call table contract** — a rule registered with a plain
//!   `fn` pointer ([`crate::grammar::GrammarBuilder::rule_direct`], the
//!   spec layer's named-function registry, or `copy_rule`) is dispatched
//!   without `Arc<dyn Fn>` indirection; any rule the registry cannot
//!   name falls back to its boxed closure. Both paths must compute the
//!   identical value — the direct pointer *is* the registered function,
//!   and the equivalence property suite pins program, segment and
//!   dynamic evaluation to identical stores.
//!
//! One interpreter runs them (`static_eval.rs`'s `run_segment`, generic
//! over [`crate::tree::AttrSlots`], so region machines execute the same
//! programs over their `RegionStore`s); [`run_static_segment`] remains
//! as the reference segment walker the equivalence tests compare
//! against.

mod dynamic;
mod machine;
mod plan;
mod program;
mod static_eval;

pub use dynamic::dynamic_eval;
pub use machine::{AttrMsg, Machine, MachineMode, SendTarget, StepOutcome};
pub use plan::{EvalPlan, MachineScratch};
pub use program::{Op, VisitPrograms};
pub(crate) use static_eval::{run_segment, static_eval_with_points};
pub use static_eval::{
    run_static_segment, static_eval, static_eval_segments, static_eval_with_programs, EvalScratch,
};

use crate::analysis::{OagError, Plans};
use crate::grammar::Grammar;
use crate::stats::EvalStats;
use crate::tree::{AttrStore, NodeId, ParseTree};
use crate::value::AttrValue;
use std::fmt;
use std::sync::Arc;

/// Errors reported by evaluators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The instance dependency graph of this tree has a cycle; `stuck`
    /// instances could not be evaluated.
    Cycle {
        /// Number of attribute instances left unevaluated.
        stuck: usize,
    },
    /// A static plan referenced an attribute instance that was not yet
    /// available — an internal inconsistency between analysis and
    /// evaluation.
    PlanInconsistency {
        /// Node where evaluation failed.
        node: NodeId,
        /// Description of the failing step.
        step: String,
    },
    /// The machine engine finished but external inputs never arrived.
    MissingInputs {
        /// Number of external instances still missing.
        missing: usize,
    },
    /// A semantic rule panicked during evaluation. The parallel pool
    /// contains the unwind ([`std::panic::catch_unwind`]) so a buggy
    /// rule fails only its own ticket instead of the whole pool.
    RulePanic {
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Cycle { stuck } => {
                write!(
                    f,
                    "attribute dependency cycle: {stuck} instances unevaluated"
                )
            }
            EvalError::PlanInconsistency { node, step } => {
                write!(f, "static plan inconsistency at {node:?}: {step}")
            }
            EvalError::MissingInputs { missing } => {
                write!(f, "{missing} external attribute values never arrived")
            }
            EvalError::RulePanic { message } => {
                write!(f, "semantic rule panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Strategy actually used by [`Evaluators`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Static plans are available; sequential evaluation is static and
    /// parallel evaluation is combined.
    Ordered,
    /// The grammar is not l-ordered; everything falls back to dynamic.
    DynamicOnly,
}

/// Precomputed evaluation artifacts for one grammar: the evaluator
/// factory the "compiler generator" (§2.5) emits.
///
/// Internally this is a thin handle over a shared [`EvalPlan`]; batch
/// drivers take the plan directly (via [`Evaluators::plan`]) and reuse
/// it across every compilation.
pub struct Evaluators<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
}

impl<V: AttrValue> Evaluators<V> {
    /// Analyses `grammar`, computing visit sequences when possible.
    pub fn new(grammar: &Arc<Grammar<V>>) -> Self {
        Evaluators {
            plan: Arc::new(EvalPlan::analyze(grammar)),
        }
    }

    /// The grammar being evaluated.
    pub fn grammar(&self) -> &Arc<Grammar<V>> {
        self.plan.grammar()
    }

    /// The shared, immutable evaluation plan (grammar analysis + visit
    /// sequences + lookup tables), reusable across trees and threads.
    pub fn plan(&self) -> &Arc<EvalPlan<V>> {
        &self.plan
    }

    /// Which strategy is available.
    pub fn strategy(&self) -> Strategy {
        if self.plan.plans().is_some() {
            Strategy::Ordered
        } else {
            Strategy::DynamicOnly
        }
    }

    /// Why static ordering failed, if it did.
    pub fn ordered_failure(&self) -> Option<&OagError> {
        self.plan.ordered_failure()
    }

    /// The static plans, when the grammar is l-ordered.
    pub fn plans(&self) -> Option<&Arc<Plans>> {
        self.plan.plans()
    }

    /// Sequential evaluation with the best available method: static when
    /// ordered, dynamic otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the chosen evaluator.
    pub fn eval_sequential(
        &self,
        tree: &ParseTree<V>,
    ) -> Result<(AttrStore<V>, EvalStats), EvalError> {
        match (self.plan.plans(), self.plan.programs()) {
            // The programs were compiled when the plan was built; run
            // them directly instead of re-flattening per tree.
            (Some(p), Some(programs)) => static_eval_with_programs(tree, p, programs),
            _ => dynamic_eval(tree),
        }
    }
}

impl<V: AttrValue> fmt::Debug for Evaluators<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Evaluators({:?})", self.strategy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;
    use crate::tree::TreeBuilder;

    #[test]
    fn factory_picks_static_for_ordered_grammar() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let gr = Arc::new(g.build(t).unwrap());
        let ev = Evaluators::new(&gr);
        assert_eq!(ev.strategy(), Strategy::Ordered);
        assert!(ev.ordered_failure().is_none());

        let mut tb = TreeBuilder::new(&gr);
        let root = tb.leaf(leaf);
        let tree = tb.finish(root).unwrap();
        let (store, stats) = ev.eval_sequential(&tree).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&1));
        assert_eq!(stats.static_applied, 1);
        assert_eq!(stats.dynamic_applied, 0);
    }

    #[test]
    fn factory_falls_back_to_dynamic_for_circular_looking_grammar() {
        // i <- o and o <- i across two productions is truly circular, so
        // even dynamic fails on a real tree. Instead use a grammar that
        // is noncircular but NOT l-ordered: the classic alternation
        // where one production wants i1 before s1 and another wants the
        // reverse; IDS forces conflicting phases. Easiest concrete case:
        // two inherited/synthesized pairs used in opposite orders.
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let i1 = g.inherited(t, "i1");
        let i2 = g.inherited(t, "i2");
        let s1 = g.synthesized(t, "s1");
        let s2 = g.synthesized(t, "s2");
        // top1: i2 depends on s1 (s1 before i2)
        let top1 = g.production("top1", s, [t]);
        g.rule(top1, (1, i1), [], |_| 1);
        g.rule(top1, (1, i2), [(1, s1)], |a| a[0]);
        g.rule(top1, (0, out), [(1, s2)], |a| a[0]);
        // top2: i1 depends on s2 (s2 before i1)
        let top2 = g.production("top2", s, [t]);
        g.rule(top2, (1, i2), [], |_| 2);
        g.rule(top2, (1, i1), [(1, s2)], |a| a[0]);
        g.rule(top2, (0, out), [(1, s1)], |a| a[0]);
        // body: s1 <- i1, s2 <- i2
        let body = g.production("body", t, []);
        g.rule(body, (0, s1), [(0, i1)], |a| a[0]);
        g.rule(body, (0, s2), [(0, i2)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let ev = Evaluators::new(&gr);
        // IDS(T) gets s1→i2 (from top1) and s2→i1 (from top2) plus local
        // i1→s1, i2→s2: phases conflict → cyclic or not-ordered; either
        // way the factory must fall back.
        assert_eq!(ev.strategy(), Strategy::DynamicOnly);
        assert!(ev.ordered_failure().is_some());

        // Dynamic evaluation still works on a tree using top1.
        let mut tb = TreeBuilder::new(&gr);
        let b = tb.leaf(body);
        let root = tb.node(top1, [b]);
        let tree = tb.finish(root).unwrap();
        let (store, stats) = ev.eval_sequential(&tree).unwrap();
        assert_eq!(store.get(tree.root(), out), Some(&1));
        assert!(stats.dynamic_applied > 0);
    }
}
