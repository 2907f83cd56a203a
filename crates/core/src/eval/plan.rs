//! The plan/instance split: immutable, shareable evaluation artifacts.
//!
//! Everything an evaluator needs that depends only on the *grammar* —
//! visit sequences, attribute partitions, per-rule priority flags,
//! per-symbol synthesized/inherited attribute lists — is computed once
//! into an [`EvalPlan`] and shared (via `Arc`) across every tree, every
//! machine and every worker thread. Per-*tree* state (the attribute
//! store, the task list, the dependency CSR) stays in [`super::Machine`].
//!
//! Before this split, each `Machine::new` re-derived the grammar-level
//! facts by walking the tree: the priority flag of every task's target
//! (one `occ_slot` walk per rule application task) and the syn/inh
//! attribute sets of every boundary symbol (one filtering iteration per
//! node). Under a batched driver compiling thousands of trees those
//! walks dominate construction; [`EvalPlan`] reduces them to table
//! lookups.
//!
//! [`MachineScratch`] is the complementary *reusable* state: buffers a
//! machine needs during construction and evaluation (the CSR pair list,
//! the spine walk's buffers, the [`super::EvalScratch`] argument
//! gatherer and interpreter frame stacks) whose capacity should survive
//! from one tree to the next. A pool worker
//! keeps one scratch alive across its whole lifetime:
//!
//! ```text
//! loop {
//!     let machine = Machine::from_plan(&plan, &tree, .., scratch);
//!     ... evaluate ...
//!     let (store, scratch2) = machine.recycle();
//!     scratch = scratch2;        // capacity carries over to the next tree
//! }
//! ```

use crate::analysis::{compute_plans, OagError, Plans};
use crate::grammar::{AttrId, AttrKind, Grammar};
use crate::split::{Decomposition, WorkTable};
use crate::tree::{NodeId, ParseTree};
use crate::value::AttrValue;
use std::fmt;
use std::sync::Arc;

use super::program::VisitPrograms;
use super::{EvalScratch, MachineMode};

/// Immutable grammar-level evaluation artifacts, computed once and
/// shared across all compilations of the same grammar.
pub struct EvalPlan<V: AttrValue> {
    grammar: Arc<Grammar<V>>,
    plans: Option<Arc<Plans>>,
    /// The plans compiled into flat opcode streams (see
    /// [`super::program`]) — present exactly when `plans` is.
    programs: Option<Arc<VisitPrograms<V>>>,
    ordered_failure: Option<OagError>,
    /// `rule_priority[prod][rule]`: the rule's target attribute is a
    /// priority attribute (grammar-level fact; needs no tree).
    rule_priority: Vec<Vec<bool>>,
    /// `syn_attrs[symbol]` — synthesized attribute ids, in order.
    syn_attrs: Vec<Vec<AttrId>>,
    /// `inh_attrs[symbol]` — inherited attribute ids, in order.
    inh_attrs: Vec<Vec<AttrId>>,
    /// Per-production work estimates (Σ rule costs) — what the adaptive
    /// decomposition sizes its regions with.
    work: WorkTable,
}

impl<V: AttrValue> EvalPlan<V> {
    /// Runs the full grammar analysis and builds all lookup tables.
    ///
    /// This is the expensive entry point (Kastens' fixpoint + visit
    /// sequence scheduling); batch drivers call it once per grammar.
    pub fn analyze(grammar: &Arc<Grammar<V>>) -> Self {
        match compute_plans(grammar.as_ref()) {
            Ok(p) => Self::from_parts(grammar, Some(Arc::new(p)), None),
            Err(e) => Self::from_parts(grammar, None, Some(e)),
        }
    }

    /// Assembles a plan from an already-computed analysis (cheap: only
    /// the lookup tables are built).
    pub fn from_parts(
        grammar: &Arc<Grammar<V>>,
        plans: Option<Arc<Plans>>,
        ordered_failure: Option<OagError>,
    ) -> Self {
        let rule_priority = grammar
            .prods()
            .iter()
            .map(|p| {
                p.rules
                    .iter()
                    .map(|r| {
                        let sym = p.occ_symbol(r.target.occ);
                        grammar.symbol(sym).attrs[r.target.attr.0 as usize].priority
                    })
                    .collect()
            })
            .collect();
        let syn_attrs = grammar
            .symbols()
            .iter()
            .map(|s| s.attrs_of_kind(AttrKind::Syn).collect())
            .collect();
        let inh_attrs = grammar
            .symbols()
            .iter()
            .map(|s| s.attrs_of_kind(AttrKind::Inh).collect())
            .collect();
        let programs = plans
            .as_ref()
            .map(|p| Arc::new(VisitPrograms::build(grammar.as_ref(), p)));
        EvalPlan {
            grammar: Arc::clone(grammar),
            plans,
            programs,
            ordered_failure,
            rule_priority,
            syn_attrs,
            inh_attrs,
            work: WorkTable::new(grammar.as_ref()),
        }
    }

    /// The grammar this plan was computed from.
    pub fn grammar(&self) -> &Arc<Grammar<V>> {
        &self.grammar
    }

    /// The static visit sequences, when the grammar is l-ordered.
    pub fn plans(&self) -> Option<&Arc<Plans>> {
        self.plans.as_ref()
    }

    /// The compiled visit programs — the flattened, devirtualized form
    /// of [`EvalPlan::plans`]; present exactly when plans are.
    pub fn programs(&self) -> Option<&Arc<VisitPrograms<V>>> {
        self.programs.as_ref()
    }

    /// Why static ordering failed, if it did.
    pub fn ordered_failure(&self) -> Option<&OagError> {
        self.ordered_failure.as_ref()
    }

    /// The best machine mode this plan supports: combined when ordered,
    /// dynamic otherwise.
    pub fn best_mode(&self) -> MachineMode {
        if self.plans.is_some() {
            MachineMode::Combined
        } else {
            MachineMode::Dynamic
        }
    }

    /// Whether `rule` of `prod` defines a priority attribute.
    #[inline]
    pub fn rule_priority(&self, prod: crate::grammar::ProdId, rule: usize) -> bool {
        self.rule_priority[prod.0 as usize][rule]
    }

    /// Synthesized attribute ids of a symbol.
    #[inline]
    pub fn syn_attrs(&self, sym: crate::grammar::SymbolId) -> &[AttrId] {
        &self.syn_attrs[sym.0 as usize]
    }

    /// Inherited attribute ids of a symbol.
    #[inline]
    pub fn inh_attrs(&self, sym: crate::grammar::SymbolId) -> &[AttrId] {
        &self.inh_attrs[sym.0 as usize]
    }

    /// The per-production work-estimate table (for cost-driven
    /// decomposition).
    pub fn work_table(&self) -> &WorkTable {
        &self.work
    }

    /// Estimated work (rule-cost units) of one application of `prod`.
    #[inline]
    pub fn prod_work(&self, prod: crate::grammar::ProdId) -> u64 {
        self.work.prod_work(prod)
    }

    /// Estimated total work of a tree under this plan's grammar.
    pub fn tree_work(&self, tree: &ParseTree<V>) -> u64 {
        self.work.tree_work(tree)
    }

    /// Estimated work of every region of a decomposition, indexed by
    /// region, in one pass over the tree.
    pub fn region_works(&self, tree: &ParseTree<V>, decomp: &Decomposition) -> Vec<u64> {
        self.work.region_works(tree, decomp)
    }
}

impl<V: AttrValue> fmt::Debug for EvalPlan<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EvalPlan({} prods, {})",
            self.grammar.prods().len(),
            if self.plans.is_some() {
                "ordered"
            } else {
                "dynamic-only"
            }
        )
    }
}

/// Reusable per-worker buffers: construction and evaluation scratch
/// whose capacity carries over from one tree to the next.
pub struct MachineScratch<V> {
    /// Flat `(instance, task)` pair list for the CSR waiters build.
    pub(super) edges: Vec<(u32, u32)>,
    /// The nodes the construction walk visits, in task order: the
    /// spine in combined mode, every region node in dynamic mode.
    pub(super) walk: Vec<NodeId>,
    /// Worklist of the construction walk.
    pub(super) stack: Vec<NodeId>,
    /// Spine membership: the in-region ancestors of the region's
    /// boundary children (combined mode only).
    pub(super) spine: std::collections::HashSet<NodeId>,
    /// Static-subtree roots: the in-region children of spine nodes off
    /// the spine, or the region root when the region has no boundary.
    pub(super) static_roots: Vec<NodeId>,
    /// Evaluation scratch: the argument-gathering buffer plus the
    /// interpreter frame stacks reused across static visits.
    pub(super) eval: EvalScratch<V>,
}

impl<V> Default for MachineScratch<V> {
    fn default() -> Self {
        MachineScratch {
            edges: Vec::new(),
            walk: Vec::new(),
            stack: Vec::new(),
            spine: std::collections::HashSet::new(),
            static_roots: Vec::new(),
            eval: EvalScratch::new(),
        }
    }
}

impl<V> MachineScratch<V> {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluation half of the scratch, for a caller that runs the
    /// visit programs without building a machine (the pool's whole-tree
    /// jobs): the same buffers either way.
    pub fn eval_scratch(&mut self) -> &mut EvalScratch<V> {
        &mut self.eval
    }

    /// Clears contents, keeping capacity.
    pub(super) fn reset(&mut self) {
        self.edges.clear();
        self.walk.clear();
        self.stack.clear();
        self.spine.clear();
        self.static_roots.clear();
    }
}

impl<V> fmt::Debug for MachineScratch<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MachineScratch(edges cap {}, nodes cap {})",
            self.edges.capacity(),
            self.walk.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;

    #[test]
    fn plan_tables_match_grammar_facts() {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let env = g.inherited(t, "env");
        let code = g.synthesized(t, "code");
        g.mark_priority(t, env);
        let top = g.production("top", s, [t]);
        g.rule(top, (1, env), [], |_| 0);
        g.rule(top, (0, out), [(1, code)], |a| a[0]);
        let body = g.production("body", t, []);
        g.rule(body, (0, code), [(0, env)], |a| a[0] + 1);
        let gr = Arc::new(g.build(s).unwrap());
        let plan = EvalPlan::analyze(&gr);

        assert!(plan.plans().is_some());
        assert!(plan.ordered_failure().is_none());
        assert_eq!(plan.best_mode(), MachineMode::Combined);
        // top's rule 0 targets $1.env (priority), rule 1 targets $0.out.
        assert!(plan.rule_priority(top, 0));
        assert!(!plan.rule_priority(top, 1));
        assert!(!plan.rule_priority(body, 0));
        assert_eq!(plan.syn_attrs(s), &[out]);
        assert_eq!(plan.inh_attrs(s), &[] as &[AttrId]);
        assert_eq!(plan.syn_attrs(t), &[code]);
        assert_eq!(plan.inh_attrs(t), &[env]);
    }

    #[test]
    fn from_parts_is_cheap_and_equivalent() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let gr = Arc::new(g.build(t).unwrap());
        let analyzed = EvalPlan::analyze(&gr);
        let assembled = EvalPlan::from_parts(&gr, analyzed.plans().cloned(), None);
        assert_eq!(assembled.best_mode(), MachineMode::Combined);
        assert_eq!(assembled.syn_attrs(t), analyzed.syn_attrs(t));
    }

    #[test]
    fn scratch_reset_keeps_capacity() {
        let mut s: MachineScratch<i64> = MachineScratch::new();
        s.edges.extend([(0, 1), (2, 3)]);
        s.walk.push(NodeId(0));
        let cap = s.edges.capacity();
        s.reset();
        assert!(s.edges.is_empty());
        assert_eq!(s.edges.capacity(), cap);
    }
}
