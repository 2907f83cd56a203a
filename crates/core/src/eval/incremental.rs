//! Incremental re-evaluation after token changes.
//!
//! The paper deliberately studies *complete* evaluation first (§5),
//! noting that incremental algorithms "are easily applicable only in
//! the context of a structure editor" and that even such an environment
//! "is likely to require a fast batch evaluator". This module is the
//! other side of that trade-off, built on the same machinery: the
//! batch run is the dynamic evaluator's own dependency graph and run
//! ([`super::dynamic_eval`]), kept with the topological order that run
//! took. An update overlays changed token values and re-evaluates only
//! the affected cone, in that order — with *early cutoff*: if a
//! recomputed value equals the old one, its dependents are not dirtied
//! (Reps-style change propagation).
//!
//! # Examples
//!
//! ```
//! use paragram_core::grammar::GrammarBuilder;
//! use paragram_core::tree::TreeBuilder;
//! use paragram_core::eval::Incremental;
//! use std::sync::Arc;
//!
//! // sum over a list of numbers
//! let mut g = GrammarBuilder::<i64>::new();
//! let l = g.nonterminal("L");
//! let num = g.terminal("num");
//! let val = g.synthesized(num, "val");
//! let sum = g.synthesized(l, "sum");
//! let cons = g.production("cons", l, [num, l]);
//! g.rule(cons, (0, sum), [(1, val), (2, sum)], |a| a[0] + a[1]);
//! let nil = g.production("nil", l, []);
//! g.rule(nil, (0, sum), [], |_| 0);
//! let grammar = Arc::new(g.build(l).unwrap());
//!
//! let mut tb = TreeBuilder::new(&grammar);
//! let mut tail = tb.leaf(nil);
//! let mut first = None;
//! for v in [3i64, 4, 5] {
//!     let tok = tb.token([v]);
//!     let node = tb.node_full(cons, [tok, tail.into()]);
//!     first = Some(node);
//!     tail = node;
//! }
//! let tree = Arc::new(tb.finish(first.unwrap()).unwrap());
//!
//! let mut inc = Incremental::new(&tree).unwrap();
//! assert_eq!(inc.store().get(tree.root(), sum), Some(&12));
//! // Change the root node's "5" to 30: only the instances on the path
//! // to the root are re-evaluated.
//! let changed = inc.update_token(tree.root(), /*occ*/ 1, val, 30).unwrap();
//! assert_eq!(inc.store().get(tree.root(), sum), Some(&37));
//! assert!(changed <= 2);
//! ```

use crate::csr::Csr;
use crate::grammar::{ArgScratch, AttrId};
use crate::stats::EvalStats;
use crate::tree::{occ_slot, AttrStore, Child, NodeId, PackedSlots, ParseTree};
use crate::value::AttrValue;
use std::collections::HashMap;
use std::sync::Arc;

use super::dynamic::Graph;
use super::EvalError;

/// Error from [`Incremental::update_token`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The occurrence is not a token of that node.
    NotAToken {
        /// The node whose occurrence was addressed.
        node: NodeId,
        /// The 1-based occurrence index.
        occ: usize,
    },
    /// The attribute index exceeds the token's lexical values.
    BadAttr(AttrId),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NotAToken { node, occ } => {
                write!(f, "occurrence {occ} of {node:?} is not a token")
            }
            UpdateError::BadAttr(a) => write!(f, "token has no attribute {a:?}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// An incrementally re-evaluable attribution of one tree.
pub struct Incremental<V: AttrValue + PartialEq> {
    tree: Arc<ParseTree<V>>,
    store: AttrStore<V>,
    /// Token overlays: (node, occ) → replacement lexical values,
    /// mirroring [`AttrStore`]'s packed layout (dense values + side
    /// presence bits; unset positions fall through to the tree's own
    /// token values).
    overrides: HashMap<(NodeId, usize), PackedSlots<V>>,
    /// One task per rule application.
    tasks: Vec<(NodeId, usize)>,
    /// Position of each task in the order the batch run executed it
    /// (the priority lane first, then FIFO).
    topo_pos: Vec<u32>,
    /// instance index → tasks whose arguments read it (CSR: one flat
    /// allocation, kept alive for the editor session).
    dependents: Csr,
    /// (node, occ) token → tasks reading any of its values.
    token_dependents: HashMap<(NodeId, usize), Vec<u32>>,
    /// Reusable argument-gathering buffer.
    scratch: ArgScratch<V>,
    /// Cumulative statistics (batch + all updates).
    stats: EvalStats,
}

impl<V: AttrValue + PartialEq> Incremental<V> {
    /// Runs the initial batch evaluation — [`super::dynamic_eval`]'s
    /// graph and run — and retains the graph for later updates.
    ///
    /// # Errors
    ///
    /// [`EvalError::Cycle`] if the tree's instance graph is cyclic.
    pub fn new(tree: &Arc<ParseTree<V>>) -> Result<Self, EvalError> {
        let mut store = AttrStore::new(tree);
        let mut stats = EvalStats::default();
        let mut token_dependents: HashMap<(NodeId, usize), Vec<u32>> = HashMap::new();
        let mut graph = Graph::build(tree, &store, &mut stats, |node, occ, tid| {
            token_dependents.entry((node, occ)).or_default().push(tid)
        });
        let mut topo_pos = vec![0u32; graph.tasks.len()];
        let mut next = 0u32;
        graph.run(tree, &mut store, &mut stats, |tid| {
            topo_pos[tid as usize] = next;
            next += 1;
        })?;
        Ok(Incremental {
            tree: Arc::clone(tree),
            store,
            overrides: HashMap::new(),
            tasks: graph.tasks,
            topo_pos,
            dependents: graph.waiters,
            token_dependents,
            scratch: ArgScratch::new(),
            stats,
        })
    }

    /// The current (fully consistent) attribution.
    pub fn store(&self) -> &AttrStore<V> {
        &self.store
    }

    /// Statistics accumulated over the batch run and all updates.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The current value of a token attribute (override-aware).
    pub fn token_value(&self, node: NodeId, occ: usize, attr: AttrId) -> Option<&V> {
        if let Some(over) = self.overrides.get(&(node, occ)) {
            if let Some(v) = over.get(attr.0 as usize) {
                return Some(v);
            }
        }
        match *self.tree.children(node).get(occ - 1)? {
            Child::Token(span) => self.tree.token(span).get(attr.0 as usize),
            Child::Node(_) => None,
        }
    }

    /// Replaces one lexical value of a token and re-evaluates exactly
    /// the affected attribute instances (with early cutoff). Returns
    /// the number of rule applications performed.
    ///
    /// Dirty tasks re-run in the batch run's order. Any topological
    /// order would serve: each dirty task then runs after every dirty
    /// task it reads, so which tasks re-run, and what they compute, does
    /// not depend on the order chosen.
    ///
    /// # Errors
    ///
    /// [`UpdateError`] if the occurrence is not a token or the
    /// attribute is out of range.
    pub fn update_token(
        &mut self,
        node: NodeId,
        occ: usize,
        attr: AttrId,
        value: V,
    ) -> Result<usize, UpdateError> {
        // Validate and install the override.
        let arity = match self.tree.children(node).get(occ.wrapping_sub(1)) {
            Some(Child::Token(span)) => span.len(),
            _ => return Err(UpdateError::NotAToken { node, occ }),
        };
        if attr.0 as usize >= arity {
            return Err(UpdateError::BadAttr(attr));
        }
        if self.token_value(node, occ, attr) == Some(&value) {
            return Ok(0); // no change at all
        }
        self.overrides
            .entry((node, occ))
            .or_insert_with(|| PackedSlots::new(arity))
            .set(attr.0 as usize, value);

        // Seed the dirty set with the tasks reading this token, then
        // process in topological order with cutoff.
        let mut dirty = vec![false; self.tasks.len()];
        let mut frontier: Vec<u32> = Vec::new();
        if let Some(readers) = self.token_dependents.get(&(node, occ)) {
            for &t in readers {
                if !dirty[t as usize] {
                    dirty[t as usize] = true;
                    frontier.push(t);
                }
            }
        }
        // Min-heap over topo position would be ideal; a sorted pass over
        // the topo order restricted to dirty tasks is simpler and the
        // dirty cone is small.
        let mut applied = 0usize;
        let mut cursor: Vec<u32> = frontier;
        cursor.sort_unstable_by_key(|&t| self.topo_pos[t as usize]);
        let mut i = 0;
        while i < cursor.len() {
            let tid = cursor[i];
            i += 1;
            let (tnode, ri) = self.tasks[tid as usize];
            let rule = &self.tree.grammar().prod(self.tree.node(tnode).prod).rules[ri];
            let new = apply_rule(
                &self.tree,
                &self.store,
                &self.overrides,
                &mut self.scratch,
                tnode,
                ri,
            );
            applied += 1;
            self.stats.rule_cost_units += rule.cost;
            self.stats.dynamic_applied += 1;
            let (sn, sa) = occ_slot(&self.tree, tnode, rule.target.occ, rule.target.attr);
            let inst = self.store.instance(sn, sa);
            if self.store.get(sn, sa) == Some(&new) {
                continue; // early cutoff: value unchanged
            }
            self.store.replace(sn, sa, new);
            for &d in self.dependents.targets(inst) {
                if !dirty[d as usize] {
                    dirty[d as usize] = true;
                    // Insert keeping topo order; the slice after i is
                    // small, linear insertion is fine.
                    let pos = self.topo_pos[d as usize];
                    let at = cursor[i..]
                        .iter()
                        .position(|&x| self.topo_pos[x as usize] > pos)
                        .map(|k| i + k)
                        .unwrap_or(cursor.len());
                    cursor.insert(at, d);
                }
            }
        }
        Ok(applied)
    }
}

/// Applies one rule against the store with token overrides, gathering
/// argument references through the reusable scratch (no clones).
fn apply_rule<V: AttrValue + PartialEq>(
    tree: &ParseTree<V>,
    store: &AttrStore<V>,
    overrides: &HashMap<(NodeId, usize), PackedSlots<V>>,
    scratch: &mut ArgScratch<V>,
    node: NodeId,
    ri: usize,
) -> V {
    let rule = &tree.grammar().prod(tree.node(node).prod).rules[ri];
    scratch.apply(rule, |a| {
        if a.occ > 0 {
            if let Child::Token(span) = tree.children(node)[a.occ - 1] {
                if let Some(v) = overrides
                    .get(&(node, a.occ))
                    .and_then(|over| over.get(a.attr.0 as usize))
                {
                    return v;
                }
                return &tree.token(span)[a.attr.0 as usize];
            }
        }
        crate::tree::occ_value(tree, store, node, a.occ, a.attr)
            .expect("graph order guarantees availability")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::dynamic_eval;
    use crate::grammar::GrammarBuilder;
    use crate::tree::TreeBuilder;

    /// List-sum grammar with an env chain so updates have both up- and
    /// down-stream effects.
    fn fixture(values: &[i64]) -> (Arc<ParseTree<i64>>, AttrId, Vec<NodeId>) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("L");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let out = g.synthesized(s, "out");
        let sum = g.synthesized(l, "sum");
        let scale = g.inherited(l, "scale");
        let code = g.synthesized(l, "code");
        let top = g.production("top", s, [l]);
        g.rule(top, (1, scale), [(1, sum)], |a| a[0] % 10 + 1);
        g.rule(top, (0, out), [(1, code)], |a| a[0]);
        let cons = g.production("cons", l, [num, l]);
        g.rule(cons, (0, sum), [(1, val), (2, sum)], |a| a[0] + a[1]);
        g.rule(cons, (2, scale), [(0, scale)], |a| a[0]);
        g.rule(cons, (0, code), [(1, val), (0, scale), (2, code)], |a| {
            a[0] * a[1] + a[2]
        });
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, sum), [], |_| 0);
        g.rule(nil, (0, code), [], |_| 0);
        let grammar = Arc::new(g.build(s).unwrap());
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        let mut cons_nodes = Vec::new();
        for &v in values.iter().rev() {
            let tok = tb.token([v]);
            let n = tb.node_full(cons, [tok, tail.into()]);
            cons_nodes.push(n);
            tail = n;
        }
        let root = tb.node(top, [tail]);
        let tree = Arc::new(tb.finish(root).unwrap());
        // `node_ids` is arena (creation) order: the deepest cons node
        // (holding the *last* list value) comes first, the topmost
        // (holding the first value) comes last.
        let ids: Vec<NodeId> = tree
            .node_ids()
            .filter(|&n| tree.grammar().prod(tree.node(n).prod).name == "cons")
            .collect();
        let _ = cons_nodes;
        (tree, out, ids)
    }

    #[test]
    fn initial_run_matches_batch_dynamic() {
        let (tree, out, _) = fixture(&[1, 2, 3, 4]);
        let inc = Incremental::new(&tree).unwrap();
        let (batch, _) = dynamic_eval(&tree).unwrap();
        assert_eq!(
            inc.store().get(tree.root(), out),
            batch.get(tree.root(), out)
        );
    }

    #[test]
    fn update_recomputes_and_matches_full_reevaluation() {
        let (tree, out, cons) = fixture(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut inc = Incremental::new(&tree).unwrap();
        // Change the token of some middle cons node.
        let target = cons[3];
        let applied = inc.update_token(target, 1, AttrId(0), 100).unwrap();
        assert!(applied > 0);
        // Full re-evaluation of an equivalent tree must agree: rebuild
        // via a second Incremental with the same override.
        let mut fresh = Incremental::new(&tree).unwrap();
        fresh.update_token(target, 1, AttrId(0), 100).unwrap();
        assert_eq!(
            inc.store().get(tree.root(), out),
            fresh.store().get(tree.root(), out)
        );
        // And differ from the original value.
        let (orig, _) = dynamic_eval(&tree).unwrap();
        assert_ne!(
            inc.store().get(tree.root(), out),
            orig.get(tree.root(), out)
        );
    }

    #[test]
    fn update_touches_a_small_cone() {
        let (tree, _out, cons) = fixture(&(0..200).collect::<Vec<i64>>());
        let mut inc = Incremental::new(&tree).unwrap();
        let total = inc.stats().graph_nodes;
        // A change whose sum stays in the same mod-10 class keeps
        // `scale` unchanged, so the downward half cuts off early. The
        // cone is the sum/code spine above the change only.
        let target = *cons.last().unwrap(); // deepest cons (last in preorder)
        let applied = inc.update_token(target, 1, AttrId(0), 10).unwrap();
        assert!(applied > 0);
        assert!(
            applied * 3 < total,
            "cone {applied} not small vs {total} instances"
        );
    }

    #[test]
    fn unchanged_value_is_a_no_op() {
        let (tree, _out, cons) = fixture(&[5, 6, 7]);
        let mut inc = Incremental::new(&tree).unwrap();
        let before = inc.stats().dynamic_applied;
        // cons[0] is the deepest node (arena order), holding value 7.
        let applied = inc.update_token(cons[0], 1, AttrId(0), 7).unwrap();
        assert_eq!(applied, 0);
        assert_eq!(inc.stats().dynamic_applied, before);
    }

    #[test]
    fn early_cutoff_stops_propagation() {
        let (tree, out, cons) = fixture(&[1, 2, 3, 4]);
        let mut inc = Incremental::new(&tree).unwrap();
        let before = inc.store().get(tree.root(), out).copied();
        // 1 -> 11 changes sum by 10, so `scale = sum % 10 + 1` is
        // unchanged and the inherited half never re-runs; only the
        // sum/code chain above the changed node does.
        let applied = inc.update_token(cons[3], 1, AttrId(0), 11).unwrap();
        // chain: sum at 4 nodes + top.scale? cutoff at scale: applied
        // counts sums (4) + scale (1, cutoff) + codes along chain.
        assert!(applied <= 10, "applied {applied}");
        assert_ne!(inc.store().get(tree.root(), out).copied(), before);
    }

    #[test]
    fn bad_updates_are_rejected() {
        let (tree, _out, cons) = fixture(&[1]);
        let mut inc = Incremental::new(&tree).unwrap();
        assert!(matches!(
            inc.update_token(cons[0], 2, AttrId(0), 9),
            Err(UpdateError::NotAToken { .. })
        ));
        assert!(matches!(
            inc.update_token(cons[0], 1, AttrId(7), 9),
            Err(UpdateError::BadAttr(_))
        ));
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        let (tree, out, cons) = fixture(&[1, 2, 3, 4, 5]);
        let mut inc = Incremental::new(&tree).unwrap();
        for (i, v) in [(0usize, 10i64), (2, 20), (4, 30), (0, 1)] {
            inc.update_token(cons[i], 1, AttrId(0), v).unwrap();
        }
        // Compare against a fresh incremental evaluation with the same
        // final overrides.
        let mut fresh = Incremental::new(&tree).unwrap();
        for (i, v) in [(0usize, 1i64), (2, 20), (4, 30)] {
            fresh.update_token(cons[i], 1, AttrId(0), v).unwrap();
        }
        assert_eq!(
            inc.store().get(tree.root(), out),
            fresh.store().get(tree.root(), out)
        );
    }
}
