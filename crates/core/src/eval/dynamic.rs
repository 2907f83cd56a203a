//! The dynamic evaluator (Figure 1).
//!
//! Builds the dependency graph between all attribute instances of a
//! parse tree — one task per semantic-rule application, one edge per
//! rule argument — topologically sorts it with a ready worklist, and
//! evaluates attributes as they become ready. *Priority attributes*
//! (§4.3) are served from a separate ready lane so globally needed
//! values (the symbol table) are never starved by local work.
//!
//! Any service order of the ready set is confluent — each attribute
//! instance has exactly one defining rule, so every topological order
//! computes the same store; both lanes are FIFO.
//!
//! The graph is written once, here: [`dynamic_eval`] builds it and runs
//! it, and [`super::Incremental`] builds the same graph, keeps it, and
//! records the order the run took as its topological order.

use crate::csr::{Csr, CsrCounter};
use crate::grammar::{ArgScratch, OccRef};
use crate::stats::EvalStats;
use crate::tree::{occ_slot, occ_value, AttrSlots, AttrStore, Child, NodeId, ParseTree};
use crate::value::AttrValue;
use std::collections::VecDeque;

use super::EvalError;

/// Evaluates every attribute instance of `tree` dynamically.
///
/// Returns the filled attribute store and evaluation statistics
/// (instances evaluated, graph size — the costs Figure 1's pipeline
/// pays before any evaluation happens).
///
/// # Errors
///
/// [`EvalError::Cycle`] if the tree's instance graph is cyclic (the
/// grammar was circular for this tree).
pub fn dynamic_eval<V: AttrValue>(
    tree: &ParseTree<V>,
) -> Result<(AttrStore<V>, EvalStats), EvalError> {
    let mut store = AttrStore::new(tree);
    let mut stats = EvalStats::default();
    let mut graph = Graph::build(tree, &store, &mut stats, |_, _, _| {});
    graph.run(tree, &mut store, &mut stats, |_| {})?;
    Ok((store, stats))
}

/// The instance dependency graph of a whole tree.
pub(crate) struct Graph {
    /// One task per rule application: (node, rule index).
    pub(crate) tasks: Vec<(NodeId, usize)>,
    /// Per task: arguments not yet computed.
    missing: Vec<u32>,
    /// Per task: whether its target is a priority attribute.
    is_priority: Vec<bool>,
    /// Instance → the tasks whose arguments read it.
    pub(crate) waiters: Csr,
}

impl Graph {
    /// Builds the graph over `store`'s layout and counts its size into
    /// `stats`. The waiters relation is built in compressed sparse row
    /// form by the classic two-pass counting sort — count, prefix-sum,
    /// fill — so construction performs a constant number of allocations
    /// instead of one `Vec` per attribute instance. A token argument
    /// needs no edge; `token_reader(node, occ, task)` is told of each.
    pub(crate) fn build<V: AttrValue>(
        tree: &ParseTree<V>,
        store: &AttrStore<V>,
        stats: &mut EvalStats,
        mut token_reader: impl FnMut(NodeId, usize, u32),
    ) -> Self {
        let g = tree.grammar();
        let mut tasks: Vec<(NodeId, usize)> = Vec::new();
        let mut missing: Vec<u32> = Vec::new();
        let mut is_priority: Vec<bool> = Vec::new();

        // Pass 1: enumerate tasks, count edges per instance.
        let mut counter = CsrCounter::new(store.len());
        for node in tree.node_ids() {
            let prod = g.prod(tree.node(node).prod);
            for (ri, rule) in prod.rules.iter().enumerate() {
                let tid = tasks.len() as u32;
                tasks.push((node, ri));
                let mut need = 0u32;
                for_each_rule_arg(tree, store, node, ri, |arg, inst| match inst {
                    Some(inst) => {
                        counter.count(inst);
                        need += 1;
                        stats.graph_edges += 1;
                    }
                    None => token_reader(node, arg.occ, tid),
                });
                missing.push(need);
                let (tnode, tattr) = occ_slot(tree, node, rule.target.occ, rule.target.attr);
                let tsym = g.prod(tree.node(tnode).prod).lhs;
                is_priority.push(g.symbol(tsym).attrs[tattr.0 as usize].priority);
            }
        }
        stats.graph_nodes = tasks.len();

        // Pass 2: fill the edge array (same enumeration order via
        // for_each_rule_arg, so each instance's waiter list is in task-id
        // order).
        let mut filler = counter.into_filler();
        for (tid, &(node, ri)) in tasks.iter().enumerate() {
            for_each_rule_arg(tree, store, node, ri, |_, inst| {
                if let Some(inst) = inst {
                    filler.fill(inst, tid as u32);
                }
            });
        }
        Graph {
            tasks,
            missing,
            is_priority,
            waiters: filler.finish(),
        }
    }

    /// Evaluates every task into `store` as it becomes ready, the
    /// priority lane before the FIFO one, and tells `done` of each task
    /// in the order it ran — a topological order of the graph.
    ///
    /// # Errors
    ///
    /// [`EvalError::Cycle`] if some tasks never became ready.
    pub(crate) fn run<V: AttrValue>(
        &mut self,
        tree: &ParseTree<V>,
        store: &mut AttrStore<V>,
        stats: &mut EvalStats,
        mut done: impl FnMut(u32),
    ) -> Result<(), EvalError> {
        let g = tree.grammar();
        let mut ready: VecDeque<u32> = VecDeque::new();
        let mut ready_priority: VecDeque<u32> = VecDeque::new();
        for (tid, &m) in self.missing.iter().enumerate() {
            if m == 0 {
                if self.is_priority[tid] {
                    ready_priority.push_back(tid as u32);
                } else {
                    ready.push_back(tid as u32);
                }
            }
        }

        let mut executed = 0usize;
        let mut scratch = ArgScratch::new();
        while let Some(tid) = ready_priority.pop_front().or_else(|| ready.pop_front()) {
            done(tid);
            let (node, ri) = self.tasks[tid as usize];
            let rule = &g.prod(tree.node(node).prod).rules[ri];
            let value = scratch.apply(rule, |a| {
                occ_value(tree, store, node, a.occ, a.attr)
                    .expect("scheduler readiness guarantees arguments")
            });
            stats.rule_cost_units += rule.cost;
            let (tnode, tattr) = occ_slot(tree, node, rule.target.occ, rule.target.attr);
            store.set(tnode, tattr, value);
            executed += 1;
            let inst = store.instance(tnode, tattr);
            for &w in self.waiters.targets(inst) {
                self.missing[w as usize] -= 1;
                if self.missing[w as usize] == 0 {
                    if self.is_priority[w as usize] {
                        ready_priority.push_back(w);
                    } else {
                        ready.push_back(w);
                    }
                }
            }
        }

        stats.dynamic_applied += executed;
        if executed != self.tasks.len() {
            return Err(EvalError::Cycle {
                stuck: self.tasks.len() - executed,
            });
        }
        Ok(())
    }
}

/// Instance index of a rule-argument occurrence, or `None` for token
/// occurrences (always available, no graph edge needed). Generic over
/// the store so machine construction resolves region-local indices.
pub(crate) fn arg_instance<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    store: &S,
    node: NodeId,
    arg: OccRef,
) -> Option<usize> {
    if arg.occ == 0 {
        Some(store.instance(node, arg.attr))
    } else {
        match tree.children(node)[arg.occ - 1] {
            Child::Node(c) => Some(store.instance(c, arg.attr)),
            Child::Token(_) => None,
        }
    }
}

/// Enumerates the arguments of rule `ri` at `node` with their resolved
/// instance indices (`None` for token arguments).
///
/// The count pass and the fill pass of [`Graph::build`] must visit
/// identical edges in identical order, so both call this — divergence
/// is impossible by construction.
fn for_each_rule_arg<V: AttrValue>(
    tree: &ParseTree<V>,
    store: &AttrStore<V>,
    node: NodeId,
    ri: usize,
    mut f: impl FnMut(OccRef, Option<usize>),
) {
    let rule = &tree.grammar().prod(tree.node(node).prod).rules[ri];
    for arg in &rule.args {
        f(*arg, arg_instance(tree, store, node, *arg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;
    use crate::tree::TreeBuilder;
    use std::sync::Arc;

    /// size grammar over a small tree.
    #[test]
    fn evaluates_synthesized_tree() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, []);
        g.rule(leaf, (0, size), [], |_| 1);
        let fork = g.production("fork", t, [t, t]);
        g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1] + 1);
        let gr = Arc::new(g.build(t).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let mut nodes = Vec::new();
        for _ in 0..4 {
            nodes.push(tb.leaf(leaf));
        }
        let a = tb.node(fork, [nodes[0], nodes[1]]);
        let b = tb.node(fork, [nodes[2], nodes[3]]);
        let root = tb.node(fork, [a, b]);
        let tree = tb.finish(root).unwrap();
        let (store, stats) = dynamic_eval(&tree).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&7));
        assert_eq!(stats.dynamic_applied, 7);
        assert_eq!(stats.graph_nodes, 7);
        assert_eq!(stats.graph_edges, 6);
        assert_eq!(stats.dynamic_fraction(), 1.0);
    }

    /// Inherited attributes flow downward.
    #[test]
    fn evaluates_inherited_chain() {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let depth = g.inherited(t, "depth");
        let max = g.synthesized(t, "max");
        let top = g.production("top", s, [t]);
        g.rule(top, (1, depth), [], |_| 1);
        g.rule(top, (0, out), [(1, max)], |a| a[0]);
        let wrap = g.production("wrap", t, [t]);
        g.rule(wrap, (1, depth), [(0, depth)], |a| a[0] + 1);
        g.rule(wrap, (0, max), [(1, max)], |a| a[0]);
        let stop = g.production("stop", t, []);
        g.rule(stop, (0, max), [(0, depth)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let mut n = tb.leaf(stop);
        for _ in 0..5 {
            n = tb.node(wrap, [n]);
        }
        let root = tb.node(top, [n]);
        let tree = tb.finish(root).unwrap();
        let (store, _) = dynamic_eval(&tree).unwrap();
        assert_eq!(store.get(tree.root(), out), Some(&6));
    }

    /// Token attributes participate without graph edges.
    #[test]
    fn token_arguments_are_free() {
        let mut g = GrammarBuilder::<i64>::new();
        let t = g.nonterminal("T");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let size = g.synthesized(t, "size");
        let leaf = g.production("leaf", t, [num]);
        g.rule(leaf, (0, size), [(1, val)], |a| a[0] * 10);
        let gr = Arc::new(g.build(t).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let tok = tb.token([7i64]);
        let root = tb.node_full(leaf, [tok]);
        let tree = tb.finish(root).unwrap();
        let (store, stats) = dynamic_eval(&tree).unwrap();
        assert_eq!(store.get(tree.root(), size), Some(&70));
        assert_eq!(stats.graph_edges, 0);
    }

    /// A circular tree instance is detected, not looped on.
    #[test]
    fn cycle_detected() {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let i = g.inherited(t, "i");
        let o = g.synthesized(t, "o");
        let top = g.production("top", s, [t]);
        g.rule(top, (1, i), [(1, o)], |a| a[0]);
        g.rule(top, (0, out), [(1, o)], |a| a[0]);
        let body = g.production("body", t, []);
        g.rule(body, (0, o), [(0, i)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let b = tb.leaf(body);
        let root = tb.node(top, [b]);
        let tree = tb.finish(root).unwrap();
        match dynamic_eval(&tree) {
            Err(EvalError::Cycle { stuck }) => assert_eq!(stuck, 3),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    /// Priority attributes are evaluated before an avalanche of ready
    /// normal work.
    #[test]
    fn priority_attributes_jump_the_queue() {
        use std::sync::Mutex;
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let out = g.synthesized(s, "out");
        let stab = g.synthesized(s, "stab");
        g.mark_priority(s, stab);
        let locals: Vec<_> = (0..4).map(|i| g.synthesized(s, format!("w{i}"))).collect();
        let top = g.production("top", s, []);
        {
            let order = Arc::clone(&order);
            g.rule(top, (0, stab), [], move |_| {
                order.lock().unwrap().push("stab");
                0
            });
        }
        for (i, w) in locals.iter().enumerate() {
            let order = Arc::clone(&order);
            let _ = i;
            g.rule(top, (0, *w), [], move |_| {
                order.lock().unwrap().push("local");
                0
            });
        }
        g.rule(top, (0, out), [], |_| 0);
        let gr = Arc::new(g.build(s).unwrap());
        let mut tb = TreeBuilder::new(&gr);
        let root = tb.leaf(top);
        let tree = tb.finish(root).unwrap();
        dynamic_eval(&tree).unwrap();
        let order = order.lock().unwrap();
        assert_eq!(
            order[0], "stab",
            "priority attribute must be evaluated first, got {order:?}"
        );
    }
}
