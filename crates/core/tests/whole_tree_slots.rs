//! What a tree that stays whole costs the pool in attribute slots: the
//! tree's instances, once.
//!
//! The one test here must stay the only test in this binary:
//! [`debug_allocated_slots`] counts every store built in the process,
//! so a neighbour running on another test thread would show up in the
//! delta. (Debug builds only — the counter reads 0 in release builds.)

use paragram_core::eval::EvalPlan;
use paragram_core::grammar::GrammarBuilder;
use paragram_core::parallel::pool::{PoolConfig, WorkerPool};
use paragram_core::tree::{debug_allocated_slots, TreeBuilder};
use std::sync::Arc;

/// A one-region ticket is one whole-tree job: the worker evaluates into
/// the tree's `AttrStore` and retirement adopts that store. One
/// allocation of the tree's instance count — not a region store on the
/// worker plus a whole-tree store at retirement, which is twice that.
#[test]
fn a_one_region_ticket_allocates_the_trees_instances_once() {
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("L");
    let out = g.synthesized(s, "out");
    let depth = g.inherited(l, "depth");
    let sum = g.synthesized(l, "sum");
    g.mark_split(l, 4);
    let top = g.production("top", s, [l]);
    g.rule(top, (1, depth), [], |_| 0);
    g.rule(top, (0, out), [(1, sum)], |a| a[0]);
    let cons = g.production("cons", l, [l]);
    g.rule(cons, (1, depth), [(0, depth)], |a| a[0] + 1);
    g.rule(cons, (0, sum), [(1, sum), (0, depth)], |a| a[0] + a[1]);
    let nil = g.production("nil", l, []);
    g.rule(nil, (0, sum), [(0, depth)], |a| a[0]);
    let grammar = Arc::new(g.build(s).unwrap());
    let plan = Arc::new(EvalPlan::analyze(&grammar));
    let mut tb = TreeBuilder::new(&grammar);
    let mut tail = tb.leaf(nil);
    for _ in 0..50 {
        tail = tb.node(cons, [tail]);
    }
    let root = tb.node(top, [tail]);
    let tree = Arc::new(tb.finish(root).unwrap());
    // One `out`, and `depth` + `sum` at each of the 51 list nodes.
    let instances = 1 + 2 * 51;

    let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
    for round in 0..3 {
        let before = debug_allocated_slots();
        let report = pool.eval(&tree).unwrap();
        let allocated = debug_allocated_slots() - before;
        assert_eq!(report.regions, 1, "a splittable tree below the floor");
        assert_eq!(report.store.len(), instances);
        assert_eq!(report.root_values, vec![(out, (0..=50).sum::<i64>())]);
        if cfg!(debug_assertions) {
            assert_eq!(
                allocated, instances,
                "round {round}: one store, the one that is handed back"
            );
        }
    }
}
