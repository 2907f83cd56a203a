//! What a tree cut into regions costs the pool in attribute slots: each
//! region's store, and nothing on top at retirement.
//!
//! The one test here must stay the only test in this binary:
//! [`debug_allocated_slots`] counts every store built in the process,
//! so a neighbour running on another test thread would show up in the
//! delta. (Debug builds only — the counter reads 0 in release builds.)

use paragram_core::eval::EvalPlan;
use paragram_core::grammar::GrammarBuilder;
use paragram_core::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
use paragram_core::split::{decompose_granular, RegionGranularity, SplitTable};
use paragram_core::tree::{debug_allocated_slots, AttrRead, AttrStore, TreeBuilder};
use std::sync::Arc;

/// Slots allocated while `f` runs.
fn slots<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = debug_allocated_slots();
    let out = f();
    (out, debug_allocated_slots() - before)
}

/// A two-region ticket allocates its regions' stores and nothing more:
/// retirement keeps the stores the workers filled instead of building
/// the tree's `AttrStore` beside them. Reading the root through the
/// report allocates nothing; the first dereference to a whole-tree store
/// allocates the tree's instances once, and a second one nothing.
#[test]
fn a_two_region_ticket_allocates_its_region_stores_and_nothing_more() {
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
    // One region's worth of work per node: two workers cut the chain in
    // two, however short it is.
    g.rule_with_cost(
        cons,
        (0, sum),
        [(1, sum), (0, depth)],
        |a| a[0] + a[1],
        MIN_REGION_WORK,
    );
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
    let sum_to_50 = (0..=50).sum::<i64>();

    // The cut the pool makes: at most two regions, by the same engine.
    let split = SplitTable::new(&grammar, 1.0);
    let decomp = decompose_granular(
        &tree,
        &split,
        plan.work_table(),
        RegionGranularity::Machines(2),
    );
    assert_eq!(decomp.len(), 2);
    let map = decomp.slot_map();
    let region_slots: usize = (0..2).map(|r| map.total_slots(r)).sum();
    assert!(region_slots < 2 * instances);

    let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
    for round in 0..3 {
        let (report, allocated) = slots(|| pool.eval(&tree).unwrap());
        assert_eq!(report.regions, 2, "round {round}");
        let (root_value, read) = slots(|| {
            let generic: &dyn AttrRead<i64> = &report.store;
            (
                report.store.get(tree.root(), out).copied(),
                generic.get(tree.root(), out).copied(),
            )
        });
        assert_eq!(
            root_value,
            (Some(sum_to_50), Some(sum_to_50)),
            "round {round}"
        );
        assert_eq!(report.root_value(out), Some(&sum_to_50), "round {round}");
        let (len, first) = slots(|| {
            let dense: &AttrStore<i64> = &report.store;
            dense.len()
        });
        let (filled, second) = slots(|| report.store.filled());
        assert_eq!((len, filled), (instances, instances), "round {round}");
        if cfg!(debug_assertions) {
            assert_eq!(
                allocated, region_slots,
                "round {round}: the region stores, and no whole-tree store at retirement"
            );
            assert_eq!(read, 0, "round {round}: reads go to the region stores");
            assert_eq!(first, instances, "round {round}: the first dereference");
            assert_eq!(second, 0, "round {round}: the second dereference");
        }
    }
}
