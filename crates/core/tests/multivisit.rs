//! Integration test: a three-visit grammar (two syn→inh round trips)
//! through analysis, all sequential evaluators, and the parallel
//! machines — the deepest visit structure the Pascal grammar doesn't
//! exercise.

use paragram_core::analysis::compute_plans;
use paragram_core::eval::{dynamic_eval, static_eval, EvalPlan};
use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder};
use paragram_core::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
use paragram_core::tree::{ParseTree, TreeBuilder};
use std::sync::Arc;

/// Three waves over a list: count items (syn), broadcast the count
/// (inh), collect per-item products (syn), broadcast *that* sum (inh),
/// emit final per-item result (syn). Forces phases 1..3 on the list
/// symbol.
struct Lang {
    grammar: Arc<Grammar<i64>>,
    l: paragram_core::grammar::SymbolId,
    cons: paragram_core::grammar::ProdId,
    nil: paragram_core::grammar::ProdId,
    top: paragram_core::grammar::ProdId,
    out: AttrId,
    count: AttrId,
    bcast1: AttrId,
    mid: AttrId,
    bcast2: AttrId,
    fin: AttrId,
}

fn lang() -> Lang {
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("L");
    let out = g.synthesized(s, "out");
    let count = g.synthesized(l, "count");
    let bcast1 = g.inherited(l, "bcast1");
    let mid = g.synthesized(l, "mid");
    let bcast2 = g.inherited(l, "bcast2");
    let fin = g.synthesized(l, "fin");
    g.mark_split(l, 2);

    let top = g.production("top", s, [l]);
    g.rule(top, (1, bcast1), [(1, count)], |a| a[0] * 10);
    g.rule(top, (1, bcast2), [(1, mid)], |a| a[0] + 1);
    g.rule(top, (0, out), [(1, fin)], |a| a[0]);

    let cons = g.production("cons", l, [l]);
    g.rule(cons, (0, count), [(1, count)], |a| a[0] + 1);
    g.rule(cons, (1, bcast1), [(0, bcast1)], |a| a[0]);
    g.rule(cons, (0, mid), [(1, mid), (0, bcast1)], |a| {
        a[0].wrapping_add(a[1])
    });
    g.rule(cons, (1, bcast2), [(0, bcast2)], |a| a[0]);
    // One spine node carries a region's worth of work under the thread
    // pool's hand-off floor, so a pool of `n` workers still cuts these
    // small trees into up to `n` regions instead of leaving them whole.
    // Rule costs feed work estimates (and simulated time), never values.
    g.rule_with_cost(
        cons,
        (0, fin),
        [(1, fin), (0, bcast2)],
        |a| a[0].wrapping_mul(3) ^ a[1],
        MIN_REGION_WORK,
    );

    let nil = g.production("nil", l, []);
    g.rule(nil, (0, count), [], |_| 0);
    g.rule(nil, (0, mid), [(0, bcast1)], |a| a[0] + 7);
    g.rule(nil, (0, fin), [(0, bcast2)], |a| a[0] - 7);

    Lang {
        grammar: Arc::new(g.build(s).unwrap()),
        l,
        cons,
        nil,
        top,
        out,
        count,
        bcast1,
        mid,
        bcast2,
        fin,
    }
}

fn chain(lg: &Lang, n: usize) -> Arc<ParseTree<i64>> {
    let mut tb = TreeBuilder::new(&lg.grammar);
    let mut tail = tb.leaf(lg.nil);
    for _ in 0..n {
        tail = tb.node(lg.cons, [tail]);
    }
    let root = tb.node(lg.top, [tail]);
    Arc::new(tb.finish(root).unwrap())
}

#[test]
fn three_visits_are_inferred() {
    let lg = lang();
    let plans = compute_plans(lg.grammar.as_ref()).unwrap();
    assert_eq!(plans.phases.visit_count(lg.l), 3);
    assert_eq!(plans.phases.of(lg.l, lg.count), 1);
    assert_eq!(plans.phases.of(lg.l, lg.bcast1), 2);
    assert_eq!(plans.phases.of(lg.l, lg.mid), 2);
    assert_eq!(plans.phases.of(lg.l, lg.bcast2), 3);
    assert_eq!(plans.phases.of(lg.l, lg.fin), 3);
    // Each list production therefore has three plan segments.
    assert_eq!(plans.plan(lg.cons).segments.len(), 3);
    assert_eq!(plans.plan(lg.nil).segments.len(), 3);
    let _ = lg.top;
}

#[test]
fn static_matches_dynamic_across_three_visits() {
    let lg = lang();
    let plans = compute_plans(lg.grammar.as_ref()).unwrap();
    for n in [0usize, 1, 2, 7, 40] {
        let tree = chain(&lg, n);
        let (d, dstats) = dynamic_eval(&tree).unwrap();
        let (s, sstats) = static_eval(&tree, &plans).unwrap();
        assert_eq!(dstats.dynamic_applied, sstats.static_applied, "n={n}");
        for node in tree.node_ids() {
            let sym = lg.grammar.prod(tree.node(node).prod).lhs;
            for a in 0..lg.grammar.attr_count(sym) {
                let attr = AttrId(a as u32);
                assert_eq!(d.get(node, attr), s.get(node, attr), "n={n} {node:?}");
            }
        }
    }
}

#[test]
fn parallel_machines_handle_three_visit_boundaries() {
    let lg = lang();
    let plans = Arc::new(compute_plans(lg.grammar.as_ref()).unwrap());
    let plan = Arc::new(EvalPlan::from_parts(&lg.grammar, Some(plans), None));
    let tree = chain(&lg, 30);
    let (d, _) = dynamic_eval(&tree).unwrap();
    for machines in [2usize, 3, 5] {
        let report = WorkerPool::new(&plan, PoolConfig::workers(machines))
            .eval(&tree)
            .unwrap();
        assert_eq!(report.regions, machines, "three-visit boundaries exist");
        assert_eq!(
            report.store.get(tree.root(), lg.out),
            d.get(tree.root(), lg.out),
            "machines={machines}"
        );
        assert_eq!(report.store.filled(), d.filled());
    }
}
