//! The paper's §4.1 caveat end to end: grammars the static method
//! cannot order still evaluate — sequentially and in parallel — through
//! the purely dynamic path, with no plans at all.

use paragram::core::eval::{dynamic_eval, EvalPlan, Evaluators, MachineMode, Strategy};
use paragram::core::grammar::{AttrId, Grammar, GrammarBuilder, ProdId};
use paragram::core::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
use paragram::core::parallel::sim::{run_sim, SimConfig};
use paragram::core::tree::{ParseTree, TreeBuilder};
use std::sync::Arc;

/// A noncircular grammar that is *not* statically orderable: two
/// productions of `S` demand opposite inh/syn orderings on `T`, so the
/// induced relation over `T` becomes cyclic even though every concrete
/// tree is acyclic.
struct Fallback {
    grammar: Arc<Grammar<i64>>,
    top1: ProdId,
    top2: ProdId,
    wrap: ProdId,
    body: ProdId,
    list: ProdId,
    lnil: ProdId,
}

fn fallback() -> Fallback {
    let mut g = GrammarBuilder::<i64>::new();
    let s = g.nonterminal("S");
    let l = g.nonterminal("L"); // splittable spine
    let t = g.nonterminal("T");
    let out = g.synthesized(s, "out");
    let lacc = g.synthesized(l, "acc");
    let i1 = g.inherited(t, "i1");
    let i2 = g.inherited(t, "i2");
    let s1 = g.synthesized(t, "s1");
    let s2 = g.synthesized(t, "s2");
    g.mark_split(l, 2);

    // top1 wants s1 before i2; top2 wants s2 before i1.
    let top1 = g.production("top1", s, [t, l]);
    g.rule(top1, (1, i1), [], |_| 1);
    g.rule(top1, (1, i2), [(1, s1)], |a| a[0] + 1);
    g.rule(top1, (0, out), [(1, s2), (2, lacc)], |a| a[0] * 100 + a[1]);
    let top2 = g.production("top2", s, [t, l]);
    g.rule(top2, (1, i2), [], |_| 2);
    g.rule(top2, (1, i1), [(1, s2)], |a| a[0] + 1);
    g.rule(top2, (0, out), [(1, s1), (2, lacc)], |a| a[0] * 100 + a[1]);
    let body = g.production("body", t, []);
    g.rule(body, (0, s1), [(0, i1)], |a| a[0] * 3);
    g.rule(body, (0, s2), [(0, i2)], |a| a[0] * 5);
    // Splittable list to exercise multi-region dynamic machines. Each
    // spine node carries a region's worth of work under the thread
    // pool's hand-off floor, so a pool of `n` workers cuts a list of `n`
    // or more into `n` regions instead of leaving it whole. Rule costs
    // feed work estimates (and simulated time), never values.
    let list = g.production("cons", l, [l]);
    g.rule_with_cost(list, (0, lacc), [(1, lacc)], |a| a[0] + 7, MIN_REGION_WORK);
    let lnil = g.production("nil", l, []);
    g.rule(lnil, (0, lacc), [], |_| 0);

    Fallback {
        grammar: Arc::new(g.build(s).unwrap()),
        top1,
        top2,
        wrap: top1,
        body,
        list,
        lnil,
    }
}

fn tree_with(f: &Fallback, top: ProdId, n: usize) -> Arc<ParseTree<i64>> {
    let mut tb = TreeBuilder::new(&f.grammar);
    let b = tb.leaf(f.body);
    let mut tail = tb.leaf(f.lnil);
    for _ in 0..n {
        tail = tb.node(f.list, [tail]);
    }
    let root = tb.node(top, [b, tail]);
    Arc::new(tb.finish(root).unwrap())
}

#[test]
fn factory_reports_dynamic_only() {
    let f = fallback();
    let ev = Evaluators::new(&f.grammar);
    assert_eq!(ev.strategy(), Strategy::DynamicOnly);
    assert!(ev.ordered_failure().is_some());
    let _ = f.wrap;
}

#[test]
fn both_orderings_evaluate_dynamically() {
    let f = fallback();
    let ev = Evaluators::new(&f.grammar);
    // top1: i1=1, s1=3, i2=4, s2=20 → out = 20*100 + acc.
    let t1 = tree_with(&f, f.top1, 4);
    let (store, _) = ev.eval_sequential(&t1).unwrap();
    assert_eq!(
        store.get(t1.root(), paragram::core::grammar::AttrId(0)),
        Some(&2028)
    );
    // top2: i2=2, s2=10, i1=11, s1=33 → out = 33*100 + acc.
    let t2 = tree_with(&f, f.top2, 2);
    let (store, _) = ev.eval_sequential(&t2).unwrap();
    assert_eq!(
        store.get(t2.root(), paragram::core::grammar::AttrId(0)),
        Some(&3314)
    );
}

#[test]
fn parallel_dynamic_without_plans_matches_sequential() {
    let f = fallback();
    let tree = tree_with(&f, f.top1, 16);
    let (want, _) = dynamic_eval(&tree).unwrap();

    // Simulator, no plans at all.
    let mut cfg = SimConfig::paper(3);
    cfg.mode = MachineMode::Dynamic;
    let report = run_sim(&tree, None, &cfg);
    assert!(report.regions > 1);
    let got = report
        .root_values
        .iter()
        .find(|(a, _)| a.0 == 0)
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(
        Some(&got),
        want.get(tree.root(), paragram::core::grammar::AttrId(0))
    );

    // Threads, no plans: the pool reads dynamic machines off the plan,
    // whether a tree is cut into as many regions as workers, stays
    // whole, or is cut into fewer regions than workers.
    let plan = Arc::new(EvalPlan::analyze(&f.grammar));
    assert!(plan.programs().is_none());
    let mut pool = WorkerPool::new(&plan, PoolConfig::workers(4));
    for (n, regions) in [(16, 4), (1, 1), (2, 2)] {
        let tree = tree_with(&f, f.top1, n);
        let (want, _) = dynamic_eval(&tree).unwrap();
        let r = pool.eval(&tree).unwrap();
        assert_eq!(r.regions, regions, "a list of {n}");
        assert_eq!(r.stats.static_applied, 0, "a list of {n}");
        assert_eq!(
            r.store.get(tree.root(), AttrId(0)),
            want.get(tree.root(), AttrId(0)),
            "a list of {n}"
        );
    }
}
