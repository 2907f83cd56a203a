//! Distributed unique-identifier generation (§4.3).
//!
//! Compilers need unique labels. A sequential attribute grammar threads a
//! counter attribute through the whole tree — which, evaluated in
//! parallel, would force "virtually all evaluators to wait for the value
//! of this attribute to be propagated". The paper's fix: the parser hands
//! each evaluator a disjoint *base value*, and labels are generated
//! relative to that base with no communication at all.
//!
//! Here the parser is the single sequential point, so it hands out the
//! ids itself: the Pascal tree builder (`paragram_pascal::agtree`) gives
//! every construct that needs a label a unique-id *token*, and the
//! grammar's label rules read it like any other token value. No
//! evaluator allocates an id at run time. The `ablation_uniqueids` bin
//! compares this with the threaded counter on a small language built
//! both ways. The test below checks that the cross-tree memo, which
//! replays cached subtrees, keeps labels from uid tokens disjoint.

#[cfg(test)]
mod tests {
    use crate::parallel::pool::MIN_REGION_WORK;
    use std::collections::HashSet;

    /// Label safety under cross-tree memoization.
    ///
    /// A cached region replayed into a new tree must not smuggle in
    /// labels that collide with the rest of that tree. The memo design
    /// guarantees this *by construction*: label-producing rules draw
    /// from per-tree unique-id **tokens** (the parser-communicated base
    /// values of §4.3, materialized as token values), never from
    /// run-time allocator state — and token values are part of the
    /// subtree hash, so a cache hit implies the replayed labels are
    /// byte-identical to what a fresh evaluation of *this* subtree
    /// would produce. Disjointness within a tree then follows from the
    /// builder's per-tree uid uniqueness, replay or no replay.
    ///
    /// Two cases: `cons` rules costed at a region's worth of work
    /// ([`MIN_REGION_WORK`]), so the pool cuts both trees into regions
    /// and the shared procedure replays as the memo point that roots a
    /// region machine; and every rule at unit cost, so each tree is
    /// below the hand-off floor and one whole-tree job, and the shared
    /// procedure replays as a memo point inside it.
    ///
    /// The region case pins the memo counters `(hits, misses,
    /// inserts)` after each tree: tree A's one cacheable leaf region,
    /// inside the shared procedure, misses and is installed; tree B's
    /// hits.
    #[test]
    fn memoized_regions_replay_disjoint_labels_across_trees() {
        let (ra, rb, [cold, warm]) = replay_labels_across_trees(MIN_REGION_WORK);
        assert!(ra > 1 && rb > 1, "both trees were split");
        assert_eq!(cold, (0, 1, 1), "tree A");
        assert_eq!(warm, (1, 1, 1), "tree B");
        let (ra, rb, [_, warm]) = replay_labels_across_trees(1);
        assert_eq!((ra, rb), (1, 1), "both trees stayed whole");
        assert!(
            warm.0 >= 1,
            "shared procedure must replay from a memo point"
        );
    }

    /// Evaluates two trees that share a procedure on one pool with the
    /// memo on, `cons` costed at `cons_cost`, under an adaptive budget
    /// of half a tree's work; checks that both trees' labels are
    /// distinct and equal a fresh evaluation's, and returns the region
    /// counts of the two reports and the memo's `(hits, misses,
    /// inserts)` after each.
    fn replay_labels_across_trees(cons_cost: u64) -> (usize, usize, [(u64, u64, u64); 2]) {
        use crate::eval::EvalPlan;
        use crate::grammar::GrammarBuilder;
        use crate::parallel::pool::{PoolConfig, WorkerPool};
        use crate::tree::TreeBuilder;
        use crate::value::Value;
        use std::sync::Arc;

        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let p = g.nonterminal("stmts");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let out = g.synthesized(s, "out");
        let code = g.synthesized(p, "code");
        g.mark_split(p, 4);
        let top = g.production("top", s, [p, p]);
        g.rule(top, (0, out), [(1, code), (2, code)], |a| {
            Value::str(format!(
                "{} {}",
                a[0].as_str().unwrap(),
                a[1].as_str().unwrap()
            ))
        });
        // The labels come from uid tokens — part of the subtree hash —
        // not from a runtime counter.
        let cons = g.production("cons", p, [num, p]);
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, val), (2, code)],
            |a| {
                Value::str(format!(
                    "L{} {}",
                    a[0].as_int().unwrap(),
                    a[1].as_str().unwrap()
                ))
            },
            cons_cost,
        );
        let last = g.production("last", p, [num]);
        g.rule(last, (0, code), [(1, val)], |a| {
            Value::str(format!("L{}", a[0].as_int().unwrap()))
        });
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&grammar));
        let chain = |tb: &mut TreeBuilder<Value>, uids: &[i64]| {
            let tok = tb.token([Value::Int(uids[uids.len() - 1])]);
            let mut tail = tb.node_full(last, [tok]);
            for &u in uids[..uids.len() - 1].iter().rev() {
                let tok = tb.token([Value::Int(u)]);
                tail = tb.node_full(cons, [tok, tail.into()]);
            }
            tail
        };
        let mk = |first: &[i64], second: &[i64]| {
            let mut tb = TreeBuilder::new(&grammar);
            let p1 = chain(&mut tb, first);
            let p2 = chain(&mut tb, second);
            let root = tb.node_full(top, vec![p1.into(), p2.into()]);
            Arc::new(tb.finish(root).unwrap())
        };
        // Tree A and tree B share their second procedure (uids 1..=16);
        // each has a private first one. The shared chain dominates the
        // tree's work, so the decomposition's leaf region falls inside
        // it and tree B replays it from tree A's cached evaluation.
        let shared: Vec<i64> = (1..=16).collect();
        let a = mk(&[101, 102], &shared);
        let b = mk(&[201, 202], &shared);
        // (An explicit budget: without one the only memo point of a
        // tree the pool leaves whole is its root, and the two roots
        // differ.)
        let budget = plan.tree_work(&a) / 2;
        let mut pool = WorkerPool::new(
            &plan,
            PoolConfig::workers(2)
                .with_adaptive_budget(budget)
                .with_memo_capacity(1 << 20),
        );
        let counts = |pool: &WorkerPool<Value>| {
            let c = pool.memo_counters().unwrap();
            (c.hits, c.misses, c.inserts)
        };
        let ra = pool.eval(&a).unwrap();
        let cold = counts(&pool);
        let rb = pool.eval(&b).unwrap();
        let warm = counts(&pool);

        let labels = |r: &crate::parallel::pool::PoolReport<Value>| -> Vec<String> {
            r.root_values
                .iter()
                .find(|(attr, _)| *attr == out)
                .and_then(|(_, v)| v.as_str())
                .unwrap()
                .split(' ')
                .map(str::to_string)
                .collect()
        };
        for (name, r, base) in [("A", &ra, 101i64), ("B", &rb, 201)] {
            let ls = labels(r);
            let distinct: HashSet<&String> = ls.iter().collect();
            assert_eq!(
                distinct.len(),
                ls.len(),
                "tree {name}: labels collide: {ls:?}"
            );
            let want: Vec<String> = [base, base + 1]
                .iter()
                .chain(&shared)
                .map(|u| format!("L{u}"))
                .collect();
            assert_eq!(
                ls, want,
                "tree {name}: replayed labels match fresh evaluation"
            );
        }
        (ra.regions, rb.regions, [cold, warm])
    }
}
