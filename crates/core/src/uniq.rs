//! Distributed unique-identifier generation (§4.3).
//!
//! Compilers need unique labels. A sequential attribute grammar threads a
//! counter attribute through the whole tree — which, evaluated in
//! parallel, would force "virtually all evaluators to wait for the value
//! of this attribute to be propagated". The paper's fix: the parser hands
//! each evaluator a disjoint *base value*, and labels are generated
//! relative to that base with no communication at all.
//!
//! [`IdBase`] is that mechanism. The threaded-counter alternative is kept
//! (in the Pascal grammar's `threaded_labels` variant) for the ablation
//! experiment.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// Number of label values reserved per evaluator.
pub const BLOCK: u32 = 1 << 20;

/// A per-evaluator unique-id allocator: ids are `base * BLOCK + counter`,
/// so ids from different evaluators never collide.
#[derive(Debug)]
pub struct IdBase {
    base: u32,
    next: AtomicU32,
}

impl IdBase {
    /// Creates the allocator for evaluator index `evaluator` (the "unique
    /// value communicated by the parser to each evaluator").
    pub fn new(evaluator: u32) -> Self {
        IdBase {
            base: evaluator,
            next: AtomicU32::new(0),
        }
    }

    /// Allocates the next unique id.
    ///
    /// # Panics
    ///
    /// Panics if an evaluator allocates more than [`BLOCK`] ids — a
    /// single compilation never comes close.
    pub fn fresh(&self) -> UniqueId {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(n < BLOCK, "evaluator exhausted its unique-id block");
        UniqueId(self.base as u64 * BLOCK as u64 + n as u64)
    }

    /// The evaluator index this allocator belongs to.
    pub fn evaluator(&self) -> u32 {
        self.base
    }

    /// How many ids have been allocated so far.
    pub fn allocated(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }
}

/// A globally unique identifier, printable as an assembler label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UniqueId(pub u64);

impl fmt::Display for UniqueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Label safety under cross-tree memoization.
    ///
    /// A cached region replayed into a new tree must not smuggle in
    /// labels that collide with the rest of that tree. The memo design
    /// guarantees this *by construction*: label-producing rules draw
    /// from per-tree unique-id **tokens** (the parser-communicated base
    /// values of §4.3, materialized as token values), never from live
    /// [`IdBase`] allocator state — and token values are part of the
    /// subtree hash, so a cache hit implies the replayed labels are
    /// byte-identical to what a fresh evaluation of *this* subtree
    /// would produce. Disjointness within a tree then follows from the
    /// builder's per-tree uid uniqueness, replay or no replay.
    #[test]
    fn memoized_regions_replay_disjoint_labels_across_trees() {
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
        g.rule(cons, (0, code), [(1, val), (2, code)], |a| {
            Value::str(format!(
                "L{} {}",
                a[0].as_int().unwrap(),
                a[1].as_str().unwrap()
            ))
        });
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
        // (An explicit budget: the default cut leaves a tree this small
        // whole, and a whole tree has no shared leaf region.)
        let budget = plan.tree_work(&a) / 2;
        let mut pool = WorkerPool::new(
            &plan,
            PoolConfig::workers(2)
                .with_adaptive_budget(budget)
                .with_memo_capacity(1 << 20),
        );
        let ra = pool.eval(&a).unwrap();
        let rb = pool.eval(&b).unwrap();
        assert!(ra.regions > 1 && rb.regions > 1, "both trees were split");
        let c = pool.memo_counters().unwrap();
        assert!(
            c.hits >= 1,
            "shared procedure must replay from cache: {c:?}"
        );

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
    }

    #[test]
    fn fresh_ids_are_sequential_within_an_evaluator() {
        let b = IdBase::new(0);
        assert_eq!(b.fresh(), UniqueId(0));
        assert_eq!(b.fresh(), UniqueId(1));
        assert_eq!(b.allocated(), 2);
    }

    #[test]
    fn different_evaluators_never_collide() {
        let mut seen = HashSet::new();
        for e in 0..8 {
            let b = IdBase::new(e);
            for _ in 0..1000 {
                assert!(seen.insert(b.fresh()), "duplicate id across evaluators");
            }
        }
    }

    #[test]
    fn ids_format_as_labels() {
        assert_eq!(UniqueId(42).to_string(), "L42");
        let b = IdBase::new(1);
        assert_eq!(b.fresh().to_string(), format!("L{}", BLOCK));
    }

    #[test]
    fn allocator_is_thread_safe() {
        let b = std::sync::Arc::new(IdBase::new(3));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = std::sync::Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| b.fresh()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<UniqueId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000);
    }
}
