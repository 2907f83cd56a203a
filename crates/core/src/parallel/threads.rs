//! The parallel compiler on real OS threads.
//!
//! Same protocol as [`crate::parallel::sim`] — one machine per region,
//! attribute values crossing region boundaries as messages, optional
//! string-librarian result propagation — but executed on host threads
//! with `std::sync::mpsc` channels and measured in wall-clock time. Sends are
//! forwarded after every scheduler step (not when a machine runs dry),
//! so the symbol-table chain pipelines across machines exactly as on
//! the simulated network.
//!
//! Since the batched driver landed, the actual thread management lives
//! in [`crate::parallel::pool`]: [`run_threads`] is the one-shot
//! convenience entry — it spins up a [`WorkerPool`] at pipeline depth 1
//! (one tree, one ticket, strict barrier) for a single tree and tears
//! it down again. Callers compiling a *stream* of trees should hold a
//! [`WorkerPool`] (or a `paragram-driver` batch driver) instead, so
//! thread spawn and plan construction amortize and consecutive trees
//! pipeline through the pool's ticket window.
//!
//! Each region machine evaluates into an O(region)
//! [`crate::tree::RegionStore`]; the pool's per-ticket assembly maps
//! the region-local spans back into the whole-tree store the report
//! exposes (see [`crate::tree::AttrStore::absorb_region`]), so the
//! report's store is identical to the pre-region-local layout's.
//!
//! Wall-clock speedup naturally requires a multi-core host; on a
//! single-core machine this runtime still produces identical results
//! (the equivalence tests run it everywhere) but measures scheduling
//! overhead rather than parallelism.

use crate::analysis::Plans;
use crate::eval::{EvalError, EvalPlan, MachineMode};
use crate::parallel::pool::{PoolConfig, PoolReport, WorkerPool};
use crate::tree::ParseTree;
use crate::value::AttrValue;
use std::sync::Arc;

use super::ResultPropagation;

/// Configuration for [`run_threads`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadConfig {
    /// Number of evaluator threads, and the most regions the tree is
    /// cut into: like every `Machines(n)` pool, this one leaves a tree
    /// whole whose estimated work does not repay a hand-off between
    /// threads (see [`crate::parallel::pool`], "Region-granular
    /// scheduling").
    pub machines: usize,
    /// Combined or purely dynamic machines.
    pub mode: MachineMode,
    /// Result propagation strategy.
    pub result: ResultPropagation,
    /// Split-granularity scale.
    pub min_size_scale: f64,
}

impl ThreadConfig {
    /// Combined evaluation on `n` threads with librarian propagation.
    pub fn combined(n: usize) -> Self {
        ThreadConfig {
            machines: n,
            mode: MachineMode::Combined,
            result: ResultPropagation::Librarian,
            min_size_scale: 1.0,
        }
    }
}

/// Result of a threaded parallel evaluation (the pool report).
pub type ThreadReport<V> = PoolReport<V>;

/// Evaluates `tree` in parallel on real threads (one-shot: spawns a
/// worker pool for this tree only).
///
/// # Errors
///
/// Returns the first [`EvalError`] raised by any machine.
pub fn run_threads<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    plans: Option<&Arc<Plans>>,
    config: ThreadConfig,
) -> Result<ThreadReport<V>, EvalError> {
    let plan = Arc::new(EvalPlan::from_parts(tree.grammar(), plans.cloned(), None));
    let mut pool = WorkerPool::new(
        &plan,
        PoolConfig {
            mode: config.mode,
            result: config.result,
            min_size_scale: config.min_size_scale,
            // One tree, one ticket, at most one region per machine: the
            // paper's single-compilation barrier (fixed-count
            // granularity).
            ..PoolConfig::barrier(config.machines)
        },
    );
    pool.eval(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::eval::dynamic_eval;
    use crate::grammar::{AttrId, GrammarBuilder};
    use crate::tree::TreeBuilder;
    use crate::value::Value;
    use paragram_rope::Rope;

    fn fixture(n: usize) -> (Arc<ParseTree<Value>>, Arc<Plans>, AttrId) {
        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("stmts");
        let out = g.synthesized(s, "code");
        let decls = g.synthesized(l, "decls");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        g.mark_split(l, 4);
        let top = g.production("top", s, [l]);
        g.rule(top, (1, env), [(1, decls)], |a| a[0].clone());
        g.rule(top, (0, out), [(1, code)], |a| a[0].clone());
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (0, decls), [(1, decls)], |a| {
            Value::Int(a[0].as_int().unwrap() + 1)
        });
        g.rule(cons, (1, env), [(0, env)], |a| a[0].clone());
        // A region's worth of work per `cons` (the pool's hand-off
        // floor, `pool.rs`'s private `MIN_REGION_WORK`), so `n` threads
        // still get `n` regions of these short chains.
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, code), (0, env)],
            |a| {
                let line = format!("op {}\n", a[1].as_int().unwrap());
                Value::Rope(Rope::from(line).concat(a[0].as_rope().unwrap()))
            },
            10_000,
        );
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| Value::Int(0));
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));
        let grammar = Arc::new(g.build(s).unwrap());
        let plans = Arc::new(compute_plans(&grammar).unwrap());
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..n {
            tail = tb.node(cons, [tail]);
        }
        let root = tb.node(top, [tail]);
        (Arc::new(tb.finish(root).unwrap()), plans, out)
    }

    #[test]
    fn threads_match_sequential_result() {
        let (tree, plans, out) = fixture(64);
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore
            .get(tree.root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        for n in [1, 2, 4] {
            let report = run_threads(&tree, Some(&plans), ThreadConfig::combined(n)).unwrap();
            let got = report
                .root_values
                .iter()
                .find(|(a, _)| *a == out)
                .and_then(|(_, v)| v.as_rope().cloned())
                .unwrap();
            assert!(got.content_eq(&want), "n={n}");
            assert_eq!(report.regions, n, "one region per thread");
            assert!(report.stats.total_applied() > 0);
        }
    }

    #[test]
    fn threads_work_in_dynamic_mode_and_naive_propagation() {
        let (tree, plans, out) = fixture(48);
        let config = ThreadConfig {
            machines: 3,
            mode: MachineMode::Dynamic,
            result: ResultPropagation::Naive,
            min_size_scale: 1.0,
        };
        let report = run_threads(&tree, Some(&plans), config).unwrap();
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore.get(tree.root(), out).unwrap();
        let got = &report
            .root_values
            .iter()
            .find(|(a, _)| *a == out)
            .unwrap()
            .1;
        assert_eq!(got, want);
        assert_eq!(report.stats.static_applied, 0);
    }

    #[test]
    fn merged_store_covers_all_instances() {
        let (tree, plans, _) = fixture(32);
        let report = run_threads(&tree, Some(&plans), ThreadConfig::combined(3)).unwrap();
        assert_eq!(report.store.filled(), report.store.len());
    }
}
