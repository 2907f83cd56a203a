//! # paragram-driver — batched compilation with shared plans
//!
//! The paper's Figure-6 experiment compiles *one* tree: the parser
//! decomposes it, ships regions to evaluator machines, and the string
//! librarian assembles the code. A production compilation service
//! faces a different shape of load — a **stream** of trees (many
//! compilation units, many requests) — where the dominant overheads are
//! things the single-tree pipeline re-pays per compilation:
//!
//! * **grammar analysis** (induced dependencies, attribute partitions,
//!   visit sequences — Kastens' fixpoint, §2.3),
//! * **plan-derived lookup tables** (per-rule priority flags, per-symbol
//!   attribute sets, split-candidate minimum sizes),
//! * **worker spin-up** (OS threads, channels, the scheduler board),
//! * **buffer growth** (dependency-CSR pair lists, argument gather
//!   scratch).
//!
//! This crate splits compilation state into the two halves those
//! overheads suggest:
//!
//! * [`CompilationPlan`] — the **plan half**: immutable, computed once
//!   per grammar, shared (`Arc`) by every tree, thread and driver. It
//!   wraps [`paragram_core::eval::EvalPlan`] (grammar + analysis +
//!   tables) plus the pool configuration ([`DriverConfig`], the pool's
//!   own [`PoolConfig`](paragram_core::parallel::pool::PoolConfig)
//!   under the driver's name: workers, the cut and the memo).
//! * [`BatchDriver`] — the **instance half**: a persistent
//!   [`WorkerPool`] (evaluator threads spawned once, sharing one
//!   scheduler board) plus per-tree state created and recycled as trees
//!   flow through ([`paragram_core::eval::MachineScratch`] buffers
//!   survive from tree to tree inside each worker).
//!
//! # Relation to the paper's §4.2 pipelining
//!
//! The paper's librarian separates *registration* (code text streams to
//! the librarian while evaluation runs) from *resolution* (the parser's
//! final read), so one tree's evaluation need not wait for the last
//! one's code to be combined. The pool's threads share memory and need
//! no librarian — a code value crosses a region boundary as the rope it
//! is — but keep the overlap: every message carries its tree's
//! **ticket**, so [`BatchDriver::compile_batch`] keeps a small window of
//! trees in flight (two per worker, [`BatchDriver::pipeline_depth`]):
//! tree N+1's region jobs fill workers idling behind tree N's
//! stragglers, and tree N's result assembly overlaps tree N+1's
//! evaluation. [`BatchDriver::compile_tree`] compiles one tree alone,
//! the paper's single compilation.
//!
//! # Region-granular scheduling
//!
//! The pool's unit of work is the *region job* — a `(ticket, region)`
//! pair — not the tree. By default each tree is carved into at most
//! `workers` regions (the paper's decomposition), and into fewer when
//! its estimated work does not repay shipping that many between threads
//! ([`paragram_core::parallel::pool::MIN_REGION_WORK`] per region). A
//! procedure-sized tree is not carved at all: it is one *whole-tree
//! job* — the sequential static evaluation, run on a worker — which
//! costs one message each way, no decomposition, no machine and no
//! assembly ([`TreeOutput::regions`] is 1, [`TreeOutput::assemble`]
//! next to nothing), and the window of two trees per worker is what
//! keeps a worker's next such tree waiting in its channel when it
//! finishes the current one. A grammar that is not l-ordered has no
//! static evaluation to run: there every region, and every tree that
//! stays whole, is a dynamic machine. The plan decides that, not the
//! configuration.
//! [`DriverConfig::with_adaptive_budget`] switches to cost-driven
//! decomposition where regions are sized by a work budget, so one huge
//! tree becomes many region jobs that fill the pipeline exactly like a
//! batch of small trees (no head-of-line blocking behind a big
//! compilation unit). [`BatchReport::max_regions_in_flight`] reports
//! the region-level concurrency the batch actually reached.
//!
//! # Serving, not just batching
//!
//! [`BatchDriver::compile_batch`] assumes the whole batch is known up
//! front. A compilation *service* faces an **open arrival** stream —
//! requests show up while earlier ones are still evaluating, and
//! nobody may block. [`ServiceQueue`] (the [`service`] module) wraps
//! the same pool with a bounded waiting room (admission control with
//! shed accounting), a pluggable
//! [`DispatchPolicy`](paragram_core::parallel::policy::DispatchPolicy)
//! — FIFO, shortest-job-first keyed by
//! [`EvalPlan::tree_work`](paragram_core::eval::EvalPlan::tree_work),
//! or per-tenant deficit fair queueing — and per-request timestamps
//! (enqueue → admit → first region dispatched → assembled). Policy
//! rankings are reproducible on one core:
//! `paragram_core::parallel::sim::run_sim_stream`, given an arrival
//! schedule, replays the same policies (literally the same
//! `PolicyQueue` code) on the simulated machine park.
//!
//! # Example
//!
//! ```
//! use paragram_core::grammar::GrammarBuilder;
//! use paragram_core::tree::TreeBuilder;
//! use paragram_driver::{BatchDriver, CompilationPlan, DriverConfig};
//! use std::sync::Arc;
//!
//! let mut g = GrammarBuilder::<i64>::new();
//! let t = g.nonterminal("T");
//! let size = g.synthesized(t, "size");
//! let leaf = g.production("leaf", t, []);
//! g.rule(leaf, (0, size), [], |_| 1);
//! let fork = g.production("fork", t, [t, t]);
//! g.rule(fork, (0, size), [(1, size), (2, size)], |a| a[0] + a[1] + 1);
//! let grammar = Arc::new(g.build(t).unwrap());
//!
//! // Plan once ...
//! let plan = CompilationPlan::analyze(&grammar, DriverConfig::workers(2));
//! let mut driver = BatchDriver::new(&plan);
//!
//! // ... compile many trees.
//! let trees: Vec<_> = (0..3)
//!     .map(|_| {
//!         let mut tb = TreeBuilder::new(&grammar);
//!         let (a, b) = (tb.leaf(leaf), tb.leaf(leaf));
//!         let root = tb.node(fork, [a, b]);
//!         Arc::new(tb.finish(root).unwrap())
//!     })
//!     .collect();
//! let report = driver.compile_batch(trees.iter().cloned()).unwrap();
//! assert_eq!(report.outputs.len(), 3);
//! assert_eq!(report.outputs[0].root_values[0].1, 3);
//! ```

pub mod service;

pub use service::{
    Admission, FailedRequest, FailureReason, RequestTimes, ServiceConfig, ServiceOutput,
    ServiceQueue, ServiceStats,
};

use paragram_core::eval::{EvalError, EvalPlan};
use paragram_core::grammar::Grammar;
use paragram_core::memo::MemoCounters;
use paragram_core::parallel::pool::WorkerPool;
use paragram_core::parallel::{FaultCounters, SchedCounters};
use paragram_core::tree::ParseTree;
use paragram_core::value::AttrValue;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver configuration: the configuration of the pool a
/// [`BatchDriver`] or [`ServiceQueue`] spawns — how many workers, how
/// trees are cut, and the memo — passed through as is: one type, so a
/// driver and a bare [`WorkerPool`] are configured alike. Placement
/// (the paper's fixed modular one) and the window (two trees per
/// worker) are the pool's, not settings.
pub use paragram_core::parallel::pool::PoolConfig as DriverConfig;

/// The shared, immutable plan half of a batched compilation: grammar
/// analysis artifacts plus driver configuration. Compute once, share
/// with every [`BatchDriver`] (and across threads) via clone — all
/// heavy state is behind `Arc`s.
#[derive(Clone)]
pub struct CompilationPlan<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
    config: DriverConfig,
}

impl<V: AttrValue> CompilationPlan<V> {
    /// Runs the full grammar analysis (the expensive step) and captures
    /// the configuration.
    pub fn analyze(grammar: &Arc<Grammar<V>>, config: DriverConfig) -> Self {
        CompilationPlan {
            plan: Arc::new(EvalPlan::analyze(grammar)),
            config,
        }
    }

    /// Wraps an already-analyzed [`EvalPlan`] (e.g. the one inside
    /// `paragram_core::eval::Evaluators`) — no re-analysis.
    pub fn from_plan(plan: &Arc<EvalPlan<V>>, config: DriverConfig) -> Self {
        CompilationPlan {
            plan: Arc::clone(plan),
            config,
        }
    }

    /// The underlying evaluation plan.
    pub fn eval_plan(&self) -> &Arc<EvalPlan<V>> {
        &self.plan
    }

    /// The configuration of the pool a [`BatchDriver`] or
    /// [`ServiceQueue`] spawns for this plan.
    pub fn config(&self) -> DriverConfig {
        self.config
    }
}

impl<V: AttrValue> fmt::Debug for CompilationPlan<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompilationPlan({:?}, {} workers)",
            self.plan, self.config.workers
        )
    }
}

/// Result of compiling one tree through the driver: the pool's own
/// report of the tree, passed through as is.
pub use paragram_core::parallel::pool::PoolReport as TreeOutput;

/// A batch failure that does not discard finished work: the first
/// [`EvalError`] any tree raised, together with every tree that was
/// fully compiled and assembled.
///
/// Failures are **ticket-scoped**: a failing tree takes down only its
/// own ticket, so the batch runs to completion and every healthy tree
/// — before *or after* the failing one — comes back in `completed`. A
/// caller (a service shedding one bad request, a build system
/// reporting per-unit results) never redoes finished work, and the
/// driver stays usable for the next batch.
pub struct BatchError<V: AttrValue> {
    /// The first evaluation error any tree raised.
    pub error: EvalError,
    /// Outputs of the trees that compiled successfully, in input
    /// order (failed trees are simply absent).
    pub completed: Vec<TreeOutput<V>>,
}

impl<V: AttrValue> fmt::Debug for BatchError<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchError")
            .field("error", &self.error)
            .field("completed", &self.completed.len())
            .finish()
    }
}

impl<V: AttrValue> fmt::Display for BatchError<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} earlier trees completed)",
            self.error,
            self.completed.len()
        )
    }
}

impl<V: AttrValue> std::error::Error for BatchError<V> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Result of a whole batch.
pub struct BatchReport<V: AttrValue> {
    /// Per-tree outputs, in input order.
    pub outputs: Vec<TreeOutput<V>>,
    /// Wall-clock time for the whole batch (including decomposition,
    /// excluding plan construction and pool spin-up).
    pub elapsed: Duration,
    /// The largest number of trees actually in flight at once during
    /// this batch (≤ [`BatchDriver::pipeline_depth`], two per worker; 1
    /// means the batch degenerated to the barrier schedule, e.g. a
    /// single-tree batch).
    pub max_in_flight: usize,
    /// The largest number of region jobs in flight at once — the
    /// region-granular view of `max_in_flight`: under adaptive
    /// granularity a single huge tree alone can keep many more region
    /// jobs live than the tree window suggests.
    pub max_regions_in_flight: usize,
    /// Memo cache activity attributable to *this* batch (the pool's
    /// counters are cumulative; this is the delta over the batch).
    /// `None` when [`DriverConfig::memo_capacity`] is 0.
    pub memo: Option<MemoCounters>,
    /// Scheduler telemetry for this batch
    /// ([`WorkerPool::reset_high_water`] zeroes the counters at batch
    /// start): local and remote boundary sends. Steals and migrated
    /// values read zero — the pool places fixed and never steals.
    pub sched: SchedCounters,
    /// Fault and recovery telemetry for this batch (zeroed at batch
    /// start alongside the scheduler counters): worker crashes
    /// injected, regions re-executed from their input logs, duplicate
    /// sends suppressed by idempotent delivery, and semantic-rule
    /// panics contained to their tickets. All zeros on a fault-free
    /// run.
    pub faults: FaultCounters,
}

impl<V: AttrValue> BatchReport<V> {
    /// Throughput over the batch's wall-clock time.
    pub fn trees_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            f64::INFINITY
        } else {
            self.outputs.len() as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// The instance half of a batched compilation: a persistent worker
/// pool fed a stream of parse trees, all evaluated against one shared
/// [`CompilationPlan`].
pub struct BatchDriver<V: AttrValue> {
    pool: WorkerPool<V>,
    trees_compiled: usize,
}

impl<V: AttrValue> BatchDriver<V> {
    /// Spawns the worker pool (`workers` threads) for `plan`.
    pub fn new(plan: &CompilationPlan<V>) -> Self {
        BatchDriver {
            pool: WorkerPool::new(plan.eval_plan(), plan.config()),
            trees_compiled: 0,
        }
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The in-flight window: two trees per worker.
    pub fn pipeline_depth(&self) -> usize {
        self.pool.pipeline_depth()
    }

    /// Trees compiled by this driver so far.
    pub fn trees_compiled(&self) -> usize {
        self.trees_compiled
    }

    /// Cumulative memo cache counters since the pool was spawned;
    /// `None` when memoization is off.
    pub fn memo_counters(&self) -> Option<MemoCounters> {
        self.pool.memo_counters()
    }

    /// Compiles one tree on the pool, start to finish (no overlap with
    /// other trees — stream trees through [`BatchDriver::compile_batch`]
    /// to pipeline them).
    ///
    /// # Errors
    ///
    /// Propagates the first [`EvalError`] raised by any machine.
    pub fn compile_tree(&mut self, tree: &Arc<ParseTree<V>>) -> Result<TreeOutput<V>, EvalError> {
        let output = self.pool.eval(tree)?;
        self.trees_compiled += 1;
        Ok(output)
    }

    /// Injects a worker crash into the pool: the victim's region jobs
    /// are re-executed from their input logs on the surviving workers
    /// (see [`WorkerPool::kill_worker`]). Returns `false` for an
    /// out-of-range index, an already-dead worker or the last survivor.
    pub fn kill_worker(&mut self, victim: usize) -> bool {
        self.pool.kill_worker(victim)
    }

    /// Cumulative fault and recovery telemetry since the pool was
    /// spawned (or since the last batch started — batches zero it).
    pub fn fault_counters(&self) -> FaultCounters {
        self.pool.fault_counters()
    }

    /// Compiles a stream of trees on the same pool, keeping up to
    /// [`BatchDriver::pipeline_depth`] trees in flight so each tree's
    /// region jobs fill workers idling behind its predecessor's
    /// stragglers. Outputs come back in input order regardless of the
    /// overlap.
    ///
    /// # Errors
    ///
    /// Failures are ticket-scoped: a failing tree cancels only its own
    /// ticket, the rest of the batch still compiles, and the first
    /// error comes back in a [`BatchError`] together with every
    /// successful output. The driver remains usable afterwards.
    pub fn compile_batch(
        &mut self,
        trees: impl IntoIterator<Item = Arc<ParseTree<V>>>,
    ) -> Result<BatchReport<V>, BatchError<V>> {
        let start = Instant::now();
        // Per-batch maxima from a long-lived pool: the pool tracks the
        // exact high-water marks at every dispatch (a driver sampling
        // only at submit boundaries would miss peaks reached while it
        // was blocked inside `submit`'s backpressure).
        self.pool.reset_high_water();
        let memo_start = self.pool.memo_counters();
        let mut outputs = Vec::new();
        let mut failed = None;
        for tree in trees {
            self.pool.submit(&tree);
            while let Some(result) = self.pool.take_ready() {
                match result {
                    Ok(report) => {
                        self.trees_compiled += 1;
                        outputs.push(report);
                    }
                    Err(f) => {
                        failed.get_or_insert(f.error);
                    }
                }
            }
        }
        while let Some(result) = self.pool.collect() {
            match result {
                Ok(report) => {
                    self.trees_compiled += 1;
                    outputs.push(report);
                }
                Err(f) => {
                    failed.get_or_insert(f.error);
                }
            }
        }
        if let Some(error) = failed {
            return Err(BatchError {
                error,
                completed: outputs,
            });
        }
        Ok(BatchReport {
            outputs,
            elapsed: start.elapsed(),
            max_in_flight: self.pool.max_in_flight(),
            max_regions_in_flight: self.pool.max_regions_in_flight(),
            memo: self
                .pool
                .memo_counters()
                .map(|c| c.since(&memo_start.unwrap_or_default())),
            // `reset_high_water` above zeroed the steal counters, so
            // the cumulative read is this batch's delta.
            sched: self.pool.sched_counters(),
            faults: self.pool.fault_counters(),
        })
    }
}

impl<V: AttrValue> fmt::Debug for BatchDriver<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BatchDriver({:?}, {} trees compiled)",
            self.pool, self.trees_compiled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragram_core::eval::{dynamic_eval, MachineMode};
    use paragram_core::grammar::{AttrId, GrammarBuilder};
    use paragram_core::parallel::pool::MIN_REGION_WORK;
    use paragram_core::tree::TreeBuilder;
    use paragram_core::value::Value;
    use paragram_rope::Rope;

    /// Splittable code-generating grammar over `Value` (ropes cross
    /// region boundaries, exercising the ticket window). Mirrors the
    /// fixture in `paragram_core::parallel::pool`'s tests — crate
    /// boundaries keep `#[cfg(test)]` fixtures from being shared, and
    /// the two test suites pin independent layers, so they need not
    /// stay in lockstep.
    fn grammar() -> (
        Arc<Grammar<Value>>,
        paragram_core::grammar::ProdId,
        paragram_core::grammar::ProdId,
        paragram_core::grammar::ProdId,
        AttrId,
    ) {
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
        // floor), so `n` workers still cut these short chains into up
        // to `n` regions.
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, code), (0, env)],
            |a| {
                let line = format!("op {}\n", a[1].as_int().unwrap());
                Value::Rope(Rope::from(line).concat(a[0].as_rope().unwrap()))
            },
            MIN_REGION_WORK,
        );
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| Value::Int(0));
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));
        (Arc::new(g.build(s).unwrap()), top, cons, nil, out)
    }

    fn chain(
        grammar: &Arc<Grammar<Value>>,
        top: paragram_core::grammar::ProdId,
        cons: paragram_core::grammar::ProdId,
        nil: paragram_core::grammar::ProdId,
        n: usize,
    ) -> Arc<ParseTree<Value>> {
        let mut tb = TreeBuilder::new(grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..n {
            tail = tb.node(cons, [tail]);
        }
        let root = tb.node(top, [tail]);
        Arc::new(tb.finish(root).unwrap())
    }

    #[test]
    fn batch_of_differently_sized_trees_matches_sequential() {
        let (gr, top, cons, nil, out) = grammar();
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(3));
        let mut driver = BatchDriver::new(&plan);
        let sizes = [5usize, 40, 12, 64, 1, 23];
        let trees: Vec<_> = sizes
            .iter()
            .map(|&n| chain(&gr, top, cons, nil, n))
            .collect();
        let report = driver.compile_batch(trees.iter().cloned()).unwrap();
        assert_eq!(report.outputs.len(), sizes.len());
        assert_eq!(driver.trees_compiled(), sizes.len());
        for (tree, output) in trees.iter().zip(&report.outputs) {
            let (dstore, _) = dynamic_eval(tree).unwrap();
            assert_eq!(
                output.root_value(out),
                dstore.get(tree.root(), out),
                "tree of {} nodes",
                tree.len()
            );
            assert_eq!(output.store.filled(), output.store.len());
        }
        assert!(report.trees_per_sec() > 0.0);
    }

    #[test]
    fn driver_uses_best_mode_and_reports_regions() {
        let (gr, top, cons, nil, _) = grammar();
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(4));
        assert_eq!(plan.eval_plan().best_mode(), MachineMode::Combined);
        let mut driver = BatchDriver::new(&plan);
        let output = driver
            .compile_tree(&chain(&gr, top, cons, nil, 64))
            .unwrap();
        assert!(output.regions > 1, "large tree should be split");
        assert!(output.stats.static_applied > 0, "combined mode ran plans");
    }

    #[test]
    fn adaptive_granularity_reports_region_level_stats() {
        let (gr, top, cons, nil, out) = grammar();
        let tree = chain(&gr, top, cons, nil, 96);
        let base = CompilationPlan::analyze(&gr, DriverConfig::workers(2));
        let budget = (base.eval_plan().tree_work(&tree) / 8).max(1);
        let plan = CompilationPlan::from_plan(
            base.eval_plan(),
            DriverConfig::workers(2).with_adaptive_budget(budget),
        );
        let mut driver = BatchDriver::new(&plan);
        let report = driver
            .compile_batch([Arc::clone(&tree), Arc::clone(&tree)])
            .unwrap();
        // A single huge tree keeps more region jobs in flight than the
        // tree window suggests.
        assert!(
            report.max_regions_in_flight > report.max_in_flight,
            "regions {} vs trees {}",
            report.max_regions_in_flight,
            report.max_in_flight
        );
        assert!(report.outputs[0].regions > driver.workers());
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        for output in &report.outputs {
            assert_eq!(output.root_value(out), dstore.get(tree.root(), out));
            assert_eq!(output.store.filled(), output.store.len());
        }
    }

    #[test]
    fn failed_batch_returns_earlier_completed_trees_with_the_error() {
        // Grammar with a benign production and a self-dependent one:
        // trees of `ok` leaves evaluate, a tree containing `knot`
        // raises a cycle error mid-batch.
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let b = g.nonterminal("B");
        let out = g.synthesized(s, "out");
        let bi = g.inherited(b, "i");
        let bo = g.synthesized(b, "o");
        let top = g.production("top", s, [b]);
        g.rule(top, (1, bi), [], |_| 1);
        g.rule(top, (0, out), [(1, bo)], |a| a[0] + 100);
        let ok = g.production("ok", b, []);
        g.rule(ok, (0, bo), [(0, bi)], |a| a[0]);
        let knot = g.production("knot", b, []);
        g.rule(knot, (0, bo), [(0, bo)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let mk = |prod| {
            let mut tb = TreeBuilder::new(&gr);
            let leaf = tb.leaf(prod);
            let root = tb.node(top, [leaf]);
            Arc::new(tb.finish(root).unwrap())
        };
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(2));
        assert_eq!(
            plan.eval_plan().best_mode(),
            MachineMode::Dynamic,
            "cyclic grammar"
        );
        let mut driver = BatchDriver::new(&plan);
        let batch = [mk(ok), mk(ok), mk(ok), mk(knot), mk(ok)];
        let err = driver.compile_batch(batch).map(|_| ()).unwrap_err();
        assert!(matches!(err.error, EvalError::Cycle { .. }), "{err}");
        // The knot fails only its own ticket: every healthy tree —
        // including the one submitted after it — still compiles.
        assert_eq!(err.completed.len(), 4);
        for output in &err.completed {
            assert_eq!(output.root_value(out), Some(&101));
        }
        assert_eq!(driver.trees_compiled(), 4);
        // The driver is not poisoned: the next batch runs normally.
        let report = driver.compile_batch([mk(ok), mk(ok)]).unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.faults, FaultCounters::default());
    }
}
