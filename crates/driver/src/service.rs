//! Open-arrival service front end over the region pool.
//!
//! [`super::BatchDriver::compile_batch`] is a *closed* model: the whole
//! batch is known up front and the driver may block. A compilation
//! service faces an **open arrival** stream — requests arrive while
//! earlier ones are still evaluating — and needs two things the batch
//! driver does not provide:
//!
//! * **Bounded admission, then arrival order.** A waiting room of at
//!   most [`ServiceConfig::capacity`] requests; an arrival that finds it
//!   full is [shed](Admission::Shed) instead of growing an unbounded
//!   queue. Shed decisions are a pure function of the waiting-queue
//!   length, never of wall-clock timing, so they are reproducible. The
//!   waiting room is a [`PolicyQueue`] and drains in arrival order, the
//!   order the paper's parser hands trees to the evaluators; the pool
//!   retires trees in that same order. The simulated service
//!   (`paragram_core::parallel::sim::run_sim_stream` with `Arrivals`)
//!   admits and dispatches by the same rule and the same code.
//! * **Non-blocking progress.** [`ServiceQueue::offer`] never blocks
//!   and performs no pool work; [`ServiceQueue::pump`] drains worker
//!   completions ([`WorkerPool::poll`]), tops up the pipeline window,
//!   and harvests finished requests — waiting on no other thread, but
//!   decomposing each dispatched tree on the caller's (a retiring tree
//!   keeps the stores its workers filled, so retiring one costs
//!   microseconds). A serving loop interleaves the two however its
//!   arrival source dictates.
//!
//! Every request carries [`RequestTimes`]: enqueue → admit → first
//! region dispatched → assembled, the measurement points the
//! benchmark's `service_open` workload turns into queueing and service
//! percentiles.

use crate::{CompilationPlan, TreeOutput};
use paragram_core::eval::EvalError;
use paragram_core::memo::MemoCounters;
use paragram_core::parallel::policy::{DispatchPolicy, PolicyQueue, QueuedJob};
use paragram_core::parallel::pool::{TicketFailure, WorkerPool};
use paragram_core::parallel::{FaultCounters, SchedCounters};
use paragram_core::tree::ParseTree;
use paragram_core::value::AttrValue;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Service shape: how many requests may wait.
///
/// A failed ticket is surfaced at once, never retried: a ticket fails
/// only with an [`EvalError`] its tree and plan determine (a cycle, a
/// plan inconsistency, missing inputs, a rule panic), so a retry would
/// re-run the same evaluation to the same error, only later. Worker
/// crashes never reach the service: the pool re-executes the lost jobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Waiting-room bound (clamped ≥ 1): an [`ServiceQueue::offer`]
    /// that finds this many requests *waiting* (not yet dispatched) is
    /// shed.
    pub capacity: usize,
}

impl ServiceConfig {
    /// Arrival-order dispatch behind a waiting room of `capacity`.
    pub fn fifo(capacity: usize) -> Self {
        ServiceConfig { capacity }
    }
}

/// Outcome of offering one request to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request entered the waiting room; its output will carry this
    /// id.
    Admitted {
        /// Monotonic per-queue request id (also the key for
        /// [`ServiceQueue::times`]).
        id: u64,
    },
    /// The waiting room was full; the request was dropped. The caller
    /// owns retry/backoff.
    Shed,
    /// Never returned: the service has no deadlines. Kept only because
    /// the benchmark's `service_open` workload still matches on it.
    DeadlineShed,
}

/// Wall-clock milestones of one admitted request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    /// When the request was offered.
    pub enqueued: Instant,
    /// When admission accepted it (same instant as `enqueued` here —
    /// admission is synchronous; the simulated service separates the
    /// two by the parse cost).
    pub admitted: Instant,
    /// When its first region job was dispatched to a worker.
    pub dispatched: Option<Instant>,
    /// When its assembled output became available.
    pub assembled: Option<Instant>,
}

impl RequestTimes {
    /// Enqueue-to-assembled latency, if the request completed.
    pub fn latency(&self) -> Option<std::time::Duration> {
        self.assembled.map(|a| a - self.enqueued)
    }

    /// Time spent waiting for dispatch (enqueue → first region job).
    pub fn queueing(&self) -> Option<std::time::Duration> {
        self.dispatched.map(|d| d - self.enqueued)
    }
}

/// A finished request: its id, tenant, and compiled output.
pub struct ServiceOutput<V: AttrValue> {
    /// The id [`ServiceQueue::offer`] returned for this request.
    pub id: u64,
    /// The tenant it was billed to.
    pub tenant: u32,
    /// The compiled tree.
    pub output: TreeOutput<V>,
}

/// A request whose ticket failed, surfaced via
/// [`ServiceQueue::take_failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedRequest {
    /// The id [`ServiceQueue::offer`] returned for this request.
    pub id: u64,
    /// The tenant it was billed to.
    pub tenant: u32,
    /// The error its ticket failed with.
    pub error: EvalError,
}

/// Admission / completion accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests offered, admitted or not.
    pub offered: usize,
    /// Requests admitted to the waiting room.
    pub admitted: usize,
    /// Requests shed by the full waiting room.
    pub shed: usize,
    /// Requests fully compiled and assembled.
    pub completed: usize,
    /// Requests whose ticket failed; claimable via
    /// [`ServiceQueue::take_failed`].
    pub failed: usize,
    /// Largest number of requests ever waiting at once.
    pub max_waiting: usize,
    /// Cumulative memo cache activity (all zeros when
    /// [`DriverConfig::memo_capacity`](crate::DriverConfig::memo_capacity)
    /// is 0 — the cache is off and nothing ever probes it).
    pub memo: MemoCounters,
    /// Cumulative scheduler telemetry: local and remote boundary sends.
    /// `steals` and `migrated_attrs` are always 0.
    pub sched: SchedCounters,
    /// The pool's fault and recovery telemetry: crashes, regions
    /// re-executed, duplicates suppressed, panics contained.
    pub faults: FaultCounters,
}

/// An open-arrival compilation service over one persistent
/// [`WorkerPool`]: bounded admission, arrival-order dispatch,
/// non-blocking progress. See the [module docs](self).
pub struct ServiceQueue<V: AttrValue> {
    pool: WorkerPool<V>,
    queue: PolicyQueue,
    /// Trees of requests waiting for dispatch, by request id.
    trees: HashMap<u64, Arc<ParseTree<V>>>,
    /// Tenants of live (admitted, not yet finished or failed) requests,
    /// by request id.
    tenants: HashMap<u64, u32>,
    /// Dispatched, uncompleted request ids in dispatch order — the pool
    /// retires FIFO in dispatch order, so results match this front to
    /// back.
    dispatched: VecDeque<u64>,
    completed: VecDeque<ServiceOutput<V>>,
    failed: VecDeque<FailedRequest>,
    /// Milestones of every request ever admitted, by request id — the
    /// one per-request map that outlives its request, because callers
    /// read [`ServiceQueue::times`] after harvesting the output.
    times: HashMap<u64, RequestTimes>,
    capacity: usize,
    next_id: u64,
    stats: ServiceStats,
}

impl<V: AttrValue> ServiceQueue<V> {
    /// Spawns the worker pool (`workers` threads) and an empty waiting
    /// room.
    pub fn new(plan: &CompilationPlan<V>, service: ServiceConfig) -> Self {
        ServiceQueue {
            pool: WorkerPool::new(plan.eval_plan(), plan.config()),
            queue: PolicyQueue::new(DispatchPolicy::Fifo),
            trees: HashMap::new(),
            tenants: HashMap::new(),
            dispatched: VecDeque::new(),
            completed: VecDeque::new(),
            failed: VecDeque::new(),
            times: HashMap::new(),
            capacity: service.capacity.max(1),
            next_id: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Admission / completion accounting so far, including the pool's
    /// cumulative memo cache, scheduler and fault counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            memo: self.pool.memo_counters().unwrap_or_default(),
            sched: self.pool.sched_counters(),
            faults: self.pool.fault_counters(),
            ..self.stats
        }
    }

    /// Requests admitted but not yet dispatched.
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    /// Requests dispatched but not yet completed.
    pub fn in_service(&self) -> usize {
        self.dispatched.len()
    }

    /// Milestones of request `id` (admitted requests only). They are
    /// kept after the request completes or fails, so a caller can read
    /// them after harvesting its output: a long-running service grows
    /// by one entry per admitted request.
    pub fn times(&self, id: u64) -> Option<&RequestTimes> {
        self.times.get(&id)
    }

    /// Offers one request billed to `tenant`. Never blocks and never
    /// performs pool work — the admission decision is a pure function
    /// of the waiting-queue length, so a given arrival sequence always
    /// sheds the same requests regardless of wall-clock timing. Call
    /// [`ServiceQueue::pump`] to make progress.
    pub fn offer(&mut self, tree: &Arc<ParseTree<V>>, tenant: u32) -> Admission {
        self.stats.offered += 1;
        if self.queue.len() >= self.capacity {
            self.stats.shed += 1;
            return Admission::Shed;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push(QueuedJob {
            seq: id,
            tenant,
            work: 0,
        });
        self.trees.insert(id, Arc::clone(tree));
        self.tenants.insert(id, tenant);
        let now = Instant::now();
        self.times.insert(
            id,
            RequestTimes {
                enqueued: now,
                admitted: now,
                dispatched: None,
                assembled: None,
            },
        );
        self.stats.admitted += 1;
        self.stats.max_waiting = self.stats.max_waiting.max(self.queue.len());
        Admission::Admitted { id }
    }

    /// Makes all currently possible progress without waiting on any
    /// other thread: drains worker completions, tops up the pipeline
    /// window from the waiting room in arrival order, and moves
    /// finished requests to [`ServiceQueue::take_completed`] (failed
    /// ones to [`ServiceQueue::take_failed`]). Returns how many requests
    /// completed during this call.
    ///
    /// What it does do on the caller's thread: decompose each tree it
    /// dispatches that is big enough to cut — O(tree size), a few
    /// milliseconds for a 25 k-node tree. Retiring a tree
    /// ([`WorkerPool::poll`]) hands the stores its workers filled to the
    /// output as they are, and a dropped output sends them back to those
    /// workers to be freed, so neither end costs the caller O(tree
    /// size) (the memo's install scan aside). A procedure-sized tree is
    /// a whole-tree job: a work estimate and a channel send going in, a
    /// finished store coming out. The window it tops up is the pool's: two trees per worker
    /// ([`WorkerPool::pipeline_depth`]).
    pub fn pump(&mut self) -> usize {
        self.pool.poll();
        let mut done = self.harvest();
        while self.pool.in_flight() < self.pool.pipeline_depth() {
            let Some(job) = self.queue.pop() else { break };
            let tree = self.trees.remove(&job.seq).expect("queued tree kept");
            // The window has room, so submit dispatches without
            // blocking on retirement.
            self.pool.submit(&tree);
            self.times.get_mut(&job.seq).expect("admitted").dispatched = Some(Instant::now());
            self.dispatched.push_back(job.seq);
        }
        self.pool.poll();
        done += self.harvest();
        done
    }

    /// Runs the service to completion: blocks until every admitted
    /// request has been compiled and assembled or has failed (use
    /// between arrival bursts, or at shutdown).
    pub fn drain(&mut self) {
        loop {
            self.pump();
            if self.queue.is_empty() && self.dispatched.is_empty() {
                return;
            }
            if let Some(result) = self.pool.collect() {
                self.retire(result);
            }
        }
    }

    /// Pops the oldest finished request (completion order).
    pub fn take_completed(&mut self) -> Option<ServiceOutput<V>> {
        self.completed.pop_front()
    }

    /// Pops the oldest failed request (failure order).
    pub fn take_failed(&mut self) -> Option<FailedRequest> {
        self.failed.pop_front()
    }

    fn harvest(&mut self) -> usize {
        let mut n = 0;
        while let Some(result) = self.pool.take_ready() {
            n += usize::from(result.is_ok());
            self.retire(result);
        }
        n
    }

    /// Hands the oldest dispatched request its result: its output, or
    /// the error its ticket failed with. Failures arrive in dispatch
    /// order exactly like successes, so the FIFO id mapping holds. Only
    /// the request's timestamps are kept.
    fn retire(&mut self, result: Result<TreeOutput<V>, TicketFailure>) {
        let id = self
            .dispatched
            .pop_front()
            .expect("results match dispatched requests FIFO");
        let tenant = self.tenants.remove(&id).expect("admitted");
        match result {
            Ok(output) => {
                self.times.get_mut(&id).expect("admitted").assembled = Some(Instant::now());
                self.stats.completed += 1;
                self.completed
                    .push_back(ServiceOutput { id, tenant, output });
            }
            Err(failure) => {
                self.stats.failed += 1;
                self.failed.push_back(FailedRequest {
                    id,
                    tenant,
                    error: failure.error,
                });
            }
        }
    }
}

impl<V: AttrValue> fmt::Debug for ServiceQueue<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ServiceQueue({} waiting, {} in service, {:?})",
            self.waiting(),
            self.in_service(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompilationPlan, DriverConfig};
    use paragram_core::eval::dynamic_eval;
    use paragram_core::grammar::{AttrId, Grammar, GrammarBuilder, ProdId};
    use paragram_core::tree::TreeBuilder;

    /// Integer chain grammar: cheap, deterministic, splittable.
    fn grammar() -> (Arc<Grammar<i64>>, ProdId, ProdId, ProdId, AttrId) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("list");
        let out = g.synthesized(s, "sum");
        let total = g.synthesized(l, "total");
        g.mark_split(l, 4);
        let top = g.production("top", s, [l]);
        g.rule(top, (0, out), [(1, total)], |a| a[0] + 100);
        let cons = g.production("cons", l, [l]);
        g.rule(cons, (0, total), [(1, total)], |a| a[0] + 1);
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, total), [], |_| 0);
        (Arc::new(g.build(s).unwrap()), top, cons, nil, out)
    }

    fn chain(
        grammar: &Arc<Grammar<i64>>,
        top: ProdId,
        cons: ProdId,
        nil: ProdId,
        n: usize,
    ) -> Arc<ParseTree<i64>> {
        let mut tb = TreeBuilder::new(grammar);
        let mut tail = tb.leaf(nil);
        for _ in 0..n {
            tail = tb.node(cons, [tail]);
        }
        let root = tb.node(top, [tail]);
        Arc::new(tb.finish(root).unwrap())
    }

    #[test]
    fn service_compiles_an_open_stream_correctly() {
        let (gr, top, cons, nil, out) = grammar();
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(2));
        let mut q = ServiceQueue::new(&plan, ServiceConfig::fifo(64));
        let sizes = [5usize, 40, 12, 64, 1, 23];
        let mut ids = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let tree = chain(&gr, top, cons, nil, n);
            match q.offer(&tree, (i % 2) as u32) {
                Admission::Admitted { id } => ids.push((id, n)),
                other => panic!("roomy queue must not shed: {other:?}"),
            }
            // Interleave progress with arrivals, as a serving loop does.
            q.pump();
        }
        q.drain();
        let mut seen = 0;
        while let Some(done) = q.take_completed() {
            let (_, n) = ids.iter().find(|&&(id, _)| id == done.id).unwrap();
            let tree = chain(&gr, top, cons, nil, *n);
            let (dstore, _) = dynamic_eval(&tree).unwrap();
            assert_eq!(done.output.root_value(out), dstore.get(tree.root(), out));
            let t = q.times(done.id).unwrap();
            assert!(t.dispatched.is_some() && t.assembled.is_some());
            assert!(t.latency().unwrap() >= t.queueing().unwrap());
            seen += 1;
        }
        assert_eq!(seen, sizes.len());
        let stats = q.stats();
        assert_eq!(stats.offered, sizes.len());
        assert_eq!(stats.admitted, sizes.len());
        assert_eq!(stats.completed, sizes.len());
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn admission_sheds_deterministically_at_capacity() {
        let (gr, top, cons, nil, _) = grammar();
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(1));
        let mut q = ServiceQueue::new(&plan, ServiceConfig::fifo(2));
        let tree = chain(&gr, top, cons, nil, 16);
        // No pump between offers: the waiting room fills at exactly
        // capacity and sheds everything after, independent of timing.
        let admissions: Vec<bool> = (0..5)
            .map(|_| matches!(q.offer(&tree, 0), Admission::Admitted { .. }))
            .collect();
        assert_eq!(admissions, vec![true, true, false, false, false]);
        let stats = q.stats();
        assert_eq!((stats.offered, stats.admitted, stats.shed), (5, 2, 3));
        assert_eq!(stats.max_waiting, 2);
        q.drain();
        assert_eq!(q.stats().completed, 2);
        // The drained queue has room again.
        assert!(matches!(q.offer(&tree, 0), Admission::Admitted { .. }));
        q.drain();
        assert_eq!(q.stats().completed, 3);
    }

    #[test]
    fn mixed_sizes_complete_and_dispatch_in_offer_order() {
        let (gr, top, cons, nil, _) = grammar();
        let plan = CompilationPlan::analyze(&gr, DriverConfig::workers(1));
        let mut q = ServiceQueue::new(&plan, ServiceConfig::fifo(16));
        // All four queue while nothing pumps; the window then admits
        // them in arrival order whatever their size, and FIFO
        // retirement means completion order equals dispatch order.
        let sizes = [300usize, 8, 150, 4];
        for &n in &sizes {
            q.offer(&chain(&gr, top, cons, nil, n), 0);
        }
        q.drain();
        let order: Vec<u64> = std::iter::from_fn(|| q.take_completed())
            .map(|d| d.id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3], "offer order");
        let dispatch_times: Vec<_> = order
            .iter()
            .map(|&id| q.times(id).unwrap().dispatched.unwrap())
            .collect();
        assert!(dispatch_times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A healthy tree and a cyclic one over one grammar, and the root
    /// attribute (101 on the healthy tree). The cyclic tree's `knot`
    /// production makes an attribute depend on itself, so it fails on
    /// every attempt.
    fn knot_fixture() -> (Arc<ParseTree<i64>>, Arc<ParseTree<i64>>, AttrId) {
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
        (mk(ok), mk(knot), out)
    }

    #[test]
    fn failed_tickets_surface_at_once_beside_healthy_requests() {
        // A cyclic tree fails, and would on every attempt: the failure
        // surfaces at once with its error. Healthy requests sharing the
        // service are unaffected.
        let (good, knot, out) = knot_fixture();
        let plan = CompilationPlan::analyze(good.grammar(), DriverConfig::workers(2));
        let mut q = ServiceQueue::new(&plan, ServiceConfig::fifo(16));
        let Admission::Admitted { id: good_a } = q.offer(&good, 0) else {
            panic!("admitted")
        };
        let Admission::Admitted { id: bad } = q.offer(&knot, 1) else {
            panic!("admitted")
        };
        let Admission::Admitted { id: good_b } = q.offer(&good, 0) else {
            panic!("admitted")
        };
        q.drain();
        let stats = q.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        let f = q.take_failed().expect("failed request surfaces");
        assert_eq!(f.id, bad);
        assert_eq!(f.tenant, 1);
        assert!(matches!(f.error, EvalError::Cycle { .. }), "{f:?}");
        let done: Vec<u64> = std::iter::from_fn(|| q.take_completed())
            .map(|d| d.output.root_value(out).copied().map(|v| (d.id, v)))
            .map(|o| {
                let (id, v) = o.unwrap();
                assert_eq!(v, 101);
                id
            })
            .collect();
        assert_eq!(done, vec![good_a, good_b]);
    }

    /// Completed and failed requests both leave the service's
    /// per-request maps; only their timestamps stay, for the caller.
    #[test]
    fn finished_requests_leave_no_bookkeeping_but_their_times() {
        let (good, knot, _) = knot_fixture();
        let plan = CompilationPlan::analyze(good.grammar(), DriverConfig::workers(2));
        let mut q = ServiceQueue::new(&plan, ServiceConfig::fifo(64));
        let mut admitted = 0;
        for i in 0..6 {
            let tree = if i == 2 { &knot } else { &good };
            if let Admission::Admitted { .. } = q.offer(tree, i) {
                admitted += 1;
            }
        }
        q.drain();
        let stats = q.stats();
        assert_eq!((stats.completed, stats.failed), (admitted - 1, 1));
        assert!(q.trees.is_empty(), "trees");
        assert!(q.tenants.is_empty(), "tenants");
        assert!(q.dispatched.is_empty(), "dispatched");
        assert_eq!(q.times.len(), admitted, "times are kept");
    }
}
