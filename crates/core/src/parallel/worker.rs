//! The worker core: one evaluator machine's jobs, free of threads,
//! channels and clocks.
//!
//! In the paper every evaluator machine runs one combined evaluator: it
//! evaluates statically wherever no remote dependency exists (§2.4).
//! [`WorkerCore`] is that evaluator, written once. It is the only code
//! under `parallel/` that builds, feeds, steps or finishes a job:
//!
//! * it holds the worker's running region machines in `(ticket,
//!   region)` order, and the [`MachineScratch`]es its finished machines
//!   leave behind for the next;
//! * [`WorkerCore::activate`] takes up a claimed job: a **whole-tree
//!   job** (no decomposition: the ticket stayed whole) runs the plan's
//!   visit programs to completion there and then; a region job becomes
//!   a machine, and the values that arrived before it did are replayed
//!   into it;
//! * with the memo on, both kinds of job run behind the memo points
//!   their cut lists (see [`crate::memo`]): the static interpreter
//!   probes a point at its visit — a region machine at the static visit
//!   of its root, once the parent's inherited values are in — replays a
//!   hit instead of visiting it and installs a miss when the visit
//!   returns. So the worker installs what it evaluated, and retiring a
//!   ticket installs nothing;
//! * [`WorkerCore::feed`] delivers a boundary value,
//!   [`WorkerCore::cancel`] drops a failed ticket's jobs and
//!   [`WorkerCore::clear`] everything (a crash);
//! * [`WorkerCore::drive`] is the oldest-first pass: the oldest machine
//!   runs unbudgeted, younger ones for their driver's
//!   [`Driver::YIELD_STEPS`] before the driver may poll for values that
//!   unblock an older one. Every step runs under [`contained`], so a
//!   panicking rule fails its job, and a machine that starves with
//!   nothing left to await is a dependency cycle local to its region,
//!   which fails the job too;
//! * every value goes to its driver as the machine computed it, tagged
//!   with the job that sends it; what the string librarian (§4.2)
//!   would make of it on the wire is the simulator's accounting, not
//!   the core's;
//! * a finished job is retired on the scheduler board *before* it is
//!   reported, and reported only if the board says this worker still
//!   owns it (crash recovery may have reseeded it, a cancellation
//!   purged it).
//!
//! Sends are forwarded after every scheduler step, not when a machine
//! runs dry: peers block on these values, so batching them would
//! serialize the symbol-table chain that is meant to pipeline across
//! machines.
//!
//! # Drivers
//!
//! The core asks its driver to carry out a handful of effects — the
//! [`Driver`] trait, monomorphized, so the per-step path makes no
//! dynamic call. Two drivers run it, each keeping its own transport:
//!
//! | effect | pool worker thread (`super::pool`) | simulated evaluator (`super::sim`) |
//! |---|---|---|
//! | charge a build / a step | nothing: the wall clock runs anyway | virtual CPU from the cost model, under its activity-trace phase |
//! | send a boundary value | board route + deliver under one lock, then a channel send | the librarian's `Register` messages and the value's accounted size, board route, then a wire message |
//! | report a root value | kept: it rides in the root region's `Done` | the librarian's `Register` messages, then a `Root` message to the parser, at once |
//! | retire | on the board, under its lock | on the board |
//! | report `Done` | the job's store, statistics and worker index over a channel; the store comes back to this worker to be freed when the report drops | a 16-byte message to the parser |
//! | poll between bursts | drains its channel into the core | nothing: messages arrive between handlers |
//!
//! The pool drives with a yield budget; the simulator drives each
//! machine until it starves, as its handlers are atomic anyway.

use crate::analysis::Plans;
use crate::eval::{
    static_eval_with_points, AttrMsg, EvalError, EvalPlan, Machine, MachineMode, MachineScratch,
    SendTarget, StepOutcome, VisitPrograms,
};
use crate::grammar::AttrId;
use crate::memo::{MemoCache, MemoPoint, MemoPoints};
use crate::split::{Decomposition, RegionId};
use crate::stats::EvalStats;
use crate::tree::{AttrStore, NodeId, ParseTree, RegionStore};
use crate::value::AttrValue;
use std::sync::Arc;

use super::board::{Input, JobKey};
use super::Ticket;

/// How a job's ticket was cut, which decides what the job runs. Either
/// way the cut carries the ticket's memo points in node order (none
/// with the memo off).
#[derive(Clone)]
pub(crate) enum Cut<V: AttrValue> {
    /// Into the regions of this decomposition: the job is one of them.
    /// Its memo points are the cut's cacheable one-visit leaf-region
    /// roots, each probed by the machine it roots.
    Regions(Arc<Decomposition>, Arc<[MemoPoint]>),
    /// Not at all: the job is the whole tree, evaluated by the plan's
    /// compiled visit programs. Only a plan that has them is carved
    /// into whole-tree jobs, so the job carries them.
    Whole(Arc<Plans>, Arc<VisitPrograms<V>>, Arc<[MemoPoint]>),
}

impl<V: AttrValue> Cut<V> {
    /// The decomposition of a ticket cut into regions.
    pub fn regions(&self) -> Option<&Arc<Decomposition>> {
        match self {
            Cut::Regions(decomp, _) => Some(decomp),
            Cut::Whole(..) => None,
        }
    }
}

/// What a finished job ships back.
pub(crate) enum Finished<V> {
    /// A region job: its O(region) local store, which the pool's report
    /// reads where it is, and — from the root region of a driver that
    /// keeps them — the tree's root values.
    Region {
        store: RegionStore<V>,
        roots: Vec<(AttrId, V)>,
    },
    /// A whole-tree job: the tree's store, which retirement adopts.
    Tree(AttrStore<V>),
}

/// A successful job's statistics and what it ships back.
pub(crate) type JobResult<V> = (EvalStats, Finished<V>);

/// The effects [`WorkerCore`] asks of its driver (see the module docs
/// for what each driver does with them).
pub(crate) trait Driver<V: AttrValue> {
    /// How many steps a machine younger than the oldest may run before
    /// the pass lets the driver [poll](Driver::poll); `usize::MAX` never
    /// yields.
    const YIELD_STEPS: usize;

    /// A region machine was built, before any value is fed to it.
    fn charge_build(&mut self, _machine: &Machine<V>) {}

    /// A machine step ran; its sends follow.
    fn charge_step(&mut self, _outcome: &StepOutcome<V>) {}

    /// Job `from` sends a boundary value to job `to`.
    fn send(&mut self, from: JobKey, to: JobKey, node: NodeId, attr: AttrId, value: V);

    /// Job `from`, its tree's root region, reports a root value. A
    /// driver that ships root values aboard the root region's `Done`
    /// hands it back.
    fn root(&mut self, from: JobKey, attr: AttrId, value: V) -> Option<V>;

    /// Retires finished job `key` on the scheduler board: whether this
    /// worker still owned it.
    fn retire(&mut self, key: JobKey) -> bool;

    /// Reports an owned job finished.
    fn done(&mut self, key: JobKey, result: Result<JobResult<V>, EvalError>);

    /// Called between bursts with every job up to the cursor starved or
    /// yielded: hand queued messages to the core. `false` ends the pass
    /// (the worker must exit).
    fn poll(&mut self, _core: &mut WorkerCore<V>) -> bool {
        true
    }
}

/// Where a job's outgoing values go.
struct Outbox<V> {
    key: JobKey,
    /// Root values the driver handed back, for the job's `Done`.
    roots: Vec<(AttrId, V)>,
}

impl<V: AttrValue> Outbox<V> {
    fn new(key: JobKey) -> Self {
        Outbox {
            key,
            roots: Vec::new(),
        }
    }

    /// Forwards one send.
    fn emit<D: Driver<V>>(&mut self, d: &mut D, send: AttrMsg<V>) {
        match send.to {
            SendTarget::Parser => {
                if let Some(value) = d.root(self.key, send.attr, send.value) {
                    self.roots.push((send.attr, value));
                }
            }
            SendTarget::Region(q) => {
                let to = (self.key.0, q);
                d.send(self.key, to, send.node, send.attr, send.value)
            }
        }
    }
}

/// A region job with its machine.
struct Job<V: AttrValue> {
    out: Outbox<V>,
    machine: Machine<V>,
    /// Its ticket's memo points (none with the memo off).
    points: Arc<[MemoPoint]>,
}

/// What one burst of a machine's steps ended in.
enum Ran {
    /// No ready task: waiting on boundary values.
    Starved,
    /// Budget spent with ready work left.
    Yielded,
    /// Every task ran (`None`) or the job failed.
    Done(Option<EvalError>),
}

/// One worker's jobs and the one implementation of everything done to
/// them (see the module docs).
pub(crate) struct WorkerCore<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
    mode: MachineMode,
    /// The cross-tree memo cache.
    memo: Option<Arc<MemoCache<V>>>,
    /// Region machines in `(ticket, region)` order — stolen jobs
    /// activate out of order, and the pass's oldest-first preference
    /// keys off this order.
    jobs: Vec<Job<V>>,
    /// Recycled construction/evaluation buffers.
    scratches: Vec<MachineScratch<V>>,
    /// The lowest index into `jobs` fed or shifted since the pass last
    /// let its driver poll.
    fed: Option<usize>,
}

impl<V: AttrValue> WorkerCore<V> {
    /// An idle worker evaluating against `plan` in `mode`; `memo` turns
    /// the jobs' memo points on.
    pub fn new(plan: Arc<EvalPlan<V>>, mode: MachineMode, memo: Option<Arc<MemoCache<V>>>) -> Self {
        WorkerCore {
            plan,
            mode,
            memo,
            jobs: Vec::new(),
            scratches: Vec::new(),
            fed: None,
        }
    }

    /// Takes up job `key`, claimed off the board with the values that
    /// reached it first. A whole-tree job runs to completion here: it
    /// is short by construction, which bounds how long an older machine
    /// waits for its next step.
    pub fn activate<D: Driver<V>>(
        &mut self,
        d: &mut D,
        key: JobKey,
        tree: Arc<ParseTree<V>>,
        cut: Cut<V>,
        early: Vec<Input<V>>,
    ) {
        let (decomp, points) = match cut {
            Cut::Regions(decomp, points) => (decomp, points),
            Cut::Whole(plans, programs, points) => {
                debug_assert!(
                    key.1 == 0 && early.is_empty(),
                    "a whole-tree job is its ticket's only job and awaits nothing"
                );
                let result = self.run_whole(&tree, &plans, &programs, &points);
                report(d, key, result);
                return;
            }
        };
        let mut machine = self.build(d, &tree, &decomp, key.1);
        for (node, attr, value) in early {
            machine.provide(node, attr, value);
        }
        self.insert(Job {
            out: Outbox::new(key),
            machine,
            points,
        });
    }

    /// Delivers a boundary value to job `key`, if it runs here (a value
    /// for a job that finished is stale).
    pub fn feed(&mut self, key: JobKey, node: NodeId, attr: AttrId, value: V) {
        if let Some(i) = self.jobs.iter().position(|j| j.out.key == key) {
            self.jobs[i].machine.provide(node, attr, value);
            self.mark(i);
        }
    }

    /// Drops every job of a failed ticket; none of them reports.
    pub fn cancel(&mut self, ticket: Ticket) {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.out.key.0 != ticket);
        if self.jobs.len() < before {
            self.mark(0);
        }
    }

    /// Loses every job (a crash): the board survives and re-executes
    /// them elsewhere.
    pub fn clear(&mut self) {
        self.jobs.clear();
    }

    /// One oldest-first pass: steps machines until every one has
    /// starved, finishing those that complete. After each burst the
    /// driver polls; when that feeds a machine at or before the cursor,
    /// the pass goes back to it. Returns `false` if a poll ended the
    /// pass.
    pub fn drive<D: Driver<V>>(&mut self, d: &mut D) -> bool {
        let mut i = 0;
        while i < self.jobs.len() {
            let budget = if i == 0 { usize::MAX } else { D::YIELD_STEPS };
            let starved = match self.run(d, i, budget) {
                Ran::Starved => true,
                Ran::Yielded => false,
                Ran::Done(err) => {
                    self.finish(d, i, err);
                    false
                }
            };
            self.fed = None;
            if !d.poll(self) {
                return false;
            }
            match self.fed {
                Some(f) if f <= i => i = f,
                _ if starved => i += 1,
                // Finished: the next job shifted into `i`. Yielded:
                // nothing older was fed, so keep at it.
                _ => {}
            }
        }
        true
    }

    /// Removes finished machine `i`, keeps its scratch and reports it.
    fn finish<D: Driver<V>>(&mut self, d: &mut D, i: usize, err: Option<EvalError>) {
        let Job { out, machine, .. } = self.jobs.remove(i);
        let (store, stats, scratch) = machine.recycle();
        self.scratches.push(scratch);
        let result = match err {
            Some(e) => Err(e),
            None => Ok((
                stats,
                Finished::Region {
                    store,
                    roots: out.roots,
                },
            )),
        };
        report(d, out.key, result);
    }

    /// Steps machine `i` for up to `budget` steps behind its memo
    /// points, forwarding its sends after every step.
    fn run<D: Driver<V>>(&mut self, d: &mut D, i: usize, budget: usize) -> Ran {
        let Job {
            out,
            machine,
            points,
        } = &mut self.jobs[i];
        let mut points = consult(&self.memo, points);
        for _ in 0..budget {
            match contained(|| machine.step_with(points.as_mut())) {
                Err(e) => return Ran::Done(Some(e)),
                Ok(None) if machine.is_done() => return Ran::Done(None),
                // Nothing ready, tasks left and *no awaited external
                // instance*: only `provide` enqueues new work and the
                // awaited set is fixed at construction, so this is a
                // dependency cycle local to the region. (A cycle spread
                // over regions still deadlocks: every machine then
                // awaits a peer, and no local check can see the loop.)
                Ok(None) if machine.awaiting() == 0 => {
                    return Ran::Done(Some(EvalError::Cycle {
                        stuck: machine.pending(),
                    }))
                }
                Ok(None) => return Ran::Starved,
                Ok(Some(outcome)) => {
                    d.charge_step(&outcome);
                    for send in outcome.sends {
                        out.emit(d, send);
                    }
                }
            }
        }
        Ran::Yielded
    }

    /// Records that job index `i` was fed, or that the jobs from `i` on
    /// shifted.
    fn mark(&mut self, i: usize) {
        self.fed = Some(self.fed.map_or(i, |f| f.min(i)));
    }

    fn insert(&mut self, job: Job<V>) {
        let pos = self.jobs.partition_point(|j| j.out.key < job.out.key);
        self.jobs.insert(pos, job);
        self.mark(pos);
    }

    fn build<D: Driver<V>>(
        &mut self,
        d: &mut D,
        tree: &Arc<ParseTree<V>>,
        decomp: &Decomposition,
        region: RegionId,
    ) -> Machine<V> {
        let scratch = self.scratches.pop().unwrap_or_default();
        let machine = Machine::from_plan(&self.plan, tree, decomp, region, self.mode, scratch);
        d.charge_build(&machine);
        machine
    }

    /// A whole-tree job, start to finish: the sequential static
    /// evaluation into the store retirement adopts, behind the job's
    /// memo points (memo on) — each probed at its visit, replayed on a
    /// hit, installed here after a miss.
    fn run_whole(
        &mut self,
        tree: &ParseTree<V>,
        plans: &Plans,
        programs: &VisitPrograms<V>,
        points: &[MemoPoint],
    ) -> Result<JobResult<V>, EvalError> {
        let mut points = consult(&self.memo, points);
        let mut scratch = self.scratches.pop().unwrap_or_default();
        let evaluated = contained(|| {
            static_eval_with_points(
                tree,
                plans,
                programs,
                scratch.eval_scratch(),
                points.as_mut(),
            )
        });
        self.scratches.push(scratch);
        evaluated.map(|(store, stats)| (stats, Finished::Tree(store)))
    }
}

/// A job's memo points against the cache: `None` with the memo off or
/// no points to consult.
fn consult<'a, V: AttrValue>(
    memo: &'a Option<Arc<MemoCache<V>>>,
    points: &'a [MemoPoint],
) -> Option<MemoPoints<'a, V>> {
    memo.as_deref()
        .filter(|_| !points.is_empty())
        .map(|memo| MemoPoints::new(memo, points))
}

/// Retires a finished job on the board, then reports it — if this
/// worker still owned it. Retiring first means a parser that has seen
/// every `Done` sees a board with nothing left on it.
fn report<V: AttrValue, D: Driver<V>>(
    d: &mut D,
    key: JobKey,
    result: Result<JobResult<V>, EvalError>,
) {
    if d.retire(key) {
        d.done(key, result);
    }
}

/// Runs `f` — a call into semantic rules — containing a panic: a buggy
/// rule fails its own job (`EvalError::RulePanic`, reported like any
/// failure) instead of unwinding the worker.
fn contained<T>(f: impl FnOnce() -> Result<T, EvalError>) -> Result<T, EvalError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(EvalError::RulePanic {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{compute_plans, Plans};
    use crate::grammar::GrammarBuilder;
    use crate::memo::root_point;
    use crate::parallel::pool::{PoolConfig, WorkerPool, MIN_REGION_WORK};
    use crate::parallel::sim::{run_sim_stream, SimConfig};
    use crate::parallel::ResultPropagation;
    use crate::split::{decompose_granular, RegionGranularity, SplitTable};
    use crate::tree::TreeBuilder;
    use crate::value::Value;
    use paragram_netsim::FaultPlan;
    use paragram_rope::Rope;
    use std::collections::VecDeque;

    /// A chain of `cons` under `top`: `decls` up, `env` down, and code
    /// up as a rope of one line per `cons`, long enough that the
    /// simulator's librarian registers a region's code. Every rule costs
    /// one unit, except `cons`'s code in [`chain_costed`].
    struct Chain {
        trees: Vec<Arc<ParseTree<Value>>>,
        plans: Arc<Plans>,
        plan: Arc<EvalPlan<Value>>,
        out: AttrId,
    }

    fn chain(sizes: &[usize]) -> Chain {
        chain_costed(sizes, 1)
    }

    /// [`chain`] with `cons`'s code rule costed at `cons_cost` units.
    fn chain_costed(sizes: &[usize], cons_cost: u64) -> Chain {
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
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, code), (0, env)],
            |a| {
                let line = format!("op {}\n", a[1].as_int().unwrap());
                Value::Rope(Rope::from(line).concat(a[0].as_rope().unwrap()))
            },
            cons_cost,
        );
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| Value::Int(0));
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));
        let grammar = Arc::new(g.build(s).unwrap());
        let plans = Arc::new(compute_plans(&grammar).unwrap());
        let plan = Arc::new(EvalPlan::from_parts(
            &grammar,
            Some(Arc::clone(&plans)),
            None,
        ));
        let trees = sizes
            .iter()
            .map(|&n| {
                let mut tb = TreeBuilder::new(&grammar);
                let mut tail = tb.leaf(nil);
                for _ in 0..n {
                    tail = tb.node(cons, [tail]);
                }
                let root = tb.node(top, [tail]);
                Arc::new(tb.finish(root).unwrap())
            })
            .collect();
        Chain {
            trees,
            plans,
            plan,
            out,
        }
    }

    fn halves(c: &Chain, tree: &Arc<ParseTree<Value>>) -> Arc<Decomposition> {
        let split = SplitTable::new(c.plan.grammar().as_ref(), 1.0);
        let machines = RegionGranularity::Machines(2);
        let d = decompose_granular(tree, &split, c.plan.work_table(), machines);
        assert_eq!(d.len(), 2, "a two-region ticket");
        Arc::new(d)
    }

    fn core(c: &Chain, memo: Option<Arc<MemoCache<Value>>>) -> WorkerCore<Value> {
        let mode = MachineMode::Combined;
        WorkerCore::new(Arc::clone(&c.plan), mode, memo)
    }

    #[derive(Debug)]
    enum Effect {
        Build(RegionId),
        Send(JobKey),
        Root(AttrId, Value),
        Done(JobKey),
    }

    /// A driver that records every effect and is its own network:
    /// what a job sends waits on the wire until the next poll feeds it
    /// back into the core.
    #[derive(Default)]
    struct Recorder {
        effects: Vec<Effect>,
        /// Root values ride in `Done` (the pool) or go out at once.
        roots_in_done: bool,
        /// Jobs the board no longer owns.
        lost: Vec<JobKey>,
        wire: VecDeque<(JobKey, NodeId, AttrId, Value)>,
        results: Vec<(JobKey, Result<JobResult<Value>, EvalError>)>,
    }

    impl Driver<Value> for Recorder {
        const YIELD_STEPS: usize = 3;

        fn charge_build(&mut self, machine: &Machine<Value>) {
            self.effects.push(Effect::Build(machine.region()));
        }

        fn send(&mut self, _: JobKey, to: JobKey, node: NodeId, attr: AttrId, value: Value) {
            self.effects.push(Effect::Send(to));
            self.wire.push_back((to, node, attr, value));
        }

        fn root(&mut self, _: JobKey, attr: AttrId, value: Value) -> Option<Value> {
            self.effects.push(Effect::Root(attr, value.clone()));
            self.roots_in_done.then_some(value)
        }

        fn retire(&mut self, key: JobKey) -> bool {
            !self.lost.contains(&key)
        }

        fn done(&mut self, key: JobKey, result: Result<JobResult<Value>, EvalError>) {
            self.effects.push(Effect::Done(key));
            self.results.push((key, result));
        }

        fn poll(&mut self, core: &mut WorkerCore<Value>) -> bool {
            while let Some((key, node, attr, value)) = self.wire.pop_front() {
                core.feed(key, node, attr, value);
            }
            true
        }
    }

    impl Recorder {
        /// Drives `core` until nothing is left on the wire.
        fn settle(&mut self, core: &mut WorkerCore<Value>) {
            while core.drive(self) && !self.wire.is_empty() {
                self.poll(core);
            }
        }

        fn dones(&self) -> Vec<JobKey> {
            let mut keys: Vec<JobKey> = self.results.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys
        }
    }

    /// Activates both regions of ticket `t` of `tree` on `core`.
    fn activate_halves(
        c: &Chain,
        core: &mut WorkerCore<Value>,
        d: &mut Recorder,
        t: Ticket,
        tree: &Arc<ParseTree<Value>>,
    ) {
        let decomp = halves(c, tree);
        for region in [1, 0] {
            let cut = Cut::Regions(Arc::clone(&decomp), Arc::default());
            core.activate(d, (t, region), Arc::clone(tree), cut, Vec::new());
        }
    }

    #[test]
    fn each_jobs_done_comes_last() {
        let c = chain(&[200]);
        let (mut core, mut d) = (core(&c, None), Recorder::default());
        activate_halves(&c, &mut core, &mut d, 0, &c.trees[0]);
        d.settle(&mut core);
        assert_eq!(d.dones(), [(0, 0), (0, 1)]);
        // Each job's `Done` is its last effect: the child's sends — to
        // the root region — all precede it.
        let child_done = d
            .effects
            .iter()
            .position(|e| matches!(e, Effect::Done((0, 1))))
            .unwrap();
        assert!(d.effects[..child_done]
            .iter()
            .any(|e| matches!(e, Effect::Send((0, 0)))));
        assert!(d.effects[child_done..]
            .iter()
            .all(|e| !matches!(e, Effect::Send((0, 0)))));
        assert!(matches!(d.effects.last(), Some(Effect::Done((0, 0)))));
        assert!(matches!(d.effects[0], Effect::Build(1)));
    }

    #[test]
    fn root_values_are_reported_once() {
        let c = chain(&[120]);
        let want = crate::eval::static_eval(&c.trees[0], &c.plans).unwrap().0;
        let want = want.get(c.trees[0].root(), c.out).unwrap();
        for roots_in_done in [false, true] {
            let mut d = Recorder {
                roots_in_done,
                ..Recorder::default()
            };
            let mut core = core(&c, None);
            activate_halves(&c, &mut core, &mut d, 0, &c.trees[0]);
            d.settle(&mut core);
            let reported: Vec<&Value> = d
                .effects
                .iter()
                .filter_map(|e| match e {
                    Effect::Root(a, v) if *a == c.out => Some(v),
                    _ => None,
                })
                .collect();
            assert_eq!(reported.len(), 1, "roots in done: {roots_in_done}");
            let aboard: Vec<(AttrId, Value)> = d
                .results
                .iter()
                .flat_map(|(_, r)| match r {
                    Ok((_, Finished::Region { roots, .. })) => roots.clone(),
                    _ => Vec::new(),
                })
                .collect();
            if roots_in_done {
                assert_eq!(aboard.len(), 1);
                assert_eq!(aboard[0].0, c.out);
            } else {
                assert!(aboard.is_empty());
            }
            // The root region's code is the whole text, its child's
            // included.
            assert_eq!(reported[0], want);
        }
    }

    #[test]
    fn cancel_drops_only_that_tickets_jobs() {
        let c = chain(&[100, 140]);
        let (mut core, mut d) = (core(&c, None), Recorder::default());
        activate_halves(&c, &mut core, &mut d, 0, &c.trees[0]);
        activate_halves(&c, &mut core, &mut d, 1, &c.trees[1]);
        core.cancel(0);
        let keys: Vec<JobKey> = core.jobs.iter().map(|j| j.out.key).collect();
        assert_eq!(keys, [(1, 0), (1, 1)]);
        d.settle(&mut core);
        assert_eq!(d.dones(), [(1, 0), (1, 1)]);
        assert!(d.results.iter().all(|(_, r)| r.is_ok()));
        assert!(core.jobs.is_empty());
    }

    #[test]
    fn a_job_the_board_no_longer_owns_finishes_without_reporting() {
        let c = chain(&[160]);
        let mut d = Recorder {
            lost: vec![(0, 1)],
            ..Recorder::default()
        };
        let mut core = core(&c, None);
        activate_halves(&c, &mut core, &mut d, 0, &c.trees[0]);
        d.settle(&mut core);
        // The lost job still ran — its values reached the root region —
        // but only the owned one reported.
        assert_eq!(d.dones(), [(0, 0)]);
        assert!(core.jobs.is_empty());
        assert_eq!(core.scratches.len(), 2, "both machines were recycled");
    }

    #[test]
    fn a_whole_tree_job_probes_and_replays_under_the_memo() {
        // Built independently: distinct arenas, identical hashes.
        let (a, b) = (chain(&[40]), chain(&[40]));
        let memo = Arc::new(MemoCache::new(1 << 20));
        let mut core = core(&a, Some(Arc::clone(&memo)));
        let mut d = Recorder::default();
        let programs = Arc::clone(a.plan.programs().unwrap());
        let whole =
            |core: &mut WorkerCore<Value>, d: &mut Recorder, t, tree: &Arc<ParseTree<Value>>| {
                let points = root_point(tree.as_ref()).into_iter().collect();
                let cut = Cut::Whole(Arc::clone(&a.plans), Arc::clone(&programs), points);
                core.activate(d, (t, 0), Arc::clone(tree), cut, Vec::new());
                let (key, result) = d.results.pop().unwrap();
                assert_eq!(key, (t, 0));
                let Ok((stats, Finished::Tree(store))) = result else {
                    panic!("a whole-tree job reports the tree's store");
                };
                (stats, store)
            };
        let (stats, first) = whole(&mut core, &mut d, 0, &a.trees[0]);
        assert!(stats.total_applied() > 0, "a cold cache evaluates");
        assert_eq!(
            memo.counters().inserts,
            1,
            "the job installs its root point"
        );

        let (stats, replayed) = whole(&mut core, &mut d, 1, &b.trees[0]);
        assert_eq!(stats, EvalStats::default(), "a replay applies no rule");
        assert_eq!(replayed.filled(), replayed.len());
        for i in 0..first.len() {
            assert_eq!(replayed.get_by_index(i), first.get_by_index(i));
        }
        let c = memo.counters();
        assert_eq!((c.hits, c.misses), (1, 1), "{c:?}");
        assert!(d.effects.iter().all(|e| matches!(e, Effect::Done(_))));
    }

    /// The two drivers of one core agree: for the same trees cut the
    /// same way, the pool produces the root values and the summed
    /// statistics of the simulator under either propagation mode —
    /// propagation changes what the simulator puts on the wire, never
    /// what a machine computes or emits.
    #[test]
    fn the_sim_and_the_pool_agree_on_values_and_statistics() {
        // Costed in multiples of the pool's hand-off floor, so that the
        // pool cuts what the simulator cuts.
        let c = chain_costed(&[200, 90, 150, 64], MIN_REGION_WORK);
        let budget = c.trees.iter().map(|t| c.plan.tree_work(t)).min().unwrap() / 3;
        assert!(budget >= MIN_REGION_WORK);
        let granularity = RegionGranularity::Adaptive { budget };
        let sim = |result| {
            let config = SimConfig {
                result,
                ..SimConfig::paper(3)
            };
            let none = FaultPlan::default();
            run_sim_stream(
                &c.trees,
                Some(&c.plans),
                &config,
                2,
                granularity,
                &none,
                None,
            )
            .unwrap()
        };
        let naive = sim(ResultPropagation::Naive);
        let librarian = sim(ResultPropagation::Librarian);
        let config = PoolConfig::workers(2).with_adaptive_budget(budget);
        let mut pool = WorkerPool::new(&c.plan, config);
        let mut stats = EvalStats::default();
        let sorted = |mut v: Vec<(AttrId, Value)>| {
            v.sort_by_key(|(a, _)| *a);
            v.into_iter()
                .map(|(a, v)| (a, v.to_string()))
                .collect::<Vec<_>>()
        };
        for (i, tree) in c.trees.iter().enumerate() {
            let report = pool.eval(tree).unwrap();
            assert_eq!(report.regions, naive.regions[i], "tree {i}: same cut");
            assert!(
                report.regions > 1,
                "tree {i}: region jobs, not a whole tree"
            );
            let got = sorted(report.root_values);
            for sim in [&naive, &librarian] {
                assert_eq!(got, sorted(sim.root_values[i].clone()), "tree {i}");
            }
            stats += report.stats;
        }
        assert_eq!(stats, naive.stats);
        assert_eq!(stats, librarian.stats);
    }
}
