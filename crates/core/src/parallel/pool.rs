//! A persistent evaluator worker pool with split-phase code combining
//! and cross-tree pipelining: the paper's parallel compiler on real OS
//! threads, measured in wall-clock time.
//!
//! Evaluator threads are spawned **once** and claim per-tree region
//! jobs from a shared scheduler board, so a stream of trees pays no
//! per-compilation spin-up (thread creation, channel setup). Each
//! thread drives one worker core (`parallel/worker.rs`, the same job
//! code the simulator's evaluators run): the thread supplies the
//! transport — its channel, polled between bursts of machine steps,
//! and the board lock — and the core builds, feeds, steps and finishes
//! the jobs, recycling its machines' scratch buffers from tree to tree.
//! The pool runs exactly [`PoolConfig::workers`] threads, places every
//! job the paper's way (fixed modular placement) and keeps two trees
//! per worker in flight; [`WorkerPool::eval`] is the one-shot call for
//! one tree. That is all this file is — a thread driver. What it shares
//! with the simulator is not its own: the scheduler board
//! (`parallel/board.rs`), the worker core (`parallel/worker.rs`), the
//! shared vocabulary ([`Ticket`], [`SchedCounters`], [`FaultCounters`]
//! in [`crate::parallel`]) and the memo contract ([`crate::memo`]).
//!
//! # Tickets, and why threads need no librarian
//!
//! Every tree submitted to the pool gets a monotonically increasing
//! [`Ticket`], and every message about its jobs carries it, so trees in
//! flight together never interfere.
//!
//! The paper's string librarian (§4.2) exists because its evaluator
//! machines share nothing: without it, every ancestor region re-ships
//! its descendants' ever-growing code text over the network. The
//! simulator keeps that protocol, and `ablation_librarian` measures
//! what it saves there. Threads share memory, so here a code value
//! crosses a region boundary as the rope it is — a reference-counted
//! handle, whatever the length of its text: nothing registers with a
//! librarian, nothing is left to resolve, and a retired store holds
//! exactly the values a sequential evaluation computes.
//!
//! # Region-granular scheduling
//!
//! The pool's unit of scheduling is the **region job** — a
//! `(ticket, region)` pair with its own machine, dependencies and
//! completion signal — *not* the tree. A tree's pass through the pool:
//!
//! ```text
//! submit(tree)
//!   │ carve                         ≤ workers regions (the default)
//!   │                               or cost-driven (adaptive budget)
//!   ▼
//! ticket t ──┬─ job (t,0) ─▶ worker w(t,0)    one Machine per job;
//!            ├─ job (t,1) ─▶ worker w(t,1)    workers multiplex their
//!            ├─ job (t,2) ─▶ worker w(t,2)    machines, oldest
//!            └─ job (t,r) ─▶ worker w(t,r)    (ticket, region) first
//!                  │
//!                  │  Attr { t, region, .. }   between (t,q) machines
//!                  ▼
//! Done(t, q) per region ─▶ parser collects InFlight(t)
//!   (root values aboard   ─▶ retirement ─▶ PoolReport: the region
//!    the root region's)                    stores, as they are
//!
//! ticket t, not cut ── whole-tree job (t,0) ─▶ worker w(t,0)
//!                        static evaluation into an AttrStore:
//!                        no decomposition or machine
//!                  ▼
//! Done(t, 0) with the store ─▶ retirement adopts it ─▶ PoolReport
//!
//! drop(PoolReport) ── Reclaim(store) ─▶ the worker that built it,
//!                                        which frees it outside any
//!                                        machine burst
//! ```
//!
//! A finished job is **one message**: its `Done` carries what it
//! computed — a region's local store (and, from the root region, the
//! tree's root values), or a whole tree's store — and the index of the
//! worker that ran it. The report keeps those stores where they are
//! ([`RetiredStore`]), as the paper's evaluators keep their values
//! (§4.2: only the root attributes travel back to the parser), and a
//! dropped report hands each store back to its worker to be freed.
//!
//! A ticket that stays whole — one region — is not a degenerate case of
//! the machinery above but a different job: nothing crosses a boundary,
//! so there is nothing to decompose, no dependency to schedule and no
//! region store to map back. The worker runs
//! the plan's compiled visit programs over the tree exactly as the
//! sequential static evaluator does (§2.4: static evaluation wherever
//! no remote dependency exists) and retirement adopts the store it
//! filled. Such a job runs to completion when its worker takes it up,
//! rather than taking turns with that worker's machines; it is short by
//! construction (by default below twice the hand-off floor, about
//! 1.6 ms of evaluation; under an adaptive budget, a tree with one
//! budget's work or nowhere to split), which bounds how long an older
//! machine on that worker waits for its next step. It is the ticket's
//! one board job, which a crash re-executes from nothing, and with the
//! memo on it keeps the root region's contract: probe, replay or
//! evaluate, install at retirement.
//!
//! The pool reads its machine mode off the plan
//! ([`EvalPlan::best_mode`]) and always propagates results naively
//! (above); the librarian is the simulator's. A pool whose plan has no
//! visit programs (its grammar is not l-ordered, §4.1) runs
//! [`crate::eval::MachineMode::Dynamic`] machines and has no whole-tree
//! job to run: a tree that stays whole is a one-region machine.
//!
//! Because regions — not trees — are the work items, a single huge tree
//! decomposed into many budget-sized regions
//! ([`crate::split::decompose_adaptive`], selected with
//! [`PoolConfig::with_adaptive_budget`]) fills the worker park exactly
//! like a batch of small trees does, and mixed streams of huge and tiny
//! trees interleave at region granularity: there is no head-of-line
//! blocking behind a big tree's longest region, because every worker
//! holds several of the big tree's regions and any younger tree's
//! regions besides. The default cut (regions ≤ workers) is the paper's
//! fixed one-region-per-machine decomposition *with the paper's
//! granularity argument applied to threads*: §3 gives every `%split`
//! nonterminal a minimum size so a subtree too small to repay shipping
//! is never split off, and the pool asks for
//! `min(workers, tree_work / MIN_REGION_WORK)` regions (at least one),
//! so a tree below twice the hand-off cost stays whole and is one
//! whole-tree job. The floor is [`MIN_REGION_WORK`], whose doc comment
//! carries the measured crossover; a paper-sized tree (≥ 25 k nodes) is
//! far above it and decomposes exactly as before. An explicit adaptive
//! budget is not floored, and neither is the simulator, whose hand-off
//! cost is the modelled network and whose minima are the grammar's.
//!
//! # Cross-tree pipelining
//!
//! Because every message carries its ticket, the pool needs no barrier
//! between trees. A small in-flight window
//! ([`WorkerPool::pipeline_depth`]) lets tree N+1's region jobs
//! dispatch while tree N's regions drain. The window is one constant,
//! `TREES_PER_WORKER` = two trees **per worker**, not a setting. It
//! is per worker because a small tree is one job on one worker,
//! placement rotating by ticket: a window of `workers` trees puts one
//! on each, and then a worker that finishes has nothing to do until
//! the caller's thread has been woken, has retired the tree, prepared
//! the next and sent it — a round trip between two threads, 20–200 µs
//! on the 2-core box against the ≈ 65 µs the tree takes to evaluate.
//! With two per worker the next tree is already on the worker's deque.
//! (Measured on `small_iid`: `lines_per_s` ×1.14–1.27 for the window
//! alone; four per worker read no better than two. ROADMAP's Status
//! notes have the tables.) A single tree through [`WorkerPool::eval`]
//! runs alone whatever the window: the paper's one-tree barrier, which
//! the simulator keeps as its `pipeline_depth` argument (Figure 5).
//! Worker cores multiplex their
//! machines **oldest job first**: whenever an older machine starves
//! (blocked on an attribute from a straggling peer — e.g. downstream of
//! the symbol-table pipeline), the worker steps the next job's machine
//! instead of idling. Both the early-finisher idle time *and* the
//! blocked-on-messages time an epoch barrier would waste become useful
//! work, and the parser-side retirement of tree N overlaps tree N+1's
//! evaluation.
//!
//! # What retirement costs
//!
//! Retiring a ticket ([`PoolReport::assemble`]) runs on whichever
//! thread collects it — the batch driver's caller, or the service
//! queue's pump — after the tree's last rule has fired, so none of it
//! overlaps that tree's evaluation. It waits on no other thread, and
//! with the memo off it is O(regions): summing the jobs' statistics,
//! collecting the root values the root region's `Done` carried (a
//! whole-tree job's are read out of its store) and handing the stores
//! to the report. No whole-tree store is sized and no value moves. With
//! the memo on, retirement adds the install scan: one
//! `is_fingerprintable` + `wire_size` per value of each cacheable
//! region not yet cached, or of a whole-tree job's store.
//!
//! Nothing in it reads code text. A node's code rope contains its whole
//! subtree's, so any per-instance step that walks its rope costs Σ
//! subtree sizes — several times a sequential evaluation on a large
//! tree; a rope answers "how many bytes would this put on the wire"
//! from a cached field. The same holds on the sending side: a boundary
//! send clones a rope's handle, not its text.
//!
//! What a caller then reads costs what it reads: a root attribute is
//! one lookup in the region that owns the root. A caller that wants the
//! whole-tree [`AttrStore`] dereferences the report's store, which
//! builds it once for a ticket of regions (O(instances), one clone per
//! value). The report's drop frees no store and no value on the
//! caller's thread: each store goes back over a channel to the worker
//! that built it, which frees it whenever its scheduling loop returns
//! (every job it holds starved, or none left), before it claims work or
//! blocks — never inside a machine burst. So a free never interrupts a
//! running job, but it can hold up a starved one: the value that would
//! unblock it waits in the channel until the free is over, and so does
//! the worker's next claim. The 264 k-node tree's stores take tens of
//! milliseconds to free. (Measured on a 2-core box: retiring the
//! 264 k-node tree took 30–32 ms while it built a whole-tree store and
//! takes ≈ 5 µs now; on the benchmark's `large_single`, the caller's
//! teardown of a pass of seven programs fell from 147 to 59 ms, the
//! trees being what is left.)
//!
//! # Placement: one scheduler board, one policy
//!
//! Every region job lives on the scheduler board (`parallel/board.rs`):
//! per-worker deques, a job-location table, load accounts and per-job
//! input logs, with one implementation of every transition. This file
//! is one of the board's two drivers (the simulator is the other): it
//! holds the board under one mutex and supplies the threads and
//! channels. The pool places every job with [`SchedulerMode::Fixed`]:
//! region `r` of ticket `t` goes onto worker `(r + t) mod W` and is
//! never stolen — a ticket's regions go round-robin over the workers
//! (with no more regions than workers, the paper's
//! one-region-per-machine placement) from a start that rotates with the
//! ticket, which keeps consecutive trees' region 0 — a small tree's
//! only region — off one worker. Work stealing is the
//! simulator's: on threads it read 0.94× fixed placement, and no
//! workload here justified keeping it.
//!
//! `submit` seeds a ticket and wakes each of its jobs' homes once — no
//! other worker may claim them; a worker whose machines all starve
//! claims its own deque's front; a boundary value is routed — logged at
//! send — and delivered in one critical section, attached to a
//! still-queued job or channel-sent to the worker that claimed it; a
//! worker retires a job on the board *before* reporting it done;
//! [`WorkerPool::kill_worker`] is the board's crash transition plus a
//! `Die` message. [`WorkerPool::sched_counters`] reports the
//! local/remote split of boundary sends; its steal counters read zero.
//!
//! The protocol stays deterministic in *results* at every worker count
//! and granularity: attribute messages carry their
//! `(ticket, region)` destination, and a retired ticket reads each
//! instance from the region that owns it — placement and machine
//! scheduling affect timing only, never values (each attribute
//! instance has exactly one defining rule). Dependencies between
//! machines exist only *within* a ticket and no machine ever waits for
//! CPU behind a *later* job on the same worker (claimed jobs insert in
//! `(ticket, region)` order and the oldest machine runs unbudgeted),
//! so the schedule cannot deadlock: a starved worker always drains its
//! channel, then claims pending work, and blocks only when it can
//! claim nothing — its own deque is empty.
//!
//! Use [`WorkerPool::submit`] / [`WorkerPool::collect`] to keep the
//! window full (what `paragram-driver`'s batch driver does), or the
//! one-shot [`WorkerPool::eval`] when compiling a single tree.

use crate::analysis::Plans;
use crate::eval::{EvalError, EvalPlan, VisitPrograms};
use crate::grammar::AttrId;
use crate::memo::{
    inherited_fingerprint, install_span, memo_safety, region_cacheable, whole_tree_key,
    InstallPolicy, MemoCache, MemoCounters, MemoKey,
};
use crate::split::{decompose_granular, Decomposition, RegionGranularity, RegionId, SplitTable};
use crate::stats::EvalStats;
use crate::tree::{AttrRead, AttrStore, NodeId, ParseTree, RegionStore};
use crate::value::AttrValue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use super::board::{Board, Claimed, Delivery, JobKey};
use super::worker::{Cut, Driver, Finished, JobResult, WorkerCore};
use super::{FaultCounters, SchedCounters, SchedulerMode, Ticket};

/// One ticket's evaluation failed (dependency cycle, plan
/// inconsistency, or a contained rule panic). The pool cancels the
/// ticket's remaining region jobs and stays fully usable: failures
/// surface in submission order through [`WorkerPool::collect`] /
/// [`WorkerPool::take_ready`] exactly like successful reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketFailure {
    /// The failed ticket.
    pub ticket: Ticket,
    /// The first error any of its region machines raised.
    pub error: EvalError,
}

impl std::fmt::Display for TicketFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket {} failed: {}", self.ticket, self.error)
    }
}

impl std::error::Error for TicketFailure {}

/// Configuration for a [`WorkerPool`] — and, re-exported as
/// `paragram_driver::DriverConfig`, for the batch driver and the
/// service queue that own one. It holds only what a deployment
/// chooses: how many threads, how to cut trees, and the memo. The
/// pool reads its machine mode off the plan
/// ([`EvalPlan::best_mode`]), always propagates results naively (its
/// threads share memory; see the module docs), splits at the grammar's
/// own `%split` minima, places every job the paper's fixed way and
/// keeps `TREES_PER_WORKER` trees per worker in flight.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of persistent evaluator threads — all the threads the
    /// pool runs (a literal 0 is taken as 1). Without an adaptive
    /// budget this is also the most regions a tree is cut into (a tree
    /// whose work does not repay shipping that many is cut into fewer,
    /// a small one not at all); under one a tree may decompose into
    /// more regions than workers, which then round-robin over the pool.
    pub workers: usize,
    /// Cost-driven decomposition: `Some(budget)` carves every tree into
    /// regions of ≈`budget` work units (rule-cost units; see
    /// [`crate::split::decompose_adaptive`]), independent of the worker
    /// count, so a huge tree yields many jobs that round-robin over the
    /// workers. `None` (the default) cuts at most `workers` regions and
    /// none below [`MIN_REGION_WORK`] — the paper's decomposition.
    pub adaptive_budget: Option<u64>,
    /// Byte budget for the cross-tree attribute memo cache
    /// ([`crate::memo::MemoCache`]); 0 (the default everywhere)
    /// disables memoization entirely, keeping the paper's Fig-7
    /// behaviour bit-for-bit.
    pub memo_capacity: usize,
    /// Memo install policy (only meaningful with a non-zero
    /// `memo_capacity`): install every cacheable span at retirement
    /// (the default), or defer to the second touch of a subtree (scan
    /// resistance).
    pub memo_install: InstallPolicy,
}

impl PoolConfig {
    /// `n` workers (at least one), the default cut and no memo.
    pub fn workers(n: usize) -> Self {
        PoolConfig {
            workers: n.max(1),
            adaptive_budget: None,
            memo_capacity: 0,
            memo_install: InstallPolicy::Always,
        }
    }

    /// Returns the configuration with cost-driven decomposition into
    /// regions of ≈`budget` work units (see
    /// [`PoolConfig::adaptive_budget`]).
    pub fn with_adaptive_budget(self, budget: u64) -> Self {
        PoolConfig {
            adaptive_budget: Some(budget),
            ..self
        }
    }

    /// Returns the configuration with a memo cache of roughly
    /// `bytes` capacity (0 disables memoization).
    pub fn with_memo_capacity(self, bytes: usize) -> Self {
        PoolConfig {
            memo_capacity: bytes,
            ..self
        }
    }

    /// Returns the configuration with the given memo install policy.
    pub fn with_memo_install(self, policy: InstallPolicy) -> Self {
        PoolConfig {
            memo_install: policy,
            ..self
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::workers(4)
    }
}

/// Result of one pooled parallel evaluation — re-exported as
/// `paragram_driver::TreeOutput`, what the batch driver and the service
/// queue hand back per tree.
pub struct PoolReport<V: AttrValue> {
    /// The ticket this tree was evaluated under.
    pub ticket: Ticket,
    /// Root attribute values. Declared before `store`, so they drop
    /// while the store still holds the values they were cloned from:
    /// dropping them frees the list and no value.
    pub root_values: Vec<(AttrId, V)>,
    /// The tree's attribute store, independent of how the tree was
    /// decomposed: a view over the stores the workers filled — a
    /// whole-tree job's, or every region's — that goes back to those
    /// workers to be freed when the report drops.
    pub store: RetiredStore<V>,
    /// Statistics aggregated over all the tree's jobs.
    pub stats: EvalStats,
    /// Wall-clock time from job dispatch until the retiring thread had
    /// every job's `Done` in hand — it stops where retirement starts,
    /// so it covers dispatch-to-last-rule. Read on the retiring thread
    /// when it gets to this ticket, so it also counts any time the
    /// finished jobs sat unread — with the default window of two trees
    /// per worker a small tree's `elapsed` includes its wait on the
    /// worker's deque behind the tree ahead of it — and under a
    /// pipelined window it overlaps with neighbouring trees' times.
    pub elapsed: Duration,
    /// Wall-clock time of retirement, on the retiring thread, starting
    /// where `elapsed` stops: summing the jobs' statistics and handing
    /// their stores to the report (and, memo on, the install scan over
    /// them) — O(regions) with the memo off, whatever the tree's size.
    /// `elapsed + assemble` is dispatch to finished report.
    pub assemble: Duration,
    /// Number of regions actually used; 1 is a tree that stayed whole.
    pub regions: usize,
}

impl<V: AttrValue> PoolReport<V> {
    /// The root value of an attribute, if it was produced.
    pub fn root_value(&self, attr: AttrId) -> Option<&V> {
        self.root_values
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| v)
    }
}

/// A retired tree's attribute store, read where the workers left it:
/// the whole-tree job's [`AttrStore`], or the ticket's region stores
/// behind the decomposition's shared slot layout.
///
/// * A read ([`RetiredStore::get`], or [`AttrRead`] for generic
///   readers) goes to the store that holds the instance — for a ticket
///   of regions, through [`SlotMap::owner`](crate::split::SlotMap::owner)
///   to the region that owns the node: O(1), nothing built.
/// * It dereferences to a whole-tree [`AttrStore`] for callers that need
///   one. A whole-tree job's store is that already. A ticket of regions
///   builds it on the first dereference, once, by copying every region's
///   owned span into it ([`AttrStore::absorb_region`]) — the tree's
///   instance count in slots and a clone per value, O(instances) —
///   which is what the oracle tests and the benchmark's traced layer
///   pay.
/// * Dropped, it hands every store back to the worker that built it, to
///   be freed there outside any machine burst: the thread that drops
///   the report frees no value. A store whose worker is gone (killed,
///   or its pool dropped) is freed in place.
pub struct RetiredStore<V: AttrValue> {
    held: Held<V>,
    /// Every worker's channel, for handing the stores back.
    workers: Arc<[Sender<WorkerMsg<V>>]>,
}

/// What a [`RetiredStore`] holds, each store with the index of the
/// worker that built it.
enum Held<V: AttrValue> {
    /// A whole-tree job's store.
    Whole(AttrStore<V>, usize),
    /// A ticket's region stores, region `r`'s at index `r`, all
    /// addressed through the decomposition's one slot layout.
    Regions {
        /// The tree the layout was cut from.
        tree: Arc<ParseTree<V>>,
        stores: Vec<RegionStore<V>>,
        /// `homes[r]` built region `r`'s store.
        homes: Vec<usize>,
        /// The whole-tree store, once a dereference asked for one.
        dense: OnceLock<AttrStore<V>>,
    },
}

impl<V: AttrValue> RetiredStore<V> {
    /// Reads an instance from the store that holds it.
    #[inline]
    pub fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        match &self.held {
            Held::Whole(store, _) => store.get(node, attr),
            Held::Regions { stores, .. } => {
                let owner = stores[0].slot_map().owner(node);
                stores[owner as usize].get(node, attr)
            }
        }
    }
}

impl<V: AttrValue> AttrRead<V> for RetiredStore<V> {
    #[inline]
    fn get(&self, node: NodeId, attr: AttrId) -> Option<&V> {
        RetiredStore::get(self, node, attr)
    }
}

impl<V: AttrValue> std::ops::Deref for RetiredStore<V> {
    type Target = AttrStore<V>;

    /// The whole-tree store: free for a whole-tree job, built once
    /// (O(instances)) for a ticket of regions.
    fn deref(&self) -> &AttrStore<V> {
        match &self.held {
            Held::Whole(store, _) => store,
            Held::Regions {
                tree,
                stores,
                dense,
                ..
            } => dense.get_or_init(|| {
                let mut whole = AttrStore::new(tree);
                for store in stores {
                    whole.absorb_region(tree, store);
                }
                whole
            }),
        }
    }
}

impl<V: AttrValue> Drop for RetiredStore<V> {
    fn drop(&mut self) {
        let workers = &self.workers;
        // A failed send hands the message back, and it drops here.
        let reclaim = |w: usize, store| {
            let _ = workers[w].send(WorkerMsg::Reclaim(store));
        };
        match &mut self.held {
            Held::Whole(store, home) => reclaim(*home, Reclaimed::Tree(std::mem::take(store))),
            Held::Regions {
                stores,
                homes,
                dense,
                ..
            } => {
                for (store, &home) in stores.drain(..).zip(homes.iter()) {
                    reclaim(home, Reclaimed::Region(store));
                }
                if let Some(dense) = dense.take() {
                    reclaim(homes[0], Reclaimed::Tree(dense));
                }
            }
        }
    }
}

/// A store a dropped report hands back to the worker that built it.
/// Held only to be dropped there, so nothing reads it.
#[allow(dead_code)]
enum Reclaimed<V> {
    Tree(AttrStore<V>),
    Region(RegionStore<V>),
}

/// What a worker needs to run a job: the tree and how its ticket was
/// cut — into regions (a machine per job over the decomposition), or
/// not at all (the **whole-tree job**: nothing crosses a boundary, so
/// there is no decomposition, slot layout or machine to build — the
/// worker runs the visit programs over the tree).
type JobData<V> = (Arc<ParseTree<V>>, Cut<V>);

enum WorkerMsg<V> {
    Attr {
        ticket: Ticket,
        /// Destination region — with region-granular scheduling a worker
        /// hosts several regions per ticket, so the ticket alone no
        /// longer identifies the receiving machine.
        region: RegionId,
        node: NodeId,
        attr: AttrId,
        value: V,
    },
    /// New jobs were seeded that this worker may claim — drain the
    /// channel, then claim. Carries nothing; the work lives on the
    /// board.
    Wake,
    /// A ticket failed: drop every running job that belongs to it (its
    /// Done will never be awaited).
    Cancel { ticket: Ticket },
    /// A dropped report's store, built here: free it when the
    /// scheduling loop next returns — which can hold up a starved job's
    /// next value and the next claim, never a machine burst.
    Reclaim(Reclaimed<V>),
    /// Exit now, abandoning every job without reporting: the pool is
    /// dropped, or [`WorkerPool::kill_worker`] injected a crash (the
    /// board already reseeded the victim's jobs onto survivors).
    Shutdown,
}

/// The one message a worker sends the parser role: a job finished, or
/// failed.
struct Done<V> {
    ticket: Ticket,
    region: RegionId,
    /// The worker that ran the job, where its store goes back to.
    worker: usize,
    result: Result<JobResult<V>, EvalError>,
}

/// A retired ticket's root values, stores and statistics.
type Retired<V> = (Vec<(AttrId, V)>, Held<V>, EvalStats);

/// Per-ticket retirement state: what the parser role has collected
/// for one in-flight tree so far.
struct InFlight<V: AttrValue> {
    ticket: Ticket,
    /// The tree under evaluation — the memo install scan reads it, and
    /// a retired ticket of regions keeps it for its reads.
    tree: Arc<ParseTree<V>>,
    /// The decomposition — retire-time memo installation needs region
    /// roots and parents. `None` for a ticket that is one whole-tree
    /// job.
    decomp: Option<Arc<Decomposition>>,
    regions: usize,
    /// Each job's result, with the worker that ran it.
    region_results: Vec<Option<(usize, JobResult<V>)>>,
    done: usize,
    start: Instant,
    /// First error any region machine raised; a failed entry's
    /// remaining regions are cancelled and never report.
    failed: Option<EvalError>,
}

/// Persistent evaluator threads and the scheduler board they share,
/// reusable across a stream of trees compiled against one shared
/// [`EvalPlan`].
pub struct WorkerPool<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
    config: PoolConfig,
    split: SplitTable,
    /// Every worker's channel; retired stores keep a handle, to hand
    /// themselves back.
    worker_txs: Arc<[Sender<WorkerMsg<V>>]>,
    parser_rx: Receiver<Done<V>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_ticket: Ticket,
    in_flight: VecDeque<InFlight<V>>,
    ready: VecDeque<Result<PoolReport<V>, TicketFailure>>,
    max_in_flight: usize,
    max_regions_in_flight: usize,
    /// Semantic-rule panics the workers contained (the other fault
    /// counters live on the scheduler board).
    panics_contained: Arc<AtomicU64>,
    /// Cross-tree attribute memo cache (None when
    /// [`PoolConfig::memo_capacity`] is 0). Shared with the workers:
    /// they probe before building a machine, the pool installs at
    /// retirement.
    memo: Option<Arc<MemoCache<V>>>,
    /// Per-symbol memo safety (see [`memo_safety`]); empty when the
    /// cache is off.
    memo_safe: Arc<Vec<bool>>,
    /// The scheduler board, shared with the workers.
    board: Arc<PoolBoard<V>>,
}

/// A worker thread's transport — the driver of its [`WorkerCore`]
/// (see `worker_main`); owned by the thread.
struct WorkerCtx<V: AttrValue> {
    /// This worker's index — the board's claim and locality accounting
    /// key.
    me: usize,
    rx: Receiver<WorkerMsg<V>>,
    peers: Arc<[Sender<WorkerMsg<V>>]>,
    parser_tx: Sender<Done<V>>,
    /// Stores dropped reports handed back, freed when `drive` returns.
    reclaimed: Vec<Reclaimed<V>>,
    /// The scheduler board.
    board: Arc<PoolBoard<V>>,
    /// Shared count of contained semantic-rule panics.
    panics_contained: Arc<AtomicU64>,
}

/// The pool's hand-off floor: the least estimated work (rule-cost
/// units, [`EvalPlan::tree_work`]) a region must carry before it repays
/// shipping it to another worker — a channel hop per boundary value, a
/// machine of its own and a region store to absorb. Without an adaptive
/// budget a tree is cut into no more regions than it has multiples of
/// this, so a tree below twice the floor stays whole. The grammar's `%split` minima (25–40
/// nodes for Pascal) are the paper's, sized for its network; this is
/// the same argument (§3) for threads, measured — lone-tree latency
/// through a 2-worker pool, two regions ÷ one, generated Pascal
/// programs, 2-core box:
///
/// | nodes | 223 | 393 | 1.1 k | 1.7 k | 3.0 k | 6.8 k | 25.8 k |
/// |---|---|---|---|---|---|---|---|
/// | split ÷ whole | 1.37 | 1.42 | 1.19 | 1.02 | 1.00 | 0.82 | 0.85 |
///
/// The crossover sits near 3 k nodes ≈ 19 k work units, i.e. ≈ 10 k
/// units (≈ 1.5 k nodes, ≈ 0.8 ms of sequential evaluation) per region.
/// An explicit [`PoolConfig::adaptive_budget`] is the caller's own
/// statement of region size and is not floored. Test fixtures that
/// want a tree cut into regions cost their rules in multiples of this.
pub const MIN_REGION_WORK: u64 = 10_000;

/// The pool's in-flight window, per worker: [`WorkerPool::submit`]
/// retires the oldest tree before it lets more than `TREES_PER_WORKER
/// × workers` be in flight. Two, because a small tree is one job on one
/// worker: with two per worker the next tree already waits on the
/// worker's deque when it finishes the current one (see the module
/// docs for the measurement). A constant, not a setting: to measure
/// another window, change it here.
const TREES_PER_WORKER: usize = 2;

/// How many regions the default cut asks the decomposition for on a
/// tree of `tree_work` units over `n` workers: at most `n`, and no more
/// than the tree has multiples of [`MIN_REGION_WORK`].
fn regions_worth_shipping(n: usize, tree_work: u64) -> usize {
    let by_work = usize::try_from(tree_work / MIN_REGION_WORK).unwrap_or(usize::MAX);
    n.min(by_work).max(1)
}

/// The pool's scheduler board, shared by the pool and its workers
/// under one mutex so every seed / claim / route / recover
/// decision is atomic.
type PoolBoard<V> = Mutex<Board<V, JobData<V>>>;

/// Locks the scheduler board, the pool's one shared mutex. It is never
/// held across a semantic-rule call (the worker core catches rule
/// panics outside it), so a poisoned lock means a pool thread panicked
/// inside a board transition: a broken invariant, which fails here by
/// name instead of running on half-updated state.
fn lock<V: AttrValue>(board: &PoolBoard<V>) -> MutexGuard<'_, Board<V, JobData<V>>> {
    board.lock().unwrap_or_else(|_| {
        panic!("scheduler board lock poisoned: a pool thread panicked holding it")
    })
}

impl<V: AttrValue> WorkerPool<V> {
    /// Spawns the pool: `config.workers` evaluator threads, persistent
    /// until the pool is dropped, sharing the scheduler board. Their
    /// machines run the best mode `plan` supports
    /// ([`EvalPlan::best_mode`]: combined when the grammar is
    /// l-ordered, dynamic otherwise) with naive propagation: a value
    /// crosses a region boundary as it is.
    pub fn new(plan: &Arc<EvalPlan<V>>, config: PoolConfig) -> Self {
        let config = PoolConfig {
            workers: config.workers.max(1),
            ..config
        };
        let workers = config.workers;
        let split = SplitTable::new(plan.grammar().as_ref(), 1.0);
        let memo = (config.memo_capacity > 0).then(|| {
            Arc::new(MemoCache::with_install_policy(
                config.memo_capacity,
                config.memo_install,
            ))
        });
        let memo_safe = Arc::new(if memo.is_some() {
            memo_safety(plan)
        } else {
            Vec::new()
        });
        let board = Arc::new(Mutex::new(Board::new(workers, SchedulerMode::Fixed)));
        let panics_contained = Arc::new(AtomicU64::new(0));

        let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) = (0..workers).map(|_| channel()).unzip();
        let worker_txs: Arc<[_]> = worker_txs.into();
        let (parser_tx, parser_rx) = channel();

        let mut handles = Vec::with_capacity(workers);
        for (me, rx) in worker_rxs.into_iter().enumerate() {
            let ctx = WorkerCtx {
                me,
                rx,
                peers: Arc::clone(&worker_txs),
                parser_tx: parser_tx.clone(),
                reclaimed: Vec::new(),
                board: Arc::clone(&board),
                panics_contained: Arc::clone(&panics_contained),
            };
            let core = WorkerCore::new(
                Arc::clone(plan),
                plan.best_mode(),
                memo.clone(),
                Arc::clone(&memo_safe),
            );
            handles.push(std::thread::spawn(move || worker_main(ctx, core)));
        }

        WorkerPool {
            plan: Arc::clone(plan),
            config,
            split,
            worker_txs,
            parser_rx,
            handles,
            next_ticket: 0,
            in_flight: VecDeque::with_capacity(TREES_PER_WORKER * workers),
            ready: VecDeque::new(),
            max_in_flight: 0,
            max_regions_in_flight: 0,
            panics_contained,
            memo,
            memo_safe,
            board,
        }
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The in-flight window: at most this many trees evaluate at once,
    /// two per worker.
    pub fn pipeline_depth(&self) -> usize {
        TREES_PER_WORKER * self.config.workers
    }

    /// Trees currently submitted but not yet collected (evaluating or
    /// buffered as finished reports).
    pub fn pending(&self) -> usize {
        self.in_flight.len() + self.ready.len()
    }

    /// Trees currently evaluating (dispatched, not yet retired).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The largest number of trees that were ever simultaneously in
    /// flight on this pool (since construction or the last
    /// [`WorkerPool::reset_high_water`]). Tracked by the pool itself at
    /// every dispatch — the in-flight count only rises when a job
    /// dispatches and only falls when the front retires, so the
    /// dispatch-time samples are the exact maxima, no matter how rarely
    /// a driver polls.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Region jobs currently dispatched and not yet reported done —
    /// the region-granular view of [`WorkerPool::in_flight`].
    pub fn regions_in_flight(&self) -> usize {
        self.in_flight.iter().map(|f| f.regions - f.done).sum()
    }

    /// The largest number of region jobs ever simultaneously in flight
    /// (since construction or the last
    /// [`WorkerPool::reset_high_water`]); the region-granular
    /// counterpart of [`WorkerPool::max_in_flight`].
    pub fn max_regions_in_flight(&self) -> usize {
        self.max_regions_in_flight
    }

    /// Restarts high-water tracking from the current occupancy, so a
    /// driver can report per-batch maxima from a long-lived pool
    /// instead of all-time ones. Also zeroes the scheduler and fault
    /// counters, so [`WorkerPool::sched_counters`] and
    /// [`WorkerPool::fault_counters`] read per-batch.
    pub fn reset_high_water(&mut self) {
        self.max_in_flight = self.in_flight.len();
        self.max_regions_in_flight = self.regions_in_flight();
        lock(&self.board).reset_counters();
        self.panics_contained.store(0, Ordering::Relaxed);
        self.debug_check_quiescent();
    }

    /// With no ticket in flight every seeded job has retired (a worker
    /// retires a job on the board before it reports it done), so the
    /// board must be back to empty: no pending job, no record or input
    /// log, every live worker's load account at zero. Debug builds
    /// check it wherever the pool is known to be idle, and fail by name
    /// on a poisoned lock.
    fn debug_check_quiescent(&self) {
        if cfg!(debug_assertions) && self.in_flight.is_empty() && !std::thread::panicking() {
            assert!(
                lock(&self.board).is_quiescent(),
                "scheduler board not quiescent with nothing in flight"
            );
        }
    }

    /// Fault/recovery telemetry since construction or the last
    /// [`WorkerPool::reset_high_water`]. The deadline fields are always
    /// zero here — they belong to the serving layer, which merges its
    /// own counts into the same struct.
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            ..lock(&self.board).fault_counters()
        }
    }

    /// Scheduler telemetry since construction or the last
    /// [`WorkerPool::reset_high_water`]: the local/remote split of
    /// boundary sends. Steals and migrated values read zero: the pool
    /// places fixed.
    pub fn sched_counters(&self) -> SchedCounters {
        lock(&self.board).sched_counters()
    }

    /// The shared plan this pool evaluates against.
    pub fn plan(&self) -> &Arc<EvalPlan<V>> {
        &self.plan
    }

    /// Lifetime counter snapshot of the memo cache (None when
    /// memoization is off). Drivers diff two snapshots for per-batch
    /// deltas.
    pub fn memo_counters(&self) -> Option<MemoCounters> {
        self.memo.as_ref().map(|m| m.counters())
    }

    /// Cuts `tree` into regions — by default into at most `workers`
    /// and no more than its work repays shipping, under an adaptive
    /// budget into budget-sized ones — or leaves it whole, one
    /// whole-tree job that needs no decomposition at all: by default
    /// decided from the work estimate alone, under a budget by a
    /// decomposition that comes back unsplit. Only a plan with visit
    /// programs has a whole-tree job to run; without them (the grammar
    /// is not l-ordered) a tree that stays whole is a one-region
    /// machine.
    fn carve(&self, tree: &Arc<ParseTree<V>>) -> Cut<V> {
        let statics = self.plan.plans().zip(self.plan.programs());
        let whole = |(plans, programs): (&Arc<Plans>, &Arc<VisitPrograms<V>>)| {
            Cut::Whole(Arc::clone(plans), Arc::clone(programs))
        };
        let granularity = match self.config.adaptive_budget {
            Some(budget) => RegionGranularity::Adaptive { budget },
            None => {
                let regions =
                    regions_worth_shipping(self.config.workers, self.plan.tree_work(tree));
                if let (1, Some(statics)) = (regions, statics) {
                    return whole(statics);
                }
                RegionGranularity::Machines(regions)
            }
        };
        let decomp = decompose_granular(tree, &self.split, self.plan.work_table(), granularity);
        match statics {
            Some(statics) if decomp.is_unsplit() => whole(statics),
            _ => Cut::Regions(Arc::new(decomp)),
        }
    }

    /// Submits one tree into the pipeline window: cuts it into regions
    /// or leaves it whole, assigns the next ticket (returned, so
    /// serving layers can correlate results) and seeds its jobs on the
    /// scheduler board — one per region, or the one whole-tree job. If
    /// the window is full, the oldest in-flight tree is retired first
    /// (its report — or failure — is buffered for
    /// [`WorkerPool::collect`] / [`WorkerPool::take_ready`]).
    ///
    /// A ticket whose evaluation fails (cycle, plan inconsistency,
    /// contained rule panic) surfaces as a [`TicketFailure`] in
    /// submission order; the pool itself stays fully usable.
    pub fn submit(&mut self, tree: &Arc<ParseTree<V>>) -> Ticket {
        while self.in_flight.len() >= self.pipeline_depth() {
            let retired = self.retire_front();
            self.ready.push_back(retired);
        }

        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let cut = self.carve(tree);
        let decomp = cut.regions().cloned();
        let regions = decomp.as_ref().map_or(1, |d| d.len());

        let start = Instant::now();
        self.seed(ticket, tree, &cut);
        self.in_flight.push_back(InFlight {
            ticket,
            tree: Arc::clone(tree),
            decomp,
            regions,
            region_results: (0..regions).map(|_| None).collect(),
            done: 0,
            start,
            failed: None,
        });
        self.max_in_flight = self.max_in_flight.max(self.in_flight.len());
        self.max_regions_in_flight = self.max_regions_in_flight.max(self.regions_in_flight());
        ticket
    }

    /// Seeds one ticket's jobs — its regions', or its one whole-tree
    /// job — onto the scheduler board, modular from the ticket, then
    /// wakes each job's home once: no other worker may claim them, and
    /// the board records every job before any of them can look.
    fn seed(&self, ticket: Ticket, tree: &Arc<ParseTree<V>>, cut: &Cut<V>) {
        let decomp = cut.regions();
        let work: Vec<u64> = match decomp {
            Some(d) => self
                .plan
                .region_works(tree, d)
                .into_iter()
                .map(|w| w.max(1))
                .collect(),
            None => vec![self.plan.tree_work(tree).max(1)],
        };
        let mut homes = lock(&self.board).seed(
            ticket,
            ticket as usize,
            &work,
            |r| decomp.and_then(|d| d.regions[r as usize].parent),
            |_| (Arc::clone(tree), cut.clone()),
        );
        homes.sort_unstable();
        homes.dedup();
        // Killed workers' channels may be gone — that's fine.
        for w in homes {
            let _ = self.worker_txs[w].send(WorkerMsg::Wake);
        }
    }

    /// Collects the oldest uncollected tree's report or failure
    /// (submission order), blocking until it finishes. Returns `None`
    /// when nothing is pending.
    pub fn collect(&mut self) -> Option<Result<PoolReport<V>, TicketFailure>> {
        if let Some(r) = self.ready.pop_front() {
            return Some(r);
        }
        if self.in_flight.is_empty() {
            return None;
        }
        Some(self.retire_front())
    }

    /// Pops a report or failure that already retired (as submit-time
    /// backpressure or by [`WorkerPool::poll`]) without waiting for
    /// in-flight trees.
    pub fn take_ready(&mut self) -> Option<Result<PoolReport<V>, TicketFailure>> {
        self.ready.pop_front()
    }

    /// Drains worker completions without waiting on any other thread:
    /// routes every queued message, retires every in-flight tree whose
    /// regions have all reported — or whose evaluation failed —
    /// (front-first, preserving submission order) into the ready
    /// buffer, and returns how many results became ready. Retiring a
    /// tree on the caller's thread ([`PoolReport::assemble`]) hands the
    /// workers' stores to the report as they are: microseconds, for a
    /// 264 k-node tree as for a small one, with the memo off (the
    /// memo's install scan is O(instances) of the regions it installs).
    /// A service loop calls this between
    /// arrivals to harvest finished requests while keeping the window
    /// topped up via [`WorkerPool::submit`].
    pub fn poll(&mut self) -> usize {
        while let Ok(msg) = self.parser_rx.try_recv() {
            self.route(msg);
        }
        let mut newly = 0;
        while self.front_complete() {
            let retired = self.retire_front();
            self.ready.push_back(retired);
            newly += 1;
        }
        newly
    }

    /// Evaluates one tree on the pool, start to finish — alone, so the
    /// paper's single compilation (the one-shot path single-tree
    /// drivers use).
    ///
    /// # Panics
    ///
    /// Panics if trees are still pending from [`WorkerPool::submit`] —
    /// use [`WorkerPool::collect`] to drain the window first.
    ///
    /// # Errors
    ///
    /// Returns the [`EvalError`] of this tree's ticket if its
    /// evaluation failed. The pool stays usable either way.
    pub fn eval(&mut self, tree: &Arc<ParseTree<V>>) -> Result<PoolReport<V>, EvalError> {
        assert!(
            self.in_flight.is_empty() && self.ready.is_empty(),
            "eval requires an idle pool; drain submit/collect pipelines first"
        );
        self.submit(tree);
        self.collect()
            .expect("one tree was just submitted")
            .map_err(|f| f.error)
    }

    /// Index into `in_flight` of the entry holding `ticket`, or `None`
    /// for a stale message (the ticket already retired — e.g. a
    /// cancelled ticket's straggler region reporting Done). Tickets are
    /// assigned and retired in order, so this is a simple offset.
    fn entry_index(&self, ticket: Ticket) -> Option<usize> {
        let front = self.in_flight.front()?.ticket;
        let i = ticket.checked_sub(front)? as usize;
        (i < self.in_flight.len()).then_some(i)
    }

    /// Routes one finished job to whichever in-flight ticket it
    /// belongs to. Stale messages (retired tickets) and duplicate
    /// deliveries from recovery replay are suppressed; a job failure
    /// fails its ticket only — the ticket's remaining jobs are
    /// cancelled and the pool keeps serving every other ticket.
    fn route(&mut self, msg: Done<V>) {
        let Done {
            ticket,
            region,
            worker,
            result,
        } = msg;
        let Some(i) = self.entry_index(ticket) else {
            return;
        };
        let entry = &mut self.in_flight[i];
        if entry.region_results[region as usize].is_some() {
            // Belt and braces: table ownership already keeps zombies
            // from reporting, but a duplicate Done (a re-executed root
            // region's has the root values aboard a second time) is
            // harmless either way: results are deterministic, and the
            // first report stands.
            lock(&self.board).count_duplicate();
            return;
        }
        match result {
            Ok(r) => {
                entry.region_results[region as usize] = Some((worker, r));
                entry.done += 1;
            }
            Err(e) => {
                if entry.failed.is_none() {
                    entry.failed = Some(e);
                    self.cancel_ticket(ticket);
                }
            }
        }
    }

    /// Cancels a failed ticket's remaining region jobs: purges them
    /// from the scheduler board and tells every worker to drop its
    /// running machines for the ticket. Their Dones will never be
    /// awaited.
    fn cancel_ticket(&mut self, ticket: Ticket) {
        lock(&self.board).cancel(ticket);
        for tx in self.worker_txs.iter() {
            let _ = tx.send(WorkerMsg::Cancel { ticket });
        }
    }

    /// Whether the oldest in-flight tree is retirable: all regions
    /// reported, or the ticket failed (its stragglers were cancelled
    /// and will never report).
    fn front_complete(&self) -> bool {
        self.in_flight
            .front()
            .is_some_and(|f| f.done == f.regions || f.failed.is_some())
    }

    /// Parser role for the oldest in-flight tree: drain worker messages
    /// until its jobs all report (or its ticket fails) — the only
    /// wait, and none at all when [`WorkerPool::front_complete`] already
    /// holds — then retire it on this thread: a ticket of regions is
    /// [assembled](Self::assemble); a ticket that was one whole-tree
    /// job has its store [adopted](Self::adopt). Either way the report
    /// keeps the stores the workers filled.
    fn retire_front(&mut self) -> Result<PoolReport<V>, TicketFailure> {
        while !self.front_complete() {
            let msg = self.parser_rx.recv().expect("workers alive");
            self.route(msg);
        }
        let fl = self.in_flight.pop_front().expect("checked non-empty");
        let retiring = Instant::now();
        let ticket = fl.ticket;
        let retired = match (fl.failed, fl.decomp) {
            (Some(error), _) => Err(error),
            (None, Some(decomp)) => Ok(self.assemble(fl.tree, &decomp, fl.region_results)),
            (None, None) => Ok(self.adopt(&fl.tree, fl.region_results)),
        };
        match retired {
            Ok((root_values, held, stats)) => Ok(PoolReport {
                ticket,
                root_values,
                store: RetiredStore {
                    held,
                    workers: Arc::clone(&self.worker_txs),
                },
                stats,
                elapsed: retiring.duration_since(fl.start),
                assemble: retiring.elapsed(),
                regions: fl.regions,
            }),
            Err(error) => Err(TicketFailure { ticket, error }),
        }
    }

    /// Retires a ticket that was one whole-tree job: the store the
    /// worker evaluated into *is* the tree's store, so there is nothing
    /// to size or absorb. What is left is the memo install (memo on
    /// only — the root region's contract, under the key the worker
    /// probed with) and reading the root values out.
    fn adopt(
        &self,
        tree: &ParseTree<V>,
        results: Vec<Option<(usize, JobResult<V>)>>,
    ) -> Retired<V> {
        let Some(Some((home, (stats, Finished::Tree(store))))) = results.into_iter().next() else {
            unreachable!("a whole-tree ticket's one job reports the tree's store");
        };
        let root = tree.root();
        if let (Some(memo), Some(key)) = (&self.memo, whole_tree_key(tree)) {
            install_span(memo, tree, root, key, |n, a| store.get(n, a));
        }
        let root_sym = tree.grammar().prod(tree.node(root).prod).lhs;
        let root_values = self
            .plan
            .syn_attrs(root_sym)
            .iter()
            .filter_map(|&a| Some((a, store.get(root, a)?.clone())))
            .collect();
        (root_values, Held::Whole(store, home), stats)
    }

    /// Retires a ticket of regions that all reported: memo installation
    /// (memo on), then the region stores become the report's, as they
    /// are — no whole-tree store, and no value moves.
    fn assemble(
        &self,
        tree: Arc<ParseTree<V>>,
        decomp: &Decomposition,
        results: Vec<Option<(usize, JobResult<V>)>>,
    ) -> Retired<V> {
        let mut stats = EvalStats::default();
        let mut root_values = Vec::new();
        let mut stores = Vec::with_capacity(results.len());
        let mut homes = Vec::with_capacity(results.len());
        for r in results {
            let Some((home, (s, Finished::Region { store, roots }))) = r else {
                unreachable!("every region of a decomposed ticket reports its region store");
            };
            stats += s;
            root_values.extend(roots);
            stores.push(store);
            homes.push(home);
        }

        // Retire-time memo installation: every cacheable region of a
        // successfully evaluated tree deposits its owned span under its
        // input signature, so later structurally identical requests can
        // skip the machine entirely.
        if let Some(memo) = &self.memo {
            for (ri, rstore) in stores.iter().enumerate() {
                let Some((root, subtree, inh)) =
                    region_cacheable(&self.plan, &self.memo_safe, &tree, decomp, ri as RegionId)
                else {
                    continue;
                };
                let Some(vals) = inh
                    .iter()
                    .map(|&a| rstore.get(root, a))
                    .collect::<Option<Vec<_>>>()
                else {
                    continue;
                };
                let Some(inherited) = inherited_fingerprint(vals) else {
                    continue;
                };
                let key = MemoKey { subtree, inherited };
                install_span(memo, &tree, root, key, |n, a| rstore.get(n, a));
            }
        }

        let held = Held::Regions {
            tree,
            stores,
            homes,
            dense: OnceLock::new(),
        };
        (root_values, held, stats)
    }

    /// Injects a worker crash (the fault-tolerance test hook and the
    /// live counterpart of the simulator's crash schedule): the
    /// scheduler board is the recovery substrate of both. Returns
    /// `false` for an out-of-range index,
    /// for an already-dead worker, or when it is the last worker alive.
    ///
    /// Recovery is the board's crash transition, under the scheduler
    /// lock: every region job living on the victim — queued in its
    /// deque or active on it — becomes a fresh pending job replaying
    /// its whole input log, reseeded onto the least-loaded survivors.
    /// The victim is told to die and never claims work again; modular
    /// seeding passes over it from then on. Regions that already
    /// reported Done are retired work and are not re-executed;
    /// duplicate sends from half-finished lost regions are suppressed
    /// content-keyed at the sender, so outputs stay byte-identical.
    pub fn kill_worker(&mut self, victim: usize) -> bool {
        if victim >= self.config.workers {
            return false;
        }
        {
            let mut board = lock(&self.board);
            if board.live().filter(|&w| w != victim).count() == 0 || !board.crash(victim) {
                return false;
            }
        }
        let _ = self.worker_txs[victim].send(WorkerMsg::Shutdown);
        for (w, tx) in self.worker_txs.iter().enumerate() {
            if w != victim {
                let _ = tx.send(WorkerMsg::Wake);
            }
        }
        true
    }
}

impl<V: AttrValue> Drop for WorkerPool<V> {
    fn drop(&mut self) {
        for tx in self.worker_txs.iter() {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.debug_check_quiescent();
    }
}

impl<V: AttrValue> std::fmt::Debug for WorkerPool<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerPool({} workers, depth {}, next ticket {}, {} in flight)",
            self.config.workers,
            self.pipeline_depth(),
            self.next_ticket,
            self.in_flight.len()
        )
    }
}

/// The persistent worker loop: a thread driving its [`WorkerCore`].
/// Whenever the oldest job's machine starves (blocked on values from a
/// straggling peer region), the core steps the next job's machine
/// instead of idling — this is where region-granular scheduling
/// recovers both the blocked-straggler time an epoch barrier wasted
/// *and* the head-of-line time a huge tree's longest region would
/// otherwise impose. Younger machines run on a budget of
/// [`Driver::YIELD_STEPS`] and the channel is polled between bursts, so
/// a value that unblocks an older machine preempts younger work
/// promptly and pipelining never materially delays the tree the parser
/// will read next. (Co-located machines may feed each other — under
/// adaptive granularity one worker can host parent and child regions of
/// one ticket — but every send goes through a channel, self-sends
/// included, so the poll delivers them.) With every machine starved
/// the worker claims pending work — its own deque's front; threads
/// have no transfer cost to weigh, so it is always eligible — and
/// blocks only when there is none.
fn worker_main<V: AttrValue>(mut ctx: WorkerCtx<V>, mut core: WorkerCore<V>) {
    loop {
        if !core.drive(&mut ctx) {
            return;
        }
        // Outside any burst, though a starved job may be waiting: free
        // what dropped reports handed back.
        ctx.reclaimed.clear();
        let claimed = lock(&ctx.board).claim(ctx.me, |_, _| true);
        match claimed {
            Some(Claimed {
                key,
                payload: (tree, cut),
                early,
            }) => core.activate(&mut ctx, key, tree, cut, early),
            None => {
                // Idle: block for one message (`Err`: the pool is gone).
                let Ok(msg) = ctx.rx.recv() else { return };
                if !ctx.absorb(msg, &mut core) {
                    return;
                }
            }
        }
    }
}

impl<V: AttrValue> WorkerCtx<V> {
    /// Hands one message to the core; `false` when the worker must
    /// exit.
    fn absorb(&mut self, msg: WorkerMsg<V>, core: &mut WorkerCore<V>) -> bool {
        match msg {
            WorkerMsg::Shutdown => return false,
            WorkerMsg::Wake => {}
            WorkerMsg::Reclaim(store) => self.reclaimed.push(store),
            // The pool already purged the ticket from the board; only
            // this worker's own jobs are left to drop.
            WorkerMsg::Cancel { ticket } => core.cancel(ticket),
            WorkerMsg::Attr {
                ticket,
                region,
                node,
                attr,
                value,
            } => core.feed(self, (ticket, region), node, attr, value),
        }
        true
    }
}

/// The pool's effects: the wall clock charges itself, values go over
/// channels, and root values ride in the root region's `Done`. A failed
/// channel send means the pool is gone, which the worker's next receive
/// finds out.
impl<V: AttrValue> Driver<V> for WorkerCtx<V> {
    /// How many scheduler steps a *non-oldest* machine may run before
    /// the worker polls the channel for values that unblock an older
    /// job.
    const YIELD_STEPS: usize = 64;

    /// Asks the board in one critical section: [`Board::route`] logs
    /// the value and names the job's current worker (or says nothing
    /// must be sent — the job finished, or a re-executed producer is
    /// replaying this value), and [`Board::deliver`] on that worker's
    /// behalf either attaches the value to the still-queued job (so its
    /// claim takes it along) or hands it back for a
    /// channel send to the worker that claimed it.
    fn send(&mut self, _from: JobKey, to: JobKey, node: NodeId, attr: AttrId, value: V) {
        let dest = {
            let mut board = lock(&self.board);
            board.route(self.me, to, node, attr, &value).and_then(|w| {
                match board.deliver(w, to, node, attr, value) {
                    Delivery::Mine(value) => Some((w, value)),
                    Delivery::Stored => None,
                    Delivery::Forward(..) | Delivery::Dropped => {
                        unreachable!("routed and delivered under one lock")
                    }
                }
            })
        };
        if let Some((w, value)) = dest {
            let (ticket, region) = to;
            let _ = self.peers[w].send(WorkerMsg::Attr {
                ticket,
                region,
                node,
                attr,
                value,
            });
        }
    }

    fn root(&mut self, _from: JobKey, _attr: AttrId, value: V) -> Option<V> {
        Some(value)
    }

    fn retire(&mut self, key: JobKey) -> bool {
        lock(&self.board).retire(self.me, key)
    }

    fn done(&mut self, (ticket, region): JobKey, result: Result<JobResult<V>, EvalError>) {
        if matches!(result, Err(EvalError::RulePanic { .. })) {
            self.panics_contained.fetch_add(1, Ordering::Relaxed);
        }
        let _ = self.parser_tx.send(Done {
            ticket,
            region,
            worker: self.me,
            result,
        });
    }

    fn poll(&mut self, core: &mut WorkerCore<V>) -> bool {
        while let Ok(msg) = self.rx.try_recv() {
            if !self.absorb(msg, core) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::eval::dynamic_eval;
    use crate::grammar::{AttrId, GrammarBuilder};
    use crate::tree::{RegionStore, TreeBuilder};
    use crate::value::Value;
    use paragram_rope::Rope;

    fn fixture(n: usize) -> (Arc<ParseTree<Value>>, Arc<EvalPlan<Value>>, AttrId) {
        let (trees, plan, out) = fixture_trees(&[n]);
        (trees.into_iter().next().unwrap(), plan, out)
    }

    /// One splittable grammar, many chain trees of the given lengths.
    /// Each `cons` is costed at one region's worth of work
    /// ([`MIN_REGION_WORK`]), so a pool of `n` workers cuts a chain of
    /// `n` or more into `n` regions however short it is — these tests
    /// are about regions, not about the floor. (A chain of one or none
    /// is below twice the floor: a whole-tree job.)
    #[allow(clippy::type_complexity)]
    fn fixture_trees(
        sizes: &[usize],
    ) -> (Vec<Arc<ParseTree<Value>>>, Arc<EvalPlan<Value>>, AttrId) {
        fixture_trees_with(sizes, MIN_REGION_WORK, || {})
    }

    /// The same chains with every rule at unit cost, so that a chain of
    /// any length here stays below the floor: one region, a whole-tree
    /// job.
    #[allow(clippy::type_complexity)]
    fn light_trees(sizes: &[usize]) -> (Vec<Arc<ParseTree<Value>>>, Arc<EvalPlan<Value>>, AttrId) {
        fixture_trees_with(sizes, 1, || {})
    }

    /// [`fixture_trees`] with `cons` costed at `cons_cost` and `at_nil`
    /// called from the chain-end rule — the first rule of every
    /// evaluation, where a test can hold a job on its worker.
    #[allow(clippy::type_complexity)]
    fn fixture_trees_with(
        sizes: &[usize],
        cons_cost: u64,
        at_nil: impl Fn() + Send + Sync + 'static,
    ) -> (Vec<Arc<ParseTree<Value>>>, Arc<EvalPlan<Value>>, AttrId) {
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
        g.rule(nil, (0, decls), [], move |_| {
            at_nil();
            Value::Int(0)
        });
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&grammar));
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
        (trees, plan, out)
    }

    fn root_rope(report: &PoolReport<Value>, out: AttrId) -> Rope {
        report
            .root_values
            .iter()
            .find(|(a, _)| *a == out)
            .and_then(|(_, v)| v.as_rope().cloned())
            .unwrap()
    }

    #[test]
    fn pool_reused_across_trees_matches_sequential() {
        let (tree, plan, out) = fixture(64);
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore
            .get(tree.root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(3));
        // Same pool, several trees in a row (the batched path).
        for round in 0..4 {
            let report = pool.eval(&tree).unwrap();
            let got = root_rope(&report, out);
            assert!(got.content_eq(&want), "round {round}");
            assert!(report.regions > 1, "round {round}: tree was split");
            assert_eq!(report.store.filled(), report.store.len());
            assert_eq!(report.ticket, round as Ticket);
        }
    }

    #[test]
    fn pool_store_is_decomposition_independent() {
        let (tree, plan, _) = fixture(48);
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        for workers in [1, 2, 4] {
            let mut pool = WorkerPool::new(&plan, PoolConfig::workers(workers));
            let report = pool.eval(&tree).unwrap();
            for node in tree.node_ids() {
                let sym = tree.grammar().prod(tree.node(node).prod).lhs;
                for a in 0..tree.grammar().attr_count(sym) {
                    let attr = AttrId(a as u32);
                    assert_eq!(
                        report.store.get(node, attr),
                        dstore.get(node, attr),
                        "workers={workers} node={node:?} attr={attr:?}"
                    );
                }
            }
        }
    }

    /// `plan` without its visit programs: the plan of a grammar that is
    /// not l-ordered, on which the pool runs dynamic machines.
    fn without_programs<V: AttrValue>(plan: &EvalPlan<V>) -> Arc<EvalPlan<V>> {
        Arc::new(EvalPlan::from_parts(plan.grammar(), None, None))
    }

    #[test]
    fn pool_derives_dynamic_mode_from_a_plan_without_programs() {
        let (tree, plan, out) = fixture(32);
        let plan = without_programs(&plan);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(3));
        let report = pool.eval(&tree).unwrap();
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore.get(tree.root(), out).unwrap();
        let got = &report
            .root_values
            .iter()
            .find(|(a, _)| *a == out)
            .unwrap()
            .1;
        assert_eq!(got, want);
        assert_eq!(report.regions, 3);
        assert_eq!(report.stats.static_applied, 0);
    }

    #[test]
    fn pipelined_submit_collect_preserves_order_and_results() {
        let sizes = [48usize, 5, 33, 17, 64, 2, 21];
        let (trees, plan, out) = fixture_trees(&sizes);
        for workers in [1usize, 2, 3] {
            let mut pool = WorkerPool::new(&plan, PoolConfig::workers(workers));
            let depth = pool.pipeline_depth();
            let mut reports = Vec::new();
            for tree in &trees {
                pool.submit(tree);
            }
            assert!(pool.pending() == trees.len());
            while let Some(r) = pool.collect().map(|r| r.expect("evaluation succeeds")) {
                reports.push(r);
            }
            assert_eq!(reports.len(), trees.len());
            assert!(pool.max_in_flight() <= depth);
            assert_eq!(pool.max_in_flight(), depth.min(trees.len()));
            for ((tree, report), (i, _)) in trees.iter().zip(&reports).zip(sizes.iter().enumerate())
            {
                assert_eq!(report.ticket, i as Ticket, "reports in submission order");
                let (dstore, _) = dynamic_eval(tree).unwrap();
                let want = dstore
                    .get(tree.root(), out)
                    .and_then(|v| v.as_rope().cloned())
                    .unwrap();
                assert!(
                    root_rope(report, out).content_eq(&want),
                    "workers={workers} depth={depth} tree {i}"
                );
                assert_eq!(report.store.filled(), report.store.len());
            }
        }
    }

    #[test]
    fn adaptive_granularity_runs_more_regions_than_workers() {
        let (tree, plan, out) = fixture(96);
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore
            .get(tree.root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        let budget = (plan.tree_work(&tree) / 8).max(1);
        for workers in [1usize, 2, 3] {
            let config = PoolConfig::workers(workers).with_adaptive_budget(budget);
            let mut pool = WorkerPool::new(&plan, config);
            let report = pool.eval(&tree).unwrap();
            assert!(
                report.regions > workers,
                "workers={workers}: {} regions should exceed the worker park",
                report.regions
            );
            assert!(
                root_rope(&report, out).content_eq(&want),
                "workers={workers}"
            );
            assert_eq!(report.store.filled(), report.store.len());
        }
    }

    #[test]
    fn adaptive_granularity_is_decomposition_equivalent_across_depths() {
        let sizes = [120usize, 7, 64, 3, 96];
        let (trees, plan, out) = fixture_trees(&sizes);
        let budget = (plan.tree_work(&trees[0]) / 6).max(1);
        // One and two workers: windows of two and four trees.
        for workers in [1usize, 2] {
            let mut pool = WorkerPool::new(
                &plan,
                PoolConfig::workers(workers).with_adaptive_budget(budget),
            );
            let depth = pool.pipeline_depth();
            for tree in &trees {
                pool.submit(tree);
            }
            assert!(pool.regions_in_flight() > 0);
            let mut reports = Vec::new();
            while let Some(r) = pool.collect().map(|r| r.expect("evaluation succeeds")) {
                reports.push(r);
            }
            assert!(
                pool.max_regions_in_flight() >= pool.max_in_flight(),
                "regions in flight at least one per tree"
            );
            for (i, (tree, report)) in trees.iter().zip(&reports).enumerate() {
                let (dstore, _) = dynamic_eval(tree).unwrap();
                let want = dstore
                    .get(tree.root(), out)
                    .and_then(|v| v.as_rope().cloned())
                    .unwrap();
                assert!(
                    root_rope(report, out).content_eq(&want),
                    "depth={depth} tree {i}"
                );
                assert_eq!(report.store.filled(), report.store.len());
            }
        }
    }

    #[test]
    fn literal_zero_config_is_normalized_at_construction() {
        let (tree, plan, out) = fixture(16);
        // Bypass the constructor entirely: a literal config with a
        // meaningless zero must still come out clamped, and the
        // accessors must report the *effective* values.
        let config = PoolConfig {
            workers: 0,
            ..PoolConfig::workers(2)
        };
        let mut pool = WorkerPool::new(&plan, config);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.pipeline_depth(), 2);
        let report = pool.eval(&tree).unwrap();
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore
            .get(tree.root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        assert!(root_rope(&report, out).content_eq(&want));
    }

    #[test]
    fn high_water_marks_reset_between_batches() {
        let (trees, plan, _) = fixture_trees(&[24, 24, 24]);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(1));
        for tree in &trees {
            pool.submit(tree);
        }
        while let Some(r) = pool.collect() {
            r.expect("evaluation succeeds");
        }
        assert_eq!(pool.max_in_flight(), 2);
        pool.reset_high_water();
        assert_eq!(pool.max_in_flight(), 0);
        assert_eq!(pool.max_regions_in_flight(), 0);
        pool.eval(&trees[0]).unwrap();
        assert_eq!(pool.max_in_flight(), 1);
    }

    #[test]
    fn poll_drains_completions_without_blocking() {
        let sizes = [40usize, 9, 24];
        let (trees, plan, out) = fixture_trees(&sizes);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        for tree in &trees {
            pool.submit(tree);
        }
        // poll never blocks: spin it until every report surfaces.
        let mut got = Vec::new();
        while got.len() < trees.len() {
            pool.poll();
            while let Some(r) = pool.take_ready() {
                got.push(r.expect("evaluation succeeds"));
            }
            std::thread::yield_now();
        }
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.poll(), 0, "nothing left to retire");
        for (i, (tree, report)) in trees.iter().zip(&got).enumerate() {
            assert_eq!(report.ticket, i as Ticket, "submission order");
            let (dstore, _) = dynamic_eval(tree).unwrap();
            let want = dstore
                .get(tree.root(), out)
                .and_then(|v| v.as_rope().cloned())
                .unwrap();
            assert!(root_rope(report, out).content_eq(&want), "tree {i}");
        }
    }

    /// One grammar, two wirings of S→T: `ok` feeds the subtree a
    /// constant, `knot` feeds it its own output — an instance cycle
    /// local to the (single-region) tree.
    #[allow(clippy::type_complexity)]
    pub(in crate::parallel) fn cyclic_fixture() -> (
        Vec<Arc<ParseTree<i64>>>,
        Arc<ParseTree<i64>>,
        Arc<EvalPlan<i64>>,
        AttrId,
    ) {
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let i = g.inherited(t, "i");
        let o = g.synthesized(t, "o");
        let ok = g.production("ok", s, [t]);
        g.rule(ok, (1, i), [], |_| 1);
        g.rule(ok, (0, out), [(1, o)], |a| a[0] + 100);
        let knot = g.production("knot", s, [t]);
        g.rule(knot, (1, i), [(1, o)], |a| a[0]);
        g.rule(knot, (0, out), [(1, o)], |a| a[0]);
        let body = g.production("body", t, []);
        g.rule(body, (0, o), [(0, i)], |a| a[0]);
        let gr = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&gr));
        let mk = |prod| {
            let mut tb = TreeBuilder::new(&gr);
            let b = tb.leaf(body);
            let root = tb.node(prod, [b]);
            Arc::new(tb.finish(root).unwrap())
        };
        let good = (0..3).map(|_| mk(ok)).collect();
        (good, mk(knot), plan, out)
    }

    /// A cyclic tree fails its own ticket, in submission order, and the
    /// pool keeps serving.
    fn failed_ticket_case(workers: usize) {
        let what = format!("{workers} workers");
        let (good, bad, plan, out) = cyclic_fixture();
        // The cyclic grammar is not statically ordered; the pool runs
        // it in dynamic mode.
        assert!(plan.plans().is_none());
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(workers));
        for tree in &good {
            pool.submit(tree);
        }
        let bad_ticket = pool.submit(&bad);
        // Submitting past the failure works: the cyclic tree fails only
        // its own ticket, it does not poison the pool.
        let extra_ticket = pool.submit(&good[0]);
        // Results surface in submission order: the successes, then the
        // failure, then the post-failure success.
        for (i, _) in good.iter().enumerate() {
            let r = pool.collect().expect("pending").expect("good tree");
            assert_eq!(r.ticket, i as Ticket, "{what}");
            assert_eq!(r.root_values, vec![(out, 101i64)], "{what}");
        }
        let failure = pool
            .collect()
            .expect("pending")
            .err()
            .expect("cyclic tree fails its own ticket");
        assert_eq!(failure.ticket, bad_ticket, "{what}");
        assert!(
            matches!(failure.error, EvalError::Cycle { .. }),
            "{what}: got {failure:?}"
        );
        let r = pool
            .collect()
            .expect("pending")
            .expect("post-failure submit evaluates normally");
        assert_eq!(r.ticket, extra_ticket, "{what}");
        assert_eq!(r.root_values, vec![(out, 101i64)], "{what}");
        assert!(pool.collect().is_none(), "{what}: drained");
        // And one-shot evals keep working afterwards.
        let r = pool.eval(&good[1]).unwrap();
        assert_eq!(r.root_values, vec![(out, 101i64)], "{what}");
    }

    #[test]
    fn failed_ticket_surfaces_in_order_and_pool_stays_usable() {
        for workers in [1, 2, 8] {
            failed_ticket_case(workers);
        }
    }

    /// Memo-safe splittable grammar: the chain's inherited `env` comes
    /// from a root token, never from a synthesized attribute of the
    /// same occurrence, so leaf regions can hold their outputs back
    /// until every input arrives. Values are scalar so every span is
    /// cache-plain under either propagation mode. As in
    /// [`fixture_trees`], each `cons` carries a region's worth of work.
    #[allow(clippy::type_complexity)]
    fn memo_fixture(
        seed: i64,
        items: &[i64],
    ) -> (Arc<ParseTree<Value>>, Arc<EvalPlan<Value>>, AttrId) {
        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("stmts");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let out = g.synthesized(s, "out");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        g.mark_split(l, 4);
        let top = g.production("top", s, [num, l]);
        g.rule(top, (2, env), [(1, val)], |a| a[0].clone());
        g.rule(top, (0, out), [(2, code)], |a| a[0].clone());
        let cons = g.production("cons", l, [num, l]);
        g.rule(cons, (2, env), [(0, env)], |a| a[0].clone());
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, val), (0, env), (2, code)],
            |a| {
                Value::Int(a[0].as_int().unwrap() * a[1].as_int().unwrap() + a[2].as_int().unwrap())
            },
            MIN_REGION_WORK,
        );
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, code), [], |_| Value::Int(0));
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&grammar));
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for &v in items.iter().rev() {
            let tok = tb.token([Value::Int(v)]);
            tail = tb.node_full(cons, [tok, tail.into()]);
        }
        let tok = tb.token([Value::Int(seed)]);
        let root = tb.node_full(top, [tok, tail.into()]);
        (Arc::new(tb.finish(root).unwrap()), plan, out)
    }

    #[test]
    fn memo_replays_repeated_trees_and_matches_memo_off() {
        let items: Vec<i64> = (0..24).map(|i| i * 3 + 1).collect();
        for dynamic in [false, true] {
            // Two structurally identical trees built independently —
            // distinct arenas, identical subtree hashes.
            let (t1, plan, out) = memo_fixture(7, &items);
            let (t2, _, _) = memo_fixture(7, &items);
            let plan = if dynamic {
                without_programs(&plan)
            } else {
                plan
            };
            let mode = plan.best_mode();
            let config = PoolConfig::workers(2).with_memo_capacity(1 << 20);
            let mut pool = WorkerPool::new(&plan, config);
            let r1 = pool.eval(&t1).unwrap();
            let after_first = pool.memo_counters().unwrap();
            assert!(after_first.inserts >= 1, "{mode:?}: first tree installs");
            assert_eq!(after_first.hits, 0, "{mode:?}: cold cache cannot hit");
            let r2 = pool.eval(&t2).unwrap();
            let after_second = pool.memo_counters().unwrap();
            assert!(
                after_second.hits >= 1,
                "{mode:?}: identical tree replays ({after_second:?})"
            );

            // Replay must be value-identical to a memo-off evaluation,
            // instance by instance.
            let (dstore, _) = dynamic_eval(&t2).unwrap();
            let g = t2.grammar();
            for node in t2.node_ids() {
                let sym = g.prod(t2.node(node).prod).lhs;
                for a in 0..g.attr_count(sym) {
                    let attr = AttrId(a as u32);
                    assert_eq!(
                        r2.store.get(node, attr),
                        dstore.get(node, attr),
                        "{mode:?} node={node:?} attr={attr:?}"
                    );
                }
            }
            assert_eq!(r2.store.filled(), r2.store.len());
            assert_eq!(
                r1.root_values.iter().find(|(a, _)| *a == out),
                r2.root_values.iter().find(|(a, _)| *a == out),
                "{mode:?}: replayed root value"
            );
        }
    }

    #[test]
    fn memo_distinguishes_inherited_context() {
        let items: Vec<i64> = (0..16).map(|i| i + 1).collect();
        let (t1, plan, out) = memo_fixture(2, &items);
        // Same chain, different root seed: the leaf region's subtree is
        // identical but its inherited `env` differs, so the cached span
        // must NOT be reused.
        let (t2, _, _) = memo_fixture(5, &items);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2).with_memo_capacity(1 << 20));
        pool.eval(&t1).unwrap();
        let r2 = pool.eval(&t2).unwrap();
        let c = pool.memo_counters().unwrap();
        assert_eq!(c.hits, 0, "different inherited context never hits ({c:?})");
        let (dstore, _) = dynamic_eval(&t2).unwrap();
        let want = dstore.get(t2.root(), out).unwrap();
        assert_eq!(
            &r2.root_values.iter().find(|(a, _)| *a == out).unwrap().1,
            want
        );
    }

    #[test]
    fn memo_skips_symbols_where_inherited_depends_on_synthesized() {
        // The base fixture's `top` computes the child's `env` from the
        // child's own `decls` — holding `decls` back until `env` arrives
        // would deadlock, so those regions must never probe or install.
        // (Whole, the tree would be one leaf region rooted at the tree
        // root, which awaits nothing and is cacheable: the regions have
        // to be real ones.)
        let (tree, plan, out) = fixture(32);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2).with_memo_capacity(1 << 20));
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore
            .get(tree.root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        for round in 0..2 {
            let report = pool.eval(&tree).unwrap();
            assert!(report.regions > 1, "round {round}: tree was split");
            assert!(root_rope(&report, out).content_eq(&want), "round {round}");
        }
        let c = pool.memo_counters().unwrap();
        assert_eq!((c.hits, c.misses, c.inserts), (0, 0, 0), "{c:?}");
    }

    #[test]
    fn memo_off_reports_no_counters() {
        let (tree, plan, _) = fixture(8);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        pool.eval(&tree).unwrap();
        assert!(pool.memo_counters().is_none());
    }

    /// The steal counters stay on the pool's report, and read zero:
    /// modular seeding never steals, so nothing migrates.
    #[test]
    fn stealing_counters_are_reported_and_reset() {
        let sizes = [64usize, 48, 33, 21, 96, 17];
        let (trees, plan, _) = fixture_trees(&sizes);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        for tree in &trees {
            pool.submit(tree);
        }
        while let Some(r) = pool.collect() {
            let report = r.expect("evaluation succeeds");
            assert!(
                report.regions > 1,
                "ticket {}: tree was split",
                report.ticket
            );
        }
        let c = pool.sched_counters();
        assert!(
            c.local_sends + c.remote_sends > 0,
            "boundary sends were classified ({c:?})"
        );
        assert!(c.locality_rate() >= 0.0 && c.locality_rate() <= 1.0);
        assert_eq!((c.steals, c.migrated_attrs), (0, 0), "{c:?}");
        // `reset_high_water` covers the scheduler telemetry too.
        pool.reset_high_water();
        assert_eq!(pool.sched_counters(), SchedCounters::default());
    }

    #[test]
    fn panicking_rule_fails_only_its_ticket() {
        // A rule that explodes on a marker input: the unwind must be
        // contained (surfacing as `RulePanic` on that ticket alone)
        // instead of tearing down the worker thread. The default panic
        // hook prints its message to test stderr once — expected noise.
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let t = g.nonterminal("T");
        let out = g.synthesized(s, "out");
        let i = g.inherited(t, "i");
        let o = g.synthesized(t, "o");
        let ok = g.production("ok", s, [t]);
        g.rule(ok, (1, i), [], |_| 1);
        g.rule(ok, (0, out), [(1, o)], |a| a[0] + 100);
        let boom = g.production("boom", s, [t]);
        g.rule(boom, (1, i), [], |_| 13);
        g.rule(boom, (0, out), [(1, o)], |a| a[0]);
        let body = g.production("body", t, []);
        g.rule(body, (0, o), [(0, i)], |a| {
            assert!(a[0] != 13, "rule exploded on marker input");
            a[0]
        });
        let gr = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&gr));
        let mk = |prod| {
            let mut tb = TreeBuilder::new(&gr);
            let b = tb.leaf(body);
            let root = tb.node(prod, [b]);
            Arc::new(tb.finish(root).unwrap())
        };
        // These two-node trees are whole-tree jobs: the containment
        // under test is the one around the static evaluation.
        for workers in [1, 2, 8] {
            let what = format!("{workers} workers");
            let mut pool = WorkerPool::new(&plan, PoolConfig::workers(workers));
            let good = mk(ok);
            pool.submit(&good);
            let bad_ticket = pool.submit(&mk(boom));
            pool.submit(&good);
            let mut outcomes = Vec::new();
            while let Some(r) = pool.collect() {
                outcomes.push(r);
            }
            assert_eq!(outcomes.len(), 3, "{what}");
            let first = outcomes[0].as_ref().unwrap();
            assert_eq!(first.root_values, vec![(out, 101i64)], "{what}");
            assert_eq!(first.regions, 1, "{what}: a whole-tree job");
            let failure = outcomes[1].as_ref().err().expect("marker tree panics");
            assert_eq!(failure.ticket, bad_ticket, "{what}");
            let EvalError::RulePanic { message } = &failure.error else {
                panic!("{what}: expected RulePanic, got {failure:?}");
            };
            assert!(
                message.contains("rule exploded"),
                "{what}: panic message survives: {message}"
            );
            assert_eq!(
                outcomes[2].as_ref().unwrap().root_values,
                vec![(out, 101i64)],
                "{what}"
            );
            assert_eq!(pool.fault_counters().panics_contained, 1, "{what}");
            // The pool is still healthy for later one-shot work.
            let r = pool.eval(&good).unwrap();
            assert_eq!(r.root_values, vec![(out, 101i64)], "{what}");
            // The panic was contained outside the shared lock.
            assert!(!pool.board.is_poisoned(), "{what}: board lock");
        }
    }

    #[test]
    fn kill_worker_refuses_bad_victims_and_the_survivor_evaluates() {
        let (tree, plan, _) = fixture(16);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        assert!(!pool.kill_worker(7), "out of range");
        assert!(pool.kill_worker(1));
        assert!(!pool.kill_worker(1), "already dead");
        assert!(!pool.kill_worker(0), "the last survivor is spared");
        // One survivor still evaluates correctly: every region whose
        // home is dead is seeded onto it.
        let r = pool.eval(&tree).unwrap();
        assert_eq!(r.regions, 2);
        assert_eq!(r.store.filled(), r.store.len());
        assert_eq!(pool.fault_counters().crashes, 1);
    }

    #[test]
    fn killed_worker_recovers_regions_and_outputs_stay_identical() {
        // Four workers: a window of eight trees, the whole stream.
        let sizes = [96usize, 64, 80, 72, 88, 56, 100, 48];
        let (trees, plan, out) = fixture_trees(&sizes);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(4));
        assert_eq!(pool.pipeline_depth(), trees.len());
        for tree in &trees {
            pool.submit(tree);
        }
        // Crash one worker while the whole stream is in flight: its
        // queued jobs migrate, its active jobs re-execute from their
        // input logs on the survivors.
        assert!(pool.kill_worker(1));
        let mut reports = Vec::new();
        while let Some(r) = pool.collect() {
            reports.push(r.expect("recovery completes every tree"));
        }
        assert_eq!(reports.len(), trees.len());
        for (i, (tree, report)) in trees.iter().zip(&reports).enumerate() {
            assert_eq!(report.ticket, i as Ticket, "submission order survives");
            let (dstore, _) = dynamic_eval(tree).unwrap();
            let want = dstore
                .get(tree.root(), out)
                .and_then(|v| v.as_rope().cloned())
                .unwrap();
            assert!(
                root_rope(report, out).content_eq(&want),
                "tree {i}: output identical to fault-free evaluation"
            );
            assert_eq!(report.store.filled(), report.store.len());
        }
        let f = pool.fault_counters();
        assert_eq!(f.crashes, 1);
        assert!(f.regions_reexecuted > 0, "lost regions were reseeded {f:?}");
        // The three survivors keep serving new work.
        let r = pool.eval(&trees[0]).unwrap();
        let (dstore, _) = dynamic_eval(&trees[0]).unwrap();
        let want = dstore
            .get(trees[0].root(), out)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        assert!(root_rope(&r, out).content_eq(&want));
        // reset_high_water clears the fault telemetry too.
        pool.reset_high_water();
        assert_eq!(pool.fault_counters(), FaultCounters::default());
    }

    /// [`memo_fixture`]'s memo-safe chain with *rope* code, long enough
    /// that every region's code would clear the simulator's librarian
    /// threshold — so a value crossing a region boundary carries a whole
    /// subtree's code. As in [`fixture_trees`], each `cons` carries a
    /// region's worth of work.
    fn rope_memo_fixture(n: usize) -> (Arc<ParseTree<Value>>, Arc<EvalPlan<Value>>, AttrId) {
        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("stmts");
        let num = g.terminal("num");
        let val = g.synthesized(num, "val");
        let out = g.synthesized(s, "out");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        g.mark_split(l, 4);
        let top = g.production("top", s, [num, l]);
        g.rule(top, (2, env), [(1, val)], |a| a[0].clone());
        g.rule(top, (0, out), [(2, code)], |a| a[0].clone());
        let cons = g.production("cons", l, [num, l]);
        g.rule(cons, (2, env), [(0, env)], |a| a[0].clone());
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, val), (0, env), (2, code)],
            |a| {
                let line = format!(
                    "movl ${}, r{}\n",
                    a[0].as_int().unwrap(),
                    a[1].as_int().unwrap()
                );
                Value::Rope(Rope::from(line).concat(a[2].as_rope().unwrap()))
            },
            MIN_REGION_WORK,
        );
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&grammar));
        let mut tb = TreeBuilder::new(&grammar);
        let mut tail = tb.leaf(nil);
        for v in (0..n as i64).rev() {
            let tok = tb.token([Value::Int(v)]);
            tail = tb.node_full(cons, [tok, tail.into()]);
        }
        let tok = tb.token([Value::Int(7)]);
        let root = tb.node_full(top, [tok, tail.into()]);
        (Arc::new(tb.finish(root).unwrap()), plan, out)
    }

    #[test]
    fn retired_store_needs_no_inflating_and_matches_static_eval() {
        let (t1, plan, out) = rope_memo_fixture(600);
        // Built independently: distinct arena, identical subtree hashes
        // (what the memo replays across).
        let (t2, _, _) = rope_memo_fixture(600);
        let (want, _) = crate::eval::static_eval(&t1, plan.plans().unwrap()).unwrap();
        let want_root = want.get(t1.root(), out).unwrap();
        let budget = (plan.tree_work(&t1) / 12).max(1);
        for (workers, adaptive_budget) in [(2, None), (8, None), (2, Some(budget))] {
            for memo in [0, 1 << 28] {
                let what = format!("{workers} workers, budget {adaptive_budget:?} memo {memo}");
                let config = PoolConfig {
                    adaptive_budget,
                    ..PoolConfig::workers(workers).with_memo_capacity(memo)
                };
                let mut pool = WorkerPool::new(&plan, config);
                if let Some(budget) = adaptive_budget {
                    let granularity = RegionGranularity::Adaptive { budget };
                    let d = decompose_granular(&t1, &pool.split, plan.work_table(), granularity);
                    let nesting = |mut r: RegionId| {
                        let mut levels = 1;
                        while let Some(p) = d.regions[r as usize].parent {
                            (r, levels) = (p, levels + 1);
                        }
                        levels
                    };
                    let deepest = (0..d.len() as RegionId).map(nesting).max().unwrap();
                    assert!(deepest >= 3, "{what}: regions nest {deepest} deep");
                }
                // The first tree retires (its spans installed) before
                // the other two are submitted, so the third can replay.
                let mut reports = vec![pool.eval(&t1).expect("evaluation succeeds")];
                for tree in [&t2, &t1] {
                    pool.submit(tree);
                }
                reports.extend(
                    std::iter::from_fn(|| pool.collect()).map(|r| r.expect("evaluation succeeds")),
                );
                let mut retired = 0;
                for report in reports {
                    retired += 1;
                    if adaptive_budget.is_none() {
                        assert_eq!(report.regions, workers, "{what}: one region per machine")
                    } else {
                        assert!(report.regions > 1, "{what}: tree was split")
                    }
                    assert_eq!(report.store.filled(), report.store.len(), "{what}");
                    for i in 0..report.store.len() {
                        let got = report.store.get_by_index(i).unwrap();
                        assert_eq!(Some(got), want.get_by_index(i), "{what}: instance {i}");
                    }
                    let root = report.root_value(out).unwrap();
                    assert_eq!(root.to_string(), want_root.to_string(), "{what}: root code");
                }
                assert_eq!(retired, 3, "{what}");
                if memo > 0 {
                    let hits = pool.memo_counters().unwrap().hits;
                    assert!(hits >= 1, "{what}: a later tree replays from the memo");
                }
            }
        }
    }

    /// The retired view against the sequential static evaluator: every
    /// instance read through it, its dense dereference slot by slot,
    /// then every root value.
    fn assert_view_is_static_eval(
        tree: &ParseTree<Value>,
        plan: &EvalPlan<Value>,
        report: &PoolReport<Value>,
        what: &str,
    ) {
        let (want, _) = crate::eval::static_eval(tree, plan.plans().unwrap()).unwrap();
        let g = tree.grammar();
        let instances = || {
            tree.node_ids().flat_map(move |node| {
                let sym = g.prod(tree.node(node).prod).lhs;
                (0..g.attr_count(sym)).map(move |a| (node, AttrId(a as u32)))
            })
        };
        for (node, attr) in instances() {
            assert_eq!(
                report.store.get(node, attr),
                want.get(node, attr),
                "{what}: read through the view, node={node:?} attr={attr:?}"
            );
        }
        let dense: &AttrStore<Value> = &report.store;
        assert_eq!(
            (dense.len(), dense.filled()),
            (want.len(), want.filled()),
            "{what}"
        );
        for i in 0..want.len() {
            assert_eq!(
                dense.get_by_index(i),
                want.get_by_index(i),
                "{what}: slot {i}"
            );
        }
        for (node, attr) in instances() {
            assert_eq!(
                report.store.get(node, attr),
                want.get(node, attr),
                "{what}: read after the dereference, node={node:?} attr={attr:?}"
            );
        }
        let root = tree.root();
        let root_sym = g.prod(tree.node(root).prod).lhs;
        assert!(!plan.syn_attrs(root_sym).is_empty());
        for &attr in plan.syn_attrs(root_sym) {
            assert_eq!(
                report.root_value(attr),
                want.get(root, attr),
                "{what}: root value"
            );
        }
    }

    /// One oracle for the retired view, over every shape a ticket takes:
    /// a whole-tree job, two regions, an adaptive many-region cut, a
    /// region replayed from the memo and a region re-executed after its
    /// worker was killed.
    #[test]
    fn the_retired_view_reads_like_static_eval_on_every_ticket_shape() {
        let (light, plan, _) = light_trees(&[40]);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        let report = pool.eval(&light[0]).unwrap();
        assert_eq!(report.regions, 1);
        assert_view_is_static_eval(&light[0], &plan, &report, "whole-tree job");

        // Every evaluation stops in its chain-end rule until the gate
        // opens, so at the kill each worker still holds its jobs.
        let gate = Arc::new((Mutex::new(true), std::sync::Condvar::new()));
        let held = Arc::clone(&gate);
        let (trees, plan, _) = fixture_trees_with(&[60; 4], MIN_REGION_WORK, move || {
            let (open, opened) = &*held;
            let _open = opened
                .wait_while(open.lock().unwrap(), |open| !*open)
                .unwrap();
        });
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        let report = pool.eval(&trees[0]).unwrap();
        assert_eq!(report.regions, 2);
        assert_view_is_static_eval(&trees[0], &plan, &report, "two regions");

        // Kill a worker with the window full: its regions re-execute on
        // the survivor.
        *gate.0.lock().unwrap() = false;
        for tree in &trees {
            pool.submit(tree);
        }
        assert!(pool.kill_worker(1));
        assert!(pool.fault_counters().regions_reexecuted > 0);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        for (i, tree) in trees.iter().enumerate() {
            let report = pool.collect().unwrap().unwrap();
            assert_view_is_static_eval(tree, &plan, &report, &format!("after the kill, tree {i}"));
        }

        let (tree, plan, _) = rope_memo_fixture(600);
        let budget = (plan.tree_work(&tree) / 12).max(1);
        let config = PoolConfig::workers(2).with_adaptive_budget(budget);
        let report = WorkerPool::new(&plan, config).eval(&tree).unwrap();
        assert!(report.regions > 4, "{} regions", report.regions);
        assert_view_is_static_eval(&tree, &plan, &report, "adaptive cut");

        let items: Vec<i64> = (0..24).map(|i| i * 3 + 1).collect();
        let (t1, plan, _) = memo_fixture(7, &items);
        let (t2, _, _) = memo_fixture(7, &items);
        let config = PoolConfig::workers(2).with_memo_capacity(1 << 20);
        let mut pool = WorkerPool::new(&plan, config);
        pool.eval(&t1).unwrap();
        let report = pool.eval(&t2).unwrap();
        assert_eq!(report.regions, 2);
        assert!(pool.memo_counters().unwrap().hits >= 1, "a region replays");
        assert_view_is_static_eval(&t2, &plan, &report, "memo-replayed region");
    }

    fn assert_stores_equal(
        tree: &ParseTree<Value>,
        got: &AttrStore<Value>,
        want: &AttrStore<Value>,
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}");
        assert_eq!(got.filled(), want.filled(), "{what}");
        for node in tree.node_ids() {
            let sym = tree.grammar().prod(tree.node(node).prod).lhs;
            for a in 0..tree.grammar().attr_count(sym) {
                let attr = AttrId(a as u32);
                assert_eq!(
                    got.get(node, attr),
                    want.get(node, attr),
                    "{what}: node={node:?} attr={attr:?}"
                );
            }
        }
    }

    fn assert_idle_and_quiescent(pool: &WorkerPool<Value>, what: &str) {
        assert_eq!(pool.in_flight(), 0, "{what}");
        assert!(pool.board.lock().unwrap().is_quiescent(), "{what}: board");
    }

    /// A tree below the hand-off floor is one whole-tree job: one region
    /// — and the store and root values of the sequential static
    /// evaluator, at every worker count (so window depth) and memo
    /// setting.
    #[test]
    fn one_region_tickets_are_whole_tree_jobs_identical_to_static_eval() {
        let sizes = [40usize, 1, 0, 25, 7, 40, 12, 25, 3, 40];
        let (trees, plan, out) = light_trees(&sizes);
        let plans = plan.plans().unwrap();
        let want: Vec<_> = trees
            .iter()
            .map(|t| crate::eval::static_eval(t, plans).unwrap())
            .collect();
        for workers in [1usize, 2, 8] {
            for memo in [0usize, 1 << 20] {
                let what = format!("workers={workers} memo={memo}");
                let mut pool =
                    WorkerPool::new(&plan, PoolConfig::workers(workers).with_memo_capacity(memo));
                let mut reports = Vec::new();
                for tree in &trees {
                    pool.submit(tree);
                    reports.extend(std::iter::from_fn(|| pool.take_ready()));
                }
                reports.extend(std::iter::from_fn(|| pool.collect()));
                assert_eq!(reports.len(), trees.len(), "{what}");
                for (i, report) in reports.into_iter().enumerate() {
                    let what = format!("{what} tree {i}");
                    let report = report.expect("evaluation succeeds");
                    let (want_store, want_stats) = &want[i];
                    assert_eq!(report.ticket, i as Ticket, "{what}");
                    assert_eq!(report.regions, 1, "{what}");
                    assert_stores_equal(&trees[i], &report.store, want_store, &what);
                    let root = want_store.get(trees[i].root(), out).unwrap();
                    assert_eq!(report.root_values, vec![(out, root.clone())], "{what}");
                    // A replayed tree applies no rule; an
                    // evaluated one applies the sequential
                    // evaluator's.
                    assert!(
                        report.stats == *want_stats
                            || (memo > 0 && report.stats == EvalStats::default()),
                        "{what}: {:?}",
                        report.stats
                    );
                }
                assert_idle_and_quiescent(&pool, &what);
                if memo > 0 {
                    // 40, 25 and 40 again: the repeats can hit
                    // (whether they do depends on whether the
                    // first has retired), everything else
                    // misses once.
                    let c = pool.memo_counters().unwrap();
                    assert_eq!(c.hits + c.misses, sizes.len() as u64, "{what}: {c:?}");
                    assert_eq!(c.inserts, 7, "{what}: one per distinct tree {c:?}");
                    assert!(c.hits <= 3, "{what}: {c:?}");
                }
            }
        }
    }

    /// The root region's memo contract on a tree that stays whole:
    /// never seen → one miss, evaluated, installed at retirement; seen →
    /// probed, hit, replayed, not installed again.
    #[test]
    fn repeated_one_region_trees_hit_the_memo_like_a_root_region() {
        // Built independently: distinct arenas, equal hashes.
        let (t1, plan, out) = memo_fixture(7, &[5]);
        let (t2, _, _) = memo_fixture(7, &[5]);
        let (other, _, _) = memo_fixture(7, &[6]);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2).with_memo_capacity(1 << 20));
        let counts = |pool: &WorkerPool<Value>| {
            let c = pool.memo_counters().unwrap();
            (c.hits, c.misses, c.inserts)
        };
        let r1 = pool.eval(&t1).unwrap();
        assert_eq!(r1.regions, 1);
        assert_eq!(counts(&pool), (0, 1, 1), "cold");
        let r2 = pool.eval(&t2).unwrap();
        assert_eq!(counts(&pool), (1, 1, 1), "replayed");
        let r3 = pool.eval(&t1).unwrap();
        assert_eq!(counts(&pool), (2, 1, 1), "replayed again");
        pool.eval(&other).unwrap();
        assert_eq!(counts(&pool), (2, 2, 2), "another tree");
        let (want, _) = crate::eval::static_eval(&t1, plan.plans().unwrap()).unwrap();
        assert_eq!(r1.root_values, vec![(out, Value::Int(35))]);
        for (tree, r) in [(&t1, &r1), (&t2, &r2), (&t1, &r3)] {
            assert_eq!(r.root_values, r1.root_values);
            // Same shape, so the same dense indices in either arena.
            assert_eq!(r.store.len(), want.len());
            for i in 0..want.len() {
                assert_eq!(r.store.get_by_index(i), want.get_by_index(i));
            }
            assert_eq!(r.store.filled(), r.store.len());
            assert_eq!(tree.len(), 3);
        }
        assert_eq!(r2.stats, EvalStats::default(), "a replay applies no rule");
    }

    /// One-region and multi-region tickets interleaved in one window
    /// retire in submission order with the right job kind each.
    #[test]
    fn a_stream_straddling_the_floor_retires_in_submission_order() {
        let sizes = [1usize, 48, 0, 1, 33, 1, 64, 0, 17, 1];
        let (trees, plan, out) = fixture_trees(&sizes);
        // Three workers: a window of six of the ten trees.
        let what = "a stream straddling the floor";
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(3));
        for tree in &trees {
            pool.submit(tree);
        }
        for (i, tree) in trees.iter().enumerate() {
            let report = pool.collect().expect("pending").expect("evaluates");
            assert_eq!(report.ticket, i as Ticket, "{what}: submission order");
            if sizes[i] <= 1 {
                assert_eq!(report.regions, 1, "{what} tree {i}");
            } else {
                assert_eq!(report.regions, 3, "{what} tree {i}");
            }
            let (want, _) = dynamic_eval(tree).unwrap();
            assert_stores_equal(tree, &report.store, &want, &format!("{what} tree {i}"));
            let root = want.get(tree.root(), out).unwrap().as_rope().unwrap();
            assert!(root_rope(&report, out).content_eq(root), "{what} tree {i}");
        }
        assert!(pool.collect().is_none(), "{what}");
        assert_idle_and_quiescent(&pool, what);
    }

    /// A worker killed while whole-tree jobs sit on it: the board hands
    /// them to the survivors, which run them from nothing, and every
    /// tree still comes back once, in order, identical to sequential
    /// evaluation.
    #[test]
    fn killed_worker_reexecutes_whole_tree_jobs_from_nothing() {
        // Every evaluation stops in its first rule until the gate
        // opens, so at the kill each worker holds the jobs it was
        // seeded with — at most one of them claimed.
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let held = Arc::clone(&gate);
        // Three workers: a window of six trees, the whole stream.
        let sizes = [9usize; 6];
        let (trees, plan, out) = fixture_trees_with(&sizes, 1, move || {
            let (open, opened) = &*held;
            let _open = opened
                .wait_while(open.lock().unwrap(), |open| !*open)
                .unwrap();
        });
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(3));
        assert_eq!(pool.pipeline_depth(), sizes.len());
        for tree in &trees {
            pool.submit(tree);
        }
        assert!(pool.kill_worker(1));
        let f = pool.fault_counters();
        assert_eq!(
            f.regions_reexecuted, 2,
            "equal jobs seed round-robin: two lived on the victim {f:?}"
        );
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        let (want, _) = crate::eval::static_eval(&trees[0], plan.plans().unwrap()).unwrap();
        for (i, tree) in trees.iter().enumerate() {
            let what = format!("tree {i}");
            let report = pool
                .collect()
                .expect("pending")
                .expect("recovery completes");
            assert_eq!(
                report.ticket, i as Ticket,
                "{what}: submission order survives"
            );
            assert_eq!(report.regions, 1, "{what}");
            assert_stores_equal(tree, &report.store, &want, &what);
            let root = want.get(tree.root(), out).unwrap();
            assert_eq!(report.root_values, vec![(out, root.clone())], "{what}");
        }
        assert!(pool.collect().is_none());
        assert_idle_and_quiescent(&pool, "after the kill");
        // The two survivors keep serving.
        let report = pool.eval(&trees[0]).unwrap();
        assert_stores_equal(&trees[0], &report.store, &want, "after the kill");
    }

    /// Two small trees per worker: a small tree is one job, so the
    /// window is what keeps a worker's next tree on its deque.
    #[test]
    fn default_window_holds_two_one_region_tickets_per_worker() {
        let (trees, plan, _) = light_trees(&[6; 20]);
        for workers in [1usize, 2, 8] {
            for config in [
                PoolConfig::workers(workers),
                PoolConfig::workers(workers).with_adaptive_budget(1 << 40),
            ] {
                let want = 2 * workers;
                let mut pool = WorkerPool::new(&plan, config);
                assert_eq!(pool.pipeline_depth(), want, "{config:?}");
                for tree in &trees {
                    pool.submit(tree);
                }
                while let Some(r) = pool.collect() {
                    assert_eq!(r.expect("evaluates").regions, 1, "{config:?}");
                }
                assert_eq!(pool.max_in_flight(), want, "{config:?}");
                assert_eq!(pool.max_regions_in_flight(), want, "{config:?}");
            }
        }
    }

    /// A region that reports twice (crash recovery re-executed it after
    /// its first `Done` was already on the wire) is suppressed whole —
    /// root values aboard or not — and counted once.
    #[test]
    fn a_second_done_of_the_root_region_is_suppressed_and_counted_once() {
        let (tree, plan, out) = fixture(24);
        let mut pool = WorkerPool::new(&plan, PoolConfig::workers(2));
        pool.submit(&tree);
        while !pool.front_complete() {
            let msg = pool.parser_rx.recv().expect("workers alive");
            pool.route(msg);
        }
        let decomp = pool.in_flight[0].decomp.clone().expect("the tree was cut");
        pool.route(Done {
            ticket: 0,
            region: 0,
            worker: 1,
            result: Ok((
                EvalStats::default(),
                Finished::Region {
                    store: RegionStore::new(decomp.slot_map(), 0),
                    roots: vec![(out, Value::Int(-1))],
                },
            )),
        });
        assert_eq!(pool.fault_counters().dup_suppressed, 1);
        let report = pool.collect().expect("pending").expect("evaluates");
        assert_eq!(report.regions, 2);
        assert_eq!(report.root_values.len(), 1, "the first report's roots only");
        let (want, _) = dynamic_eval(&tree).unwrap();
        assert_stores_equal(&tree, &report.store, &want, "duplicate Done");
        assert_eq!(pool.fault_counters().dup_suppressed, 1);
    }
}
