//! A persistent evaluator worker pool with split-phase code combining
//! and cross-tree pipelining.
//!
//! [`super::threads`] reproduces the paper's Figure-6 setting for *one*
//! compilation: spawn one OS thread per region, evaluate, join. Under a
//! batched driver compiling a stream of trees, that per-compilation
//! spin-up (thread creation, channel setup, librarian start) is pure
//! overhead repeated per tree. [`WorkerPool`] hoists it: evaluator
//! threads are spawned **once** and claim per-tree region jobs from a
//! shared scheduler board; each worker keeps a [`MachineScratch`] alive so
//! construction/evaluation buffer capacity also carries over from tree
//! to tree. The pool runs exactly [`PoolConfig::workers`] threads.
//!
//! # Tickets and the split-phase librarian
//!
//! Every tree submitted to the pool gets a monotonically increasing
//! [`Ticket`]. The librarian protocol is *split-phase*, exactly as the
//! paper's §4.2 code-combining protocol allows:
//!
//! * **Registration** streams: workers hand code segments to the
//!   librarian *while evaluation is still running*, tagged with their
//!   tree's ticket ([`SegmentLedger`] keeps one segment store per
//!   in-flight ticket, so consecutive trees' segments never collide).
//! * **Resolution** is deferred to the parser's final read of that
//!   tree: only when the pool retires a ticket does it take the
//!   ticket's segment store — and by then the *next* tree's
//!   registrations are already streaming in.
//!
//! The paper's librarian is a process because its machines share
//! nothing. Threads share memory, so here the librarian is the ledger
//! itself, not a thread that owns one: workers register straight into a
//! [`SegmentLedger`] shared under a mutex, and retirement takes the
//! ticket's store out of it. The protocol is the same — a worker
//! registers a value's segments *before* it sends the message carrying
//! the value, and every region's registrations happen-before the `Done`
//! it sends afterwards, so by the time the retiring thread has every
//! `Done` in hand the ticket's entry is complete. What is gone is a
//! third thread on a box that already runs the workers and the caller,
//! and a blocking rendezvous with it at every retirement (measured
//! 75–160 µs per small tree, up to 25 ms on a huge one when the
//! librarian had to wait for a CPU). The lock is held for one
//! registration or one take at a time, never across a semantic-rule
//! call. An entry lives from `submit` to retirement: a registration
//! for a ticket no longer in flight (a region of a failed ticket that
//! has not seen its `Cancel` yet) is dropped, so an idle pool's ledger
//! is empty — debug builds assert it. A ticket that is not cut into
//! regions (below) registers nothing and has no entry at all.
//!
//! # Region-granular scheduling
//!
//! The pool's unit of scheduling is the **region job** — a
//! `(ticket, region)` pair with its own machine, dependencies and
//! completion signal — *not* the tree. A tree's pass through the pool:
//!
//! ```text
//! submit(tree)
//!   │ carve                         fixed-count (Machines) or
//!   │                               cost-driven (Adaptive budget)
//!   ▼
//! ticket t ──┬─ job (t,0) ─▶ worker w(t,0)    one Machine per job;
//!            ├─ job (t,1) ─▶ worker w(t,1)    workers multiplex their
//!            ├─ job (t,2) ─▶ worker w(t,2)    machines, oldest
//!            └─ job (t,r) ─▶ worker w(t,r)    (ticket, region) first
//!                  │
//!                  │  Attr { t, region, .. }   between (t,q) machines
//!                  │  register_open(t, ..)     into the shared ledger
//!                  ▼
//! Done(t, q) per region ─▶ parser assembles InFlight(t)
//!   (root values aboard   ─▶ resolve(t) at retirement ─▶ PoolReport
//!    the root region's)
//!
//! ticket t, not cut ── whole-tree job (t,0) ─▶ worker w(t,0)
//!                        static evaluation into an AttrStore:
//!                        no decomposition, machine or ledger entry
//!                  ▼
//! Done(t, 0) with the store ─▶ retirement adopts it ─▶ PoolReport
//! ```
//!
//! A finished job is **one message**: its `Done` carries what it
//! computed — a region's local store (and, from the root region, the
//! tree's root values), or a whole tree's store.
//!
//! A ticket that stays whole — one region — is not a degenerate case of
//! the machinery above but a different job: nothing crosses a boundary,
//! so there is nothing to decompose, no dependency to schedule, no
//! segment to register and no region store to map back. The worker runs
//! the plan's compiled visit programs over the tree exactly as the
//! sequential static evaluator does (§2.4: static evaluation wherever
//! no remote dependency exists) and retirement adopts the store it
//! filled. Such a job runs to completion when its worker takes it up,
//! rather than taking turns with that worker's machines; it is short by
//! construction (below twice the hand-off floor under `Machines`, about
//! 1.6 ms of evaluation; under an `Adaptive` budget, a tree with one
//! budget's work or nowhere to split), which bounds how long an older
//! machine on that worker waits for its next step. Under either
//! scheduler it is the ticket's one board job, which a crash
//! re-executes from nothing, and with the memo on it keeps the root
//! region's contract: probe, replay or evaluate, install at retirement. A pool running
//! [`MachineMode::Dynamic`] (its grammar may not be l-ordered, so there
//! may be no visit program to run) keeps the one-region machine.
//!
//! Because regions — not trees — are the work items, a single huge tree
//! decomposed into many budget-sized regions
//! ([`crate::split::decompose_adaptive`], selected with
//! [`RegionGranularity::Adaptive`]) fills the worker park exactly like
//! a batch of small trees does, and mixed streams of huge and tiny
//! trees interleave at region granularity: there is no head-of-line
//! blocking behind a big tree's longest region, because every worker
//! holds several of the big tree's regions and any younger tree's
//! regions besides. [`RegionGranularity::Machines`] (the default,
//! regions ≤ workers) is the paper's fixed one-region-per-machine
//! decomposition *with the paper's granularity argument applied to
//! threads*: §3 gives every `%split` nonterminal a minimum size so a
//! subtree too small to repay shipping is never split off, and the pool
//! asks for `min(n, tree_work / MIN_REGION_WORK)` regions (at least
//! one), so a tree below twice the hand-off cost stays whole and is one
//! whole-tree job. The floor is a private constant of this file whose
//! doc comment carries the measured crossover; a paper-sized tree
//! (≥ 25 k nodes) is far above it and decomposes exactly as before. An explicit
//! [`RegionGranularity::Adaptive`] budget is not floored, and neither
//! is the simulator, whose hand-off cost is the modelled network and
//! whose minima are the grammar's.
//!
//! # Cross-tree pipelining
//!
//! Because registration and resolution are decoupled per ticket, the
//! pool needs no barrier between trees. A small in-flight window
//! ([`PoolConfig::pipeline_depth`]) lets tree N+1's region jobs
//! dispatch while tree N's regions drain. The default window is two
//! trees **per worker**. It is per worker because a small tree is one
//! job on one worker, placement rotating by ticket: a window of
//! `workers` trees puts one on each, and then a worker that finishes
//! has nothing to do until the caller's thread has been woken, has
//! retired the tree, prepared the next and sent it — a round trip
//! between two threads, 20–200 µs on the 2-core box against the
//! ≈ 65 µs the tree takes to evaluate. With two per worker the next
//! tree is already on the worker's deque. (Measured on `small_iid`:
//! `lines_per_s` ×1.14–1.27 for the window alone; four per worker read
//! no better than two. ROADMAP's Status notes have the tables.)
//! Workers multiplex their
//! machines **oldest job first**: whenever an older machine starves
//! (blocked on an attribute from a straggling peer — e.g. downstream of
//! the symbol-table pipeline), the worker steps the next job's machine
//! instead of idling. Both the early-finisher idle time *and* the
//! blocked-on-messages time an epoch barrier would waste become useful
//! work, and the parser-side assembly of tree N (store merge + segment
//! inflation) overlaps tree N+1's evaluation. Depth 1 restores the
//! strict one-epoch-per-tree barrier.
//!
//! # What retirement costs
//!
//! Retiring a ticket ([`PoolReport::assemble`]) runs on whichever
//! thread collects it — the batch driver's caller, or the service
//! queue's pump — after the tree's last rule has fired, so none of it
//! overlaps that tree's evaluation. A ticket that was one whole-tree
//! job costs none of what follows: its store arrives finished, and
//! retirement reads the root values out of it (and, memo on, runs the
//! install scan over it) — no ledger lock, no allocation, no move, no
//! inflation. For a ticket of regions, retirement waits on no other
//! thread — the ticket's segment store is taken out of the shared
//! ledger under a lock no one holds for longer than one registration.
//! It is, in order: inflating the root values; the memo install scan
//! (memo on only: one `is_fingerprintable` + `wire_size` per value of
//! each cacheable region not yet cached); sizing the whole-tree store
//! ([`AttrStore::new`], O(instances), mostly first-touch page faults);
//! moving every region's owned span into it
//! ([`AttrStore::absorb_region`], O(instances), one move per value);
//! and [`AttrStore::inflate_all`], one look at every instance and a
//! rewrite of those that hold segment references.
//!
//! Nothing in that list reads code text. A node's code rope contains
//! its whole subtree's, so any per-instance step that walks its rope
//! costs Σ subtree sizes — several times a sequential evaluation on a
//! large tree. The rope answers "does this hold a segment reference"
//! and "how many bytes would this put on the wire" from cached fields,
//! resolution descends only towards the references and shares the
//! rest, and a value without references is neither cloned nor dropped
//! ([`AttrValue::inflate`] returns `None`). What remains is
//! proportional to the number of attribute instances (allocate + move:
//! ≈ 35 ms of a 264 k-node tree's ≈ 40 ms retirement) plus what
//! crossed region boundaries. The same holds on the sending side:
//! [`AttrValue::deflate`] hands text to the librarian as shared
//! sub-ropes, so a boundary send does not copy the region's code.
//!
//! A segment reference the ticket's store cannot resolve fails the ticket
//! with [`EvalError::UnknownSegment`] — never a store with text
//! missing.
//!
//! # Placement: one scheduler board, two seeding policies
//!
//! Every region job lives on the scheduler board (`parallel/board.rs`):
//! per-worker deques, a job-location table, load accounts and per-job
//! input logs, with one implementation of every transition. This file
//! is one of the board's two drivers (the simulator is the other): it
//! holds the board under one mutex and supplies the threads and
//! channels. [`SchedulerMode`] selects only how a ticket is seeded and
//! whether an idle worker may steal:
//!
//! * [`SchedulerMode::Fixed`] (the default) seeds region `r` of ticket
//!   `t` onto worker `(r + t) mod W` and never steals: a ticket's
//!   regions go round-robin over the workers (with no more regions than
//!   workers, the paper's one-region-per-machine placement) from a
//!   start that rotates with the ticket, which keeps consecutive trees'
//!   region 0 — a small tree's only region — off one worker.
//! * [`SchedulerMode::Stealing`] seeds LPT with parent/child
//!   co-seeding, and a worker whose own deque is empty steals the
//!   largest job of the most-loaded one.
//!
//! Everything else is one path. `submit` seeds a ticket and wakes the
//! workers that may claim its jobs (under `Fixed` their homes, under
//! `Stealing` everyone); a worker whose machines all starve claims; a
//! boundary value is routed — logged at send — and delivered in one
//! critical section, attached to a still-queued job (so a steal
//! migrates it, and memo-probing jobs survive migration: their probe is
//! built at activation, after the migrated values landed) or
//! channel-sent to the worker that claimed it; a worker retires a job
//! on the board *before* reporting it done; [`WorkerPool::kill_worker`]
//! is the board's crash transition plus a `Die` message, under either
//! policy. [`WorkerPool::sched_counters`] reports the local/remote
//! split of boundary sends, and under `Stealing` steals and migrated
//! values.
//!
//! Either way the protocol stays deterministic in *results* at every
//! depth and granularity: attribute messages carry their
//! `(ticket, region)` destination, and per-ticket result assembly
//! merges region stores in region order — placement and machine
//! scheduling affect timing only, never values (each attribute
//! instance has exactly one defining rule). Dependencies between
//! machines exist only *within* a ticket and no machine ever waits for
//! CPU behind a *later* job on the same worker (claimed jobs insert in
//! `(ticket, region)` order and the oldest machine runs unbudgeted),
//! so the schedule cannot deadlock: a starved worker always drains its
//! channel, then claims pending work, and blocks only when it can
//! claim nothing — its own deque is empty (and, under stealing, every
//! other).
//!
//! Use [`WorkerPool::submit`] / [`WorkerPool::collect`] to keep the
//! window full (what `paragram-driver`'s batch driver does), or the
//! one-shot [`WorkerPool::eval`] when compiling a single tree.

use crate::eval::{
    static_eval_with_scratch, AttrMsg, EvalError, EvalPlan, Machine, MachineMode, MachineScratch,
    SendTarget,
};
use crate::grammar::{AttrId, AttrKind};
use crate::memo::{inherited_fingerprint, MemoCache, MemoCounters, MemoEntry, MemoKey};
use crate::split::{decompose_granular, Decomposition, RegionGranularity, RegionId, SplitTable};
use crate::stats::EvalStats;
use crate::tree::{AttrSlots, AttrStore, NodeId, ParseTree, RegionStore};
use crate::value::AttrValue;
use paragram_rope::{Rope, SegmentId, SegmentStore};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::board::{Board, Claimed, Delivery};
use super::ResultPropagation;

/// Identifies one tree's pass through the pool (monotone, assigned at
/// [`WorkerPool::submit`] time). Messages carry their ticket so
/// registration, attribute exchange and resolution of overlapping trees
/// never interfere.
pub type Ticket = u64;

/// How the scheduler board seeds region jobs onto workers, and whether
/// an idle worker may steal (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// The paper's fixed modular placement: region `r` of ticket `t` is
    /// seeded onto worker `(r + offset(t)) mod W` and runs there —
    /// nothing is stolen (a crash reseeds it, like any job).
    #[default]
    Fixed,
    /// Per-worker deques with LPT seeding, parent/child co-seeding and
    /// steal-from-the-back work stealing.
    Stealing,
}

/// Scheduler telemetry, cumulative since pool construction or the last
/// [`WorkerPool::reset_high_water`]. Boundary sends are counted local
/// or remote under either [`SchedulerMode`]; `steals` and
/// `migrated_attrs` stay zero under [`SchedulerMode::Fixed`], which
/// never steals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Jobs an idle worker took from another worker's deque.
    pub steals: u64,
    /// Early-arrival attribute values that migrated with a stolen job.
    pub migrated_attrs: u64,
    /// Boundary-attribute sends whose destination job lived on the
    /// sending worker (the co-seeding payoff).
    pub local_sends: u64,
    /// Boundary-attribute sends that crossed workers.
    pub remote_sends: u64,
}

impl SchedCounters {
    /// Fraction of boundary sends that stayed worker-local (0.0 when
    /// none were routed).
    pub fn locality_rate(&self) -> f64 {
        let total = self.local_sends + self.remote_sends;
        if total == 0 {
            0.0
        } else {
            self.local_sends as f64 / total as f64
        }
    }
}

/// Fault-injection and recovery telemetry, cumulative since pool
/// construction or the last [`WorkerPool::reset_high_water`]. The pool
/// fills the crash/re-execution/duplicate/panic fields; the deadline
/// and retry fields belong to the serving layer (`paragram-driver`'s
/// service queue), which merges its own counts in. The simulator's
/// recovery mirror reports the same struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Worker/machine crashes observed (injected or real).
    pub crashes: u64,
    /// Region jobs reseeded onto surviving workers after a crash
    /// (queued jobs migrate; active jobs restart from their input log).
    pub regions_reexecuted: u64,
    /// Duplicate boundary/root sends suppressed by content-keyed
    /// idempotent delivery during recovery replay.
    pub dup_suppressed: u64,
    /// Requests shed at admission because their predicted wait already
    /// exceeded their deadline (serving layer).
    pub deadline_sheds: u64,
    /// Admitted requests whose deadline expired while queued (serving
    /// layer, enforced at dispatch time).
    pub deadline_expired: u64,
    /// Failed tickets re-dispatched by the serving layer's bounded
    /// retry policy.
    pub retries: u64,
    /// Semantic-rule panics converted into per-ticket failures by
    /// [`std::panic::catch_unwind`] containment.
    pub panics_contained: u64,
}

impl FaultCounters {
    /// Counter deltas relative to an earlier snapshot (saturating, so a
    /// reset between snapshots reads as zero rather than wrapping).
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            crashes: self.crashes.saturating_sub(earlier.crashes),
            regions_reexecuted: self
                .regions_reexecuted
                .saturating_sub(earlier.regions_reexecuted),
            dup_suppressed: self.dup_suppressed.saturating_sub(earlier.dup_suppressed),
            deadline_sheds: self.deadline_sheds.saturating_sub(earlier.deadline_sheds),
            deadline_expired: self
                .deadline_expired
                .saturating_sub(earlier.deadline_expired),
            retries: self.retries.saturating_sub(earlier.retries),
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
        }
    }
}

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

/// Configuration for a [`WorkerPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of persistent evaluator threads — all the threads the
    /// pool runs. Under the default fixed-count granularity this is
    /// also the most regions a tree is cut into (a tree whose work does
    /// not repay shipping that many is cut into fewer, a small one not
    /// at all); under adaptive granularity a tree may decompose into
    /// more regions than workers, which then round-robin over the pool.
    pub workers: usize,
    /// Combined or purely dynamic machines.
    pub mode: MachineMode,
    /// Result propagation strategy.
    pub result: ResultPropagation,
    /// Split-granularity scale.
    pub min_size_scale: f64,
    /// Maximum number of trees in flight at once. Depth 1 is the strict
    /// per-tree barrier. The constructors' default is two per worker:
    /// a small tree is one job on one worker, so that is what keeps
    /// every worker's next tree on its deque while it runs the
    /// current one; for trees that are cut it lets the next tree's
    /// region jobs fill workers idling behind the current tree's
    /// stragglers.
    pub pipeline_depth: usize,
    /// How trees are carved into region jobs:
    /// [`RegionGranularity::Machines`] (at most one region per worker
    /// and none below the hand-off cost — the paper's decomposition and
    /// the constructors' default) or
    /// [`RegionGranularity::Adaptive`] (one region per work budget, so
    /// a huge tree yields many jobs that round-robin over the workers).
    pub granularity: RegionGranularity,
    /// Byte budget for the cross-tree attribute memo cache
    /// ([`crate::memo::MemoCache`]); 0 (the default everywhere)
    /// disables memoization entirely, keeping the paper's Fig-7
    /// behaviour bit-for-bit.
    pub memo_capacity: usize,
    /// Memo install policy (only meaningful with a non-zero
    /// `memo_capacity`): install every cacheable span at retirement, or
    /// defer to the second touch of a subtree (scan resistance).
    pub memo_install: crate::memo::InstallPolicy,
    /// Region-job placement: the paper's fixed modular seeding (the
    /// default everywhere, keeping Fig-7 schedules bit-for-bit) or the
    /// locality-aware work-stealing scheduler. Crash recovery
    /// ([`WorkerPool::kill_worker`]) works under either.
    pub scheduler: SchedulerMode,
}

impl PoolConfig {
    /// Combined evaluation on `n` workers with librarian propagation
    /// and the default pipeline window of two trees per worker.
    pub fn combined(n: usize) -> Self {
        PoolConfig {
            workers: n,
            mode: MachineMode::Combined,
            result: ResultPropagation::Librarian,
            min_size_scale: 1.0,
            pipeline_depth: 2 * n.max(1),
            granularity: RegionGranularity::Machines(n),
            memo_capacity: 0,
            memo_install: crate::memo::InstallPolicy::Always,
            scheduler: SchedulerMode::Fixed,
        }
    }

    /// Same as [`PoolConfig::combined`] but with the strict one-tree
    /// barrier (pipeline depth 1).
    pub fn barrier(n: usize) -> Self {
        PoolConfig {
            pipeline_depth: 1,
            ..PoolConfig::combined(n)
        }
    }

    /// Same as [`PoolConfig::combined`] but with cost-driven
    /// region-granular decomposition: every tree is carved into regions
    /// of ≈`budget` work units, independent of the worker count.
    pub fn adaptive(n: usize, budget: u64) -> Self {
        PoolConfig {
            granularity: RegionGranularity::Adaptive { budget },
            ..PoolConfig::combined(n)
        }
    }

    /// Returns the configuration with the given in-flight window depth.
    pub fn with_pipeline_depth(self, depth: usize) -> Self {
        PoolConfig {
            pipeline_depth: depth.max(1),
            ..self
        }
    }

    /// Returns the configuration with the given region granularity.
    pub fn with_granularity(self, granularity: RegionGranularity) -> Self {
        PoolConfig {
            granularity,
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
    pub fn with_memo_install(self, policy: crate::memo::InstallPolicy) -> Self {
        PoolConfig {
            memo_install: policy,
            ..self
        }
    }

    /// Returns the configuration with the given region-job scheduler.
    pub fn with_scheduler(self, scheduler: SchedulerMode) -> Self {
        PoolConfig { scheduler, ..self }
    }

    /// The effective configuration: zero worker or window counts are
    /// meaningless, so both clamp to 1. [`WorkerPool::new`] normalizes
    /// at construction, which keeps accessors like
    /// [`WorkerPool::pipeline_depth`] truthful even for a literal
    /// `PoolConfig { pipeline_depth: 0, .. }` that bypassed
    /// [`PoolConfig::with_pipeline_depth`].
    pub fn normalized(self) -> Self {
        PoolConfig {
            workers: self.workers.max(1),
            pipeline_depth: self.pipeline_depth.max(1),
            ..self
        }
    }
}

/// The librarian's split-phase bookkeeping: one [`SegmentStore`] per
/// in-flight ticket. Registration is streaming (any ticket, any order);
/// resolution removes and returns exactly one ticket's store, leaving
/// other tickets' registrations untouched — which is what lets trees
/// overlap in the pool without their segments colliding.
///
/// One ledger, two drivers. The simulator's librarian *process* owns
/// one and is fed by messages ([`SegmentLedger::register`] opens a
/// ticket's entry on first sight — its machines share nothing, so the
/// librarian cannot know a ticket before a segment names it). The pool
/// shares one between its workers and the retiring thread under a
/// mutex, and keeps the entries closed by construction: `submit`
/// [opens](SegmentLedger::open) a ticket's entry, workers register
/// [only into an open one](SegmentLedger::register_open), retirement
/// [takes](SegmentLedger::resolve) it — so a straggler region of a
/// ticket that already failed and retired cannot re-create an entry
/// nothing would ever remove. The pool's lock is held for one
/// `register_open`, one `open` or one `resolve` at a time: a hash
/// lookup and at most one map insertion, never across a semantic-rule
/// call, a channel operation or another lock.
#[derive(Debug, Default)]
pub struct SegmentLedger {
    tickets: HashMap<Ticket, SegmentStore>,
}

impl SegmentLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens `ticket`'s (empty) entry, so that
    /// [`SegmentLedger::register_open`] accepts registrations for it
    /// until it is [resolved](SegmentLedger::resolve).
    pub fn open(&mut self, ticket: Ticket) {
        self.tickets.entry(ticket).or_default();
    }

    /// Streams one segment registration for `ticket`, opening its entry
    /// if this is the first the ledger hears of it.
    pub fn register(&mut self, ticket: Ticket, id: SegmentId, text: Rope) {
        self.tickets.entry(ticket).or_default().register(id, text);
    }

    /// Streams one segment registration for `ticket` if its entry is
    /// open, and drops it otherwise (the ticket was resolved, or never
    /// opened). Returns whether the segment was kept.
    pub fn register_open(&mut self, ticket: Ticket, id: SegmentId, text: Rope) -> bool {
        self.tickets
            .get_mut(&ticket)
            .map(|store| store.register(id, text))
            .is_some()
    }

    /// Resolves `ticket`: removes and returns its segment store (empty
    /// if the ticket registered nothing, e.g. naive propagation).
    pub fn resolve(&mut self, ticket: Ticket) -> SegmentStore {
        self.tickets.remove(&ticket).unwrap_or_default()
    }

    /// Number of tickets with unresolved registrations.
    pub fn open_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// Total text bytes registered for `ticket` so far.
    pub fn ticket_bytes(&self, ticket: Ticket) -> usize {
        self.tickets.get(&ticket).map_or(0, |s| s.total_bytes())
    }
}

/// Result of one pooled parallel evaluation.
pub struct PoolReport<V: AttrValue> {
    /// The ticket this tree was evaluated under.
    pub ticket: Ticket,
    /// Root attribute values, librarian-resolved.
    pub root_values: Vec<(AttrId, V)>,
    /// Merged attribute store, librarian-resolved (independent of the
    /// decomposition that produced it).
    pub store: AttrStore<V>,
    /// The librarian's segment store for this tree's ticket: what its
    /// regions registered. Empty for a ticket that was one whole-tree
    /// job (`regions == 1` on a combined-mode pool) — nothing crossed a
    /// boundary, so nothing was registered.
    pub segments: SegmentStore,
    /// Aggregated statistics.
    pub stats: EvalStats,
    /// Wall-clock time from job dispatch until the retiring thread had
    /// every job's `Done` in hand — it stops *before* the ticket's
    /// segment store is taken from the ledger, so it covers
    /// dispatch-to-last-rule and nothing of retirement. Read on the
    /// retiring thread when it gets to this ticket, so it also counts
    /// any time the finished jobs sat unread — with the default window
    /// of two trees per worker a small tree's `elapsed` includes its
    /// wait on the worker's deque behind the tree ahead of it — and
    /// under a pipelined window it overlaps with neighbouring trees'
    /// times.
    pub elapsed: Duration,
    /// Wall-clock time of retirement, on the retiring thread, starting
    /// where `elapsed` stops. For a ticket of regions: taking the
    /// ticket's segment store, root inflation, memo installation,
    /// whole-tree store allocation, region absorption and
    /// [`AttrStore::inflate_all`]. For a ticket that was one whole-tree
    /// job: reading the root values out of the store the worker filled
    /// (and the memo install, memo on) — next to nothing. `elapsed +
    /// assemble` is dispatch to finished report.
    pub assemble: Duration,
    /// Number of regions actually used; 1 is a tree that stayed whole.
    pub regions: usize,
}

/// What a worker needs to run a job: the tree and, for a region job,
/// the decomposition its machine is built over. `None` is the
/// **whole-tree job** of a ticket that was not cut: nothing crosses a
/// boundary, so there is no decomposition, slot layout or machine to
/// build — the worker runs the visit programs over the tree.
type JobData<V> = (Arc<ParseTree<V>>, Option<Arc<Decomposition>>);

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
    Cancel {
        ticket: Ticket,
    },
    /// Injected crash ([`WorkerPool::kill_worker`]): the worker thread
    /// exits immediately, abandoning its machines without sending any
    /// Done — the pool has already reseeded its jobs onto survivors.
    Die,
    Shutdown,
}

/// The one message a worker sends the parser role: a job finished, or
/// failed.
struct Done<V> {
    ticket: Ticket,
    region: RegionId,
    result: Result<JobResult<V>, EvalError>,
}

/// What a finished job ships back.
enum Finished<V> {
    /// A region job: its O(region) local store, which the parser role
    /// maps into the whole-tree store at assembly, and — from the root
    /// region only — the tree's root attribute values as the machine
    /// sent them (deflated under librarian propagation).
    Region {
        store: RegionStore<V>,
        roots: Vec<(AttrId, V)>,
    },
    /// A whole-tree job: the tree's store, which retirement adopts.
    Tree(AttrStore<V>),
}

/// A successful job's statistics and what it ships back.
type JobResult<V> = (EvalStats, Finished<V>);

/// A retired ticket's root values, whole-tree store and statistics.
type Retired<V> = (Vec<(AttrId, V)>, AttrStore<V>, EvalStats);

/// Per-ticket assembly state: what the parser role has collected for
/// one in-flight tree so far.
struct InFlight<V: AttrValue> {
    ticket: Ticket,
    /// The tree under evaluation — assembly sizes the whole-tree store
    /// and resolves the region stores' slot spans against it.
    tree: Arc<ParseTree<V>>,
    /// The decomposition — retire-time memo installation needs region
    /// roots and parents. `None` for a ticket that is one whole-tree
    /// job.
    decomp: Option<Arc<Decomposition>>,
    regions: usize,
    region_results: Vec<Option<JobResult<V>>>,
    done: usize,
    start: Instant,
    /// First error any region machine raised; a failed entry's
    /// remaining regions are cancelled and never report.
    failed: Option<EvalError>,
}

/// Persistent evaluator threads + the librarian's ledger, reusable
/// across a stream of trees compiled against one shared [`EvalPlan`].
pub struct WorkerPool<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
    config: PoolConfig,
    split: SplitTable,
    worker_txs: Vec<Sender<WorkerMsg<V>>>,
    parser_rx: Receiver<Done<V>>,
    /// The librarian: one segment store per in-flight ticket that was
    /// cut into regions, opened at `submit`, filled by the workers,
    /// taken at retirement.
    ledger: Arc<Mutex<SegmentLedger>>,
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

/// Everything a worker thread needs; owned by the thread.
struct WorkerCtx<V: AttrValue> {
    plan: Arc<EvalPlan<V>>,
    /// This worker's index — the board's claim and locality accounting
    /// key.
    me: usize,
    rx: Receiver<WorkerMsg<V>>,
    peers: Vec<Sender<WorkerMsg<V>>>,
    parser_tx: Sender<Done<V>>,
    /// The librarian's ledger (registration side).
    ledger: Arc<Mutex<SegmentLedger>>,
    /// The pool configuration.
    config: PoolConfig,
    /// Shared memo cache (probe side); None when memoization is off.
    memo: Option<Arc<MemoCache<V>>>,
    /// Per-symbol memo safety, aligned with the grammar's symbol ids.
    memo_safe: Arc<Vec<bool>>,
    /// The scheduler board.
    board: Arc<PoolBoard<V>>,
    /// Shared count of contained semantic-rule panics.
    panics_contained: Arc<AtomicU64>,
}

/// Per-symbol memoization safety: a split symbol is memo-safe iff no
/// inherited attribute of the symbol may (transitively) depend on a
/// synthesized attribute of the *same* occurrence. A probe holds a leaf
/// region's synthesized outputs back until every inherited input has
/// arrived; if the parent needed one of those outputs to compute a
/// later inherited input, probe and parent would deadlock. The induced
/// dependency relation is exactly the may-depend closure, so its
/// absence makes the hold-back safe in both machine modes. Grammars the
/// fixpoint rejects (cyclic — dynamic-mode only) get no safe symbols.
fn memo_safety<V: AttrValue>(plan: &EvalPlan<V>) -> Vec<bool> {
    let g = plan.grammar();
    let Ok(deps) = crate::analysis::induced_deps(g.as_ref()) else {
        return vec![false; g.symbols().len()];
    };
    g.symbols()
        .iter()
        .enumerate()
        .map(|(si, sym)| {
            let rel = &deps.ids[si];
            for (a, aa) in sym.attrs.iter().enumerate() {
                if aa.kind != AttrKind::Syn {
                    continue;
                }
                for (b, ba) in sym.attrs.iter().enumerate() {
                    if ba.kind == AttrKind::Inh && rel.has(a, b) {
                        return false;
                    }
                }
            }
            true
        })
        .collect()
}

/// The least estimated work (rule-cost units, [`EvalPlan::tree_work`])
/// a region must carry before it repays shipping it to another worker:
/// a channel hop per boundary value, a machine of its own, a segment
/// registration per code value and a region store to absorb. Under
/// [`RegionGranularity::Machines`] a tree is cut into no more regions
/// than it has multiples of this, so a tree below twice the floor stays
/// whole. The grammar's `%split` minima (25–40 nodes for Pascal) are
/// the paper's, sized for its network; this is the same argument (§3)
/// for threads, measured — lone-tree latency through a 2-worker pool,
/// two regions ÷ one, generated Pascal programs, 2-core box:
///
/// | nodes | 223 | 393 | 1.1 k | 1.7 k | 3.0 k | 6.8 k | 25.8 k |
/// |---|---|---|---|---|---|---|---|
/// | split ÷ whole | 1.37 | 1.42 | 1.19 | 1.02 | 1.00 | 0.82 | 0.85 |
///
/// The crossover sits near 3 k nodes ≈ 19 k work units, i.e. ≈ 10 k
/// units (≈ 1.5 k nodes, ≈ 0.8 ms of sequential evaluation) per region.
/// Explicit [`RegionGranularity::Adaptive`] budgets are the caller's
/// own statement of region size and are not floored.
const MIN_REGION_WORK: u64 = 10_000;

/// How many regions a `Machines(n)` pool asks the decomposition for on
/// a tree of `tree_work` units: at most `n`, and no more than the tree
/// has multiples of [`MIN_REGION_WORK`].
fn regions_worth_shipping(n: usize, tree_work: u64) -> usize {
    let by_work = usize::try_from(tree_work / MIN_REGION_WORK).unwrap_or(usize::MAX);
    n.min(by_work).max(1)
}

/// The pool's scheduler board, shared by the pool and its workers
/// under one mutex so every seed / claim / steal / route / recover
/// decision is atomic.
type PoolBoard<V> = Mutex<Board<V, JobData<V>>>;

/// Locks one of the pool's two shared mutexes — the scheduler board or
/// the segment ledger, named by `what`. Neither is ever held across a
/// semantic-rule call (rule panics are caught by [`contained`], outside
/// both), so a poisoned lock means a pool thread panicked inside a
/// board transition or a ledger update: a broken invariant, which fails
/// here by name instead of running on half-updated state.
fn lock<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(|_| panic!("{what} lock poisoned: a pool thread panicked holding it"))
}

impl<V: AttrValue> WorkerPool<V> {
    /// Spawns the pool: `config.workers` evaluator threads, persistent
    /// until the pool is dropped, sharing the librarian's ledger.
    pub fn new(plan: &Arc<EvalPlan<V>>, config: PoolConfig) -> Self {
        let config = config.normalized();
        let workers = config.workers;
        let depth = config.pipeline_depth;
        let split = SplitTable::new(plan.grammar().as_ref(), config.min_size_scale);
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
        let board = Arc::new(Mutex::new(Board::new(workers, config.scheduler)));
        let panics_contained = Arc::new(AtomicU64::new(0));

        let mut worker_txs = Vec::with_capacity(workers);
        let mut worker_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel();
            worker_txs.push(tx);
            worker_rxs.push(Some(rx));
        }
        let (parser_tx, parser_rx) = channel();
        let ledger = Arc::new(Mutex::new(SegmentLedger::new()));

        let mut handles = Vec::with_capacity(workers);
        for (me, rx) in worker_rxs.iter_mut().enumerate() {
            let ctx = WorkerCtx {
                plan: Arc::clone(plan),
                me,
                rx: rx.take().expect("receiver unclaimed"),
                peers: worker_txs.clone(),
                parser_tx: parser_tx.clone(),
                ledger: Arc::clone(&ledger),
                config,
                memo: memo.clone(),
                memo_safe: Arc::clone(&memo_safe),
                board: Arc::clone(&board),
                panics_contained: Arc::clone(&panics_contained),
            };
            handles.push(std::thread::spawn(move || worker_main(ctx)));
        }

        WorkerPool {
            plan: Arc::clone(plan),
            config,
            split,
            worker_txs,
            parser_rx,
            ledger,
            handles,
            next_ticket: 0,
            in_flight: VecDeque::with_capacity(depth),
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

    /// The configured in-flight window depth.
    pub fn pipeline_depth(&self) -> usize {
        self.config.pipeline_depth
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
        lock(&self.board, "scheduler board").reset_counters();
        self.panics_contained.store(0, Ordering::Relaxed);
        self.debug_check_quiescent();
    }

    /// With no ticket in flight every seeded job has retired (a worker
    /// retires a job on the board before it reports it done), so the
    /// board must be back to empty: no pending job, no record or input
    /// log, every live worker's load account at zero — and every
    /// ticket's ledger entry was taken at its retirement, so the ledger
    /// holds none. Debug builds check both wherever the pool is known
    /// to be idle, and fail by name on a poisoned lock.
    fn debug_check_quiescent(&self) {
        if cfg!(debug_assertions) && self.in_flight.is_empty() && !std::thread::panicking() {
            assert!(
                lock(&self.board, "scheduler board").is_quiescent(),
                "scheduler board not quiescent with nothing in flight"
            );
            assert_eq!(
                lock(&self.ledger, "segment ledger").open_tickets(),
                0,
                "segment ledger holds entries with nothing in flight"
            );
        }
    }

    /// Fault/recovery telemetry since construction or the last
    /// [`WorkerPool::reset_high_water`]. The deadline and retry fields
    /// are always zero here — they belong to the serving layer, which
    /// merges its own counts into the same struct.
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            ..lock(&self.board, "scheduler board").fault_counters()
        }
    }

    /// Scheduler telemetry since construction or the last
    /// [`WorkerPool::reset_high_water`]: the local/remote split of
    /// boundary sends under either [`SchedulerMode`], and steals and
    /// migrated values, which stay zero under
    /// [`SchedulerMode::Fixed`].
    pub fn sched_counters(&self) -> SchedCounters {
        lock(&self.board, "scheduler board").sched_counters()
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

    /// Cuts `tree` into regions at the configured granularity — under
    /// [`RegionGranularity::Machines`] into no more than the tree's
    /// work repays shipping — or returns `None` for a tree that stays
    /// whole and needs no decomposition at all: under `Machines`
    /// decided from the work estimate alone, under
    /// [`RegionGranularity::Adaptive`] by a decomposition that comes
    /// back unsplit. A [`MachineMode::Dynamic`] pool (its grammar may
    /// have no visit programs to run) keeps the one-region machine.
    fn carve(&self, tree: &Arc<ParseTree<V>>) -> Option<Arc<Decomposition>> {
        let whole_trees = self.config.mode == MachineMode::Combined;
        let granularity = match self.config.granularity {
            RegionGranularity::Machines(n) => {
                let regions = regions_worth_shipping(n, self.plan.tree_work(tree));
                if regions == 1 && whole_trees {
                    return None;
                }
                RegionGranularity::Machines(regions)
            }
            adaptive @ RegionGranularity::Adaptive { .. } => adaptive,
        };
        let decomp = decompose_granular(tree, &self.split, self.plan.work_table(), granularity);
        if whole_trees && decomp.is_unsplit() {
            None
        } else {
            Some(Arc::new(decomp))
        }
    }

    /// Submits one tree into the pipeline window: cuts it into regions
    /// or leaves it whole, assigns the next ticket (returned, so
    /// serving layers can correlate retries) and seeds its jobs on the
    /// scheduler board — one per region, after opening the ticket's
    /// ledger entry, or the one whole-tree job, which crosses no
    /// boundary and so has no entry to open. If the window is full, the
    /// oldest in-flight tree is retired first (its report — or failure
    /// — is buffered for [`WorkerPool::collect`] /
    /// [`WorkerPool::take_ready`]).
    ///
    /// A ticket whose evaluation fails (cycle, plan inconsistency,
    /// contained rule panic) surfaces as a [`TicketFailure`] in
    /// submission order; the pool itself stays fully usable.
    pub fn submit(&mut self, tree: &Arc<ParseTree<V>>) -> Ticket {
        while self.in_flight.len() >= self.config.pipeline_depth {
            let retired = self.retire_front();
            self.ready.push_back(retired);
        }

        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let decomp = self.carve(tree);
        let regions = decomp.as_ref().map_or(1, |d| d.len());
        if decomp.is_some() {
            // Before any job of the ticket exists: a worker registers
            // only into an open entry.
            lock(&self.ledger, "segment ledger").open(ticket);
        }

        let start = Instant::now();
        self.seed(ticket, tree, decomp.as_ref());
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
    /// job — onto the scheduler board (modular from the ticket under
    /// `Fixed`, LPT with parent/child co-seeding under `Stealing`),
    /// then wakes the workers that may claim them — the board records
    /// every job before any of them can look.
    fn seed(&self, ticket: Ticket, tree: &Arc<ParseTree<V>>, decomp: Option<&Arc<Decomposition>>) {
        let work: Vec<u64> = match decomp {
            Some(d) => (0..d.len())
                .map(|r| self.plan.region_work(tree, d, r as RegionId).max(1))
                .collect(),
            None => vec![self.plan.tree_work(tree).max(1)],
        };
        let wake = {
            let mut board = lock(&self.board, "scheduler board");
            let homes = board.seed(
                ticket,
                ticket as usize,
                &work,
                |r| decomp.and_then(|d| d.regions[r as usize].parent),
                |_| (Arc::clone(tree), decomp.cloned()),
            );
            board.wake_set(&homes)
        };
        // Killed workers' channels may be gone — that's fine.
        for w in wake {
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
    /// buffer, and returns how many results became ready. What it still
    /// does on the caller's thread is the assembly of each tree of
    /// regions it retires ([`PoolReport::assemble`]: O(attribute
    /// instances) — a few milliseconds for a 25 k-node tree, tens for a
    /// 264 k-node one; a tree that stayed whole arrives assembled). A
    /// service loop calls this between
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

    /// Evaluates one tree on the pool, start to finish (the one-shot
    /// path; [`super::threads::run_threads`] and single-tree drivers
    /// use this).
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
            lock(&self.board, "scheduler board").count_duplicate();
            return;
        }
        match result {
            Ok(r) => {
                entry.region_results[region as usize] = Some(r);
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
        lock(&self.board, "scheduler board").cancel(ticket);
        for tx in &self.worker_txs {
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
    /// holds — then retire it on this thread: a ticket of regions gets
    /// the librarian's deferred resolution and is
    /// [assembled](Self::assemble); a ticket that was one whole-tree
    /// job has its store [adopted](Self::adopt).
    fn retire_front(&mut self) -> Result<PoolReport<V>, TicketFailure> {
        while !self.front_complete() {
            let msg = self.parser_rx.recv().expect("workers alive");
            self.route(msg);
        }
        let fl = self.in_flight.pop_front().expect("checked non-empty");
        let retiring = Instant::now();
        let ticket = fl.ticket;

        // The librarian's deferred resolution for this ticket: each of
        // its regions registered its segments before it sent the Done
        // we just drained, so the entry is complete, while later
        // tickets' registrations keep streaming into theirs. A failed
        // ticket's entry is taken too (and dropped): that closes it to
        // whatever a not-yet-cancelled straggler region still sends. A
        // whole-tree job registers nothing and never had an entry.
        let segments = match &fl.decomp {
            Some(_) => lock(&self.ledger, "segment ledger").resolve(ticket),
            None => SegmentStore::default(),
        };
        let retired = match (fl.failed, &fl.decomp) {
            (Some(error), _) => Err(error),
            (None, Some(decomp)) => self.assemble(&fl.tree, decomp, fl.region_results, &segments),
            (None, None) => Ok(self.adopt(&fl.tree, fl.region_results)),
        };
        match retired {
            Ok((root_values, store, stats)) => Ok(PoolReport {
                ticket,
                root_values,
                store,
                segments,
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
    /// to size, absorb or inflate. What is left is the memo install
    /// (memo on only — the root region's contract, under the key the
    /// worker probed with) and reading the root values out.
    fn adopt(&self, tree: &ParseTree<V>, results: Vec<Option<JobResult<V>>>) -> Retired<V> {
        let Some(Some((stats, Finished::Tree(store)))) = results.into_iter().next() else {
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
        (root_values, store, stats)
    }

    /// Retires a ticket of regions that all reported: root inflation,
    /// memo installation, sparse store assembly, inflation of the
    /// store.
    ///
    /// A segment reference `segments` cannot resolve fails the ticket
    /// ([`EvalError::UnknownSegment`]): handing out a store whose code
    /// text silently lacks a lost registration's share is worse than
    /// handing out none.
    fn assemble(
        &self,
        tree: &ParseTree<V>,
        decomp: &Decomposition,
        results: Vec<Option<JobResult<V>>>,
        segments: &SegmentStore,
    ) -> Result<Retired<V>, EvalError> {
        let mut stats = EvalStats::default();
        let mut root_values = Vec::new();
        let mut stores = Vec::with_capacity(results.len());
        for r in results {
            let Some((s, Finished::Region { store, roots })) = r else {
                unreachable!("every region of a decomposed ticket reports its region store");
            };
            stats += s;
            for (a, v) in roots {
                root_values.push((a, v.inflate(segments)?.unwrap_or(v)));
            }
            stores.push(store);
        }

        // Retire-time memo installation: every cacheable region of a
        // successfully evaluated tree deposits its owned span under its
        // input signature, so later structurally identical requests can
        // skip the machine entirely.
        if let Some(memo) = &self.memo {
            for (ri, rstore) in stores.iter().enumerate() {
                let Some((root, subtree, inh)) =
                    region_cacheable(&self.plan, &self.memo_safe, tree, decomp, ri as RegionId)
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
                install_span(memo, tree, root, key, |n, a| rstore.get(n, a));
            }
        }

        // Sparse assembly: size the whole-tree store once, then map each
        // region's O(region) owned span into it through the
        // decomposition's slot layout (region order — deterministic,
        // though the spans are disjoint anyway), and finally resolve
        // segment references so the result is independent of the
        // decomposition.
        let mut store = AttrStore::new(tree);
        for region_store in stores {
            store.absorb_region(tree, region_store);
        }
        store.inflate_all(segments)?;
        Ok((root_values, store, stats))
    }

    /// Injects a worker crash (the fault-tolerance test hook and the
    /// live counterpart of the simulator's crash schedule), under
    /// either [`SchedulerMode`]: the scheduler board is the recovery
    /// substrate of both. Returns `false` for an out-of-range index,
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
            let mut board = lock(&self.board, "scheduler board");
            if board.live().filter(|&w| w != victim).count() == 0 || !board.crash(victim) {
                return false;
            }
        }
        let _ = self.worker_txs[victim].send(WorkerMsg::Die);
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
        for tx in &self.worker_txs {
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
            self.config.pipeline_depth,
            self.next_ticket,
            self.in_flight.len()
        )
    }
}

/// One region job a worker is currently running (one per region
/// job assigned to this worker — possibly several per in-flight
/// ticket under adaptive granularity).
struct Running<V: AttrValue> {
    ticket: Ticket,
    region: RegionId,
    parent: Option<RegionId>,
    next_seg: u32,
    /// The tree's root attribute values this job has produced so far
    /// (the root region only): they ride in its `Done`.
    roots: Vec<(AttrId, V)>,
    state: JobState<V>,
}

/// A running job's evaluation state.
///
/// `Machine` dwarfs the other variants, but it is also the common
/// case: boxing it would buy nothing (jobs sit in per-worker maps and
/// are rarely moved) while costing a pointer chase on every `drive`.
#[allow(clippy::large_enum_variant)]
enum JobState<V: AttrValue> {
    /// A memo-eligible leaf region collecting its root inherited values
    /// before probing the cache; machine construction is deferred until
    /// the probe resolves (hit: replay the cached span, miss: build the
    /// machine and feed it the collected values).
    Probing(Probe<V>),
    /// An ordinary region machine.
    Machine(Machine<V>),
    /// Transient placeholder while a probe resolves; never observed
    /// outside [`resolve_probe`].
    Resolving,
}

/// A pre-machine probe: a leaf region's only external inputs are the
/// inherited attributes of its root, so the probe parks the job until
/// they have all arrived (every inherited instance has exactly one
/// defining rule in the parent, so each *will* arrive), then forms the
/// region input signature and consults the cache.
struct Probe<V: AttrValue> {
    tree: Arc<ParseTree<V>>,
    decomp: Arc<Decomposition>,
    /// The region root node.
    root: NodeId,
    /// Exact subtree hash at the root.
    subtree: u64,
    /// Root inherited attributes, ascending `AttrId` order.
    needed: Vec<AttrId>,
    /// Collected values, aligned with `needed`.
    got: Vec<Option<V>>,
    filled: usize,
}

/// What [`drive`] left the job in.
enum Drive {
    /// Out of ready work, waiting on attribute messages.
    Starved,
    /// Step budget exhausted with ready work left (a younger ticket's
    /// machine yielding so the worker can poll for older work).
    Yielded,
    /// Ran to completion (`None`) or failed (`Some(error)`).
    Finished(Option<EvalError>),
    /// A memo hit replayed the region; Done is already sent, the entry
    /// just needs dropping.
    Replayed,
    /// A send failed: the pool is gone, terminate the worker.
    Dead,
}

/// Decides whether `region` of `tree` is memoizable, and under what
/// signature inputs. Cacheable regions are **leaf** regions (no
/// boundary children — their owned span is their whole subtree and
/// their only external inputs are the root's inherited values) whose
/// root symbol is memo-safe (see [`memo_safety`]; the tree root is
/// trivially safe, it awaits nothing) and whose subtree hash is exact.
/// Returns the region root, its subtree hash, and the root inherited
/// attributes in ascending `AttrId` order (the fingerprint order both
/// the probe and the retire-time install use).
fn region_cacheable<V: AttrValue>(
    plan: &EvalPlan<V>,
    memo_safe: &[bool],
    tree: &ParseTree<V>,
    decomp: &Decomposition,
    region: RegionId,
) -> Option<(NodeId, u64, Vec<AttrId>)> {
    let map = decomp.slot_map();
    if map.total_slots(region) != map.owned_slots(region) {
        return None; // boundary children: an interior region
    }
    let root = decomp.regions[region as usize].root;
    let root_sym = plan.grammar().prod(tree.node(root).prod).lhs;
    if root != tree.root() && !memo_safe.get(root_sym.0 as usize).copied().unwrap_or(false) {
        return None;
    }
    let subtree = tree.subtree_hash(root)?;
    let mut inh: Vec<AttrId> = if root == tree.root() {
        Vec::new() // machines await no inherited values at the tree root
    } else {
        plan.inh_attrs(root_sym).to_vec()
    };
    inh.sort_unstable_by_key(|a| a.0);
    Some((root, subtree, inh))
}

/// The memo key of a tree that is one whole-tree job — what
/// [`region_cacheable`] and the probe give the lone region of an
/// unsplit decomposition: the root's subtree hash (`None` when it is
/// inexact: uncacheable) under the fingerprint of no inherited values,
/// the tree root awaiting none.
fn whole_tree_key<V: AttrValue>(tree: &ParseTree<V>) -> Option<MemoKey> {
    Some(MemoKey {
        subtree: tree.subtree_hash(tree.root())?,
        inherited: inherited_fingerprint(std::iter::empty::<&V>())?,
    })
}

/// Deposits the evaluated span of the subtree at `root` (read through
/// `get`) under `key`, unless the cache holds it already. Spans are
/// extracted in *preorder* of the subtree — arena ids are
/// builder-dependent, preorder is not.
fn install_span<'s, V: AttrValue + 's>(
    memo: &MemoCache<V>,
    tree: &ParseTree<V>,
    root: NodeId,
    key: MemoKey,
    get: impl Fn(NodeId, AttrId) -> Option<&'s V>,
) {
    if memo.contains(key) {
        return;
    }
    let g = tree.grammar();
    let mut span = Vec::new();
    let mut bytes = 0usize;
    for n in tree.subtree(root) {
        let sym = g.prod(tree.node(n).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let v = get(n, AttrId(a as u32)).cloned();
            if let Some(v) = &v {
                // A value that is not fingerprintable may hold a
                // ticket-local segment reference; replaying it under
                // another ticket would resolve against the wrong
                // segment store. Skip the whole span.
                if !v.is_fingerprintable() {
                    return;
                }
                bytes += v.wire_size();
            }
            span.push(v);
        }
    }
    memo.insert(
        key,
        MemoEntry {
            span,
            nodes: tree.subtree_size(root) as u32,
            root_prod: tree.node(root).prod,
            bytes,
        },
    );
}

/// Fills `store` from a cached preorder span over the subtree at
/// `root`. The walk is over *this* tree's subtree — structurally
/// identical to the cached one, but arena ids may differ. `false` when
/// the span's shape disagrees with the subtree (a hash collision the
/// probe's sanity fields missed): the store is then partly filled and
/// must be dropped.
fn replay_span<V: AttrValue, S: AttrSlots<V>>(
    tree: &ParseTree<V>,
    root: NodeId,
    span: Vec<Option<V>>,
    store: &mut S,
) -> bool {
    let g = tree.grammar();
    let mut vals = span.into_iter();
    for n in tree.subtree(root) {
        let sym = g.prod(tree.node(n).prod).lhs;
        for a in 0..g.attr_count(sym) {
            let Some(v) = vals.next() else {
                return false;
            };
            if let Some(v) = v {
                store.set(n, AttrId(a as u32), v);
            }
        }
    }
    vals.next().is_none()
}

/// How many scheduler steps a *non-oldest* machine may run before the
/// worker polls the channel for values that unblock an older job.
/// The oldest machine runs unbudgeted — nothing can preempt it.
const YIELD_STEPS: usize = 64;

/// The persistent worker loop. Machines for every region job this
/// worker claims run **multiplexed**: whenever the oldest job's machine
/// starves (blocked on attribute messages from a straggling peer
/// region), the worker steps
/// the next job's machine instead of idling — this is where region-
/// granular scheduling recovers both the blocked-straggler time an
/// epoch barrier wasted *and* the head-of-line time a huge tree's
/// longest region would otherwise impose. Older jobs are always
/// preferred: younger machines run on a small step budget and the
/// channel is polled between bursts, so a value that unblocks an older
/// machine preempts younger work within [`YIELD_STEPS`] scheduler
/// steps and pipelining never materially delays the tree the parser
/// will read next.
fn worker_main<V: AttrValue>(ctx: WorkerCtx<V>) {
    // Recycled construction/evaluation buffers, one per concurrently
    // running machine (bounded by the window depth × regions per
    // ticket on this worker).
    let mut scratches: Vec<MachineScratch<V>> = Vec::new();
    // Active machines in (ticket, region) order.
    let mut running: Vec<Running<V>> = Vec::new();
    loop {
        // Step machines oldest-first. (Co-located machines may feed
        // each other — under adaptive granularity one worker can host
        // parent and child regions of the same ticket — but every send
        // goes through a channel, self-sends included, so the drain
        // between bursts delivers them and the pass jumps back whenever
        // a machine at or before the cursor is fed.)
        let mut i = 0;
        while i < running.len() {
            let budget = if i == 0 { usize::MAX } else { YIELD_STEPS };
            let outcome = drive(&ctx, &mut running[i], budget, &mut scratches);
            match outcome {
                Drive::Dead => return,
                Drive::Replayed => {
                    // Memo hit: the probe already retired the job and
                    // sent its Done. The next job shifted into `i`.
                    running.remove(i);
                }
                Drive::Finished(err) => {
                    let done = running.remove(i);
                    let owned = retire_sched(&ctx, done.ticket, done.region);
                    let JobState::Machine(machine) = done.state else {
                        unreachable!("only machines finish");
                    };
                    let (store, stats, sc) = machine.recycle();
                    scratches.push(sc);
                    // A job this worker lost to crash recovery (it was
                    // reseeded elsewhere while we were still driving
                    // it) must not report: the reseeded copy owns the
                    // Done now.
                    if owned {
                        let result = match err {
                            Some(e) => Err(e),
                            None => Ok((
                                stats,
                                Finished::Region {
                                    store,
                                    roots: done.roots,
                                },
                            )),
                        };
                        if ctx
                            .parser_tx
                            .send(Done {
                                ticket: done.ticket,
                                region: done.region,
                                result,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    // The next machine shifted into `i`; re-drive it.
                }
                Drive::Starved | Drive::Yielded => {
                    // Poll before sinking more time into this or a
                    // younger machine: a queued value for an older
                    // machine must run first.
                    let mut fed = usize::MAX;
                    loop {
                        match ctx.rx.try_recv() {
                            Err(_) => break,
                            Ok(m) => match absorb(m, &mut running) {
                                Absorbed::Shutdown => return,
                                Absorbed::Fed(idx) => fed = fed.min(idx),
                                // A cancellation shifted `running`
                                // under the cursor: restart the pass so
                                // no machine is skipped.
                                Absorbed::Mutated => fed = 0,
                                Absorbed::Other => {}
                            },
                        }
                    }
                    if fed <= i {
                        i = fed; // that machine (possibly this one) can run again
                    } else if matches!(outcome, Drive::Starved) {
                        i += 1;
                    }
                    // Yielded and nothing at-or-before the cursor fed:
                    // keep driving the same machine.
                }
            }
        }
        // Everything starved (or no machines). Drain the channel
        // without blocking first: a queued message may feed a starved
        // machine.
        let mut absorbed = false;
        while let Ok(m) = ctx.rx.try_recv() {
            match absorb(m, &mut running) {
                Absorbed::Shutdown => return,
                _ => absorbed = true,
            }
        }
        if absorbed {
            continue;
        }
        // Pull pending work before going idle: own deque front first,
        // else (stealing only) a steal. Every pending job is eligible —
        // threads have no transfer cost to weigh.
        let claimed = lock(&ctx.board, "scheduler board").claim(ctx.me, |_, _| true);
        if let Some(job) = claimed {
            activate(&ctx, job, &mut running, &mut scratches);
            continue;
        }
        // Idle: block for one message.
        match ctx.rx.recv() {
            Err(_) => return, // pool dropped
            Ok(m) => {
                if matches!(absorb(m, &mut running), Absorbed::Shutdown) {
                    return;
                }
            }
        }
    }
}

/// Activates a job this worker claimed from the board. A whole-tree
/// job [runs to completion](run_whole) here and now. A region job gets
/// its probe or machine built, the early-arrival values that traveled
/// with it
/// replayed (which is how memo `Probing` jobs survive migration — the
/// probe forms *after* the migrated values land), and is inserted into
/// `running` in `(ticket, region)` order: stolen jobs activate out of
/// order, and the drive loop's oldest-first preference keys off that
/// order.
fn activate<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    job: Claimed<V, JobData<V>>,
    running: &mut Vec<Running<V>>,
    scratches: &mut Vec<MachineScratch<V>>,
) {
    let Claimed {
        key: (ticket, region),
        payload: (tree, decomp),
        early,
    } = job;
    let Some(decomp) = decomp else {
        debug_assert!(
            region == 0 && early.is_empty(),
            "a whole-tree job is its ticket's only job and awaits nothing"
        );
        run_whole(ctx, ticket, &tree, scratches);
        return;
    };
    let parent = decomp.regions[region as usize].parent;
    let state = initial_state(ctx, tree, decomp, region, scratches);
    let mut entry = Running {
        ticket,
        region,
        parent,
        next_seg: 0,
        roots: Vec::new(),
        state,
    };
    for (node, attr, value) in early {
        feed(&mut entry, node, attr, value);
    }
    let pos = running.partition_point(|r| (r.ticket, r.region) < (ticket, region));
    running.insert(pos, entry);
}

/// Runs a whole-tree job from start to finish and reports it (the
/// module docs say why it may run to completion): the sequential static
/// evaluation into the store retirement will adopt, with the root
/// region's memo contract in front of it — probe, then replay or
/// evaluate; retirement installs.
fn run_whole<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    ticket: Ticket,
    tree: &ParseTree<V>,
    scratches: &mut Vec<MachineScratch<V>>,
) {
    let replayed = ctx.memo.as_ref().and_then(|memo| {
        let key = whole_tree_key(tree)?;
        if !memo.has_subtree(key.subtree) {
            return None;
        }
        let root = tree.root();
        let nodes = tree.subtree_size(root) as u32;
        let entry = memo.probe(key, nodes, tree.node(root).prod)?;
        let mut store = AttrStore::new(tree);
        replay_span(tree, root, entry.span, &mut store).then_some(store)
    });
    let result = match replayed {
        Some(store) => Ok((EvalStats::default(), Finished::Tree(store))),
        None => {
            let mut scratch = scratches.pop().unwrap_or_default();
            let evaluated = contained(ctx, || {
                let (Some(plans), Some(programs)) = (ctx.plan.plans(), ctx.plan.programs()) else {
                    return Err(EvalError::PlanInconsistency {
                        node: tree.root(),
                        step: "combined mode requires static plans".to_string(),
                    });
                };
                static_eval_with_scratch(tree, plans, programs, scratch.eval_scratch())
            });
            scratches.push(scratch);
            evaluated.map(|(store, stats)| (stats, Finished::Tree(store)))
        }
    };
    // A job this worker lost to crash recovery or cancellation must
    // not report (see `retire_sched`). A failed send means the pool is
    // gone, which the worker's next receive finds out.
    if retire_sched(ctx, ticket, 0) {
        let _ = ctx.parser_tx.send(Done {
            ticket,
            region: 0,
            result,
        });
    }
}

/// Runs `f` — a call into semantic rules — containing a panic: a buggy
/// rule fails its own ticket (`EvalError::RulePanic`, through the
/// normal Done path) instead of unwinding the worker thread and
/// wedging the whole pool.
fn contained<V: AttrValue, T>(
    ctx: &WorkerCtx<V>,
    f: impl FnOnce() -> Result<T, EvalError>,
) -> Result<T, EvalError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        ctx.panics_contained.fetch_add(1, Ordering::Relaxed);
        Err(EvalError::RulePanic {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Retires a finished job on the scheduler board and reports whether
/// this worker still *owned* it — crash recovery may have reseeded the
/// job elsewhere while this (about-to-die) worker was still driving it,
/// and a cancellation may have purged it; then the right to send Done
/// belongs to someone else. Callers retire *before* they report Done,
/// so a parser that has seen every Done sees a board with nothing left
/// on it.
fn retire_sched<V: AttrValue>(ctx: &WorkerCtx<V>, ticket: Ticket, region: RegionId) -> bool {
    lock(&ctx.board, "scheduler board").retire(ctx.me, (ticket, region))
}

/// What [`absorb`] did with a message.
enum Absorbed {
    /// Shutdown (or an injected Die) received: terminate the worker.
    Shutdown,
    /// An attribute value was provided to the running machine at this
    /// index (the caller jumps back if it is older than its cursor).
    Fed(usize),
    /// Running jobs were removed (a ticket cancellation): indices
    /// shifted, so the caller must restart its drive pass.
    Mutated,
    /// A wake, or a value dropped.
    Other,
}

/// Feeds one attribute value to a running job: machines get a
/// `provide`, probes collect their root inherited values.
fn feed<V: AttrValue>(r: &mut Running<V>, node: NodeId, attr: AttrId, value: V) {
    match &mut r.state {
        JobState::Machine(m) => m.provide(node, attr, value),
        JobState::Probing(p) => {
            debug_assert_eq!(
                node, p.root,
                "a leaf region only receives its root's inherited values"
            );
            if let Some(i) = p.needed.iter().position(|&a| a == attr) {
                if p.got[i].is_none() {
                    p.got[i] = Some(value);
                    p.filled += 1;
                }
            }
        }
        JobState::Resolving => unreachable!("transient state"),
    }
}

/// Routes one incoming message: feeds attribute values to their
/// `(ticket, region)` machine, dropping values for already-finished
/// jobs.
fn absorb<V: AttrValue>(msg: WorkerMsg<V>, running: &mut Vec<Running<V>>) -> Absorbed {
    match msg {
        WorkerMsg::Shutdown => Absorbed::Shutdown,
        // An injected crash: abandon every machine without reporting —
        // the pool already reseeded this worker's jobs onto survivors.
        WorkerMsg::Die => Absorbed::Shutdown,
        WorkerMsg::Wake => Absorbed::Other,
        WorkerMsg::Cancel { ticket } => {
            // The pool already purged the ticket from the scheduler
            // board; only this worker's own machines are left to drop.
            let before = running.len();
            running.retain(|r| r.ticket != ticket);
            if running.len() < before {
                Absorbed::Mutated
            } else {
                Absorbed::Other
            }
        }
        WorkerMsg::Attr {
            ticket,
            region,
            node,
            attr,
            value,
        } => {
            match running
                .iter_mut()
                .position(|r| r.ticket == ticket && r.region == region)
            {
                Some(idx) => {
                    feed(&mut running[idx], node, attr, value);
                    Absorbed::Fed(idx)
                }
                // A channel-sent value was routed while the job was
                // Active here (a queued job gets its values on the
                // board): not in `running` means it finished, so the
                // value is stale.
                None => Absorbed::Other,
            }
        }
    }
}

/// Builds the initial evaluation state for one region job: a probe for
/// memo-eligible leaf regions whose subtree the cache has seen, a
/// machine otherwise. Holding a region for its root inherited values
/// costs parallelism, so the hold is only taken when the cache has
/// seen this subtree at all — a never-seen subtree (counted as a miss)
/// evaluates normally and the retire path installs it for next time.
fn initial_state<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    tree: Arc<ParseTree<V>>,
    decomp: Arc<Decomposition>,
    region: RegionId,
    scratches: &mut Vec<MachineScratch<V>>,
) -> JobState<V> {
    let cacheable = ctx.memo.as_ref().and_then(|m| {
        let c = region_cacheable(&ctx.plan, &ctx.memo_safe, &tree, &decomp, region)?;
        m.has_subtree(c.1).then_some(c)
    });
    match cacheable {
        Some((root, subtree, needed)) => JobState::Probing(Probe {
            got: vec![None; needed.len()],
            filled: 0,
            tree,
            decomp,
            root,
            subtree,
            needed,
        }),
        None => {
            let scratch = scratches.pop().unwrap_or_default();
            JobState::Machine(Machine::from_plan(
                &ctx.plan,
                &tree,
                &decomp,
                region,
                ctx.config.mode,
                scratch,
            ))
        }
    }
}

/// What [`resolve_probe`] decided.
enum ProbeOutcome {
    /// Cache hit: span replayed, Done sent.
    Replayed,
    /// Cache miss: the job's state is now a machine fed with the
    /// collected inherited values — drive it.
    Miss,
    /// A send failed: the pool is gone.
    Dead,
}

/// Resolves a completed probe: forms the region input signature,
/// consults the cache, and either replays the cached span (sending the
/// root's synthesized values upward exactly as a machine would on fill,
/// then Done) or falls back to building the machine and feeding it the
/// collected inherited values.
fn resolve_probe<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    r: &mut Running<V>,
    scratches: &mut Vec<MachineScratch<V>>,
) -> ProbeOutcome {
    let JobState::Probing(p) = std::mem::replace(&mut r.state, JobState::Resolving) else {
        unreachable!("caller checked Probing");
    };
    let memo = ctx.memo.as_ref().expect("probing implies a cache");
    let nodes = p.tree.subtree_size(p.root) as u32;
    let root_prod = p.tree.node(p.root).prod;
    let fingerprint =
        inherited_fingerprint(p.got.iter().map(|v| v.as_ref().expect("probe complete")));
    let mut hit = fingerprint.and_then(|inherited| {
        memo.probe(
            MemoKey {
                subtree: p.subtree,
                inherited,
            },
            nodes,
            root_prod,
        )
    });

    if let Some(entry) = hit.take() {
        // Replay: fill a fresh region store from the cached span.
        let mut store = RegionStore::new(p.decomp.slot_map(), r.region);
        if replay_span(&p.tree, p.root, entry.span, &mut store) {
            // A probe that lost ownership (its job was reseeded by
            // crash recovery or cancelled) must not report — the
            // owning copy will.
            if !retire_sched(ctx, r.ticket, r.region) {
                return ProbeOutcome::Replayed;
            }
            let root_sym = p.tree.grammar().prod(root_prod).lhs;
            let mut roots = Vec::new();
            for &a in ctx.plan.syn_attrs(root_sym) {
                let Some(v) = store.get(p.root, a).cloned() else {
                    continue;
                };
                match r.parent {
                    None => roots.push((a, v)),
                    Some(q) => {
                        if !send_attr(ctx, r.ticket, q, p.root, a, v) {
                            return ProbeOutcome::Dead;
                        }
                    }
                }
            }
            let done = ctx.parser_tx.send(Done {
                ticket: r.ticket,
                region: r.region,
                result: Ok((EvalStats::default(), Finished::Region { store, roots })),
            });
            return if done.is_ok() {
                ProbeOutcome::Replayed
            } else {
                ProbeOutcome::Dead
            };
        }
        // Span shape disagreed with this subtree (a hash collision the
        // sanity fields missed): evaluate fresh.
    }

    let scratch = scratches.pop().unwrap_or_default();
    let mut machine = Machine::from_plan(
        &ctx.plan,
        &p.tree,
        &p.decomp,
        r.region,
        ctx.config.mode,
        scratch,
    );
    for (&attr, v) in p.needed.iter().zip(p.got) {
        if let Some(v) = v {
            machine.provide(p.root, attr, v);
        }
    }
    r.state = JobState::Machine(machine);
    ProbeOutcome::Miss
}

/// Steps one job until it starves, finishes, fails, or exhausts
/// `budget` scheduler steps ([`Drive::Yielded`], so the worker can poll
/// for older-ticket work), forwarding its sends immediately (peers
/// block on these values; see `super::threads` for why batching would
/// serialize the pipeline). Probing jobs resolve here the moment their
/// last inherited value has arrived.
fn drive<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    r: &mut Running<V>,
    budget: usize,
    scratches: &mut Vec<MachineScratch<V>>,
) -> Drive {
    if let JobState::Probing(p) = &r.state {
        if p.filled < p.needed.len() {
            return Drive::Starved;
        }
        match resolve_probe(ctx, r, scratches) {
            ProbeOutcome::Replayed => return Drive::Replayed,
            ProbeOutcome::Dead => return Drive::Dead,
            ProbeOutcome::Miss => {}
        }
    }
    let Running {
        ticket,
        region,
        parent,
        next_seg,
        roots,
        state,
    } = r;
    let (key, parent) = ((*ticket, *region), *parent);
    let JobState::Machine(machine) = state else {
        unreachable!("probes resolved above");
    };
    for _ in 0..budget {
        match contained(ctx, || machine.step()) {
            Err(e) => return Drive::Finished(Some(e)),
            Ok(None) => {
                if machine.is_done() {
                    return Drive::Finished(None);
                }
                // A machine with no ready task, unexecuted tasks left
                // and *no awaited external instance* can never be fed
                // again — only `provide` enqueues new ready work, and
                // the awaited set is fixed at construction. That is a
                // dependency cycle local to this region; surface it
                // instead of starving the pool forever. (A cycle spread
                // across regions still deadlocks: every machine then
                // awaits a peer and no local check can see the loop.)
                if machine.awaiting() == 0 {
                    return Drive::Finished(Some(EvalError::Cycle {
                        stuck: machine.pending(),
                    }));
                }
                return Drive::Starved;
            }
            Ok(Some(outcome)) => {
                for send in outcome.sends {
                    if !route_send(ctx, key, parent, next_seg, roots, send) {
                        return Drive::Dead;
                    }
                }
            }
        }
    }
    Drive::Yielded
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

/// Forwards one attribute send of job `(ticket, region)`, deflating
/// librarian-bound string values into streaming ticket-tagged segment
/// registrations (§4.2's registration phase). A value bound for the
/// parser is kept in `roots`, to ride in the job's `Done`. Returns
/// `false` when the pool is gone.
fn route_send<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    (ticket, region): (Ticket, RegionId),
    parent: Option<RegionId>,
    next_seg: &mut u32,
    roots: &mut Vec<(AttrId, V)>,
    send: AttrMsg<V>,
) -> bool {
    let upward = match send.to {
        SendTarget::Parser => true,
        SendTarget::Region(q) => Some(q) == parent,
    };
    let mut value = send.value;
    if upward && ctx.config.result == ResultPropagation::Librarian {
        let deflated = value.deflate(&mut |text: Rope| {
            let id = SegmentId::from_parts(region, *next_seg);
            *next_seg += 1;
            // Dropped when the ticket already retired (it failed, and
            // this region has not seen its Cancel yet).
            lock(&ctx.ledger, "segment ledger").register_open(ticket, id, text);
            id
        });
        if let Some(d) = deflated {
            value = d;
        }
    }
    match send.to {
        SendTarget::Parser => {
            roots.push((send.attr, value));
            true
        }
        SendTarget::Region(q) => send_attr(ctx, ticket, q, send.node, send.attr, value),
    }
}

/// Delivers one boundary attribute to region `to` of `ticket`, asking
/// the board in one critical section: [`Board::route`] logs the value
/// and names the job's current worker (or says nothing must be sent —
/// the job finished, or a re-executed producer is replaying this
/// value), and [`Board::deliver`] on that worker's behalf either
/// attaches the value to the still-queued job (so a claim — or a steal
/// — takes it along) or hands it back for a channel send to the worker
/// that claimed it. Returns `false` when the pool is gone.
fn send_attr<V: AttrValue>(
    ctx: &WorkerCtx<V>,
    ticket: Ticket,
    to: RegionId,
    node: NodeId,
    attr: AttrId,
    value: V,
) -> bool {
    let dest = {
        let mut board = lock(&ctx.board, "scheduler board");
        board
            .route(ctx.me, (ticket, to), node, attr, &value)
            .and_then(
                |w| match board.deliver(w, (ticket, to), node, attr, value) {
                    Delivery::Mine(value) => Some((w, value)),
                    Delivery::Stored => None,
                    Delivery::Forward(..) | Delivery::Dropped => {
                        unreachable!("routed and delivered under one lock")
                    }
                },
            )
    };
    dest.is_none_or(|(w, value)| {
        ctx.peers[w]
            .send(WorkerMsg::Attr {
                ticket,
                region: to,
                node,
                attr,
                value,
            })
            .is_ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::dynamic_eval;
    use crate::grammar::{AttrId, GrammarBuilder};
    use crate::tree::TreeBuilder;
    use crate::value::Value;

    fn fixture(n: usize) -> (Arc<ParseTree<Value>>, Arc<EvalPlan<Value>>, AttrId) {
        let (trees, plan, out) = fixture_trees(&[n]);
        (trees.into_iter().next().unwrap(), plan, out)
    }

    /// One splittable grammar, many chain trees of the given lengths.
    /// Each `cons` is costed at one region's worth of work
    /// ([`MIN_REGION_WORK`]), so a `Machines(n)` pool cuts a chain of
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(3));
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
            let mut pool = WorkerPool::new(&plan, PoolConfig::combined(workers));
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

    #[test]
    fn pool_works_in_dynamic_mode_with_naive_propagation() {
        let (tree, plan, out) = fixture(32);
        let config = PoolConfig {
            mode: MachineMode::Dynamic,
            result: ResultPropagation::Naive,
            ..PoolConfig::combined(3)
        };
        let mut pool = WorkerPool::new(&plan, config);
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
        assert_eq!(report.stats.static_applied, 0);
    }

    #[test]
    fn pipelined_submit_collect_preserves_order_and_results() {
        let sizes = [48usize, 5, 33, 17, 64, 2, 21];
        let (trees, plan, out) = fixture_trees(&sizes);
        for depth in [1usize, 2, 4] {
            let mut pool =
                WorkerPool::new(&plan, PoolConfig::combined(3).with_pipeline_depth(depth));
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
                    "depth={depth} tree {i}"
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
            let mut pool = WorkerPool::new(&plan, PoolConfig::adaptive(workers, budget));
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
        for depth in [1usize, 2, 4] {
            let mut pool = WorkerPool::new(
                &plan,
                PoolConfig::adaptive(2, budget).with_pipeline_depth(depth),
            );
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
        // Bypass the builder helpers entirely: a literal config with
        // meaningless zeros must still come out clamped, and the
        // accessors must report the *effective* values.
        let config = PoolConfig {
            workers: 0,
            pipeline_depth: 0,
            ..PoolConfig::combined(2)
        };
        let mut pool = WorkerPool::new(&plan, config);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.pipeline_depth(), 1);
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(2).with_pipeline_depth(2));
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(2).with_pipeline_depth(4));
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
    fn cyclic_fixture() -> (
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
    /// pool keeps serving — and ends with an empty ledger: the failed
    /// ticket's entry is taken at its retirement like any other.
    fn failed_ticket_case(workers: usize, scheduler: SchedulerMode) {
        let what = format!("{workers} workers, {scheduler:?}");
        let (good, bad, plan, out) = cyclic_fixture();
        // The cyclic grammar is not statically ordered; the pool runs
        // it in dynamic mode.
        assert!(plan.plans().is_none());
        let config = PoolConfig {
            mode: MachineMode::Dynamic,
            result: ResultPropagation::Naive,
            ..PoolConfig::combined(workers)
                .with_pipeline_depth(1)
                .with_scheduler(scheduler)
        };
        let mut pool = WorkerPool::new(&plan, config);
        for tree in &good {
            pool.submit(tree);
        }
        let bad_ticket = pool.submit(&bad);
        // Submitting past the failure works: the cyclic tree fails only
        // its own ticket (under stealing its jobs are cancelled across
        // every deque), it does not poison the pool.
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
        assert_eq!(
            pool.ledger.lock().unwrap().open_tickets(),
            0,
            "{what}: every ticket's ledger entry was taken at retirement"
        );
    }

    #[test]
    fn failed_ticket_surfaces_in_order_and_pool_stays_usable() {
        for workers in [1, 2, 8] {
            failed_ticket_case(workers, SchedulerMode::Fixed);
        }
    }

    /// The leak [`SegmentLedger::register_open`] closes: a region of a
    /// ticket that already failed *and retired* is still evaluating on
    /// another worker (the oldest machine runs unbudgeted and sees its
    /// `Cancel` only when it starves) and registers its code when it
    /// finishes. That must not re-create the ticket's ledger entry —
    /// nothing would ever remove it.
    #[test]
    fn straggler_of_a_failed_ticket_cannot_reopen_its_ledger_entry() {
        // S → L, code purely synthesized: the child region needs
        // nothing from the root region and runs to completion whatever
        // happens there. `boom` panics in the root region at once; the
        // child region's first rule (`nil`) holds it at a gate until
        // the test has seen the ticket fail and retire.
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("stmts");
        let out = g.synthesized(s, "code");
        let code = g.synthesized(l, "code");
        g.mark_split(l, 4);
        let ok = g.production("ok", s, [l]);
        g.rule(ok, (0, out), [(1, code)], |a| a[0].clone());
        let boom = g.production("boom", s, [l]);
        g.rule(boom, (0, out), [], |_| panic!("root rule exploded"));
        let cons = g.production("cons", l, [l]);
        g.rule_with_cost(
            cons,
            (0, code),
            [(1, code)],
            |a| Value::Rope(Rope::from("op\n").concat(a[0].as_rope().unwrap())),
            MIN_REGION_WORK,
        );
        let nil = g.production("nil", l, []);
        let held = Arc::clone(&gate);
        g.rule(nil, (0, code), [], move |_| {
            let (open, opened) = &*held;
            let _open = opened
                .wait_while(open.lock().unwrap(), |open| !*open)
                .unwrap();
            Value::Rope(Rope::new())
        });
        let grammar = Arc::new(g.build(s).unwrap());
        let plan = Arc::new(EvalPlan::analyze(&grammar));
        let mk = |top| {
            let mut tb = TreeBuilder::new(&grammar);
            let mut tail = tb.leaf(nil);
            for _ in 0..600 {
                tail = tb.node(cons, [tail]);
            }
            let root = tb.node(top, [tail]);
            Arc::new(tb.finish(root).unwrap())
        };
        let config = PoolConfig {
            mode: MachineMode::Dynamic,
            ..PoolConfig::combined(2)
        };
        let mut pool = WorkerPool::new(&plan, config);
        let bad_ticket = pool.submit(&mk(boom));
        let failure = pool.collect().expect("pending").err().expect("root panics");
        assert_eq!(failure.ticket, bad_ticket);
        assert!(matches!(failure.error, EvalError::RulePanic { .. }));
        // Ticket 0 is gone; let its child region run — it is inside a
        // rule, so it runs to its end and registers its code.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        // The next tree puts a job behind the straggler on its worker
        // (jobs run oldest first), so once it has retired the straggler
        // has finished.
        let report = pool.eval(&mk(ok)).unwrap();
        assert_eq!(report.regions, 2, "the straggler is a region of its own");
        assert!(!report.segments.is_empty(), "child regions register code");
        assert_eq!(pool.ledger.lock().unwrap().open_tickets(), 0);
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
        use crate::tree::token;
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
            tail = tb.node_full(cons, vec![token(vec![Value::Int(v)]), tail.into()]);
        }
        let root = tb.node_full(top, vec![token(vec![Value::Int(seed)]), tail.into()]);
        (Arc::new(tb.finish(root).unwrap()), plan, out)
    }

    #[test]
    fn memo_replays_repeated_trees_and_matches_memo_off() {
        let items: Vec<i64> = (0..24).map(|i| i * 3 + 1).collect();
        for mode in [MachineMode::Combined, MachineMode::Dynamic] {
            // Two structurally identical trees built independently —
            // distinct arenas, identical subtree hashes.
            let (t1, plan, out) = memo_fixture(7, &items);
            let (t2, _, _) = memo_fixture(7, &items);
            let config = PoolConfig {
                mode,
                ..PoolConfig::combined(2).with_memo_capacity(1 << 20)
            };
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(2).with_memo_capacity(1 << 20));
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(2).with_memo_capacity(1 << 20));
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
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(2));
        pool.eval(&tree).unwrap();
        assert!(pool.memo_counters().is_none());
    }

    #[test]
    fn stealing_matches_sequential_across_workers_and_depths() {
        let sizes = [96usize, 5, 33, 17, 64, 2, 21, 48];
        let (trees, plan, out) = fixture_trees(&sizes);
        for workers in [1usize, 2, 4] {
            for depth in [1usize, 2, 4] {
                let mut pool = WorkerPool::new(
                    &plan,
                    PoolConfig::combined(workers)
                        .with_pipeline_depth(depth)
                        .with_scheduler(SchedulerMode::Stealing),
                );
                for tree in &trees {
                    pool.submit(tree);
                }
                let mut reports = Vec::new();
                while let Some(r) = pool.collect().map(|r| r.expect("evaluation succeeds")) {
                    reports.push(r);
                }
                assert_eq!(reports.len(), trees.len());
                for (i, (tree, report)) in trees.iter().zip(&reports).enumerate() {
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
    }

    #[test]
    fn stealing_counters_are_reported_and_reset() {
        let sizes = [64usize, 48, 33, 21, 96, 17];
        let (trees, plan, _) = fixture_trees(&sizes);
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            let mut pool =
                WorkerPool::new(&plan, PoolConfig::combined(2).with_scheduler(scheduler));
            for tree in &trees {
                pool.submit(tree);
            }
            while let Some(r) = pool.collect() {
                let report = r.expect("evaluation succeeds");
                assert!(
                    report.regions > 1,
                    "{scheduler:?} ticket {}: tree was split",
                    report.ticket
                );
            }
            let c = pool.sched_counters();
            assert!(
                c.local_sends + c.remote_sends > 0,
                "{scheduler:?}: boundary sends were classified ({c:?})"
            );
            assert!(c.locality_rate() >= 0.0 && c.locality_rate() <= 1.0);
            if scheduler == SchedulerMode::Fixed {
                // Modular seeding never steals, so nothing migrates.
                assert_eq!((c.steals, c.migrated_attrs), (0, 0), "{c:?}");
            }
            // `reset_high_water` covers the scheduler telemetry too.
            pool.reset_high_water();
            assert_eq!(pool.sched_counters(), SchedCounters::default());
        }
    }

    #[test]
    fn stealing_keeps_memo_probing_jobs_correct() {
        // Probing jobs park on a memo probe until their boundary
        // attributes arrive; under stealing those arrive through the
        // job-location table (possibly before activation). The replay
        // must still be value-identical.
        let items: Vec<i64> = (0..24).map(|i| i * 3 + 1).collect();
        let (t1, plan, out) = memo_fixture(7, &items);
        let (t2, _, _) = memo_fixture(7, &items);
        let mut pool = WorkerPool::new(
            &plan,
            PoolConfig::combined(2)
                .with_memo_capacity(1 << 20)
                .with_scheduler(SchedulerMode::Stealing),
        );
        let r1 = pool.eval(&t1).unwrap();
        let r2 = pool.eval(&t2).unwrap();
        let c = pool.memo_counters().unwrap();
        assert!(c.hits >= 1, "identical tree replays under stealing ({c:?})");
        assert_eq!(
            r1.root_values.iter().find(|(a, _)| *a == out),
            r2.root_values.iter().find(|(a, _)| *a == out),
        );
        let (dstore, _) = dynamic_eval(&t2).unwrap();
        let g = t2.grammar();
        for node in t2.node_ids() {
            let sym = g.prod(t2.node(node).prod).lhs;
            for a in 0..g.attr_count(sym) {
                let attr = AttrId(a as u32);
                assert_eq!(
                    r2.store.get(node, attr),
                    dstore.get(node, attr),
                    "node={node:?} attr={attr:?}"
                );
            }
        }
    }

    #[test]
    fn stealing_failed_ticket_surfaces_in_order_and_pool_stays_usable() {
        for workers in [1, 2, 8] {
            failed_ticket_case(workers, SchedulerMode::Stealing);
        }
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
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            for workers in [1, 2, 8] {
                let what = format!("{workers} workers, {scheduler:?}");
                let mut pool = WorkerPool::new(
                    &plan,
                    PoolConfig::combined(workers).with_scheduler(scheduler),
                );
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
                // The panic was contained outside both shared locks.
                assert!(!pool.board.is_poisoned(), "{what}: board lock");
                assert!(!pool.ledger.is_poisoned(), "{what}: ledger lock");
            }
        }
    }

    #[test]
    fn kill_worker_recovers_under_either_scheduler() {
        let (tree, plan, _) = fixture(16);
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            let mut pool =
                WorkerPool::new(&plan, PoolConfig::combined(2).with_scheduler(scheduler));
            assert!(!pool.kill_worker(7), "{scheduler:?}: out of range");
            assert!(pool.kill_worker(1), "{scheduler:?}");
            assert!(!pool.kill_worker(1), "{scheduler:?}: already dead");
            assert!(
                !pool.kill_worker(0),
                "{scheduler:?}: the last survivor is spared"
            );
            // One survivor still evaluates correctly — under `Fixed`,
            // every region whose home is dead is seeded onto it.
            let r = pool.eval(&tree).unwrap();
            assert_eq!(r.regions, 2, "{scheduler:?}");
            assert_eq!(r.store.filled(), r.store.len(), "{scheduler:?}");
            assert_eq!(pool.fault_counters().crashes, 1, "{scheduler:?}");
        }
    }

    #[test]
    fn killed_worker_recovers_regions_and_outputs_stay_identical() {
        let sizes = [96usize, 64, 80, 72, 88, 56, 100, 48];
        let (trees, plan, out) = fixture_trees(&sizes);
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            killed_worker_case(&trees, &plan, out, scheduler);
        }
    }

    fn killed_worker_case(
        trees: &[Arc<ParseTree<Value>>],
        plan: &Arc<EvalPlan<Value>>,
        out: AttrId,
        scheduler: SchedulerMode,
    ) {
        let mut pool = WorkerPool::new(
            plan,
            PoolConfig::combined(3)
                .with_pipeline_depth(trees.len())
                .with_scheduler(scheduler),
        );
        for tree in trees {
            pool.submit(tree);
        }
        // Crash one worker while the whole stream is in flight: its
        // queued jobs migrate, its active jobs re-execute from their
        // input logs on the survivors.
        assert!(pool.kill_worker(1), "{scheduler:?}");
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
                "{scheduler:?} tree {i}: output identical to fault-free evaluation"
            );
            assert_eq!(report.store.filled(), report.store.len());
        }
        let f = pool.fault_counters();
        assert_eq!(f.crashes, 1);
        assert!(
            f.regions_reexecuted > 0,
            "{scheduler:?}: lost regions were reseeded {f:?}"
        );
        // The two survivors keep serving new work.
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

    #[test]
    fn segment_ledger_isolates_tickets() {
        let mut ledger = SegmentLedger::new();
        let id = SegmentId::from_parts(0, 0);
        ledger.register(0, id, Rope::from("tree zero"));
        ledger.register(1, id, Rope::from("tree one"));
        assert_eq!(ledger.open_tickets(), 2);
        assert_eq!(ledger.ticket_bytes(0), 9);
        let s0 = ledger.resolve(0);
        assert_eq!(s0.get(id).unwrap().to_string(), "tree zero");
        assert_eq!(ledger.open_tickets(), 1);
        let s1 = ledger.resolve(1);
        assert_eq!(s1.get(id).unwrap().to_string(), "tree one");
        assert!(ledger.resolve(7).is_empty());
    }

    #[test]
    fn segment_ledger_registers_only_into_open_tickets() {
        let mut ledger = SegmentLedger::new();
        let id = SegmentId::from_parts(0, 0);
        assert!(!ledger.register_open(3, id, Rope::from("too early")));
        ledger.open(3);
        assert_eq!(ledger.open_tickets(), 1);
        assert!(ledger.register_open(3, id, Rope::from("in flight")));
        assert_eq!(ledger.resolve(3).get(id).unwrap().to_string(), "in flight");
        // Resolved means closed: a late registration is dropped instead
        // of re-creating an entry nothing would remove.
        assert!(!ledger.register_open(3, id, Rope::from("too late")));
        assert_eq!(ledger.open_tickets(), 0);
    }

    /// [`memo_fixture`]'s memo-safe chain with *rope* code, long enough
    /// that every region's code clears the deflation threshold — so
    /// values really cross region boundaries as segment references. As
    /// in [`fixture_trees`], each `cons` carries a region's worth of
    /// work.
    fn rope_memo_fixture(n: usize) -> (Arc<ParseTree<Value>>, Arc<EvalPlan<Value>>, AttrId) {
        use crate::tree::token;
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
            tail = tb.node_full(cons, vec![token(vec![Value::Int(v)]), tail.into()]);
        }
        let root = tb.node_full(top, vec![token(vec![Value::Int(7)]), tail.into()]);
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
        for granularity in [
            RegionGranularity::Machines(2),
            RegionGranularity::Machines(8),
            RegionGranularity::Adaptive { budget },
        ] {
            for (depth, memo) in [(1, 0), (1, 1 << 28), (2, 0), (2, 1 << 28)] {
                let what = format!("{granularity:?} depth {depth} memo {memo}");
                let config = PoolConfig::combined(2)
                    .with_granularity(granularity)
                    .with_pipeline_depth(depth)
                    .with_memo_capacity(memo);
                let mut pool = WorkerPool::new(&plan, config);
                if matches!(granularity, RegionGranularity::Adaptive { .. }) {
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
                // The third submission finds the first retired (its
                // spans installed) at either window depth.
                for tree in [&t1, &t2, &t1] {
                    pool.submit(tree);
                }
                let mut retired = 0;
                while let Some(report) = pool.collect() {
                    let report = report.expect("evaluation succeeds");
                    retired += 1;
                    match granularity {
                        RegionGranularity::Machines(n) => {
                            assert_eq!(report.regions, n, "{what}: one region per machine")
                        }
                        RegionGranularity::Adaptive { .. } => {
                            assert!(report.regions > 1, "{what}: tree was split")
                        }
                    }
                    assert!(
                        !report.segments.is_empty(),
                        "{what}: code crossed region boundaries as segments"
                    );
                    assert_eq!(report.store.filled(), report.store.len(), "{what}");
                    for i in 0..report.store.len() {
                        let got = report.store.get_by_index(i).unwrap();
                        assert_eq!(
                            got.inflate(&report.segments),
                            Ok(None),
                            "{what}: instance {i} still holds a segment reference"
                        );
                        assert_eq!(Some(got), want.get_by_index(i), "{what}: instance {i}");
                    }
                    let root = &report
                        .root_values
                        .iter()
                        .find(|(a, _)| *a == out)
                        .unwrap()
                        .1;
                    assert_eq!(root.inflate(&report.segments), Ok(None), "{what}");
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

    #[test]
    fn lost_registration_fails_its_ticket_with_a_named_error() {
        let (tree, plan, out) = fixture(600);
        let mut pool = WorkerPool::new(&plan, PoolConfig::combined(3));
        pool.submit(&tree);
        while !pool.front_complete() {
            let msg = pool.parser_rx.recv().expect("workers alive");
            pool.route(msg);
        }
        // Lose the ticket's registrations: take them out of the shared
        // ledger behind the pool's back, so its own resolution finds an
        // empty store.
        let lost = pool.ledger.lock().unwrap().resolve(0);
        assert!(!lost.is_empty(), "the tree registered code segments");

        let Some(Err(failure)) = pool.collect() else {
            panic!("the ticket must fail");
        };
        assert_eq!(failure.ticket, 0);
        let EvalError::UnknownSegment { id } = failure.error else {
            panic!("expected UnknownSegment, got {}", failure.error);
        };
        assert!(lost.get(id).is_some(), "names a segment that was lost");
        assert!(failure.to_string().contains("never registered"));

        // Ticket-scoped: the pool keeps serving.
        let report = pool.eval(&tree).unwrap();
        assert!(report.regions > 1, "the tree was split");
        let (dstore, _) = dynamic_eval(&tree).unwrap();
        let want = dstore.get(tree.root(), out).unwrap().as_rope().unwrap();
        assert!(root_rope(&report, out).content_eq(want));
        assert!(report.assemble > Duration::ZERO);
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
        assert_eq!(pool.ledger.lock().unwrap().open_tickets(), 0, "{what}");
        assert!(pool.board.lock().unwrap().is_quiescent(), "{what}: board");
    }

    /// A tree below the hand-off floor is one whole-tree job: no ledger
    /// entry at any point, no segments, one region — and the store and
    /// root values of the sequential static evaluator, at every worker
    /// count, window depth, scheduler and memo setting.
    #[test]
    fn one_region_tickets_are_whole_tree_jobs_identical_to_static_eval() {
        let sizes = [40usize, 1, 0, 25, 7, 40, 12, 25, 3, 40];
        let (trees, plan, out) = light_trees(&sizes);
        let plans = plan.plans().unwrap();
        let want: Vec<_> = trees
            .iter()
            .map(|t| crate::eval::static_eval(t, plans).unwrap())
            .collect();
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            for workers in [1usize, 2, 8] {
                for depth in [1usize, 2, 4, 8] {
                    for memo in [0usize, 1 << 20] {
                        let what =
                            format!("{scheduler:?} workers={workers} depth={depth} memo={memo}");
                        let mut pool = WorkerPool::new(
                            &plan,
                            PoolConfig::combined(workers)
                                .with_pipeline_depth(depth)
                                .with_scheduler(scheduler)
                                .with_memo_capacity(memo),
                        );
                        let mut reports = Vec::new();
                        for tree in &trees {
                            pool.submit(tree);
                            assert_eq!(
                                pool.ledger.lock().unwrap().open_tickets(),
                                0,
                                "{what}: a whole-tree ticket opens no ledger entry"
                            );
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
                            assert!(report.segments.is_empty(), "{what}");
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
        }
    }

    /// The root region's memo contract on a tree that stays whole:
    /// never seen → one miss, evaluated, installed at retirement; seen →
    /// probed, hit, replayed, not installed again.
    #[test]
    fn repeated_one_region_trees_hit_the_memo_like_a_root_region() {
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            // Built independently: distinct arenas, equal hashes.
            let (t1, plan, out) = memo_fixture(7, &[5]);
            let (t2, _, _) = memo_fixture(7, &[5]);
            let (other, _, _) = memo_fixture(7, &[6]);
            let mut pool = WorkerPool::new(
                &plan,
                PoolConfig::combined(2)
                    .with_memo_capacity(1 << 20)
                    .with_scheduler(scheduler),
            );
            let counts = |pool: &WorkerPool<Value>| {
                let c = pool.memo_counters().unwrap();
                (c.hits, c.misses, c.inserts)
            };
            let r1 = pool.eval(&t1).unwrap();
            assert_eq!(r1.regions, 1);
            assert_eq!(counts(&pool), (0, 1, 1), "{scheduler:?}: cold");
            let r2 = pool.eval(&t2).unwrap();
            assert_eq!(counts(&pool), (1, 1, 1), "{scheduler:?}: replayed");
            let r3 = pool.eval(&t1).unwrap();
            assert_eq!(counts(&pool), (2, 1, 1), "{scheduler:?}: replayed again");
            pool.eval(&other).unwrap();
            assert_eq!(counts(&pool), (2, 2, 2), "{scheduler:?}: another tree");
            let (want, _) = crate::eval::static_eval(&t1, plan.plans().unwrap()).unwrap();
            assert_eq!(r1.root_values, vec![(out, Value::Int(35))]);
            for (tree, r) in [(&t1, &r1), (&t2, &r2), (&t1, &r3)] {
                assert_eq!(r.root_values, r1.root_values, "{scheduler:?}");
                // Same shape, so the same dense indices in either arena.
                assert_eq!(r.store.len(), want.len());
                for i in 0..want.len() {
                    assert_eq!(
                        r.store.get_by_index(i),
                        want.get_by_index(i),
                        "{scheduler:?}"
                    );
                }
                assert_eq!(r.store.filled(), r.store.len(), "{scheduler:?}");
                assert_eq!(tree.len(), 3);
            }
            assert_eq!(r2.stats, EvalStats::default(), "a replay applies no rule");
        }
    }

    /// One-region and multi-region tickets interleaved in one window
    /// retire in submission order with the right job kind each.
    #[test]
    fn a_stream_straddling_the_floor_retires_in_submission_order() {
        let sizes = [1usize, 48, 0, 1, 33, 1, 64, 0, 17, 1];
        let (trees, plan, out) = fixture_trees(&sizes);
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            for depth in [1usize, 3, 8] {
                let what = format!("{scheduler:?} depth={depth}");
                let mut pool = WorkerPool::new(
                    &plan,
                    PoolConfig::combined(3)
                        .with_pipeline_depth(depth)
                        .with_scheduler(scheduler),
                );
                for tree in &trees {
                    pool.submit(tree);
                }
                for (i, tree) in trees.iter().enumerate() {
                    let report = pool.collect().expect("pending").expect("evaluates");
                    assert_eq!(report.ticket, i as Ticket, "{what}: submission order");
                    if sizes[i] <= 1 {
                        assert_eq!(report.regions, 1, "{what} tree {i}");
                        assert!(report.segments.is_empty(), "{what} tree {i}");
                    } else {
                        assert_eq!(report.regions, 3, "{what} tree {i}");
                    }
                    let (want, _) = dynamic_eval(tree).unwrap();
                    assert_stores_equal(tree, &report.store, &want, &format!("{what} tree {i}"));
                    let root = want.get(tree.root(), out).unwrap().as_rope().unwrap();
                    assert!(root_rope(&report, out).content_eq(root), "{what} tree {i}");
                }
                assert!(pool.collect().is_none(), "{what}");
                assert_idle_and_quiescent(&pool, &what);
            }
        }
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
        let sizes = [9usize; 12];
        let (trees, plan, out) = fixture_trees_with(&sizes, 1, move || {
            let (open, opened) = &*held;
            let _open = opened
                .wait_while(open.lock().unwrap(), |open| !*open)
                .unwrap();
        });
        for scheduler in [SchedulerMode::Fixed, SchedulerMode::Stealing] {
            *gate.0.lock().unwrap() = false;
            let mut pool = WorkerPool::new(
                &plan,
                PoolConfig::combined(3)
                    .with_pipeline_depth(sizes.len())
                    .with_scheduler(scheduler),
            );
            for tree in &trees {
                pool.submit(tree);
            }
            assert!(pool.kill_worker(1), "{scheduler:?}");
            let f = pool.fault_counters();
            assert_eq!(
                f.regions_reexecuted, 4,
                "{scheduler:?}: equal jobs seed round-robin: four lived on the victim {f:?}"
            );
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            let (want, _) = crate::eval::static_eval(&trees[0], plan.plans().unwrap()).unwrap();
            for (i, tree) in trees.iter().enumerate() {
                let what = format!("{scheduler:?} tree {i}");
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
    }

    /// Two small trees per worker by default, one under the barrier: a
    /// small tree is one job, so the window is what keeps a worker's
    /// next tree on its deque.
    #[test]
    fn default_window_holds_two_one_region_tickets_per_worker() {
        let (trees, plan, _) = light_trees(&[6; 10]);
        for workers in [1usize, 2, 3] {
            for (config, want) in [
                (PoolConfig::combined(workers), 2 * workers),
                (PoolConfig::adaptive(workers, 1 << 40), 2 * workers),
                (PoolConfig::barrier(workers), 1),
            ] {
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
        let mut pool = WorkerPool::new(
            &plan,
            PoolConfig::combined(2).with_scheduler(SchedulerMode::Stealing),
        );
        pool.submit(&tree);
        while !pool.front_complete() {
            let msg = pool.parser_rx.recv().expect("workers alive");
            pool.route(msg);
        }
        let decomp = pool.in_flight[0].decomp.clone().expect("the tree was cut");
        pool.route(Done {
            ticket: 0,
            region: 0,
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
