//! Parallel compiler runtimes (§2.1, §3, §4).
//!
//! The structure mirrors the paper's Figure-6 setting: a sequential
//! parser process, N evaluator machines, and a string-librarian process.
//!
//! * `board` (crate-internal) — the scheduler as an IO-free state
//!   machine: per-worker deques, the `(ticket, region)` job-location
//!   table, load accounts, the dead set, per-job input logs and the
//!   steal/locality/fault counters, with the **one** implementation of
//!   seed (modular or LPT), claim/steal, keyed take,
//!   route-and-log-dedup, deliver, retire, crash-reseed and cancel.
//!   [`pool`] and [`sim`] are its two drivers, so "the simulator runs
//!   the deployed policy" holds by construction, not by two files kept
//!   in step. The pool places every job fixed ([`SchedulerMode::Fixed`]);
//!   the simulator runs either [`SchedulerMode`].
//! * `worker` (crate-internal) — the worker core: one evaluator
//!   machine's jobs as IO-free state, with the **one** implementation of
//!   activation (a whole-tree job, a memo probe or a region machine,
//!   early values replayed), feed, cancel, probe resolution, the
//!   oldest-first drive pass, rule-panic containment, local cycle
//!   detection and retire-before-report. It asks its driver for effects
//!   (charge a build or a step, send a boundary value, report a root
//!   value, report `Done`); [`pool`]'s threads and [`sim`]'s evaluator
//!   processes are its two drivers. What a memo probe keys on and how a
//!   cached span is laid out is [`crate::memo`]'s.
//! * [`pool`] — persistent evaluator worker pool (threads spawned
//!   once, sharing memory, so a code value crosses a region boundary as
//!   the rope it is and no librarian runs) scheduling **region jobs** —
//!   `(ticket, region)` pairs, not whole trees: the batched-compilation
//!   runtime, with a window of two trees per worker in flight, no split
//!   below the measured cost of a hand-off between threads, and
//!   cost-driven adaptive decomposition so one huge tree fills the pool
//!   like a batch of small ones. Each thread drives a worker core; the
//!   pool drives the board from them under one mutex, seeds it with the
//!   paper's fixed modular placement and moves values over channels.
//!   It is a thread driver and nothing else: the vocabulary both
//!   drivers share ([`Ticket`], [`SchedulerMode`], [`SchedCounters`],
//!   [`FaultCounters`]) lives here.
//! * [`sim`] — the same protocol on the deterministic
//!   [`paragram_netsim`] network-multiprocessor simulator, reproducing
//!   the paper's running-time and activity-trace figures exactly: one
//!   parser process, N evaluator processes each driving a worker core,
//!   one librarian process, and one run ([`sim::run_sim_stream`]) that
//!   the single-tree and batch entry points adapt. It drives the board
//!   and the cores from netsim handlers, adding only what virtual time
//!   needs (per-machine clocks, CPU charged from a cost model, the
//!   parser's subtree push under fixed placement, the claimer's subtree
//!   fetch and the steal profitability gate under stealing). Work
//!   stealing ([`SchedulerMode::Stealing`]) is its policy alone.
//! * [`policy`] — dispatch policies (FIFO / shortest-job-first /
//!   deficit fair queueing) for service front ends over [`pool`],
//!   shared with the simulator so sim policy rankings are computed by
//!   the same code the real queue runs.
//!
//! # Failure model and recovery protocol
//!
//! Both runtimes tolerate **fail-stop evaluator loss** — the pool under
//! its fixed placement, the simulator under either [`SchedulerMode`]: a
//! worker thread dying mid-region (the live [`pool`]'s
//! `WorkerPool::kill_worker`) or a simulated machine crashing at a
//! scheduled virtual time (sim, [`sim::run_sim_stream`] driven by a
//! [`paragram_netsim::FaultPlan`]). The parser and
//! librarian are the reliable tier — they hold per-batch state that
//! regions cannot reconstruct — so the fault plans that target them
//! are rejected up front ([`sim::SimError`]) rather than
//! half-recovered.
//!
//! **What survives a crash.** Everything a region job needs to re-run
//! lives outside the evaluator that ran it: the immutable `ParseTree`
//! and decomposition (shared, read-only), and the job's record on the
//! scheduler board — where it lives (which worker, queued or active)
//! and its **input log**: every boundary attribute
//! `(node, attr, value)` is appended to the log at *send* time, on the
//! board, before it ever reaches a worker. The log is the protocol's
//! stable storage: a message in flight to a dead worker is lost with
//! the worker, but its logged copy is not. Only evaluator-volatile
//! state dies: partially evaluated machines.
//!
//! **Recovery** is one board transition, called by the pool's
//! `kill_worker` (live) or the parser's crash oracle (sim): the dead
//! worker is marked dead (its load account pinned out of every
//! least-loaded choice), its queued and active region jobs are
//! collected, each becomes a fresh pending job whose early values are
//! the *full* input log replay, and they are reseeded
//! least-loaded-first over the survivors in deterministic
//! `(ticket, region)` order, under either seeding policy (modular
//! seeding — the pool's, and the simulator's by default — then passes
//! over the dead worker). Re-execution regenerates the same
//! segment ids, attribute values and root attributes, because region
//! evaluation is a pure function of tree + replayed inputs.
//!
//! **Idempotent delivery.** Replay means survivors can receive an
//! attribute twice and the librarian can see a segment registered
//! twice. Every duplicate path is absorbed and *counted*
//! ([`FaultCounters::dup_suppressed`]): sends are content-keyed
//! against the input log (a `(node, attr)` already logged for a region
//! is suppressed at the sender), machines drop deliveries for
//! instances they are no longer awaiting, the parser ignores a root
//! attribute (sim) or a region result (pool) it already holds, and a
//! re-executed job's librarian registration replaces its earlier self
//! under the same run id (sim). The acceptance bar — pinned by unit,
//! integration and chaos property tests — is that a crashed-and-
//! recovered run produces output **byte-identical** to the fault-free
//! run, with `crashes`, `regions_reexecuted` and `dup_suppressed`
//! accounting for the detour.

mod board;
pub mod policy;
pub mod pool;
pub mod sim;
mod worker;

use crate::grammar::{AttrId, SymbolId};
use crate::value::AttrValue;

/// Identifies one tree's pass through a runtime (monotone, assigned
/// when the tree is submitted: by the pool's `submit`, or by the
/// simulator's parser). Messages carry their ticket so the attribute
/// exchanges of overlapping trees never interfere.
pub type Ticket = u64;

/// How the scheduler board seeds region jobs onto workers, and whether
/// an idle worker may steal. The live [`pool`] always places fixed;
/// [`sim::SimConfig::scheduler`] chooses between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// The paper's fixed modular placement: region `r` of ticket `t` is
    /// seeded onto worker `(r + offset(t)) mod W` and runs there —
    /// nothing is stolen (a crash reseeds it, like any job).
    #[default]
    Fixed,
    /// Per-worker deques with LPT seeding, parent/child co-seeding and
    /// steal-from-the-back work stealing — the simulator's alternative
    /// placement.
    Stealing,
}

/// Scheduler telemetry, cumulative since the runtime started or its
/// counters were last reset (the pool's `reset_high_water`). Boundary
/// sends are counted local or remote under either [`SchedulerMode`];
/// `steals` and `migrated_attrs` are filled only under
/// [`SchedulerMode::Stealing`], so they read zero on a pool, which
/// places fixed.
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

/// Fault-injection and recovery telemetry, cumulative since the runtime
/// started or its counters were last reset (the pool's
/// `reset_high_water`). The pool fills the
/// crash/re-execution/duplicate/panic fields; the deadline fields
/// belong to the serving layer (`paragram-driver`'s service queue),
/// which merges its own counts in. The simulator's recovery mirror
/// reports the same struct.
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
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
        }
    }
}

/// How the simulator's evaluators propagate large result attributes
/// back to the parser ([`sim::SimConfig::result`]), by default through
/// the librarian. The pool's threads share memory: a value crosses as
/// the rope it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultPropagation {
    /// Each evaluator ships its full result value to its ancestor; the
    /// ancestor concatenates and re-transmits — the paper's "naive
    /// implementation" whose cost grows with process-tree depth. Between
    /// threads, shipping a rope costs a reference-count increment.
    Naive,
    /// String-librarian protocol (§4.2): text goes to the librarian
    /// once, only small references to it travel up the process tree —
    /// the simulator's accounting of what each value costs on the wire.
    Librarian,
}

/// Classifies attributes into activity-trace phases (Figure 6's "symbol
/// table" / "code generation" labels). The default classifier labels
/// everything "evaluate".
pub type PhaseClassifier = std::sync::Arc<dyn Fn(&str) -> &'static str + Send + Sync>;

/// Builds a classifier from `(substring, label)` pairs matched against
/// the attribute name, in order.
pub fn phase_classifier(rules: Vec<(&'static str, &'static str)>) -> PhaseClassifier {
    std::sync::Arc::new(move |attr: &str| {
        for (pat, label) in &rules {
            if attr.contains(pat) {
                return label;
            }
        }
        "evaluate"
    })
}

/// Resolves a phase label for a machine step's target attribute.
pub(crate) fn classify<V: AttrValue>(
    g: &crate::grammar::Grammar<V>,
    classifier: &PhaseClassifier,
    target: Option<(SymbolId, AttrId)>,
) -> &'static str {
    match target {
        Some((sym, attr)) => classifier(&g.symbol(sym).attrs[attr.0 as usize].name),
        None => "evaluate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_matches_substrings_in_order() {
        let c = phase_classifier(vec![("stab", "symbol table"), ("code", "code generation")]);
        assert_eq!(c("stab_out"), "symbol table");
        assert_eq!(c("code"), "code generation");
        assert_eq!(c("value"), "evaluate");
    }
}
