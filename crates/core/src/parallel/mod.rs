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
//!   [`pool`] and [`sim`] are its two drivers under both placements, so
//!   "the simulator runs the deployed policy" holds by construction,
//!   not by two files kept in step.
//! * `worker` (crate-internal) — the worker core: one evaluator
//!   machine's jobs as IO-free state, with the **one** implementation of
//!   activation (a whole-tree job, a memo probe or a region machine,
//!   early values replayed), feed, cancel, probe resolution, the
//!   oldest-first drive pass, rule-panic containment, local cycle
//!   detection and retire-before-report. It asks its driver for effects
//!   (charge a build or a step, send a boundary value, report a root
//!   value, report `Done`); [`pool`]'s threads and [`sim`]'s evaluator
//!   processes are its two drivers.
//! * [`pool`] — persistent evaluator worker pool (threads spawned
//!   once, sharing memory, so a code value crosses a region boundary as
//!   the rope it is and no librarian runs) scheduling **region jobs** —
//!   `(ticket, region)` pairs, not whole trees: the batched-compilation
//!   runtime, with a small cross-tree pipeline window, no split below
//!   the measured cost of a hand-off between threads, and cost-driven
//!   adaptive decomposition so one huge tree fills the pool like a
//!   batch of small ones. Each thread drives a worker core; the pool
//!   drives the board from them under one mutex and moves values over
//!   channels; the two
//!   placements are two seeding policies on it — fixed modular
//!   assignment (the paper's layout, the default, never stealing) and
//!   `SchedulerMode::Stealing`.
//! * [`sim`] — the same protocol on the deterministic
//!   [`paragram_netsim`] network-multiprocessor simulator, reproducing
//!   the paper's running-time and activity-trace figures exactly: one
//!   parser process, N evaluator processes each driving a worker core,
//!   one librarian process, and one run ([`sim::run_sim_stream`]) that
//!   the single-tree and batch entry points adapt. It drives the board
//!   and the cores from netsim handlers, adding only what virtual time
//!   needs (per-machine clocks, CPU charged from a cost model, the
//!   parser's subtree push under fixed placement, the claimer's subtree
//!   fetch and the steal profitability gate under stealing).
//! * [`policy`] — dispatch policies (FIFO / shortest-job-first /
//!   deficit fair queueing) for service front ends over [`pool`],
//!   shared with the simulator so sim policy rankings are computed by
//!   the same code the real queue runs.
//!
//! # Failure model and recovery protocol
//!
//! Both runtimes tolerate **fail-stop evaluator loss** under either
//! `SchedulerMode`: a worker thread dying mid-region (live
//! pool, [`pool::WorkerPool::kill_worker`]) or a simulated machine
//! crashing at a scheduled virtual time (sim, [`sim::run_sim_stream`]
//! driven by a [`paragram_netsim::FaultPlan`]). The parser and
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
//! seeding then passes over the dead worker). Re-execution regenerates the same
//! segment ids, attribute values and root attributes, because region
//! evaluation is a pure function of tree + replayed inputs.
//!
//! **Idempotent delivery.** Replay means survivors can receive an
//! attribute twice and the librarian can see a segment registered
//! twice. Every duplicate path is absorbed and *counted*
//! ([`pool::FaultCounters::dup_suppressed`]): sends are content-keyed
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
