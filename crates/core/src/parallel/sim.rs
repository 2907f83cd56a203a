//! The parallel compiler on the simulated network multiprocessor.
//!
//! Reproduces the paper's experimental configuration (§3): one
//! sequential parser process, N evaluator machines, and a
//! string-librarian process, communicating over a shared 10 Mbit
//! Ethernet modelled by [`paragram_netsim`]. Virtual CPU consumption is
//! derived from a [`CostModel`] calibrated to SUN-2-class hardware, so
//! the reported times are in "1987 seconds" and the *shape* of Figure 5
//! (speedups, crossovers, the non-monotonic tail) is reproduced
//! deterministically.
//!
//! The protocol is the paper's, run by one set of processes: the parser
//! ships linearized region subtrees; evaluators evaluate, exchanging
//! attribute values — synthesized attributes of region roots travel up,
//! inherited attributes of remote subtree roots travel down — and
//! report each region done; in librarian mode large code text streams
//! to the librarian during evaluation and only small references to it
//! travel up the process tree, combined at the parser's final read of
//! each tree (§4.2, split-phase). Each simulated evaluator's
//! [`Machine`] holds a region-local store
//! ([`crate::tree::RegionStore`], O(region) slots), matching the
//! paper's setting where a machine only ever materializes the subtree
//! it was shipped — root attributes reach the parser as messages, so
//! the simulation never assembles a whole-tree store.
//!
//! There is one run, [`run_sim_stream`]: a stream of trees through one
//! machine park with a window of `pipeline_depth` trees in flight, at a
//! chosen [`RegionGranularity`], under a [`FaultPlan`], the parser's
//! next ticket coming either from the pre-parsed batch or — given
//! [`Arrivals`] — from an open-arrival schedule through bounded
//! admission and the FIFO waiting room ([`PolicyQueue`]) the wall-clock
//! service uses. [`run_sim`] (the paper's single
//! compilation: a batch of one at depth 1, one region per machine) and
//! [`run_sim_batch`] are adapters over it.
//!
//! Each evaluator process drives the worker core
//! (`parallel/worker.rs`) that the live pool's threads drive, instead
//! of mirroring it: activation, the oldest-first pass, rule
//! panic containment, local cycle detection and retire-before-report
//! are that code's. The process carries out the core's effects in
//! virtual time — it charges a machine's build and every step from the
//! [`CostModel`] under its activity-trace phase, registers code text
//! with the librarian by message, and sends each root value to the
//! parser as its own message the moment it is computed, then a 16-byte
//! `Done` — and drives each
//! machine until it starves, with no yield budget. The parser still
//! ships a decomposition for every ticket, a one-region one included:
//! the sim does not run whole-tree jobs.
//!
//! The processes drive the same scheduler board the live pool
//! ([`crate::parallel::pool`]) drives from threads — seeding,
//! claiming, routing, retirement and crash recovery are the board's,
//! not re-implemented here — so the simulator runs exactly the pool's
//! placement: the paper's, region *k* of a tree on machine *k* (§3).
//! The parser pushes each region's subtree to the home the board
//! seeded it on, and its arrival takes that job off the home's deque —
//! so a fault-free run sends no wake, and only recovery claims. The
//! simulator adds only what virtual time needs: the fetch of its
//! subtree that a recovery claim is charged.
//!
//! # The string librarian as accounting
//!
//! The paper's librarian (§4.2) changes only the string type: an
//! evaluator sends its large code text to the librarian once and
//! passes up the process tree a rope of references to it. Here every
//! evaluator sends the value it computed, and the simulator works out
//! what that rope of references would have cost. Per ticket it keeps a
//! table of *runs* — the text a job registered, as the ordered rope
//! nodes it was made of — and prices each value job K sends from it:
//!
//! * a run another job registered, met as its members in order, costs
//!   one 9-byte reference; the rest is text, at its length. A job never
//!   sent a reference has none to see, so its whole value is one
//!   stretch of text, priced in O(1); otherwise the walk descends only
//!   into rope nodes that hold a registered node (cached per node) and
//!   takes every other node whole. A value the simulator forwards (its
//!   job moved while it was on the wire) keeps the size it was sent at;
//! * a value bound towards the tree root (its region's parent, or the
//!   parser) registers each maximal text stretch of at least 256 bytes
//!   as a new run owned by K — a `Register` message of `8 + len` bytes
//!   to the librarian, sent before the value — and carries a reference
//!   in its place. A run's id is K's region and how many registrations
//!   K had made since its activation, so a re-executed job re-registers
//!   under the same ids;
//! * at the parser's final read, the librarian charges the combination
//!   of the ticket's distinct runs and checks that every run the root
//!   values reference arrived ([`SimError::LostCodeSegment`] if not),
//!   and the ticket's table is dropped.
//!
//! Two modelling assumptions, each a debug assertion: a run's members
//! are met contiguously and in order — rules only concatenate, and a
//! run's text travels up the tree — and no node is registered twice.

use crate::analysis::Plans;
use crate::eval::{EvalError, EvalPlan, Machine, MachineMode, StepOutcome};
use crate::grammar::{AttrId, AttrKind};
use crate::parallel::board::{Board, Claimed, Delivery, JobKey};
use crate::parallel::policy::{DispatchPolicy, PolicyQueue, QueuedJob};
use crate::parallel::worker::{Cut, Driver, JobResult, WorkerCore};
use crate::parallel::{FaultCounters, SchedCounters, Ticket};
use crate::split::{
    decompose_granular, Decomposition, RegionGranularity, RegionId, SplitTable, WorkTable,
};
use crate::stats::EvalStats;
use crate::tree::{Child, NodeId, ParseTree};
use crate::value::AttrValue;
use paragram_netsim::{secs, Ctx, FaultPlan, NetModel, ProcId, Process, Sim, Time, Trace};
use paragram_rope::Rope;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use super::{classify, PhaseClassifier, ResultPropagation};

/// Virtual CPU cost constants (µs) mapping evaluator work onto 1987
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per rule-cost unit (semantic function execution).
    pub rule_unit_us: u64,
    /// Per dependency-graph task created (dynamic pipeline, Figure 1).
    pub graph_node_us: u64,
    /// Per dependency-graph edge created.
    pub graph_edge_us: u64,
    /// Scheduler overhead per dynamically applied rule.
    pub dynamic_rule_us: u64,
    /// Tree-walk overhead per statically applied rule.
    pub static_rule_us: u64,
    /// Parser cost per tree node built.
    pub parse_node_us: u64,
    /// Cost per node to linearize/rebuild a shipped subtree.
    pub ship_node_us: u64,
    /// Librarian cost per kilobyte when combining final code.
    pub resolve_kb_us: u64,
}

impl CostModel {
    /// Calibration for a SUN-2-class workstation (≈1 MIPS): semantic
    /// functions dominated by allocation, a dynamic-scheduler overhead
    /// per instance, and a much cheaper static tree walk.
    pub fn sun2() -> Self {
        CostModel {
            rule_unit_us: 120,
            graph_node_us: 80,
            graph_edge_us: 40,
            dynamic_rule_us: 120,
            static_rule_us: 25,
            parse_node_us: 180,
            ship_node_us: 40,
            resolve_kb_us: 150,
        }
    }
}

/// Everything configurable about one simulated parallel compilation.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of evaluator machines (regions targeted by the splitter).
    pub machines: usize,
    /// Combined or purely dynamic evaluation.
    pub mode: MachineMode,
    /// Result propagation strategy (§4.2 ablation).
    pub result: ResultPropagation,
    /// Network model.
    pub net: NetModel,
    /// CPU cost model.
    pub cost: CostModel,
    /// Split-granularity scale (the paper's runtime argument).
    pub min_size_scale: f64,
    /// Attribute-name → phase label mapping for the activity trace.
    pub classifier: PhaseClassifier,
}

impl SimConfig {
    /// Paper-like defaults for `machines` machines with the combined
    /// evaluator.
    pub fn paper(machines: usize) -> Self {
        SimConfig {
            machines,
            mode: MachineMode::Combined,
            result: ResultPropagation::Librarian,
            net: NetModel::lan_1987(),
            cost: CostModel::sun2(),
            min_size_scale: 1.0,
            classifier: super::phase_classifier(vec![
                ("stab", "symbol table"),
                ("env", "symbol table"),
                ("decl", "symbol table"),
                ("code", "code generation"),
            ]),
        }
    }
}

/// Result of one simulated parallel compilation.
pub struct SimReport<V> {
    /// The paper's running-time measure: "from the time the parser
    /// initiates evaluation until it receives back the root attributes".
    pub eval_time: Time,
    /// Parser time (reported separately, as in §4.1).
    pub parse_time: Time,
    /// Number of regions actually produced.
    pub regions: usize,
    /// Per-machine statistics.
    pub per_machine: Vec<EvalStats>,
    /// Aggregated statistics.
    pub stats: EvalStats,
    /// The activity/message trace (Figure 6).
    pub trace: Trace,
    /// Process names aligned with the trace.
    pub names: Vec<String>,
    /// Root attribute values.
    pub root_values: Vec<(AttrId, V)>,
    /// The decomposition rendered in Figure-7 style.
    pub decomposition: String,
}

impl<V> SimReport<V> {
    /// The evaluation time in seconds.
    pub fn eval_secs(&self) -> f64 {
        secs(self.eval_time)
    }

    /// Renders the Figure-6 activity chart.
    pub fn render_gantt(&self, width: usize) -> String {
        self.trace.render_gantt(&self.names, width)
    }
}

/// Result of one simulated stream of compilations ([`run_sim_stream`]).
/// Per-tree vectors are in submission order.
pub struct BatchSimReport<V> {
    /// A batch's evaluation makespan — from the parser initiating the
    /// first tree's evaluation until the last tree's root attributes
    /// are resolved; with [`Arrivals`], the final virtual time (last
    /// completion or shed decision).
    pub makespan: Time,
    /// Per-tree completion times, measured from the start of
    /// evaluation (`parse_time`; virtual time 0 with [`Arrivals`], where
    /// each request is parsed as it arrives). 0 for a shed request.
    pub finish_times: Vec<Time>,
    /// Parser time for a pre-parsed batch (reported separately, §4.1).
    pub parse_time: Time,
    /// Regions each tree was decomposed into.
    pub regions: Vec<usize>,
    /// The decompositions themselves.
    pub decompositions: Vec<Arc<Decomposition>>,
    /// Aggregated statistics over every tree and machine.
    pub stats: EvalStats,
    /// Per-evaluator statistics accumulated across the stream.
    pub per_machine: Vec<EvalStats>,
    /// The activity/message trace.
    pub trace: Trace,
    /// Process names aligned with the trace.
    pub names: Vec<String>,
    /// Per-tree root attribute values (empty for a shed request).
    pub root_values: Vec<Vec<(AttrId, V)>>,
    /// Scheduler telemetry for the run: local and remote boundary
    /// sends.
    pub sched: SchedCounters,
    /// Crash/re-execution/duplicate-suppression telemetry (all zeros
    /// when the [`FaultPlan`] is empty).
    pub faults: FaultCounters,
    /// Absolute arrival time of each tree (0 for a pre-parsed batch).
    pub arrivals: Vec<Time>,
    /// When the parser admitted each tree (a batch: when parsing
    /// ended); `None` for a shed request.
    pub admitted: Vec<Option<Time>>,
    /// When each tree's region jobs were shipped.
    pub dispatched: Vec<Option<Time>>,
    /// Which requests admission control shed (never, for a batch).
    pub shed: Vec<bool>,
}

impl<V> BatchSimReport<V> {
    /// End-to-end latency (arrival → roots resolved) of tree `i`,
    /// `None` if it was shed.
    pub fn latency(&self, i: usize) -> Option<Time> {
        (!self.shed[i]).then(|| self.parse_time + self.finish_times[i] - self.arrivals[i])
    }

    /// Number of requests shed by admission control.
    pub fn shed_count(&self) -> usize {
        self.shed.iter().filter(|&&s| s).count()
    }
}

/// An open-arrival schedule for [`run_sim_stream`]: the service front
/// end of the machine park.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals<'a> {
    /// Absolute virtual arrival time of each tree, µs: one per tree,
    /// index-aligned, sorted (ticket order is arrival order).
    pub times: &'a [Time],
    /// Bounded waiting room: an arrival finding this many requests
    /// waiting is shed.
    pub queue_capacity: usize,
}

/// Why [`run_sim_stream`] refused its input, or why its evaluation
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No tree to evaluate.
    EmptyStream,
    /// [`Arrivals::times`] is not one arrival time per tree.
    RequestCountMismatch {
        /// Trees given.
        trees: usize,
        /// Requests given.
        requests: usize,
    },
    /// [`Arrivals::times`] is not sorted.
    UnsortedArrivals,
    /// The [`FaultPlan`] crashes a process that is not an evaluator
    /// machine: the parser and the librarian are not replicated.
    CrashTargetNotEvaluator {
        /// The process the plan crashes.
        proc: usize,
        /// Evaluator machines are processes `1..=machines`.
        machines: usize,
    },
    /// A tree's evaluation failed: a dependency cycle local to a
    /// region, a panicking semantic rule or a plan inconsistency.
    Eval(EvalError),
    /// At the parser's final read of tree `ticket`, its root values
    /// reference a run of code text the librarian never received (a
    /// `code-segment` message was lost), so the code cannot be
    /// reassembled.
    LostCodeSegment {
        /// The tree.
        ticket: usize,
        /// The region whose job registered the run.
        region: RegionId,
        /// Which of that job's registrations it was.
        index: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyStream => write!(f, "a stream must contain at least one tree"),
            SimError::RequestCountMismatch { trees, requests } => write!(
                f,
                "one request per tree, index-aligned: {trees} trees, {requests} requests"
            ),
            SimError::UnsortedArrivals => write!(
                f,
                "requests must be sorted by arrival time (ticket order is arrival order)"
            ),
            SimError::CrashTargetNotEvaluator { proc, machines } => write!(
                f,
                "fault plan crashes p{proc}, which is not an evaluator machine \
                 (valid targets: 1..={machines})"
            ),
            SimError::Eval(e) => write!(f, "simulated parallel evaluation failed: {e}"),
            SimError::LostCodeSegment {
                ticket,
                region,
                index,
            } => write!(
                f,
                "tree {ticket}'s code references registration {index} of region {region}, \
                 which never reached the librarian"
            ),
        }
    }
}

impl std::error::Error for SimError {}

enum SimMsg<V> {
    /// The parser pushes a region's linearized subtree to its home
    /// machine.
    Subtree {
        ticket: usize,
        region: RegionId,
    },
    /// A boundary value for job `key` (an evaluator machine hosts
    /// several regions under region-granular scheduling), and its
    /// accounted wire size, which a forward keeps.
    Attr {
        key: JobKey,
        node: NodeId,
        attr: AttrId,
        value: V,
        bytes: usize,
    },
    /// A root attribute value, sent to the parser as it is computed,
    /// with the librarian runs it references.
    Root {
        ticket: usize,
        attr: AttrId,
        value: V,
        refs: Vec<RunId>,
    },
    /// Split-phase registration of a run of code text: streams in
    /// during evaluation.
    Register {
        ticket: usize,
        id: RunId,
        len: usize,
    },
    /// A region job finished (the pool's `Done`); the parser retires a
    /// ticket — freeing its window slot — only after every region
    /// reports. A job that failed carries its error, which fails the
    /// run.
    Done {
        ticket: usize,
        failed: Option<EvalError>,
    },
    /// The parser's final read for one ticket, naming the runs its
    /// root values reference.
    Resolve {
        ticket: usize,
        refs: Vec<RunId>,
    },
    Resolved {
        ticket: usize,
    },
    /// Open arrivals only: a [`Ctx::wake_at`] alarm telling the parser
    /// that request `ticket` just arrived. Evaluators and the librarian
    /// never see it.
    Arrive {
        ticket: usize,
    },
    /// Region jobs were reseeded by crash recovery — every live
    /// evaluator gets one so the machines they landed on can claim them
    /// (mirrors the live pool's `WorkerMsg::Wake`). Also an evaluator's
    /// zero-cost self-alarm between claims.
    Wake,
}

/// The parser is the first process of every run.
const PARSER: ProcId = ProcId(0);

/// What every process of a run can reach: the immutable inputs and
/// configuration, and one lock around everything mutable. The event
/// simulation is single-threaded, so the mutex is really a stand-in for
/// "state outside any one machine" — the scheduler board every machine
/// can reach (which, like the live pool parser's retained state,
/// survives an evaluator crash) and the run's outputs.
struct Shared<V: AttrValue> {
    trees: Vec<Arc<ParseTree<V>>>,
    decomps: Vec<Arc<Decomposition>>,
    plan: Arc<EvalPlan<V>>,
    cost: CostModel,
    result: ResultPropagation,
    classifier: PhaseClassifier,
    depth: usize,
    /// Evaluator machine park size. Process 0 is the parser, machine
    /// `w` process `1 + w`, the librarian process `1 + park`.
    park: usize,
    /// Whether placement rotates by ticket (adaptive granularity:
    /// decompositions are machine-agnostic, and the rotation spreads
    /// consecutive trees' low-numbered regions over the whole park),
    /// or keeps the paper's region k on machine k (fixed-count
    /// granularity).
    rotate: bool,
    /// Network model copy, for charging a claimed job's subtree fetch.
    net: NetModel,
    expected_roots: Vec<usize>,
    state: Mutex<State<V>>,
}

struct State<V> {
    /// The scheduler board; a job's payload is the wire size of its
    /// linearized subtree, charged to whoever claims it (a pushed
    /// subtree was paid for on the wire).
    board: Board<V, usize>,
    eval_start: Time,
    /// How each ticket ended: retired at a time, or failed.
    finish: Vec<Option<Result<Time, SimError>>>,
    admitted: Vec<Option<Time>>,
    dispatched: Vec<Option<Time>>,
    shed: Vec<bool>,
    roots: Vec<Vec<(AttrId, V)>>,
    /// The librarian runs each ticket's accepted root values reference.
    root_refs: Vec<Vec<RunId>>,
    /// Librarian propagation only: each ticket's registered runs, from
    /// its first registration until its final read.
    registries: HashMap<usize, Registry>,
    per_machine: Vec<EvalStats>,
}

impl<V: AttrValue> Shared<V> {
    fn state(&self) -> MutexGuard<'_, State<V>> {
        self.state.lock().expect("sim state lock")
    }

    fn librarian(&self) -> ProcId {
        ProcId(1 + self.park)
    }

    /// Sends a wake to every live evaluator.
    fn wake_park(&self, ctx: &mut Ctx<SimMsg<V>>) {
        let live: Vec<usize> = self.state().board.live().collect();
        for w in live {
            ctx.send(ProcId(1 + w), SimMsg::Wake, 16, "wake");
        }
    }
}

/// Approximate linearized wire size of a region's local nodes.
fn region_wire_size<V: AttrValue>(
    tree: &ParseTree<V>,
    decomp: &Decomposition,
    region: RegionId,
) -> usize {
    let mut bytes = 0;
    let mut stack = vec![decomp.regions[region as usize].root];
    while let Some(n) = stack.pop() {
        bytes += 8;
        for c in tree.children(n) {
            match *c {
                Child::Node(c) if decomp.region(c) == region => stack.push(c),
                Child::Node(_) => bytes += 8, // remote-leaf marker
                Child::Token(span) => {
                    bytes += tree
                        .token(span)
                        .iter()
                        .map(|v| v.wire_size())
                        .sum::<usize>()
                }
            }
        }
    }
    bytes
}

/// The parser role: admits trees, dispatches them into the pipeline
/// window, collects root attributes and region completions, and
/// retires tickets strictly in dispatch order, which is arrival order,
/// as the pool does.
struct ParserProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
    /// The open-arrival schedule, one time per tree: each request is
    /// parsed when its alarm fires and admission-checked against the
    /// bounded waiting room. `None` for a pre-parsed batch — every tree
    /// is there at the start and admitted, which is the only way the
    /// two differ.
    arrivals: Option<Vec<Time>>,
    /// Waiting-room bound: an arrival finding this many trees waiting
    /// is shed.
    capacity: usize,
    /// Admitted trees waiting for a window slot, in arrival order (a
    /// batch: submission order).
    waiting: PolicyQueue,
    /// Trees that have arrived (a batch: all of them, at the start).
    seen: usize,
    /// Trees admitted (seen and not shed).
    admitted: usize,
    /// Dispatched, unretired tickets in dispatch order.
    window: VecDeque<usize>,
    /// Whether a Resolve for the window's front is outstanding.
    resolving: bool,
    /// Per-ticket count of regions whose machines have reported done
    /// (the pool retires — and frees a window slot — only then).
    region_dones: Vec<usize>,
    finished: usize,
}

impl<V: AttrValue> ParserProc<V> {
    /// Admits a parsed tree into the waiting room.
    fn admit(&mut self, ctx: &mut Ctx<SimMsg<V>>, ticket: usize) {
        self.shared.state().admitted[ticket] = Some(ctx.now());
        self.admitted += 1;
        self.waiting.push(QueuedJob {
            seq: ticket as u64,
            tenant: 0,
            work: 0,
        });
    }

    /// Fills free window slots from the waiting room, in arrival order.
    fn dispatch(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        while self.window.len() < self.shared.depth {
            let Some(job) = self.waiting.pop() else { break };
            let ticket = job.seq as usize;
            self.shared.state().dispatched[ticket] = Some(ctx.now());
            self.ship(ctx, ticket);
            self.window.push_back(ticket);
        }
    }

    /// Ships one ticket's region subtrees to the evaluator park: seeds
    /// its jobs on the board, then sends each region's linearized
    /// subtree straight to the home the board seeded it on, whose
    /// arrival takes the job.
    fn ship(&self, ctx: &mut Ctx<SimMsg<V>>, ticket: usize) {
        let sh = &self.shared;
        ctx.phase("ship subtrees");
        let (tree, decomp) = (&sh.trees[ticket], &sh.decomps[ticket]);
        let work: Vec<u64> = sh
            .plan
            .region_works(tree, decomp)
            .into_iter()
            .map(|w| w.max(1))
            .collect();
        let bytes: Vec<usize> = (0..decomp.len() as RegionId)
            .map(|r| region_wire_size(tree, decomp, r))
            .collect();
        let homes = sh.state().board.seed(
            ticket as Ticket,
            if sh.rotate { ticket } else { 0 },
            &work,
            |r| bytes[r as usize],
        );
        for (r, &home) in homes.iter().enumerate() {
            ctx.spend(decomp.regions[r].local_size as Time * sh.cost.ship_node_us);
            let region = r as RegionId;
            ctx.send(
                ProcId(1 + home),
                SimMsg::Subtree { ticket, region },
                bytes[r],
                "subtree",
            );
        }
    }

    /// Resolves (or directly finishes, in naive mode) the window's
    /// front ticket once its roots are complete and its regions have
    /// all reported done — only then does the pool retire a tree and
    /// free its window slot — and keeps going while the next front is
    /// complete too.
    fn advance(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        while !self.resolving {
            let Some(&ticket) = self.window.front() else {
                return;
            };
            let complete = sh.state().roots[ticket].len() == sh.expected_roots[ticket]
                && self.region_dones[ticket] == sh.decomps[ticket].len();
            if !complete {
                return;
            }
            match sh.result {
                ResultPropagation::Librarian => {
                    ctx.phase("result propagation");
                    let refs = std::mem::take(&mut sh.state().root_refs[ticket]);
                    let msg = SimMsg::Resolve { ticket, refs };
                    ctx.send(sh.librarian(), msg, 64, "resolve");
                    self.resolving = true;
                }
                ResultPropagation::Naive => self.finish_ticket(ctx, ticket),
            }
        }
    }

    fn finish_ticket(&mut self, ctx: &mut Ctx<SimMsg<V>>, ticket: usize) {
        self.shared.state().finish[ticket] = Some(Ok(ctx.now()));
        self.finished += 1;
        debug_assert_eq!(self.window.front(), Some(&ticket));
        self.window.pop_front();
        self.resolving = false;
        // Retirement freed a window slot.
        self.dispatch(ctx);
        self.maybe_stop(ctx);
    }

    fn maybe_stop(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        if self.seen == self.shared.trees.len() && self.finished == self.admitted {
            ctx.stop();
        }
    }
}

impl<V: AttrValue> Process<SimMsg<V>> for ParserProc<V> {
    fn on_start(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        match &self.arrivals {
            None => {
                ctx.phase("parse");
                let nodes: usize = sh.trees.iter().map(|t| t.len()).sum();
                ctx.spend(nodes as Time * sh.cost.parse_node_us);
                sh.state().eval_start = ctx.now();
                self.seen = sh.trees.len();
                for ticket in 0..sh.trees.len() {
                    self.admit(ctx, ticket);
                }
                self.dispatch(ctx);
                // Degenerate trees with no root attributes complete at once.
                self.advance(ctx);
            }
            // The whole arrival schedule becomes alarms; each request
            // is parsed (and admission-checked) only when it arrives.
            Some(arrivals) => {
                for (ticket, &at) in arrivals.iter().enumerate() {
                    ctx.wake_at(at, SimMsg::Arrive { ticket });
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, _from: ProcId, msg: SimMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            SimMsg::Arrive { ticket } => {
                self.seen += 1;
                // Front-end parse of the arriving source.
                ctx.phase("parse");
                ctx.spend(sh.trees[ticket].len() as Time * sh.cost.parse_node_us);
                if self.waiting.len() >= self.capacity {
                    // Backpressure: bounded waiting room, arrival shed.
                    sh.state().shed[ticket] = true;
                } else {
                    self.admit(ctx, ticket);
                    self.dispatch(ctx);
                }
                self.maybe_stop(ctx);
            }
            SimMsg::Root {
                ticket,
                attr,
                value,
                refs,
            } => {
                ctx.phase("result propagation");
                {
                    // A re-executed root region re-sends its roots;
                    // each root attribute is unique per ticket, so
                    // presence is the idempotency key (the pool's
                    // exact rule).
                    let mut st = sh.state();
                    if st.roots[ticket].iter().any(|(a, _)| *a == attr) {
                        st.board.count_duplicate();
                        return;
                    }
                    st.roots[ticket].push((attr, value));
                    st.root_refs[ticket].extend(refs);
                }
                self.advance(ctx);
            }
            SimMsg::Done {
                ticket,
                failed: None,
            } => {
                self.region_dones[ticket] += 1;
                self.advance(ctx);
            }
            SimMsg::Done {
                ticket,
                failed: Some(e),
            } => {
                sh.state().finish[ticket] = Some(Err(SimError::Eval(e)));
                ctx.stop();
            }
            SimMsg::Resolved { ticket } => {
                self.finish_ticket(ctx, ticket);
                self.advance(ctx);
            }
            _ => {}
        }
    }

    /// The failure detector's crash oracle — the sim counterpart of
    /// the pool's `WorkerPool::kill_worker`: the board
    /// reseeds the dead machine's jobs onto the survivors
    /// ([`Board::crash`]) and a wake lets them claim. Only evaluator
    /// machines are recoverable; [`run_sim_stream`] rejects every other
    /// crash up front.
    fn on_peer_crash(&mut self, ctx: &mut Ctx<SimMsg<V>>, peer: ProcId) {
        let sh = &self.shared;
        let victim = peer.0.checked_sub(1).filter(|&w| w < sh.park);
        if victim.is_some_and(|v| sh.state().board.crash(v)) {
            sh.wake_park(ctx);
        }
    }
}

/// A simulated evaluator machine: the worker core the live pool's
/// threads run, driven from netsim handlers.
struct EvaluatorProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
    /// This machine's index in the park.
    evaluator: usize,
    /// Its region jobs, multiplexed oldest-first exactly like a pool
    /// worker's: a starved older machine yields the (virtual) CPU to
    /// the next job's machine instead of idling.
    core: WorkerCore<V>,
}

/// What the worker core asks of a simulated evaluator, carried out in
/// virtual time: CPU charged from the cost model under its
/// activity-trace phase (and serialized on this process by
/// `ctx.spend`), and every value a wire message.
struct SimDriver<'a, V: AttrValue> {
    ctx: &'a mut Ctx<SimMsg<V>>,
    sh: &'a Shared<V>,
    me: usize,
}

impl<V: AttrValue> SimDriver<'_, V> {
    /// Activates a job this machine took or claimed: the parser shipped
    /// its region of the tree, so its decomposition comes along.
    fn start(&mut self, core: &mut WorkerCore<V>, job: Claimed<V, usize>) {
        let t = job.key.0 as usize;
        if self.sh.result == ResultPropagation::Librarian {
            // Run ids count registrations from the job's activation.
            let mut st = self.sh.state();
            st.registries.entry(t).or_default().next.remove(&job.key.1);
        }
        let tree = Arc::clone(&self.sh.trees[t]);
        let cut = Cut::Regions(Arc::clone(&self.sh.decomps[t]), Arc::default());
        core.activate(self, job.key, tree, cut, job.early);
    }

    /// Puts boundary value `value` for job `key`, `bytes` on the wire,
    /// to machine `w`.
    fn ship(&mut self, w: usize, key: JobKey, node: NodeId, attr: AttrId, value: V, bytes: usize) {
        let msg = SimMsg::Attr {
            key,
            node,
            attr,
            value,
            bytes,
        };
        self.ctx.send(ProcId(1 + w), msg, bytes, "attr");
    }

    /// Prices `value`, sent by job `from` towards region `to` (`None`:
    /// the parser), as the string librarian puts it on the wire, and
    /// sends the registrations that go ahead of it (see the module
    /// docs). Naive propagation ships every value whole.
    fn account(&mut self, from: JobKey, to: Option<RegionId>, value: &V) -> Priced {
        if self.sh.result == ResultPropagation::Naive {
            return Priced {
                bytes: value.wire_size(),
                refs: Vec::new(),
            };
        }
        let ticket = from.0 as usize;
        let upward = match to {
            None => true,
            Some(q) => self.sh.decomps[ticket].regions[from.1 as usize].parent == Some(q),
        };
        let (priced, registered) = {
            let mut st = self.sh.state();
            let registry = st.registries.entry(ticket).or_default();
            let (priced, registered) = registry.price(from.1, value, upward);
            if let Some(q) = to.filter(|_| !priced.refs.is_empty()) {
                registry.referenced.insert(q);
            }
            (priced, registered)
        };
        for (id, len) in registered {
            self.ctx.phase("result propagation");
            let msg = SimMsg::Register { ticket, id, len };
            self.ctx
                .send(self.sh.librarian(), msg, 8 + len, "code-segment");
        }
        priced
    }

    /// The recovery claim, on a wake or a restart, mirroring the live
    /// worker's drain → claim → block cycle: drives, claims at most ONE
    /// pending job, drives it, and — if a job was claimed — chains a
    /// zero-cost self-wake to look for the next one. The live worker
    /// claims one job per loop iteration with a channel drain in
    /// between, so peers' events interleave with the claims here too.
    fn claim_and_drive(&mut self, core: &mut WorkerCore<V>) {
        core.drive(self);
        if let Some(job) = self.claim() {
            self.start(core, job);
            core.drive(self);
            let now = self.ctx.now();
            self.ctx.wake_at(now, SimMsg::Wake);
        }
    }

    /// Claims the front of this machine's deque from the board and
    /// charges the fetch of its linearized subtree (a point-to-point
    /// pull at bus rate: the parser pushed it to the job's old home).
    fn claim(&mut self) -> Option<Claimed<V, usize>> {
        let claimed = self.sh.state().board.claim(self.me)?;
        self.ctx.phase("ship subtrees");
        self.ctx.spend(self.sh.net.tx_time(claimed.payload));
        Some(claimed)
    }
}

impl<V: AttrValue> Driver<V> for SimDriver<'_, V> {
    /// Handlers are atomic: nothing can arrive mid-pass to preempt.
    const YIELD_STEPS: usize = usize::MAX;

    /// The rebuild of the shipped subtree and the dependency graph.
    fn charge_build(&mut self, machine: &Machine<V>) {
        let cost = &self.sh.cost;
        let (gn, ge) = machine.graph_size();
        self.ctx.phase("build");
        self.ctx.spend(
            machine.local_nodes() as Time * cost.ship_node_us
                + gn as Time * cost.graph_node_us
                + ge as Time * cost.graph_edge_us,
        );
    }

    fn charge_step(&mut self, outcome: &StepOutcome<V>) {
        let (sh, cost) = (self.sh, &self.sh.cost);
        let label = classify(sh.plan.grammar(), &sh.classifier, outcome.target);
        self.ctx.phase(label);
        self.ctx.spend(
            outcome.cost_units * cost.rule_unit_us
                + outcome.dynamic_rules as Time * cost.dynamic_rule_us
                + outcome.static_rules as Time * cost.static_rule_us,
        );
    }

    /// Registers with the librarian what the value makes it hold, then
    /// routes via the board: the job may have been reseeded by a
    /// crash. The board logs the value at send time — so a crash
    /// cannot lose values still on the wire — and says when nothing is
    /// to be sent (the job finished; a re-executed producer replaying
    /// its sends).
    fn send(&mut self, from: JobKey, to: JobKey, node: NodeId, attr: AttrId, value: V) {
        let bytes = self.account(from, Some(to.1), &value).bytes;
        let routed = self.sh.state().board.route(self.me, to, node, attr, &value);
        if let Some(w) = routed {
            self.ship(w, to, node, attr, value, bytes);
        }
    }

    fn root(&mut self, from: JobKey, attr: AttrId, value: V) -> Option<V> {
        let Priced { bytes, refs } = self.account(from, None, &value);
        let msg = SimMsg::Root {
            ticket: from.0 as usize,
            attr,
            value,
            refs,
        };
        self.ctx.send(PARSER, msg, bytes, "attr");
        None
    }

    fn retire(&mut self, key: JobKey) -> bool {
        self.sh.state().board.retire(self.me, key)
    }

    fn done(&mut self, (ticket, _): JobKey, result: Result<JobResult<V>, EvalError>) {
        let failed = match result {
            Ok((stats, _)) => {
                self.sh.state().per_machine[self.me] += stats;
                None
            }
            Err(e) => Some(e),
        };
        let ticket = ticket as usize;
        self.ctx
            .send(PARSER, SimMsg::Done { ticket, failed }, 16, "done");
    }
}

impl<V: AttrValue> Process<SimMsg<V>> for EvaluatorProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, _from: ProcId, msg: SimMsg<V>) {
        let sh = Arc::clone(&self.shared);
        let me = self.evaluator;
        let mut d = SimDriver { ctx, sh: &sh, me };
        match msg {
            SimMsg::Subtree { ticket, region } => {
                // The parser pushed this region here: take exactly that
                // job, with the values the board attached while the
                // subtree was on the wire — unless crash recovery moved
                // it, or a claim already took it.
                let taken = sh.state().board.take(me, (ticket as Ticket, region));
                if let Some(job) = taken {
                    d.start(&mut self.core, job);
                    self.core.drive(&mut d);
                }
            }
            SimMsg::Attr {
                key,
                node,
                attr,
                value,
                bytes,
            } => {
                // The sender routed by the board, but the job may have
                // moved (or finished) while the message was on the wire.
                let delivery = sh.state().board.deliver(me, key, node, attr, value);
                match delivery {
                    Delivery::Mine(value) => self.core.feed(key, node, attr, value),
                    Delivery::Stored => {}
                    Delivery::Forward(w, value) => return d.ship(w, key, node, attr, value, bytes),
                    Delivery::Dropped => return,
                }
                // A job queued here waits for its pushed subtree, not for
                // a claim: only a crash's wake makes the park claim.
                self.core.drive(&mut d);
            }
            SimMsg::Wake => d.claim_and_drive(&mut self.core),
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // Volatile state dies with the machine: its running region
        // machines are lost. The recovery substrate — the scheduler
        // board, early values included — survives; it is the sim's
        // stable storage, mirroring the retained parser-side state of
        // the live pool.
        self.core.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        sh.state().board.restart(self.evaluator);
        // Rejoin the park: claim like any idle machine.
        let mut d = SimDriver {
            ctx,
            sh: &sh,
            me: self.evaluator,
        };
        d.claim_and_drive(&mut self.core);
    }
}

/// Text stretches shorter than this ride inline in the value that
/// carries them; cheaper to carry than to indirect.
const LIBRARIAN_THRESHOLD: usize = 256;

/// Bytes a reference to librarian-held text takes on the wire: a tag
/// and a 64-bit id.
const REF_BYTES: usize = 9;

/// A run's id: the region whose job registered it, and how many
/// registrations that job had made since its activation — so a
/// re-executed job re-registers under the same ids.
type RunId = (RegionId, u32);

/// A value's accounted wire size, and the runs it references.
struct Priced {
    bytes: usize,
    refs: Vec<RunId>,
}

/// A run of code text a job registered with the librarian: the rope
/// nodes it was made of, in order. Holding them keeps their addresses
/// from being reused while the ticket lives.
struct Run {
    id: RunId,
    members: Vec<Rope>,
}

/// A stretch of a priced value: text, as the nodes that make it up, or
/// one foreign run met as all its members in order.
enum Stretch {
    Text(Vec<Rope>, usize),
    Ref(usize),
}

/// One ticket's librarian accounting (see the module docs).
#[derive(Default)]
struct Registry {
    runs: Vec<Run>,
    /// Node identity → its run (an index into `runs`) and its position
    /// among the run's members.
    registered: HashMap<usize, (usize, usize)>,
    /// Concatenation node identity → whether a registered node lies at
    /// or below it, beside the node it describes.
    holds: HashMap<usize, (Rope, bool)>,
    /// Regions whose jobs have been sent a reference: only they can
    /// meet a run they did not register.
    referenced: HashSet<RegionId>,
    /// Registrations each region's job has made since its activation.
    next: HashMap<RegionId, u32>,
}

impl Registry {
    /// Prices `value`, sent by `region`'s job — towards the tree root
    /// if `upward` — and registers the runs it makes: a foreign run
    /// costs a reference, and so does, upward, each text stretch of
    /// [`LIBRARIAN_THRESHOLD`] bytes or more, which becomes a new run
    /// owned by `region`. Returns the price and the new runs' ids and
    /// lengths, in order.
    fn price<V: AttrValue>(
        &mut self,
        region: RegionId,
        value: &V,
        upward: bool,
    ) -> (Priced, Vec<(RunId, usize)>) {
        let mut priced = Priced {
            bytes: value.wire_size(),
            refs: Vec::new(),
        };
        let mut registered = Vec::new();
        let Some(rope) = value.librarian_text().filter(|r| !r.is_empty()) else {
            return (priced, registered);
        };
        priced.bytes -= rope.len();
        // A job never sent a reference has none to see: its whole value
        // is one stretch of text.
        let stretches = if self.referenced.contains(&region) {
            self.stretches(region, rope)
        } else {
            vec![Stretch::Text(vec![rope.clone()], rope.len())]
        };
        for stretch in stretches {
            match stretch {
                Stretch::Ref(run) => priced.refs.push(self.runs[run].id),
                Stretch::Text(_, len) if !upward || len < LIBRARIAN_THRESHOLD => {
                    priced.bytes += len;
                    continue;
                }
                Stretch::Text(members, len) => {
                    let next = self.next.entry(region).or_default();
                    let id = (region, *next);
                    *next += 1;
                    let run = self.runs.len();
                    for (pos, member) in members.iter().enumerate() {
                        let before = self.registered.insert(member.node_id(), (run, pos));
                        debug_assert!(before.is_none(), "no node is registered twice");
                    }
                    self.runs.push(Run { id, members });
                    priced.refs.push(id);
                    registered.push((id, len));
                }
            }
            priced.bytes += REF_BYTES;
        }
        (priced, registered)
    }

    /// `rope` as `region`'s job sees it: text, and runs other jobs
    /// registered. The walk descends only into nodes that hold a
    /// registered node and takes every other node whole.
    fn stretches(&mut self, region: RegionId, rope: &Rope) -> Vec<Stretch> {
        let mut out: Vec<Stretch> = Vec::new();
        // The foreign run being met, and its next member.
        let mut meeting: Option<(usize, usize)> = None;
        let mut stack = vec![rope.clone()];
        while let Some(node) = stack.pop() {
            if let Some(&(run, pos)) = self.registered.get(&node.node_id()) {
                let members = self.runs[run].members.len();
                if self.runs[run].id.0 != region {
                    // Rules only concatenate: a run's members are met
                    // contiguously and in order.
                    if pos == 0 {
                        debug_assert!(meeting.is_none(), "a run is met whole");
                        out.push(Stretch::Ref(run));
                    } else {
                        debug_assert_eq!(meeting, Some((run, pos)), "a run is met in order");
                    }
                    meeting = (pos + 1 < members).then_some((run, pos + 1));
                    continue;
                }
            } else if let Some((left, right)) = self.holds(&node).then(|| node.halves()).flatten() {
                stack.push(right);
                stack.push(left);
                continue;
            }
            debug_assert!(meeting.is_none(), "a run is met whole");
            match out.last_mut() {
                Some(Stretch::Text(members, len)) => {
                    *len += node.len();
                    members.push(node);
                }
                _ => {
                    let len = node.len();
                    out.push(Stretch::Text(vec![node], len));
                }
            }
        }
        debug_assert!(meeting.is_none(), "a run is met whole");
        out
    }

    /// Whether a registered node lies at or below `node`, cached per
    /// concatenation node (post-order, on explicit stacks: ropes are as
    /// deep as the statement lists that built them).
    fn holds(&mut self, node: &Rope) -> bool {
        let mut todo = vec![(node.clone(), false)];
        // One answer per subtree finished, a left half's below its right's.
        let mut done: Vec<bool> = Vec::new();
        while let Some((n, expanded)) = todo.pop() {
            if expanded {
                let (right, left) = (done.pop(), done.pop());
                let below = left == Some(true) || right == Some(true);
                self.holds.insert(n.node_id(), (n, below));
                done.push(below);
            } else if let Some(known) = self.known(&n) {
                done.push(known);
            } else if let Some((left, right)) = n.halves() {
                todo.push((n, true));
                todo.push((right, false));
                todo.push((left, false));
            }
        }
        done.pop() == Some(true)
    }

    /// What is known of whether a registered node lies at or below `n`.
    fn known(&self, n: &Rope) -> Option<bool> {
        let id = n.node_id();
        if self.registered.contains_key(&id) {
            Some(true)
        } else if n.depth() == 0 {
            // A leaf (or the empty rope).
            Some(false)
        } else {
            self.holds.get(&id).map(|&(_, below)| below)
        }
    }
}

/// The string librarian process: registrations stream in from every
/// evaluator, any ticket in any order; the parser's final read of a
/// tree charges the combination of that ticket's text and checks that
/// every run its root values reference arrived. Its machines share
/// nothing, so the librarian cannot know a ticket before a
/// registration names it.
struct LibrarianProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
    /// Per ticket, each run received and its length; a re-executed
    /// job's registration replaces its earlier self.
    received: HashMap<usize, HashMap<RunId, usize>>,
}

impl<V: AttrValue> Process<SimMsg<V>> for LibrarianProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, from: ProcId, msg: SimMsg<V>) {
        let sh = &self.shared;
        match msg {
            SimMsg::Register { ticket, id, len } => {
                ctx.phase("receive code");
                ctx.spend((len as Time).div_ceil(1024) * sh.cost.resolve_kb_us / 10);
                self.received.entry(ticket).or_default().insert(id, len);
            }
            SimMsg::Resolve { ticket, refs } => {
                ctx.phase("combine code");
                let runs = self.received.remove(&ticket).unwrap_or_default();
                let total: usize = runs.values().sum();
                ctx.spend((total as Time).div_ceil(1024) * sh.cost.resolve_kb_us);
                let mut st = sh.state();
                st.registries.remove(&ticket);
                if let Some(&(region, index)) = refs.iter().find(|id| !runs.contains_key(id)) {
                    st.finish[ticket] = Some(Err(SimError::LostCodeSegment {
                        ticket,
                        region,
                        index,
                    }));
                    return ctx.stop();
                }
                drop(st);
                ctx.send(from, SimMsg::Resolved { ticket }, 64, "resolved");
            }
            _ => {}
        }
    }
}

/// Runs one simulated parallel compilation of `tree` — the paper's
/// experiment: a [`run_sim_stream`] of this one tree at depth 1,
/// decomposed into (at most) `config.machines` regions, one per
/// evaluator machine. The reported `eval_time` is that stream's
/// makespan.
///
/// `plans` must be `Some` for [`MachineMode::Combined`].
///
/// # Panics
///
/// Panics if evaluation fails (cycle or plan inconsistency) or if the
/// protocol deadlocks — validate the grammar with the sequential
/// evaluators first.
pub fn run_sim<V: AttrValue>(
    tree: &Arc<ParseTree<V>>,
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
) -> SimReport<V> {
    let mut r = run_sim_batch(std::slice::from_ref(tree), plans, config, 1);
    SimReport {
        eval_time: r.makespan,
        parse_time: r.parse_time,
        regions: r.regions[0],
        per_machine: r.per_machine,
        stats: r.stats,
        trace: r.trace,
        names: r.names,
        root_values: r.root_values.swap_remove(0),
        decomposition: r.decompositions[0].render(tree),
    }
}

/// Runs one simulated *batched* parallel compilation: a
/// [`run_sim_stream`] of the pre-parsed `trees`, each decomposed into
/// (at most) `config.machines` regions — the whole-tree-ticketing
/// schedule — with no faults injected. Depth 1 reproduces the strict
/// one-tree-at-a-time barrier; depth ≥ 2 lets tree N+1's subtrees ship
/// (and its machines start) while tree N's stragglers drain.
///
/// All trees must share one grammar; `plans` must be `Some` for
/// [`MachineMode::Combined`].
///
/// # Panics
///
/// Panics if `trees` is empty, if evaluation fails or if the protocol
/// deadlocks — validate the grammar with the sequential evaluators
/// first.
pub fn run_sim_batch<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
) -> BatchSimReport<V> {
    run_sim_stream(
        trees,
        plans,
        config,
        pipeline_depth,
        RegionGranularity::Machines(config.machines),
        &FaultPlan::default(),
        None,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The simulation: `trees` stream through one park of evaluator
/// machines with up to `pipeline_depth` trees in flight, modelling the
/// pool's split-phase/ticket schedule on the paper's simulated network.
///
/// * `granularity` — with [`RegionGranularity::Machines`] each tree is
///   carved into at most that many regions; with
///   [`RegionGranularity::Adaptive`] into budget-sized regions
///   independent of the machine count, each simulated evaluator
///   multiplexing its region jobs oldest-first exactly like a pool
///   worker, so a single huge tree spreads over the whole park in
///   balanced chunks instead of riding one fixed uneven split. The park
///   has one machine per region up to `config.machines`.
/// * `faults` — evaluator crashes, restarts and tagged message
///   drops/delays are injected at their scheduled virtual times, and
///   the recovery protocol (oracle crash detection → region
///   re-execution from input logs → idempotent redelivery) runs inside
///   the simulation: the deterministic counterpart of the pool's
///   `WorkerPool::kill_worker`. Outputs are
///   byte-identical to the fault-free run; [`BatchSimReport::faults`]
///   exposes what recovery did.
/// * `arrivals` — `None` parses the whole batch up front and dispatches
///   it in submission order. `Some` makes the run a *service*:
///   `trees[i]` arrives at `times[i]`, is parsed and admission-checked
///   on arrival — shed if `queue_capacity` requests already wait — and
///   enters the window in arrival order, through the same
///   [`PolicyQueue`] the wall-clock service queue uses. Everything
///   downstream of dispatch is the same schedule either way.
///
/// All trees must share one grammar; `plans` must be `Some` for
/// [`MachineMode::Combined`]. A `pipeline_depth` or queue capacity of 0
/// is read as 1.
///
/// # Errors
///
/// A [`SimError`] for input the run cannot accept: no trees, arrivals
/// that are not one sorted request per tree, or a fault plan that
/// crashes anything but an evaluator machine. [`SimError::Eval`] when
/// evaluation fails: a cycle local to a region, a panicking rule or a
/// plan inconsistency — the first job to fail ends the run.
/// [`SimError::LostCodeSegment`] when a tree's root values reference
/// code text whose registration the fault plan dropped: the librarian
/// finds it missing at that tree's final read, which ends the run.
///
/// # Panics
///
/// Panics if the trees do not share one grammar, or if the protocol
/// deadlocks (a dependency cycle spread over regions does) — validate
/// the grammar with the sequential evaluators first.
pub fn run_sim_stream<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
    granularity: RegionGranularity,
    faults: &FaultPlan,
    arrivals: Option<Arrivals<'_>>,
) -> Result<BatchSimReport<V>, SimError> {
    let Some(first) = trees.first() else {
        return Err(SimError::EmptyStream);
    };
    if let Some(a) = &arrivals {
        if a.times.len() != trees.len() {
            return Err(SimError::RequestCountMismatch {
                trees: trees.len(),
                requests: a.times.len(),
            });
        }
        if !a.times.is_sorted() {
            return Err(SimError::UnsortedArrivals);
        }
    }
    let g = first.grammar();
    assert!(
        trees.iter().all(|t| Arc::ptr_eq(t.grammar(), g)),
        "all trees in a stream share one grammar"
    );
    let table = SplitTable::new(g.as_ref(), config.min_size_scale);
    let work = WorkTable::new(g.as_ref());
    let decomps: Vec<Arc<Decomposition>> = trees
        .iter()
        .map(|t| Arc::new(decompose_granular(t, &table, &work, granularity)))
        .collect();
    // The machine park: one evaluator process per region up to the
    // configured machine count; beyond that, regions share machines.
    let machines = decomps
        .iter()
        .map(|d| d.len())
        .max()
        .expect("at least one tree")
        .min(config.machines.max(1));
    // Only evaluator machines (ProcIds `1..=machines`) are recoverable.
    if let Some(proc) = faults.crash_procs().find(|p| !(1..=machines).contains(p)) {
        return Err(SimError::CrashTargetNotEvaluator { proc, machines });
    }

    let n = trees.len();
    let shared = Arc::new(Shared {
        trees: trees.to_vec(),
        plan: Arc::new(EvalPlan::from_parts(g, plans.cloned(), None)),
        cost: config.cost,
        result: config.result,
        classifier: Arc::clone(&config.classifier),
        depth: pipeline_depth.max(1),
        park: machines,
        rotate: matches!(granularity, RegionGranularity::Adaptive { .. }),
        net: config.net,
        expected_roots: trees
            .iter()
            .map(|t| {
                let root_sym = g.prod(t.node(t.root()).prod).lhs;
                g.symbol(root_sym).attrs_of_kind(AttrKind::Syn).count()
            })
            .collect(),
        state: Mutex::new(State {
            board: Board::new(machines),
            eval_start: 0,
            finish: vec![None; n],
            admitted: vec![None; n],
            dispatched: vec![None; n],
            shed: vec![false; n],
            roots: vec![Vec::new(); n],
            root_refs: vec![Vec::new(); n],
            registries: HashMap::new(),
            per_machine: vec![EvalStats::default(); machines],
        }),
        decomps,
    });

    let mut sim: Sim<SimMsg<V>> = Sim::new(config.net);
    sim.add_process(
        "parser",
        ParserProc {
            shared: Arc::clone(&shared),
            arrivals: arrivals.map(|a| a.times.to_vec()),
            capacity: arrivals.map_or(usize::MAX, |a| a.queue_capacity.max(1)),
            waiting: PolicyQueue::new(DispatchPolicy::Fifo),
            seen: 0,
            admitted: 0,
            window: VecDeque::new(),
            resolving: false,
            region_dones: vec![0; n],
            finished: 0,
        },
    );
    for r in 0..machines {
        let letter = (b'a' + (r % 26) as u8) as char;
        sim.add_process(
            format!("evaluator-{letter}"),
            EvaluatorProc {
                shared: Arc::clone(&shared),
                evaluator: r,
                core: WorkerCore::new(Arc::clone(&shared.plan), config.mode, None),
            },
        );
    }
    sim.add_process(
        "librarian",
        LibrarianProc {
            shared: Arc::clone(&shared),
            received: HashMap::new(),
        },
    );
    sim.set_faults(faults.clone());
    sim.run();

    let mut st = shared.state();
    if let Some(Err(e)) = st.finish.iter().flatten().find(|f| f.is_err()) {
        return Err(e.clone());
    }
    assert!(
        st.finish
            .iter()
            .zip(&st.shed)
            .all(|(f, &s)| s || f.is_some()),
        "simulation ended without all roots resolved (deadlock?)"
    );
    debug_assert!(
        st.board.is_quiescent(),
        "every seeded region job retired by the end of the run"
    );
    let eval_start = st.eval_start;
    let finish_times: Vec<Time> = st
        .finish
        .iter()
        .map(|f| match f {
            Some(Ok(t)) => t - eval_start,
            _ => 0,
        })
        .collect();
    let per_machine = std::mem::take(&mut st.per_machine);
    let mut stats = EvalStats::default();
    for s in &per_machine {
        stats += *s;
    }
    Ok(BatchSimReport {
        makespan: match arrivals {
            Some(_) => sim.now(),
            None => finish_times.iter().copied().max().unwrap_or(0),
        },
        finish_times,
        parse_time: eval_start,
        regions: shared.decomps.iter().map(|d| d.len()).collect(),
        decompositions: shared.decomps.clone(),
        stats,
        per_machine,
        trace: sim.trace().clone(),
        names: sim.names().to_vec(),
        root_values: std::mem::take(&mut st.roots),
        sched: st.board.sched_counters(),
        faults: st.board.fault_counters(),
        arrivals: match arrivals {
            Some(a) => a.times.to_vec(),
            None => vec![0; n],
        },
        admitted: std::mem::take(&mut st.admitted),
        dispatched: std::mem::take(&mut st.dispatched),
        shed: std::mem::take(&mut st.shed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::eval::dynamic_eval;
    use crate::grammar::{Grammar, GrammarBuilder};
    use crate::tree::TreeBuilder;
    use crate::value::Value;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// A mini "compiler" grammar over [`Value`]: decls flow up, env
    /// flows down (symbol table), code (rope) flows up — with splittable
    /// statement lists. The paper's workload in miniature.
    struct Mini {
        tree: Arc<ParseTree<Value>>,
        plans: Arc<Plans>,
        code: AttrId,
    }

    /// A batch of mini trees sharing one grammar/plan set.
    struct MiniBatch {
        trees: Vec<Arc<ParseTree<Value>>>,
        plans: Arc<Plans>,
        code: AttrId,
    }

    /// `n` statements; each statement owns an off-spine "procedure body"
    /// subtree of `depth` costly nodes — the shape that makes parallel
    /// evaluation worthwhile in the paper's workload.
    fn mini_shape(n: usize, depth: usize) -> Mini {
        let mut b = mini_batch(&[(n, depth)]);
        Mini {
            tree: b.trees.remove(0),
            plans: b.plans,
            code: b.code,
        }
    }

    /// Like [`mini_shape`] but building one tree per `(n, depth)` pair,
    /// all over the same grammar (the batched-simulation fixture).
    fn mini_batch(shapes: &[(usize, usize)]) -> MiniBatch {
        let mut g = GrammarBuilder::<Value>::new();
        let s = g.nonterminal("S");
        let l = g.nonterminal("stmts");
        let body = g.nonterminal("body");
        let done_code = g.synthesized(s, "code");
        let decls = g.synthesized(l, "decls");
        let env = g.inherited(l, "env");
        let code = g.synthesized(l, "code");
        let benv = g.inherited(body, "env");
        let bcode = g.synthesized(body, "code");
        g.mark_split(l, 4);
        g.mark_priority(l, env);

        let top = g.production("top", s, [l]);
        g.rule(top, (1, env), [(1, decls)], |a| a[0].clone());
        g.rule(top, (0, done_code), [(1, code)], |a| a[0].clone());

        let cons = g.production("cons", l, [body, l]);
        g.rule(cons, (0, decls), [(2, decls)], |a| {
            Value::Int(a[0].as_int().unwrap() + 1)
        });
        g.rule(cons, (2, env), [(0, env)], |a| a[0].clone());
        g.rule(cons, (1, benv), [(0, env)], |a| a[0].clone());
        g.rule(cons, (0, code), [(1, bcode), (2, code)], |a| {
            a[0].as_rope()
                .unwrap()
                .concat(a[1].as_rope().unwrap())
                .into()
        });
        let nil = g.production("nil", l, []);
        g.rule(nil, (0, decls), [], |_| Value::Int(0));
        g.rule(nil, (0, code), [], |_| Value::Rope(Rope::new()));

        let wrap = g.production("wrap", body, [body]);
        g.rule(wrap, (1, benv), [(0, benv)], |a| a[0].clone());
        g.rule_with_cost(
            wrap,
            (0, bcode),
            [(1, bcode), (0, benv)],
            |a| {
                let line = format!(
                    "movl r{}, r0 ; addl2 $4, sp ; calls $0, proc\n",
                    a[1].as_int().unwrap() % 12
                );
                Value::Rope(Rope::from(line).concat(a[0].as_rope().unwrap()))
            },
            5,
        );
        let unit = g.production("unit", body, []);
        g.rule(unit, (0, bcode), [(0, benv)], |a| {
            Value::Rope(Rope::from(format!(
                "ret ; base {}\n",
                a[0].as_int().unwrap()
            )))
        });

        let grammar: Arc<Grammar<Value>> = Arc::new(g.build(s).unwrap());
        let plans = Arc::new(compute_plans(&grammar).unwrap());
        let trees = shapes
            .iter()
            .map(|&(n, depth)| {
                let mut tb = TreeBuilder::new(&grammar);
                let mut tail = tb.leaf(nil);
                for _ in 0..n {
                    let mut b = tb.leaf(unit);
                    for _ in 0..depth {
                        b = tb.node(wrap, [b]);
                    }
                    tail = tb.node(cons, [b, tail]);
                }
                let root = tb.node(top, [tail]);
                Arc::new(tb.finish(root).unwrap())
            })
            .collect();
        MiniBatch {
            trees,
            plans,
            code: done_code,
        }
    }

    fn mini(n: usize) -> Mini {
        mini_shape(n, 6)
    }

    /// [`run_sim_stream`] of a pre-parsed batch on input the test knows
    /// to be acceptable.
    fn stream(
        b: &MiniBatch,
        cfg: &SimConfig,
        depth: usize,
        granularity: RegionGranularity,
        faults: &FaultPlan,
    ) -> BatchSimReport<Value> {
        run_sim_stream(
            &b.trees,
            Some(&b.plans),
            cfg,
            depth,
            granularity,
            faults,
            None,
        )
        .expect("acceptable input")
    }

    /// [`run_sim_stream`] as a service: one region per machine, the
    /// given arrival schedule.
    fn service(
        b: &MiniBatch,
        times: &[Time],
        cfg: &SimConfig,
        depth: usize,
        queue_capacity: usize,
        faults: &FaultPlan,
    ) -> BatchSimReport<Value> {
        run_sim_stream(
            &b.trees,
            Some(&b.plans),
            cfg,
            depth,
            RegionGranularity::Machines(cfg.machines),
            faults,
            Some(Arrivals {
                times,
                queue_capacity,
            }),
        )
        .expect("acceptable input")
    }

    fn root_code(report: &SimReport<Value>, attr: AttrId) -> Rope {
        report
            .root_values
            .iter()
            .find(|(a, _)| *a == attr)
            .and_then(|(_, v)| v.as_rope().cloned())
            .expect("root code attribute present")
    }

    #[test]
    fn sim_matches_sequential_dynamic_result() {
        let m = mini(32);
        let (dstore, _) = dynamic_eval(&m.tree).unwrap();
        let want = dstore
            .get(m.tree.root(), m.code)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        for machines in [1, 2, 4] {
            let report = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(machines));
            let got = root_code(&report, m.code);
            assert!(got.content_eq(&want), "machines={machines}: code mismatch");
            assert!(report.eval_time > 0);
            assert!(report.parse_time > 0);
        }
    }

    #[test]
    fn parallel_is_faster_than_one_machine() {
        let m = mini(128);
        let t1 = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(1)).eval_time;
        let t4 = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(4)).eval_time;
        assert!(t4 < t1, "4 machines ({t4}µs) should beat 1 ({t1}µs)");
    }

    #[test]
    fn combined_beats_dynamic_mode() {
        let m = mini(128);
        let mut cfg = SimConfig::paper(4);
        let tc = run_sim(&m.tree, Some(&m.plans), &cfg).eval_time;
        cfg.mode = MachineMode::Dynamic;
        let td = run_sim(&m.tree, Some(&m.plans), &cfg).eval_time;
        assert!(tc < td, "combined ({tc}µs) should beat dynamic ({td}µs)");
    }

    #[test]
    fn librarian_beats_naive_result_propagation() {
        let m = mini(192);
        let mut cfg = SimConfig::paper(5);
        let tl = run_sim(&m.tree, Some(&m.plans), &cfg).eval_time;
        cfg.result = ResultPropagation::Naive;
        let tn = run_sim(&m.tree, Some(&m.plans), &cfg).eval_time;
        assert!(tl < tn, "librarian ({tl}µs) should beat naive ({tn}µs)");
    }

    #[test]
    fn naive_mode_produces_same_code() {
        let m = mini(32);
        let mut cfg = SimConfig::paper(3);
        cfg.result = ResultPropagation::Naive;
        let report = run_sim(&m.tree, Some(&m.plans), &cfg);
        let (dstore, _) = dynamic_eval(&m.tree).unwrap();
        let want = dstore
            .get(m.tree.root(), m.code)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        assert!(root_code(&report, m.code).content_eq(&want));
    }

    #[test]
    fn report_exposes_trace_and_decomposition() {
        let m = mini(64);
        let report = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(3));
        assert_eq!(report.regions, 3);
        let gantt = report.render_gantt(72);
        assert!(gantt.contains("evaluator-a"));
        assert!(gantt.contains("legend"));
        assert!(report.decomposition.contains("regions"));
        assert!(report.stats.total_applied() > 0);
        // Most work is static in combined mode (§4.1).
        assert!(report.stats.dynamic_fraction() < 0.5);
    }

    #[test]
    fn determinism_of_the_full_pipeline() {
        let m = mini(49);
        let a = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(3)).eval_time;
        let b = run_sim(&m.tree, Some(&m.plans), &SimConfig::paper(3)).eval_time;
        assert_eq!(a, b);
    }

    #[test]
    fn batch_sim_produces_correct_code_at_every_depth() {
        let b = mini_batch(&[(24, 5), (40, 6), (9, 4), (31, 5)]);
        let want: Vec<Rope> = b
            .trees
            .iter()
            .map(|t| {
                let (dstore, _) = dynamic_eval(t).unwrap();
                dstore
                    .get(t.root(), b.code)
                    .and_then(|v| v.as_rope().cloned())
                    .unwrap()
            })
            .collect();
        for depth in [1usize, 2, 3] {
            let report = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(3), depth);
            assert_eq!(report.root_values.len(), b.trees.len());
            assert_eq!(report.regions.len(), b.trees.len());
            for (t, want) in want.iter().enumerate() {
                let got = report.root_values[t]
                    .iter()
                    .find(|(a, _)| *a == b.code)
                    .and_then(|(_, v)| v.as_rope().cloned())
                    .expect("root code attribute present");
                assert!(
                    got.content_eq(want),
                    "depth={depth} tree {t}: code mismatch"
                );
            }
            // Trees finish in submission order (FIFO retirement).
            for w in report.finish_times.windows(2) {
                assert!(w[0] <= w[1], "depth={depth}: finish order violated");
            }
            assert!(report.stats.total_applied() > 0);
        }
    }

    #[test]
    fn pipelined_batch_beats_the_barrier_schedule() {
        let b = mini_batch(&[(48, 6), (16, 4), (40, 6), (12, 4), (44, 6), (20, 5)]);
        let barrier = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(4), 1).makespan;
        let pipelined = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(4), 2).makespan;
        assert!(
            pipelined < barrier,
            "depth 2 ({pipelined}µs) should beat the barrier ({barrier}µs)"
        );
    }

    #[test]
    fn region_granular_batch_produces_correct_code() {
        let b = mini_batch(&[(96, 6), (10, 4), (48, 5)]);
        let work = WorkTable::new(b.trees[0].grammar().as_ref());
        let budget = (work.tree_work(&b.trees[0]) / 8).max(1);
        let report = stream(
            &b,
            &SimConfig::paper(4),
            2,
            RegionGranularity::Adaptive { budget },
            &FaultPlan::default(),
        );
        // The huge tree produced more regions than machines.
        assert!(report.regions[0] > 4, "regions: {:?}", report.regions);
        for (t, tree) in b.trees.iter().enumerate() {
            let (dstore, _) = dynamic_eval(tree).unwrap();
            let want = dstore
                .get(tree.root(), b.code)
                .and_then(|v| v.as_rope().cloned())
                .unwrap();
            let got = report.root_values[t]
                .iter()
                .find(|(a, _)| *a == b.code)
                .and_then(|(_, v)| v.as_rope().cloned())
                .expect("root code attribute present");
            assert!(got.content_eq(&want), "tree {t}: code mismatch");
        }
    }

    #[test]
    fn region_granular_beats_whole_tree_ticketing_on_a_huge_tree_stream() {
        // One huge tree followed by small ones: under whole-tree
        // ticketing the huge tree's fixed (and possibly uneven) split
        // gates the stream; region-granular scheduling spreads it in
        // budget-sized chunks over the park. No head-of-line blocking.
        let b = mini_batch(&[(256, 6), (8, 4), (8, 4), (8, 4), (8, 4), (8, 4)]);
        let work = WorkTable::new(b.trees[0].grammar().as_ref());
        let budget = (work.tree_work(&b.trees[0]) / 8).max(1);
        let cfg = SimConfig::paper(4);
        let whole = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2).makespan;
        let granular = stream(
            &b,
            &cfg,
            2,
            RegionGranularity::Adaptive { budget },
            &FaultPlan::default(),
        )
        .makespan;
        assert!(
            granular < whole,
            "region-granular ({granular}µs) should strictly beat whole-tree ticketing ({whole}µs)"
        );
    }

    #[test]
    fn region_granular_holds_throughput_on_a_mixed_stream() {
        // The PR 3 acceptance stream shape: mixed tree sizes. Region
        // granularity must not regress the pipelined schedule.
        let shapes: Vec<(usize, usize)> = (0..24)
            .map(|i| match i % 3 {
                0 => (48, 6),
                1 => (16, 4),
                _ => (40, 5),
            })
            .collect();
        let b = mini_batch(&shapes);
        let work = WorkTable::new(b.trees[0].grammar().as_ref());
        let biggest = b.trees.iter().map(|t| work.tree_work(t)).max().unwrap();
        let budget = (biggest / 4).max(1);
        let cfg = SimConfig::paper(4);
        let pipelined = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2).makespan;
        let granular = stream(
            &b,
            &cfg,
            2,
            RegionGranularity::Adaptive { budget },
            &FaultPlan::default(),
        )
        .makespan;
        assert!(
            granular <= pipelined,
            "region-granular ({granular}µs) must be ≥ the pipelined schedule's throughput ({pipelined}µs)"
        );
    }

    #[test]
    fn batch_sim_is_deterministic_and_matches_single_tree_at_depth_one() {
        let b = mini_batch(&[(32, 5), (32, 5)]);
        let r1 = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(3), 2);
        let r2 = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(3), 2);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.finish_times, r2.finish_times);
        // run_sim *is* the depth-1 batch of one: same time, same code.
        let single = run_sim(&b.trees[0], Some(&b.plans), &SimConfig::paper(3));
        let batch1 = run_sim_batch(&b.trees[..1], Some(&b.plans), &SimConfig::paper(3), 1);
        assert_eq!(single.eval_time, batch1.makespan);
        let a = root_code(&single, b.code);
        let c = batch1.root_values[0]
            .iter()
            .find(|(x, _)| *x == b.code)
            .and_then(|(_, v)| v.as_rope().cloned())
            .unwrap();
        assert!(a.content_eq(&c));
    }

    // --- service (open-arrival) simulation ---

    /// `n` arrivals `gap` µs apart, the first at 0.
    fn every(gap: Time, n: usize) -> Vec<Time> {
        (0..n).map(|i| i as Time * gap).collect()
    }

    fn service_code(report: &BatchSimReport<Value>, t: usize, attr: AttrId) -> Rope {
        report.root_values[t]
            .iter()
            .find(|(a, _)| *a == attr)
            .and_then(|(_, v)| v.as_rope().cloned())
            .expect("root code attribute present")
    }

    #[test]
    fn service_sim_with_simultaneous_arrivals_matches_batch_results() {
        let b = mini_batch(&[(24, 5), (9, 4), (31, 5), (16, 4)]);
        let req = every(0, 4);
        let report = service(
            &b,
            &req,
            &SimConfig::paper(3),
            2,
            usize::MAX,
            &FaultPlan::default(),
        );
        assert_eq!(report.shed_count(), 0);
        for (t, tree) in b.trees.iter().enumerate() {
            let (dstore, _) = dynamic_eval(tree).unwrap();
            let want = dstore
                .get(tree.root(), b.code)
                .and_then(|v| v.as_rope().cloned())
                .unwrap();
            assert!(
                service_code(&report, t, b.code).content_eq(&want),
                "tree {t}: code mismatch"
            );
            // Timestamps are coherent: arrival ≤ admit ≤ dispatch ≤ finish.
            let adm = report.admitted[t].expect("admitted");
            let dsp = report.dispatched[t].expect("dispatched");
            let fin = report.finish_times[t];
            assert!(report.arrivals[t] <= adm && adm <= dsp && dsp <= fin);
        }
        // FIFO over simultaneous arrivals preserves submission order,
        // exactly like the batch schedule's FIFO retirement.
        for w in report.finish_times.windows(2) {
            assert!(w[0] <= w[1], "finish order violated");
        }
        // Deterministic replay.
        let again = service(
            &b,
            &req,
            &SimConfig::paper(3),
            2,
            usize::MAX,
            &FaultPlan::default(),
        );
        assert_eq!(report.finish_times, again.finish_times);
        assert_eq!(report.makespan, again.makespan);
    }

    #[test]
    fn bounded_admission_sheds_deterministically_and_serves_the_rest() {
        // Six near-simultaneous arrivals against a 2-deep waiting room
        // and a depth-1 window: the overflow is shed, everything
        // admitted completes correctly, and a replay is identical.
        let b = mini_batch(&[(16, 5); 6]);
        let req = every(10, 6);
        let run = || service(&b, &req, &SimConfig::paper(3), 1, 2, &FaultPlan::default());
        let report = run();
        assert!(report.shed_count() > 0, "burst must overflow capacity 2");
        assert!(!report.shed[0], "first arrival finds an empty service");
        let (dstore, _) = dynamic_eval(&b.trees[0]).unwrap();
        let want = dstore
            .get(b.trees[0].root(), b.code)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        for t in 0..6 {
            if report.shed[t] {
                assert_eq!(report.admitted[t], None);
                assert_eq!(report.dispatched[t], None);
                assert_eq!(report.latency(t), None);
                assert!(report.root_values[t].is_empty());
            } else {
                assert!(report.finish_times[t] > 0);
                assert!(service_code(&report, t, b.code).content_eq(&want));
            }
        }
        let again = run();
        assert_eq!(report.shed, again.shed);
        assert_eq!(report.finish_times, again.finish_times);
        // A large enough waiting room sheds nothing from the same burst.
        let roomy = service(&b, &req, &SimConfig::paper(3), 1, 6, &FaultPlan::default());
        assert_eq!(roomy.shed_count(), 0);
    }

    // --- fault injection and recovery ---

    /// Asserts two runs' per-tree root values are byte-identical.
    /// Faults may reorder *arrival* of root attributes (delays, late
    /// recovery), so comparison is canonicalized by attribute id; each
    /// value must still match byte-for-byte.
    fn assert_roots_identical(clean: &[Vec<(AttrId, Value)>], faulty: &[Vec<(AttrId, Value)>]) {
        assert_eq!(clean.len(), faulty.len());
        for (t, (c, f)) in clean.iter().zip(faulty.iter()).enumerate() {
            assert_eq!(c.len(), f.len(), "tree {t}: root attr count differs");
            let mut c: Vec<_> = c.iter().collect();
            let mut f: Vec<_> = f.iter().collect();
            c.sort_by_key(|(a, _)| *a);
            f.sort_by_key(|(a, _)| *a);
            for ((ca, cv), (fa, fv)) in c.iter().zip(f.iter()) {
                assert_eq!(ca, fa, "tree {t}: root attr set differs");
                match (cv.as_rope(), fv.as_rope()) {
                    (Some(cr), Some(fr)) => {
                        assert!(cr.content_eq(fr), "tree {t}: rope diverged under faults")
                    }
                    _ => assert_eq!(cv, fv, "tree {t}: value diverged under faults"),
                }
            }
        }
    }

    #[test]
    fn crashed_machine_recovers_with_byte_identical_outputs() {
        // The acceptance stream: the mixed 24-tree shape. One machine
        // dies mid-evaluation and restarts 200 virtual ms later; the
        // survivors re-execute its lost regions from the input logs and
        // every tree still compiles to exactly the fault-free bytes.
        // The pushed subtrees and the values of the dead machine's jobs
        // are reseeded on the same board the fault-free run used.
        let shapes: Vec<(usize, usize)> = (0..24)
            .map(|i| match i % 3 {
                0 => (48, 6),
                1 => (16, 4),
                _ => (40, 5),
            })
            .collect();
        let b = mini_batch(&shapes);
        let cfg = SimConfig::paper(4);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        assert_eq!(clean.faults, FaultCounters::default());
        // The parser's push activates every job: a fault-free run sends
        // no wake at all, and only recovery claims.
        assert!(clean.trace.messages.iter().all(|m| m.tag != "wake"));

        // Crash evaluator-d (ProcId 4) a third of the way through: it
        // holds a job whose producers already sent it values, so the
        // re-execution replays sends the board suppresses.
        let crash_at = clean.parse_time + clean.makespan / 3;
        let plan = FaultPlan::seeded(11).crash_restart(4, crash_at, 200_000);
        let run = || {
            stream(
                &b,
                &cfg,
                2,
                RegionGranularity::Machines(cfg.machines),
                &plan,
            )
        };
        let faulty = run();
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 1, "{:?}", faulty.faults);
        assert!(
            faulty.faults.regions_reexecuted > 0,
            "lost regions were reseeded: {:?}",
            faulty.faults
        );
        assert!(
            faulty.faults.dup_suppressed > 0,
            "replayed sends were suppressed content-keyed: {:?}",
            faulty.faults
        );
        // The same plan injects the same chaos: deterministic replay.
        let again = run();
        assert_eq!(faulty.makespan, again.makespan);
        assert_eq!(faulty.finish_times, again.finish_times);
        assert_eq!(faulty.faults, again.faults);
    }

    /// Fixed placement survives a crash of region 0's home machine: the
    /// dead machine's root regions are reseeded on the survivors, no
    /// steal is ever counted, and the replay is deterministic.
    #[test]
    fn fixed_placement_recovers_from_a_crash_and_restart() {
        let shapes: Vec<(usize, usize)> = (0..24)
            .map(|i| match i % 3 {
                0 => (48, 6),
                1 => (16, 4),
                _ => (40, 5),
            })
            .collect();
        let b = mini_batch(&shapes);
        let cfg = SimConfig::paper(4);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        assert_eq!(clean.faults, FaultCounters::default());
        assert_eq!(clean.sched.steals, 0);
        assert!(clean.trace.messages.iter().all(|m| m.tag != "wake"));
        // Crash evaluator-a (ProcId 1) a third of the way through: it
        // is region 0's home, and a root region is live for its whole
        // tree, so the crash always finds a job to re-execute.
        let crash_at = clean.parse_time + clean.makespan / 3;
        let plan = FaultPlan::seeded(11).crash_restart(1, crash_at, 200_000);
        let run = || {
            stream(
                &b,
                &cfg,
                2,
                RegionGranularity::Machines(cfg.machines),
                &plan,
            )
        };
        let faulty = run();
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 1, "{:?}", faulty.faults);
        assert!(
            faulty.faults.regions_reexecuted > 0,
            "lost regions were reseeded: {:?}",
            faulty.faults
        );
        assert_eq!(faulty.sched.steals, 0, "fixed placement never steals");
        let again = run();
        assert_eq!(faulty.makespan, again.makespan);
        assert_eq!(faulty.faults, again.faults);
    }

    #[test]
    fn permanent_crash_is_survived_by_the_remaining_park() {
        let b = mini_batch(&[(48, 6), (16, 4), (40, 5), (24, 5), (32, 5), (20, 4)]);
        let cfg = SimConfig::paper(4);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        // Machine d dies for good; three survivors absorb its work.
        let plan = FaultPlan::seeded(3).crash(4, clean.parse_time + clean.makespan / 4);
        let faulty = stream(
            &b,
            &cfg,
            2,
            RegionGranularity::Machines(cfg.machines),
            &plan,
        );
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 1);
        assert!(
            faulty.makespan >= clean.makespan,
            "losing a machine cannot speed the park up"
        );
    }

    #[test]
    fn service_sim_survives_a_mid_stream_crash() {
        let b = mini_batch(&[(24, 5), (16, 4), (31, 5), (20, 4), (28, 5), (12, 4)]);
        let req = every(2_000, 6);
        let cfg = SimConfig::paper(3);
        let run = |plan: &FaultPlan| service(&b, &req, &cfg, 2, usize::MAX, plan);
        let clean = run(&FaultPlan::default());
        assert_eq!(clean.shed_count(), 0);
        // Crash right after request 2's regions land on the deques:
        // evaluator a is guaranteed to hold queued work at that instant.
        let crash_at = clean.dispatched[2].expect("request 2 dispatched") + 1;
        let faulty = run(&FaultPlan::seeded(5).crash_restart(1, crash_at, 150_000));
        assert_eq!(
            faulty.shed_count(),
            0,
            "admission is untouched by the crash"
        );
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 1);
        assert!(faulty.faults.regions_reexecuted > 0, "{:?}", faulty.faults);
    }

    // --- golden virtual times ---
    //
    // The simulation is deterministic, so these are exact: a moved
    // number is a changed policy or protocol, never noise. (The Pascal
    // workload pins live in `paragram-bench`'s `tests/golden_sim.rs`.)

    #[test]
    fn golden_fifo_service_finish_times_and_three_deep_shedding() {
        let mut shapes = vec![(8usize, 4usize); 10];
        shapes[2] = (200, 6);
        let b = mini_batch(&shapes);
        let req = every(1_000, 10);
        let run = |capacity| {
            service(
                &b,
                &req,
                &SimConfig::paper(4),
                1,
                capacity,
                &FaultPlan::default(),
            )
        };
        let fifo = run(usize::MAX);
        let tight = run(3);
        assert_eq!(
            fifo.finish_times,
            [
                385_764, 455_138, 1_025_429, 1_094_803, 1_164_177, 1_233_551, 1_302_925, 1_372_299,
                1_441_673, 1_511_047
            ]
        );
        assert_eq!(fifo.makespan, 1_511_047);
        // A three-deep waiting room behind the huge request sheds the
        // rest of the burst.
        assert_eq!(
            tight.shed,
            [false, false, false, false, true, true, true, true, true, true]
        );
        assert_eq!(
            tight.finish_times,
            [385_764, 455_138, 1_025_429, 1_094_803, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn golden_crash_restart_recovery() {
        let shapes: Vec<(usize, usize)> = (0..24)
            .map(|i| match i % 3 {
                0 => (48, 6),
                1 => (16, 4),
                _ => (40, 5),
            })
            .collect();
        let b = mini_batch(&shapes);
        let cfg = SimConfig::paper(4);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        let crash_at = clean.parse_time + clean.makespan / 3;
        let plan = FaultPlan::seeded(11).crash_restart(4, crash_at, 200_000);
        let faulty = stream(
            &b,
            &cfg,
            2,
            RegionGranularity::Machines(cfg.machines),
            &plan,
        );
        assert_eq!(clean.makespan, 2_654_333);
        assert_eq!(faulty.makespan, 2_743_701);
        assert_eq!(
            faulty.faults,
            FaultCounters {
                crashes: 1,
                regions_reexecuted: 1,
                dup_suppressed: 1,
                ..FaultCounters::default()
            }
        );
        let sends = |local_sends, remote_sends| SchedCounters {
            local_sends,
            remote_sends,
            ..SchedCounters::default()
        };
        assert_eq!(clean.sched, sends(0, 216));
        assert_eq!(faulty.sched, sends(6, 210));
    }

    /// The error [`run_sim_stream`] returns for a one-tree stream on two
    /// machines.
    fn rejection(
        cfg: &SimConfig,
        faults: &FaultPlan,
        arrivals: Option<Arrivals<'_>>,
    ) -> Option<SimError> {
        let b = mini_batch(&[(16, 4)]);
        let granularity = RegionGranularity::Machines(2);
        run_sim_stream(
            &b.trees,
            Some(&b.plans),
            cfg,
            1,
            granularity,
            faults,
            arrivals,
        )
        .err()
    }

    #[test]
    fn crashing_the_parser_is_rejected() {
        let cfg = SimConfig::paper(2);
        // Process 0 is the parser, 3 the librarian of a 2-machine park.
        for proc in [0, 3] {
            let plan = FaultPlan::seeded(1).crash(1, 500).crash(proc, 1_000);
            assert_eq!(
                rejection(&cfg, &plan, None),
                Some(SimError::CrashTargetNotEvaluator { proc, machines: 2 })
            );
        }
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let cfg = SimConfig::paper(2);
        let none = FaultPlan::default();
        let arrivals = |times| {
            Some(Arrivals {
                times,
                queue_capacity: 4,
            })
        };
        assert_eq!(
            rejection(&cfg, &none, arrivals(&[])),
            Some(SimError::RequestCountMismatch {
                trees: 1,
                requests: 0
            })
        );
        let b = mini_batch(&[(16, 4), (16, 4)]);
        let run = |trees: &[Arc<ParseTree<Value>>], requests| {
            let granularity = RegionGranularity::Machines(2);
            run_sim_stream(trees, Some(&b.plans), &cfg, 1, granularity, &none, requests).err()
        };
        assert_eq!(run(&[], None), Some(SimError::EmptyStream));
        let backwards = [2_000, 1_000];
        assert_eq!(
            run(&b.trees, arrivals(&backwards)),
            Some(SimError::UnsortedArrivals)
        );
        assert_eq!(run(&b.trees, arrivals(&[5, 5])), None);
    }

    /// What fails a job on the worker core fails the run with the
    /// evaluator's error — no panic unwinding through the simulator, no
    /// end-of-run deadlock assertion.
    #[test]
    fn evaluation_failures_end_the_run_as_errors() {
        let dynamic = SimConfig {
            mode: MachineMode::Dynamic,
            ..SimConfig::paper(2)
        };
        let run = |trees: &[Arc<ParseTree<i64>>], plans: Option<&Arc<Plans>>, cfg: &SimConfig| {
            let granularity = RegionGranularity::Machines(2);
            let none = FaultPlan::default();
            run_sim_stream(trees, plans, cfg, 1, granularity, &none, None).err()
        };
        // A dependency cycle local to the (only) region.
        let (good, knot, _, _) = crate::parallel::pool::tests::cyclic_fixture();
        let failed = run(&[Arc::clone(&good[0]), knot], None, &dynamic);
        assert!(
            matches!(failed, Some(SimError::Eval(EvalError::Cycle { .. }))),
            "{failed:?}"
        );
        // A panicking rule: the default hook prints its message to test
        // stderr once — expected noise.
        let mut g = GrammarBuilder::<i64>::new();
        let s = g.nonterminal("S");
        let out = g.synthesized(s, "out");
        let boom = g.production("boom", s, []);
        g.rule(boom, (0, out), [], |_| panic!("rule exploded"));
        let grammar = Arc::new(g.build(s).unwrap());
        let plans = Arc::new(compute_plans(&grammar).unwrap());
        let mut tb = TreeBuilder::new(&grammar);
        let root = tb.leaf(boom);
        let tree = Arc::new(tb.finish(root).unwrap());
        let failed = run(&[tree], Some(&plans), &SimConfig::paper(2));
        let Some(SimError::Eval(EvalError::RulePanic { message })) = failed else {
            panic!("expected RulePanic, got {failed:?}");
        };
        assert_eq!(message, "rule exploded");
        // Root values referencing code text whose registration was lost.
        let b = mini_batch(&[(48, 6)]);
        let lost = FaultPlan::seeded(1).drop_tagged("code-segment", 1000);
        let granularity = RegionGranularity::Machines(3);
        let cfg = SimConfig::paper(3);
        let failed = run_sim_stream(&b.trees, Some(&b.plans), &cfg, 1, granularity, &lost, None);
        assert!(
            matches!(failed, Err(SimError::LostCodeSegment { ticket: 0, .. })),
            "{:?}",
            failed.err()
        );
    }

    #[test]
    fn delayed_attribute_messages_do_not_change_results() {
        let b = mini_batch(&[(32, 5), (16, 4), (24, 5)]);
        let cfg = SimConfig::paper(3);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        // A third of all attribute messages arrive 20 virtual ms late:
        // delivery reorders but the protocol is insensitive to it.
        let plan = FaultPlan::seeded(9).delay_tagged("attr", 333, 20_000);
        let faulty = stream(
            &b,
            &cfg,
            2,
            RegionGranularity::Machines(cfg.machines),
            &plan,
        );
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 0);
    }

    /// What a receiving job sees of a value, at string level: text, and
    /// runs the librarian holds.
    #[derive(Debug, Clone, PartialEq)]
    enum Piece {
        Text(String),
        Ref(RunId),
    }

    /// The librarian as string operations: flatten into text and
    /// references, merge adjacent text, and — upward — register every
    /// stretch of at least the threshold. Returns the price, the new
    /// runs and what the receiver sees.
    fn flattened(
        region: RegionId,
        pieces: &[Piece],
        upward: bool,
        next: &mut u32,
    ) -> (Priced, Vec<(RunId, usize)>, Vec<Piece>) {
        let mut merged: Vec<Piece> = Vec::new();
        for piece in pieces {
            match (merged.last_mut(), piece) {
                (_, Piece::Text(t)) if t.is_empty() => {}
                (Some(Piece::Text(acc)), Piece::Text(t)) => acc.push_str(t),
                _ => merged.push(piece.clone()),
            }
        }
        // A rope value's tag and length header.
        let mut bytes = 1 + 8;
        let (mut registered, mut refs, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        for piece in merged {
            match piece {
                Piece::Text(t) if upward && t.len() >= LIBRARIAN_THRESHOLD => {
                    let id = (region, *next);
                    *next += 1;
                    registered.push((id, t.len()));
                    refs.push(id);
                    seen.push(Piece::Ref(id));
                    bytes += REF_BYTES;
                }
                Piece::Text(t) => {
                    bytes += t.len();
                    seen.push(Piece::Text(t));
                }
                Piece::Ref(id) => {
                    refs.push(id);
                    seen.push(Piece::Ref(id));
                    bytes += REF_BYTES;
                }
            }
        }
        (Priced { bytes, refs }, registered, seen)
    }

    /// Concatenates `parts` in a random tree shape, as rules do.
    fn join(parts: &[Rope], rng: &mut SmallRng) -> Rope {
        match parts.len() {
            0 => Rope::new(),
            1 => parts[0].clone(),
            n => {
                let (left, right) = parts.split_at(rng.gen_range(1..n));
                join(left, rng).concat(&join(right, rng))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The librarian accounting walks rope structure; the reference
        /// flattens strings. Three jobs of one ticket — region 2 at the
        /// leaves, region 1 above it, region 0 at the top — each build
        /// values from fresh text and from values sent to them by the
        /// jobs below, in random concatenation shapes, and send them
        /// upward or not. For every value, the accounted bytes, the new
        /// runs and the references equal the reference's.
        #[test]
        fn librarian_accounting_matches_a_flattening_reference(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut registry = Registry::default();
            // Values sent and not yet used, with what their receiver sees.
            let mut sent: Vec<(Rope, Vec<Piece>)> = Vec::new();
            for region in [2, 1, 0] {
                let mut next = 0;
                let mut mine = Vec::new();
                for _ in 0..rng.gen_range(1..5) {
                    let (mut parts, mut pieces) = (Vec::new(), Vec::new());
                    for _ in 0..rng.gen_range(0..7) {
                        if !sent.is_empty() && rng.gen_range(0..5) < 2 {
                            let (rope, seen) = sent.swap_remove(rng.gen_range(0..sent.len()));
                            parts.push(rope);
                            pieces.extend(seen);
                        } else {
                            let len = rng.gen_range(0..200);
                            let t: String = (0..len)
                                .map(|_| (b'a' + rng.gen_range(0..26) as u8) as char)
                                .collect();
                            parts.push(Rope::from(t.as_str()));
                            pieces.push(Piece::Text(t));
                        }
                    }
                    let rope = join(&parts, &mut rng);
                    // The sim marks a job that is sent a reference.
                    if pieces.iter().any(|p| matches!(p, Piece::Ref(_))) {
                        registry.referenced.insert(region);
                    }
                    let upward = rng.gen_range(0..4) > 0;
                    let (want, registered, seen) = flattened(region, &pieces, upward, &mut next);
                    let value = Value::Rope(rope.clone());
                    let (priced, got) = registry.price(region, &value, upward);
                    prop_assert_eq!(priced.bytes, want.bytes);
                    prop_assert_eq!(got, registered);
                    prop_assert_eq!(priced.refs, want.refs);
                    if !rope.is_empty() {
                        mine.push((rope, seen));
                    }
                }
                sent.extend(mine);
            }
        }
    }
}
