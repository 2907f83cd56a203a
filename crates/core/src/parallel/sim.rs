//! The parallel compiler on the simulated network multiprocessor.
//!
//! Reproduces the paper's experimental configuration (§3): one
//! sequential parser process, N evaluator machines (one region each),
//! and a string-librarian process, communicating over a shared 10 Mbit
//! Ethernet modelled by [`paragram_netsim`]. Virtual CPU consumption is
//! derived from a [`CostModel`] calibrated to SUN-2-class hardware, so
//! the reported times are in "1987 seconds" and the *shape* of Figure 5
//! (speedups, crossovers, the non-monotonic tail) is reproduced
//! deterministically.
//!
//! The protocol is the paper's: the parser ships linearized subtrees;
//! evaluators evaluate, exchanging attribute values; synthesized
//! attributes of region roots travel up, inherited attributes of remote
//! subtree roots travel down; in librarian mode large code text goes to
//! the librarian once and only small descriptor ropes travel up the
//! process tree (§4.2). Each simulated evaluator's [`Machine`] holds a
//! region-local store ([`crate::tree::RegionStore`], O(region) slots),
//! matching the paper's setting where a machine only ever materializes
//! the subtree it was shipped — root attributes reach the parser as
//! messages, so the simulation never assembles a whole-tree store.

use crate::analysis::Plans;
use crate::eval::{AttrMsg, EvalError, EvalPlan, Machine, MachineMode, MachineScratch, SendTarget};
use crate::grammar::{AttrId, AttrKind};
use crate::parallel::policy::{DispatchPolicy, PolicyQueue, QueuedJob};
use crate::parallel::pool::{
    seed_placements, FaultCounters, InputLogs, JobLoc, SchedCounters, SchedulerMode, SegmentLedger,
    DEAD_LOAD,
};
use crate::split::{
    decompose, decompose_granular, Decomposition, RegionGranularity, RegionId, SplitConfig,
    SplitTable, WorkTable,
};
use crate::stats::EvalStats;
use crate::tree::{Child, NodeId, ParseTree};
use crate::value::AttrValue;
use paragram_netsim::{secs, Ctx, FaultPlan, NetModel, ProcId, Process, Sim, Time, Trace};
use paragram_rope::{Rope, SegmentId, SegmentStore};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::sync::Mutex;

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
    /// Region-job placement for the batch/service simulations: the
    /// paper's fixed modular map ([`SchedulerMode::Fixed`], the
    /// default) or the same LPT-seeded, locality-aware work-stealing
    /// policy the live [`crate::parallel::pool::WorkerPool`] runs
    /// ([`SchedulerMode::Stealing`]). Ignored by [`run_sim`] (one
    /// region per machine leaves nothing to steal).
    pub scheduler: SchedulerMode,
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
            scheduler: SchedulerMode::Fixed,
        }
    }

    /// The configuration with a different region-job scheduler.
    pub fn with_scheduler(self, scheduler: SchedulerMode) -> Self {
        SimConfig { scheduler, ..self }
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
    /// Root attribute values (librarian-resolved).
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

enum SimMsg<V> {
    Subtree(RegionId),
    Attr {
        node: NodeId,
        attr: AttrId,
        value: V,
    },
    Segment {
        id: SegmentId,
        text: Rope,
    },
    ResolveRoot,
    RootResolved,
}

struct Shared<V: AttrValue> {
    tree: Arc<ParseTree<V>>,
    /// Grammar-level artifacts shared by every simulated evaluator
    /// (one table build per simulation, not per region).
    plan: Arc<EvalPlan<V>>,
    decomp: Arc<Decomposition>,
    cost: CostModel,
    mode: MachineMode,
    result: ResultPropagation,
    classifier: PhaseClassifier,
    librarian: ProcId,
    parser: ProcId,
    eval_start: Mutex<Time>,
    eval_end: Mutex<Time>,
    root_values: Mutex<Vec<(AttrId, V)>>,
    segstore: Mutex<SegmentStore>,
    per_machine: Mutex<Vec<EvalStats>>,
    error: Mutex<Option<EvalError>>,
}

impl<V: AttrValue> Shared<V> {
    fn proc_of_region(&self, r: RegionId) -> ProcId {
        ProcId(1 + r as usize)
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
        for c in &tree.node(n).children {
            match c {
                Child::Node(c) if decomp.region(*c) == region => stack.push(*c),
                Child::Node(_) => bytes += 8, // remote-leaf marker
                Child::Token(vals) => bytes += vals.iter().map(|v| v.wire_size()).sum::<usize>(),
            }
        }
    }
    bytes
}

struct ParserProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
    expected_roots: usize,
}

impl<V: AttrValue> Process<SimMsg<V>> for ParserProc<V> {
    fn on_start(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        ctx.phase("parse");
        ctx.spend(sh.tree.len() as Time * sh.cost.parse_node_us);
        ctx.phase("ship subtrees");
        // Linearize and ship each region (region 0 included: its
        // evaluator is a separate machine from the parser, as in the
        // paper's Figure 6 where evaluator `a` holds the root subtree).
        *sh.eval_start.lock().unwrap() = ctx.now();
        for r in 0..sh.decomp.len() as RegionId {
            let info = &sh.decomp.regions[r as usize];
            ctx.spend(info.local_size as Time * sh.cost.ship_node_us);
            let bytes = region_wire_size(&sh.tree, &sh.decomp, r);
            ctx.send(sh.proc_of_region(r), SimMsg::Subtree(r), bytes, "subtree");
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, _from: ProcId, msg: SimMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            SimMsg::Attr { attr, value, .. } => {
                ctx.phase("result propagation");
                let done = {
                    let mut roots = sh.root_values.lock().unwrap();
                    roots.push((attr, value));
                    roots.len() == self.expected_roots
                };
                if done {
                    match sh.result {
                        ResultPropagation::Naive => {
                            *sh.eval_end.lock().unwrap() = ctx.now();
                            ctx.stop();
                        }
                        ResultPropagation::Librarian => {
                            ctx.send(sh.librarian, SimMsg::ResolveRoot, 64, "resolve");
                        }
                    }
                }
            }
            SimMsg::RootResolved => {
                *sh.eval_end.lock().unwrap() = ctx.now();
                ctx.stop();
            }
            _ => {}
        }
    }
}

struct EvaluatorProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
    region: RegionId,
    machine: Option<Machine<V>>,
    next_seg: u32,
}

impl<V: AttrValue> EvaluatorProc<V> {
    fn pump(&mut self, ctx: &mut Ctx<SimMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        loop {
            let Some(machine) = self.machine.as_mut() else {
                return;
            };
            match machine.step() {
                Err(e) => {
                    *sh.error.lock().unwrap() = Some(e);
                    ctx.stop();
                    return;
                }
                Ok(None) => break,
                Ok(Some(outcome)) => {
                    let label = classify(sh.tree.grammar(), &sh.classifier, outcome.target);
                    ctx.phase(label);
                    ctx.spend(
                        outcome.cost_units * sh.cost.rule_unit_us
                            + outcome.dynamic_rules as Time * sh.cost.dynamic_rule_us
                            + outcome.static_rules as Time * sh.cost.static_rule_us,
                    );
                    for send in outcome.sends {
                        self.transmit(ctx, send);
                    }
                }
            }
        }
        let machine = self.machine.as_ref().expect("machine exists");
        self.shared.per_machine.lock().unwrap()[self.region as usize] = machine.stats();
    }

    fn transmit(&mut self, ctx: &mut Ctx<SimMsg<V>>, msg: AttrMsg<V>) {
        let sh = Arc::clone(&self.shared);
        let upward = match msg.to {
            SendTarget::Parser => true,
            SendTarget::Region(r) => Some(r) == sh.decomp.regions[self.region as usize].parent,
        };
        let mut value = msg.value;
        if upward && sh.result == ResultPropagation::Librarian {
            // Ship large code text to the librarian; pass a descriptor
            // rope up the process tree (§4.2).
            let region = self.region;
            let next = &mut self.next_seg;
            let mut segments: Vec<(SegmentId, Rope)> = Vec::new();
            let deflated = value.deflate(&mut |text: Rope| {
                let id = SegmentId::from_parts(region, *next);
                *next += 1;
                segments.push((id, text));
                id
            });
            if let Some(d) = deflated {
                value = d;
                ctx.phase("result propagation");
                for (id, text) in segments {
                    let bytes = text.physical_wire_size();
                    ctx.send(
                        sh.librarian,
                        SimMsg::Segment { id, text },
                        bytes,
                        "code-segment",
                    );
                }
            }
        }
        let dest = match msg.to {
            SendTarget::Parser => sh.parser,
            SendTarget::Region(r) => sh.proc_of_region(r),
        };
        let bytes = value.wire_size();
        ctx.send(
            dest,
            SimMsg::Attr {
                node: msg.node,
                attr: msg.attr,
                value,
            },
            bytes,
            "attr",
        );
    }
}

impl<V: AttrValue> Process<SimMsg<V>> for EvaluatorProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, _from: ProcId, msg: SimMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            SimMsg::Subtree(region) => {
                debug_assert_eq!(region, self.region);
                ctx.phase("build");
                let machine = Machine::from_plan(
                    &sh.plan,
                    &sh.tree,
                    &sh.decomp,
                    self.region,
                    sh.mode,
                    MachineScratch::new(),
                );
                let (gn, ge) = machine.graph_size();
                ctx.spend(
                    machine.local_nodes() as Time * sh.cost.ship_node_us
                        + gn as Time * sh.cost.graph_node_us
                        + ge as Time * sh.cost.graph_edge_us,
                );
                self.machine = Some(machine);
                self.pump(ctx);
            }
            SimMsg::Attr { node, attr, value } => {
                if let Some(m) = self.machine.as_mut() {
                    m.provide(node, attr, value);
                }
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

struct LibrarianProc<V: AttrValue> {
    shared: Arc<Shared<V>>,
}

impl<V: AttrValue> Process<SimMsg<V>> for LibrarianProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<SimMsg<V>>, from: ProcId, msg: SimMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            SimMsg::Segment { id, text } => {
                ctx.phase("receive code");
                ctx.spend((text.len() as Time).div_ceil(1024) * sh.cost.resolve_kb_us / 10);
                sh.segstore.lock().unwrap().register(id, text);
            }
            SimMsg::ResolveRoot => {
                ctx.phase("combine code");
                let total = sh.segstore.lock().unwrap().total_bytes();
                ctx.spend((total as Time).div_ceil(1024) * sh.cost.resolve_kb_us);
                ctx.send(from, SimMsg::RootResolved, 64, "resolved");
            }
            _ => {}
        }
    }
}

/// Runs one simulated parallel compilation of `tree`.
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
    let decomp = Arc::new(decompose(
        tree,
        SplitConfig {
            target_regions: config.machines,
            min_size_scale: config.min_size_scale,
        },
    ));
    let regions = decomp.len();
    let g = tree.grammar();
    let root_sym = g.prod(tree.node(tree.root()).prod).lhs;
    let expected_roots = g.symbol(root_sym).attrs_of_kind(AttrKind::Syn).count();

    let shared = Arc::new(Shared {
        tree: Arc::clone(tree),
        plan: Arc::new(EvalPlan::from_parts(tree.grammar(), plans.cloned(), None)),
        decomp: Arc::clone(&decomp),
        cost: config.cost,
        mode: config.mode,
        result: config.result,
        classifier: Arc::clone(&config.classifier),
        librarian: ProcId(1 + regions),
        parser: ProcId(0),
        eval_start: Mutex::new(0),
        eval_end: Mutex::new(0),
        root_values: Mutex::new(Vec::new()),
        segstore: Mutex::new(SegmentStore::new()),
        per_machine: Mutex::new(vec![EvalStats::default(); regions]),
        error: Mutex::new(None),
    });

    let mut sim: Sim<SimMsg<V>> = Sim::new(config.net);
    sim.add_process(
        "parser",
        ParserProc {
            shared: Arc::clone(&shared),
            expected_roots,
        },
    );
    for r in 0..regions {
        let letter = (b'a' + (r % 26) as u8) as char;
        sim.add_process(
            format!("evaluator-{letter}"),
            EvaluatorProc {
                shared: Arc::clone(&shared),
                region: r as RegionId,
                machine: None,
                next_seg: 0,
            },
        );
    }
    sim.add_process(
        "librarian",
        LibrarianProc {
            shared: Arc::clone(&shared),
        },
    );
    sim.run();

    if let Some(e) = shared.error.lock().unwrap().take() {
        panic!("parallel evaluation failed: {e}");
    }
    let eval_start = *shared.eval_start.lock().unwrap();
    let eval_end = *shared.eval_end.lock().unwrap();
    assert!(
        eval_end >= eval_start && eval_end > 0,
        "simulation ended without root attributes (deadlock?)"
    );

    let per_machine = shared.per_machine.lock().unwrap().clone();
    let mut stats = EvalStats::default();
    for s in &per_machine {
        stats += *s;
    }
    let store = shared.segstore.lock().unwrap();
    let root_values: Vec<(AttrId, V)> = shared
        .root_values
        .lock()
        .unwrap()
        .iter()
        .map(|(a, v)| (*a, v.inflate(&store)))
        .collect();
    drop(store);

    SimReport {
        eval_time: eval_end - eval_start,
        parse_time: eval_start,
        regions,
        per_machine,
        stats,
        trace: sim.trace().clone(),
        names: sim.names().to_vec(),
        root_values,
        decomposition: decomp.render(tree),
    }
}

// ---------------------------------------------------------------------
// Batched simulation: a stream of trees through one simulated machine
// park, with the pool's split-phase / ticket-window schedule.
// ---------------------------------------------------------------------

/// Result of one simulated *batched* parallel compilation.
pub struct BatchSimReport<V> {
    /// Evaluation makespan: from the parser initiating the first tree's
    /// evaluation until the last tree's root attributes are resolved.
    pub makespan: Time,
    /// Per-tree completion times, measured from the same origin (the
    /// start of evaluation), in submission order.
    pub finish_times: Vec<Time>,
    /// Parser time for the whole stream (reported separately, §4.1).
    pub parse_time: Time,
    /// Regions each tree was decomposed into.
    pub regions: Vec<usize>,
    /// Aggregated statistics over every tree and machine.
    pub stats: EvalStats,
    /// Per-evaluator statistics accumulated across the stream.
    pub per_machine: Vec<EvalStats>,
    /// The activity/message trace.
    pub trace: Trace,
    /// Process names aligned with the trace.
    pub names: Vec<String>,
    /// Per-tree root attribute values (librarian-resolved).
    pub root_values: Vec<Vec<(AttrId, V)>>,
    /// Steal-scheduler telemetry for the run (all zeros under
    /// [`SchedulerMode::Fixed`]).
    pub sched: SchedCounters,
    /// Crash/re-execution/duplicate-suppression telemetry (all zeros
    /// when the [`FaultPlan`] is empty).
    pub faults: FaultCounters,
}

impl<V> BatchSimReport<V> {
    /// The makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        secs(self.makespan)
    }
}

enum BatchMsg<V> {
    Subtree {
        ticket: usize,
        region: RegionId,
    },
    Attr {
        ticket: usize,
        /// Destination region (an evaluator machine hosts several
        /// regions under region-granular scheduling). Ignored for
        /// parser-bound root attributes.
        region: RegionId,
        node: NodeId,
        attr: AttrId,
        value: V,
    },
    /// Split-phase registration: streams in during evaluation.
    Register {
        ticket: usize,
        id: SegmentId,
        text: Rope,
    },
    /// A region's machine ran to completion (the pool's `Done`); the
    /// parser retires a ticket — freeing its window slot — only after
    /// every region reports.
    Done {
        ticket: usize,
    },
    /// The parser's final read for one ticket.
    Resolve {
        ticket: usize,
    },
    Resolved {
        ticket: usize,
    },
    /// Open-arrival service only: a [`Ctx::wake_at`] alarm telling the
    /// parser that request `ticket` just arrived. Evaluators and the
    /// librarian never see it.
    Arrive {
        ticket: usize,
    },
    /// Stealing scheduler only: the parser seeded new region jobs —
    /// every evaluator gets one so idle machines can claim or steal
    /// (mirrors the live pool's `WorkerMsg::Wake` broadcast).
    Wake,
}

/// A seeded-but-unclaimed region job in the simulated stealing
/// scheduler — the simulator's `PendingJob`. The subtree data itself
/// is not stored (the sim reads trees from [`BatchShared`]); `bytes`
/// remembers the wire size so a claim can charge the transfer.
struct SimJob<V> {
    ticket: usize,
    region: RegionId,
    /// Estimated work — the LPT seeding key and load-account unit.
    work: u64,
    /// Wire size of the linearized region subtree.
    bytes: usize,
    /// Attribute values that arrived before the job was claimed; they
    /// migrate with the job on a steal, exactly like the live pool's
    /// `PendingJob::early`.
    early: Vec<(NodeId, AttrId, V)>,
}

/// The simulated stealing scheduler's shared state — the mirror of the
/// live pool's `SchedState` plus its counters. One mutex guards the
/// deques, the job-location table, and the per-machine load accounts;
/// the event simulation is single-threaded, so the mutex is really a
/// stand-in for "the shared scheduler board every machine can reach".
struct SimSched<V> {
    deques: Vec<VecDeque<SimJob<V>>>,
    table: HashMap<(usize, RegionId), JobLoc>,
    load: Vec<u64>,
    /// Each machine's local clock at the end of its last handler. The
    /// event simulation runs one handler atomically even though its
    /// CPU spend advances the machine's clock, so without a guard the
    /// first machine woken would claim *and steal* every seeded job
    /// before its peers' wakes are even delivered. A thief may steal
    /// from a victim only when `busy_until[victim] > now`: the victim
    /// provably cannot reach its own deque before the thief — which is
    /// exactly the "steal from a busy machine" the live pool's real
    /// concurrency produces.
    busy_until: Vec<Time>,
    counters: SchedCounters,
    /// Which machines are currently down (crash-injected). A dead
    /// machine's load account is pinned at [`DEAD_LOAD`] so seeding and
    /// reseeding never choose it; steal victim selection skips it
    /// explicitly.
    dead: Vec<bool>,
    /// Per-region input logs, keyed `(ticket, region)` — the recovery
    /// substrate, mirroring the live pool's `SchedState::logs`. Every
    /// boundary value is appended at *send* time (so values still on
    /// the wire when their destination dies are not lost), and a
    /// `(node, attr)` already present marks a re-executed producer
    /// replaying its sends — the duplicate is suppressed and counted.
    /// The board lives outside any machine: it is the sim's stable
    /// storage, exactly like the pool parser's retained state.
    logs: InputLogs<usize, V>,
    /// Crash/re-execution/duplicate telemetry for the run.
    faults: FaultCounters,
}

struct BatchShared<V: AttrValue> {
    trees: Vec<Arc<ParseTree<V>>>,
    decomps: Vec<Arc<Decomposition>>,
    plan: Arc<EvalPlan<V>>,
    cost: CostModel,
    mode: MachineMode,
    result: ResultPropagation,
    classifier: PhaseClassifier,
    librarian: ProcId,
    parser: ProcId,
    depth: usize,
    /// Evaluator machine park size; region r lives on machine r mod
    /// park (identity when every tree has ≤ park regions).
    park: usize,
    /// Whether placement rotates by ticket (adaptive granularity).
    rotate: bool,
    /// Fixed modular placement vs. the LPT-seeded stealing policy.
    scheduler: SchedulerMode,
    /// Network model copy, for charging a stolen job's subtree fetch.
    net: NetModel,
    sched: Mutex<SimSched<V>>,
    expected_roots: Vec<usize>,
    eval_start: Mutex<Time>,
    finish: Mutex<Vec<Time>>,
    root_values: Mutex<Vec<Vec<(AttrId, V)>>>,
    segstores: Mutex<HashMap<usize, SegmentStore>>,
    per_machine: Mutex<Vec<EvalStats>>,
    error: Mutex<Option<EvalError>>,
}

impl<V: AttrValue> BatchShared<V> {
    /// Under adaptive granularity region r of ticket t runs on machine
    /// (r + t) mod park: decompositions are machine-agnostic, and the
    /// rotation spreads consecutive trees' low-numbered regions over
    /// the whole park (without it, machine 0 would host region 0 of
    /// *every* tree and the tail machines would starve whenever a tree
    /// has fewer regions than the park). Fixed-count granularity keeps
    /// the paper's "region k on machine k" placement.
    fn proc_of_region(&self, ticket: usize, r: RegionId) -> ProcId {
        let offset = if self.rotate { ticket } else { 0 };
        ProcId(1 + (r as usize + offset) % self.park)
    }
}

struct BatchParserProc<V: AttrValue> {
    shared: Arc<BatchShared<V>>,
    /// Next ticket whose subtrees have not been shipped yet.
    next_ship: usize,
    /// Next ticket to resolve (strictly in submission order, matching
    /// the pool's FIFO retirement).
    next_resolve: usize,
    /// Whether a Resolve for `next_resolve` is outstanding.
    resolving: bool,
    /// Per-ticket count of regions whose machines have reported done
    /// (the pool retires — and frees a window slot — only then).
    region_dones: Vec<usize>,
    finished: usize,
}

/// Ships one ticket's region subtrees to their evaluator machines (the
/// parser role's dispatch step, shared by the batch and service
/// parsers).
///
/// Fixed placement sends each region's linearized subtree straight to
/// its modular home. Under the stealing scheduler the parser instead
/// *seeds*: it linearizes each region (same per-node cost), registers
/// the job on its seeded machine's deque — placement chosen by the
/// deployed [`seed_placements`] policy against the park's live load
/// accounts — and broadcasts a small wake so idle machines can claim
/// or steal. The subtree transfer is then charged to whichever machine
/// claims the job (a point-to-point fetch at bus rate; steals of
/// seeded-but-unclaimed jobs re-fetch nothing extra since the data
/// only ever moves once, to the claimer).
fn ship_regions<V: AttrValue>(sh: &BatchShared<V>, ctx: &mut Ctx<BatchMsg<V>>, ticket: usize) {
    ctx.phase("ship subtrees");
    let decomp = &sh.decomps[ticket];
    if sh.scheduler == SchedulerMode::Stealing {
        let work: Vec<u64> = (0..decomp.len())
            .map(|r| {
                sh.plan
                    .region_work(&sh.trees[ticket], decomp, r as RegionId)
                    .max(1)
            })
            .collect();
        let mut st = sh.sched.lock().unwrap();
        let mut load = std::mem::take(&mut st.load);
        let placements = seed_placements(decomp, &work, &mut load);
        st.load = load;
        for (r, &w) in placements.iter().enumerate() {
            let rid = r as RegionId;
            let info = &decomp.regions[r];
            ctx.spend(info.local_size as Time * sh.cost.ship_node_us);
            st.table.insert((ticket, rid), JobLoc::Queued(w));
            st.deques[w].push_back(SimJob {
                ticket,
                region: rid,
                work: work[r],
                bytes: region_wire_size(&sh.trees[ticket], decomp, rid),
                early: Vec::new(),
            });
        }
        // Wake every live machine: idle ones with empty deques can
        // steal. Dead machines get nothing — their reseeded jobs are
        // already on survivors' deques.
        let alive: Vec<usize> = (0..sh.park).filter(|&w| !st.dead[w]).collect();
        drop(st);
        for w in alive {
            ctx.send(ProcId(1 + w), BatchMsg::Wake, 16, "wake");
        }
        return;
    }
    for r in 0..decomp.len() as RegionId {
        let info = &decomp.regions[r as usize];
        ctx.spend(info.local_size as Time * sh.cost.ship_node_us);
        let bytes = region_wire_size(&sh.trees[ticket], decomp, r);
        ctx.send(
            sh.proc_of_region(ticket, r),
            BatchMsg::Subtree { ticket, region: r },
            bytes,
            "subtree",
        );
    }
}

/// The parser's response to the failure detector's crash oracle — the
/// sim mirror of [`crate::parallel::pool::WorkerPool::kill_worker`]'s
/// recovery half, shared by the batch and service parsers.
///
/// Every region job living on the dead machine — queued in its deque
/// or active on it — is reconstituted as a fresh pending job and
/// reseeded onto the least-loaded survivors, then a wake lets them
/// claim. Each lost job's early values are replayed from the shared
/// board's input log, which survives the crash (values still on the
/// wire at crash time were logged at send, so nothing is lost;
/// [`Machine::provide`] drops any duplicate the replay re-delivers).
/// Regions that already reported Done have no table entry and are not
/// re-executed; duplicate sends from half-finished lost regions are
/// suppressed content-keyed at transmit time.
fn recover_regions<V: AttrValue>(sh: &BatchShared<V>, ctx: &mut Ctx<BatchMsg<V>>, peer: ProcId) {
    if sh.scheduler != SchedulerMode::Stealing {
        return;
    }
    // Only evaluator machines are recoverable; the entry points reject
    // fault plans that crash the parser or the librarian.
    let Some(victim) = peer.0.checked_sub(1).filter(|&w| w < sh.park) else {
        return;
    };
    let alive: Vec<usize> = {
        let mut st = sh.sched.lock().expect("sim scheduler lock");
        if st.dead[victim] {
            return;
        }
        st.dead[victim] = true;
        // Everything queued on the victim migrates; every job *active*
        // on it is lost mid-run and rebuilt from scratch.
        let mut lost: Vec<SimJob<V>> = st.deques[victim].drain(..).collect();
        let actives: Vec<(usize, RegionId)> = st
            .table
            .iter()
            .filter_map(|(&key, loc)| match loc {
                JobLoc::Active(w) if *w == victim => Some(key),
                _ => None,
            })
            .collect();
        for &(ticket, region) in &actives {
            let work = sh
                .plan
                .region_work(&sh.trees[ticket], &sh.decomps[ticket], region)
                .max(1);
            lost.push(SimJob {
                ticket,
                region,
                work,
                bytes: region_wire_size(&sh.trees[ticket], &sh.decomps[ticket], region),
                early: Vec::new(),
            });
        }
        st.load[victim] = DEAD_LOAD;
        // A queued job's accumulated early values may miss deliveries
        // that were still on the wire; the input log has everything
        // sent so far, so every lost job replays the full log.
        for job in &mut lost {
            job.early = st
                .logs
                .get(&(job.ticket, job.region))
                .cloned()
                .unwrap_or_default();
        }
        // Deterministic reseed order, least-loaded survivor first.
        lost.sort_by_key(|j| (j.ticket, j.region));
        st.faults.crashes += 1;
        st.faults.regions_reexecuted += lost.len() as u64;
        for job in lost {
            let w = (0..sh.park)
                .filter(|&w| !st.dead[w])
                .min_by_key(|&w| (st.load[w], w))
                // No survivor: park on the victim's own deque until a
                // restart rejoins and claims it.
                .unwrap_or(victim);
            st.load[w] = st.load[w].saturating_add(job.work);
            st.table.insert((job.ticket, job.region), JobLoc::Queued(w));
            st.deques[w].push_back(job);
        }
        (0..sh.park).filter(|&w| !st.dead[w]).collect()
    };
    for w in alive {
        ctx.send(ProcId(1 + w), BatchMsg::Wake, 16, "wake");
    }
}

impl<V: AttrValue> BatchParserProc<V> {
    fn ship(&mut self, ctx: &mut Ctx<BatchMsg<V>>, ticket: usize) {
        let sh = Arc::clone(&self.shared);
        ship_regions(&sh, ctx, ticket);
    }

    /// Resolves (or directly finishes, in naive mode) every ticket
    /// whose roots are complete and whose regions have all reported
    /// done, strictly in order — only then does the pool retire a tree
    /// and free its window slot — keeping the ship window full as
    /// tickets finish.
    fn advance(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        while !self.resolving && self.next_resolve < sh.trees.len() {
            let complete = {
                let roots = sh.root_values.lock().unwrap();
                roots[self.next_resolve].len() == sh.expected_roots[self.next_resolve]
                    && self.region_dones[self.next_resolve] == sh.decomps[self.next_resolve].len()
            };
            if !complete {
                return;
            }
            match sh.result {
                ResultPropagation::Librarian => {
                    ctx.phase("result propagation");
                    ctx.send(
                        sh.librarian,
                        BatchMsg::Resolve {
                            ticket: self.next_resolve,
                        },
                        64,
                        "resolve",
                    );
                    self.resolving = true;
                }
                ResultPropagation::Naive => {
                    let t = self.next_resolve;
                    self.finish_ticket(ctx, t);
                }
            }
        }
    }

    fn finish_ticket(&mut self, ctx: &mut Ctx<BatchMsg<V>>, ticket: usize) {
        let sh = Arc::clone(&self.shared);
        sh.finish.lock().unwrap()[ticket] = ctx.now();
        self.finished += 1;
        self.next_resolve = ticket + 1;
        self.resolving = false;
        // Retirement frees a window slot: dispatch the next tree.
        if self.next_ship < sh.trees.len() {
            let t = self.next_ship;
            self.next_ship += 1;
            self.ship(ctx, t);
        }
        if self.finished == sh.trees.len() {
            ctx.stop();
        }
    }
}

impl<V: AttrValue> Process<BatchMsg<V>> for BatchParserProc<V> {
    fn on_start(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        ctx.phase("parse");
        let nodes: usize = sh.trees.iter().map(|t| t.len()).sum();
        ctx.spend(nodes as Time * sh.cost.parse_node_us);
        *sh.eval_start.lock().unwrap() = ctx.now();
        // Fill the pipeline window.
        while self.next_ship < sh.trees.len().min(sh.depth) {
            let t = self.next_ship;
            self.next_ship += 1;
            self.ship(ctx, t);
        }
        // Degenerate trees with no root attributes complete at once.
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<BatchMsg<V>>, _from: ProcId, msg: BatchMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            BatchMsg::Attr {
                ticket,
                attr,
                value,
                ..
            } => {
                ctx.phase("result propagation");
                {
                    // A re-executed root region re-sends its roots;
                    // each root attribute is unique per ticket, so
                    // presence is the idempotency key (the pool's
                    // exact rule).
                    let mut roots = sh.root_values.lock().unwrap();
                    if roots[ticket].iter().any(|(a, _)| *a == attr) {
                        drop(roots);
                        sh.sched.lock().unwrap().faults.dup_suppressed += 1;
                        return;
                    }
                    roots[ticket].push((attr, value));
                }
                self.advance(ctx);
            }
            BatchMsg::Done { ticket } => {
                self.region_dones[ticket] += 1;
                self.advance(ctx);
            }
            BatchMsg::Resolved { ticket } => {
                debug_assert_eq!(ticket, self.next_resolve);
                self.finish_ticket(ctx, ticket);
                self.advance(ctx);
            }
            _ => {}
        }
    }

    fn on_peer_crash(&mut self, ctx: &mut Ctx<BatchMsg<V>>, peer: ProcId) {
        recover_regions(&self.shared, ctx, peer);
    }
}

/// One active machine on a simulated evaluator (mirrors the pool
/// worker's `Running` entry). The region is recoverable from the
/// machine itself ([`Machine::region`]).
struct BatchRunning<V: AttrValue> {
    ticket: usize,
    machine: Machine<V>,
    next_seg: u32,
    /// Estimated work, returned to this machine's load account at
    /// retirement (stealing scheduler only; 0 under fixed placement).
    work: u64,
}

struct BatchEvaluatorProc<V: AttrValue> {
    shared: Arc<BatchShared<V>>,
    /// This machine's index in the park; it hosts region r of every
    /// tree whenever r mod park == evaluator.
    evaluator: usize,
    /// Active machines in (ticket, region) job order, multiplexed
    /// oldest-first exactly like a pool worker: a starved older machine
    /// yields the (virtual) CPU to the next job's machine instead of
    /// idling.
    running: Vec<BatchRunning<V>>,
    /// Attribute values that raced ahead of their region's subtree,
    /// keyed (ticket, region).
    parked: Vec<(usize, RegionId, NodeId, AttrId, V)>,
}

impl<V: AttrValue> BatchEvaluatorProc<V> {
    /// Steps machines oldest-first until every one is starved,
    /// retiring finished machines (mirrors the pool worker loop; CPU
    /// consumption is serialized on this process by `ctx.spend`).
    fn pump(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        let mut i = 0;
        while i < self.running.len() {
            let ticket = self.running[i].ticket;
            match self.running[i].machine.step() {
                Err(e) => {
                    *sh.error.lock().unwrap() = Some(e);
                    ctx.stop();
                    return;
                }
                Ok(None) => {
                    if self.running[i].machine.is_done() {
                        let stats = self.running[i].machine.stats();
                        sh.per_machine.lock().unwrap()[self.evaluator] += stats;
                        if sh.scheduler == SchedulerMode::Stealing {
                            // Retire from the scheduler board: an
                            // absent table entry reads as "finished"
                            // on every routing path.
                            let region = self.running[i].machine.region();
                            let work = self.running[i].work;
                            let mut st = sh.sched.lock().unwrap();
                            st.table.remove(&(ticket, region));
                            st.load[self.evaluator] = st.load[self.evaluator].saturating_sub(work);
                        }
                        ctx.send(sh.parser, BatchMsg::Done { ticket }, 16, "done");
                        self.running.remove(i);
                    } else {
                        i += 1; // starved: let the next job's machine run
                    }
                }
                Ok(Some(outcome)) => {
                    let label =
                        classify(sh.trees[ticket].grammar(), &sh.classifier, outcome.target);
                    ctx.phase(label);
                    ctx.spend(
                        outcome.cost_units * sh.cost.rule_unit_us
                            + outcome.dynamic_rules as Time * sh.cost.dynamic_rule_us
                            + outcome.static_rules as Time * sh.cost.static_rule_us,
                    );
                    for send in outcome.sends {
                        self.transmit(ctx, i, send);
                    }
                }
            }
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx<BatchMsg<V>>, idx: usize, msg: AttrMsg<V>) {
        let sh = Arc::clone(&self.shared);
        let ticket = self.running[idx].ticket;
        let region = self.running[idx].machine.region();
        let decomp = &sh.decomps[ticket];
        let upward = match msg.to {
            SendTarget::Parser => true,
            SendTarget::Region(r) => Some(r) == decomp.regions[region as usize].parent,
        };
        let mut value = msg.value;
        if upward && sh.result == ResultPropagation::Librarian {
            // Registration phase of the split-phase protocol: large
            // code text streams to the librarian mid-evaluation, tagged
            // with this tree's ticket.
            let next = &mut self.running[idx].next_seg;
            let mut segments: Vec<(SegmentId, Rope)> = Vec::new();
            let deflated = value.deflate(&mut |text: Rope| {
                let id = SegmentId::from_parts(region, *next);
                *next += 1;
                segments.push((id, text));
                id
            });
            if let Some(d) = deflated {
                value = d;
                ctx.phase("result propagation");
                for (id, text) in segments {
                    let bytes = text.physical_wire_size();
                    ctx.send(
                        sh.librarian,
                        BatchMsg::Register { ticket, id, text },
                        bytes,
                        "code-segment",
                    );
                }
            }
        }
        let (dest, dest_region) = match msg.to {
            SendTarget::Parser => (sh.parser, 0),
            SendTarget::Region(r) if sh.scheduler == SchedulerMode::Stealing => {
                // Route via the job-location table, not the modular
                // map: the job may have been seeded elsewhere or
                // stolen. An absent entry means the region already
                // finished — the value is no longer needed.
                let mut st = sh.sched.lock().unwrap();
                let w = match st.table.get(&(ticket, r)) {
                    Some(&(JobLoc::Queued(w) | JobLoc::Active(w))) => w,
                    None => return,
                };
                // Idempotent delivery: every value bound for a live
                // job is appended to its input log at send time, so a
                // crash cannot lose values still on the wire (recovery
                // replays the log). A `(node, attr)` already logged is
                // a re-executed producer replaying its sends — the
                // duplicate is suppressed, and outputs stay
                // byte-identical.
                let dup = {
                    let log = st.logs.entry((ticket, r)).or_default();
                    if log.iter().any(|&(n, a, _)| n == msg.node && a == msg.attr) {
                        true
                    } else {
                        log.push((msg.node, msg.attr, value.clone()));
                        false
                    }
                };
                if dup {
                    st.faults.dup_suppressed += 1;
                    return;
                }
                if w == self.evaluator {
                    st.counters.local_sends += 1;
                } else {
                    st.counters.remote_sends += 1;
                }
                (ProcId(1 + w), r)
            }
            SendTarget::Region(r) => (sh.proc_of_region(ticket, r), r),
        };
        let bytes = value.wire_size();
        ctx.send(
            dest,
            BatchMsg::Attr {
                ticket,
                region: dest_region,
                node: msg.node,
                attr: msg.attr,
                value,
            },
            bytes,
            "attr",
        );
    }

    /// Stealing-scheduler drive loop, mirroring the live worker's
    /// drain → claim-or-steal → block cycle: steps every running
    /// machine until starved, then claims the front of this machine's
    /// own deque — or steals the largest pending job from the
    /// most-loaded victim — and activates it, until no work is left
    /// anywhere.
    /// Pumps, claims at most ONE pending job, pumps it, and — if a job
    /// was claimed — chains a zero-cost self-wake to look for the next
    /// one. The live worker claims one job per loop iteration with a
    /// channel drain in between; claiming the whole deque inside one
    /// atomic handler would make every queued job vanish before any
    /// peer's events interleave, leaving nothing stealable and
    /// un-modelling exactly the window work stealing exists for.
    fn claim_and_pump(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        self.pump(ctx);
        if self.claim_one(ctx) {
            self.pump(ctx);
            ctx.wake_at(ctx.now(), BatchMsg::Wake);
        }
    }

    /// Claims one pending job (own deque front first, else a steal)
    /// and activates it: charges the subtree fetch and machine build,
    /// replays early-arrival values, and enters it into `running`.
    /// Returns `false` when every deque is empty.
    fn claim_one(&mut self, ctx: &mut Ctx<BatchMsg<V>>) -> bool {
        let sh = Arc::clone(&self.shared);
        let me = self.evaluator;
        let claimed = {
            let mut st = sh.sched.lock().unwrap();
            let job = match st.deques[me].pop_front() {
                Some(job) => Some(job),
                None => {
                    let now = ctx.now();
                    let victim = (0..st.deques.len())
                        .filter(|&w| {
                            !st.dead[w] && !st.deques[w].is_empty() && st.busy_until[w] > now
                        })
                        .max_by_key(|&w| (st.load[w], w));
                    victim.and_then(|v| {
                        let (mut best, mut best_work) = (None, 0u64);
                        for (i, j) in st.deques[v].iter().enumerate().rev() {
                            if j.work > best_work
                                && st.busy_until[v] > now + 2 * sh.net.tx_time(j.bytes)
                            {
                                (best, best_work) = (Some(i), j.work);
                            }
                        }
                        let job = st.deques[v].remove(best?).expect("index in range");
                        st.load[v] = st.load[v].saturating_sub(job.work);
                        st.load[me] += job.work;
                        st.counters.steals += 1;
                        st.counters.migrated_attrs += job.early.len() as u64;
                        Some(job)
                    })
                }
            };
            if let Some(j) = &job {
                st.table.insert((j.ticket, j.region), JobLoc::Active(me));
            }
            job
        };
        let Some(job) = claimed else { return false };
        let SimJob {
            ticket,
            region,
            work,
            bytes,
            early,
        } = job;
        // Fetch the linearized subtree (point-to-point pull at bus
        // rate — charged to the claimer, wherever the job ended up),
        // then build the machine exactly as fixed placement does on
        // `Subtree` arrival.
        ctx.phase("ship subtrees");
        ctx.spend(sh.net.tx_time(bytes));
        ctx.phase("build");
        let mut machine = Machine::from_plan(
            &sh.plan,
            &sh.trees[ticket],
            &sh.decomps[ticket],
            region,
            sh.mode,
            MachineScratch::new(),
        );
        let (gn, ge) = machine.graph_size();
        ctx.spend(
            machine.local_nodes() as Time * sh.cost.ship_node_us
                + gn as Time * sh.cost.graph_node_us
                + ge as Time * sh.cost.graph_edge_us,
        );
        for (node, attr, value) in early {
            machine.provide(node, attr, value);
        }
        // Stolen jobs activate out of submission order; keep `running`
        // sorted so the pump's oldest-first preference holds.
        let pos = self
            .running
            .partition_point(|r| (r.ticket, r.machine.region()) < (ticket, region));
        self.running.insert(
            pos,
            BatchRunning {
                ticket,
                machine,
                next_seg: 0,
                work,
            },
        );
        true
    }

    /// Delivers an attribute value under the stealing scheduler. The
    /// sender routed it by the location table, but the job may have
    /// moved (or finished) while the message was on the wire: a value
    /// for a job still queued *here* attaches to the pending job (so a
    /// later steal migrates it), a value for a job active here feeds
    /// the running machine, a value for a job that moved is forwarded
    /// to its new home, and a value for a finished job is dropped.
    fn route_attr(
        &mut self,
        ctx: &mut Ctx<BatchMsg<V>>,
        ticket: usize,
        region: RegionId,
        node: NodeId,
        attr: AttrId,
        value: V,
    ) {
        enum Routed<V> {
            Stored,
            Mine(V),
            Forward(usize, V),
            Dropped,
        }
        let sh = Arc::clone(&self.shared);
        let me = self.evaluator;
        let routed = {
            let mut st = sh.sched.lock().unwrap();
            match st.table.get(&(ticket, region)).copied() {
                Some(JobLoc::Queued(w)) if w == me => {
                    let job = st.deques[me]
                        .iter_mut()
                        .find(|j| j.ticket == ticket && j.region == region)
                        .expect("a Queued(me) job is in my deque");
                    job.early.push((node, attr, value));
                    Routed::Stored
                }
                Some(JobLoc::Active(w)) if w == me => Routed::Mine(value),
                Some(JobLoc::Queued(w) | JobLoc::Active(w)) => Routed::Forward(w, value),
                None => Routed::Dropped,
            }
        };
        match routed {
            Routed::Mine(value) => {
                if let Some(r) = self
                    .running
                    .iter_mut()
                    .find(|r| r.ticket == ticket && r.machine.region() == region)
                {
                    r.machine.provide(node, attr, value);
                }
                self.claim_and_pump(ctx);
            }
            Routed::Stored => self.claim_and_pump(ctx),
            Routed::Forward(w, value) => {
                let bytes = value.wire_size();
                ctx.send(
                    ProcId(1 + w),
                    BatchMsg::Attr {
                        ticket,
                        region,
                        node,
                        attr,
                        value,
                    },
                    bytes,
                    "attr",
                );
            }
            Routed::Dropped => {}
        }
    }
}

impl<V: AttrValue> Process<BatchMsg<V>> for BatchEvaluatorProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<BatchMsg<V>>, _from: ProcId, msg: BatchMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            BatchMsg::Subtree { ticket, region } => {
                debug_assert_eq!(
                    sh.proc_of_region(ticket, region),
                    ProcId(1 + self.evaluator),
                    "subtree shipped to the wrong machine"
                );
                ctx.phase("build");
                let mut machine = Machine::from_plan(
                    &sh.plan,
                    &sh.trees[ticket],
                    &sh.decomps[ticket],
                    region,
                    sh.mode,
                    MachineScratch::new(),
                );
                let (gn, ge) = machine.graph_size();
                ctx.spend(
                    machine.local_nodes() as Time * sh.cost.ship_node_us
                        + gn as Time * sh.cost.graph_node_us
                        + ge as Time * sh.cost.graph_edge_us,
                );
                // Replay values that arrived before this machine existed.
                let mut i = 0;
                while i < self.parked.len() {
                    if (self.parked[i].0, self.parked[i].1) == (ticket, region) {
                        let (_, _, node, attr, value) = self.parked.swap_remove(i);
                        machine.provide(node, attr, value);
                    } else {
                        i += 1;
                    }
                }
                self.running.push(BatchRunning {
                    ticket,
                    machine,
                    next_seg: 0,
                    work: 0,
                });
                self.pump(ctx);
            }
            BatchMsg::Attr {
                ticket,
                region,
                node,
                attr,
                value,
            } => {
                if sh.scheduler == SchedulerMode::Stealing {
                    self.route_attr(ctx, ticket, region, node, attr, value);
                    return;
                }
                match self
                    .running
                    .iter_mut()
                    .find(|r| r.ticket == ticket && r.machine.region() == region)
                {
                    Some(r) => {
                        r.machine.provide(node, attr, value);
                        self.pump(ctx);
                    }
                    None => self.parked.push((ticket, region, node, attr, value)),
                }
            }
            BatchMsg::Wake if sh.scheduler == SchedulerMode::Stealing => {
                self.claim_and_pump(ctx);
            }
            _ => {}
        }
        if sh.scheduler == SchedulerMode::Stealing {
            // Publish how far this handler ran our clock so that peers
            // processed later in event order can tell busy from idle.
            let mut st = sh.sched.lock().expect("sim scheduler lock");
            let me = self.evaluator;
            st.busy_until[me] = st.busy_until[me].max(ctx.now());
        }
    }

    fn on_crash(&mut self) {
        // Volatile state dies with the machine: running region
        // machines and parked early values are lost. The recovery
        // substrate — location table, input logs, load accounts on the
        // shared board — survives; it is the sim's stable storage,
        // mirroring the retained parser-side state of the live pool.
        self.running.clear();
        self.parked.clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        if sh.scheduler != SchedulerMode::Stealing {
            return;
        }
        let me = self.evaluator;
        {
            let mut st = sh.sched.lock().expect("sim scheduler lock");
            st.dead[me] = false;
            // Rejoin with a load account reflecting whatever recovery
            // parked on this deque (normally nothing).
            st.load[me] = st.deques[me].iter().map(|j| j.work).sum();
        }
        // Rejoin the park: claim or steal like any idle machine.
        self.claim_and_pump(ctx);
        let mut st = sh.sched.lock().expect("sim scheduler lock");
        st.busy_until[me] = st.busy_until[me].max(ctx.now());
    }
}

struct BatchLibrarianProc<V: AttrValue> {
    shared: Arc<BatchShared<V>>,
    ledger: SegmentLedger,
}

impl<V: AttrValue> Process<BatchMsg<V>> for BatchLibrarianProc<V> {
    fn on_message(&mut self, ctx: &mut Ctx<BatchMsg<V>>, from: ProcId, msg: BatchMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            BatchMsg::Register { ticket, id, text } => {
                ctx.phase("receive code");
                ctx.spend((text.len() as Time).div_ceil(1024) * sh.cost.resolve_kb_us / 10);
                self.ledger.register(ticket as u64, id, text);
            }
            BatchMsg::Resolve { ticket } => {
                ctx.phase("combine code");
                let total = self.ledger.ticket_bytes(ticket as u64);
                ctx.spend((total as Time).div_ceil(1024) * sh.cost.resolve_kb_us);
                let store = self.ledger.resolve(ticket as u64);
                sh.segstores.lock().unwrap().insert(ticket, store);
                ctx.send(from, BatchMsg::Resolved { ticket }, 64, "resolved");
            }
            _ => {}
        }
    }
}

/// Rejects fault plans the recovery protocol cannot survive: crashes
/// are only recoverable for evaluator machines (ProcIds `1..=park`)
/// and only under the stealing scheduler, whose location table and
/// input logs are the recovery substrate.
fn validate_fault_plan(faults: &FaultPlan, scheduler: SchedulerMode, machines: usize) {
    let mut crashes = faults.crash_procs().peekable();
    if crashes.peek().is_none() {
        return;
    }
    assert!(
        scheduler == SchedulerMode::Stealing,
        "crash injection requires SchedulerMode::Stealing — the location \
         table and input logs are the recovery substrate"
    );
    for p in crashes {
        assert!(
            (1..=machines).contains(&p),
            "fault plan crashes p{p}, which is not an evaluator machine \
             (valid targets: 1..={machines})"
        );
    }
}

/// Runs one simulated *batched* parallel compilation: `trees` stream
/// through the same evaluator machines with up to `pipeline_depth`
/// trees in flight, modelling the pool's split-phase/ticket schedule on
/// the paper's simulated network. Depth 1 reproduces the strict
/// one-tree-at-a-time barrier; depth ≥ 2 lets tree N+1's subtrees ship
/// (and its machines start) while tree N's stragglers drain.
///
/// This entry decomposes each tree into (at most) `config.machines`
/// regions — the whole-tree-ticketing compatibility schedule. Use
/// [`run_sim_batch_with`] to model region-granular scheduling, where a
/// cost-driven decomposition may produce more regions than machines and
/// region jobs round-robin over the park.
///
/// All trees must share one grammar; `plans` must be `Some` for
/// [`MachineMode::Combined`].
///
/// # Panics
///
/// Panics if evaluation fails or the protocol deadlocks — validate the
/// grammar with the sequential evaluators first.
pub fn run_sim_batch<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
) -> BatchSimReport<V> {
    run_sim_batch_with(
        trees,
        plans,
        config,
        pipeline_depth,
        RegionGranularity::Machines(config.machines),
    )
}

/// [`run_sim_batch`] with an explicit [`RegionGranularity`].
///
/// With [`RegionGranularity::Adaptive`] each tree is carved into
/// budget-sized regions independent of the machine count; region `r`
/// runs on machine `r % machines` and each simulated evaluator
/// multiplexes its region jobs oldest-first, exactly like a pool
/// worker. A single huge tree therefore spreads over the whole park in
/// balanced chunks instead of riding one fixed uneven split — the
/// schedule the region-granular [`crate::parallel::pool::WorkerPool`]
/// runs on real threads.
///
/// # Panics
///
/// Panics if evaluation fails or the protocol deadlocks — validate the
/// grammar with the sequential evaluators first.
pub fn run_sim_batch_with<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
    granularity: RegionGranularity,
) -> BatchSimReport<V> {
    run_sim_batch_with_faults(
        trees,
        plans,
        config,
        pipeline_depth,
        granularity,
        &FaultPlan::default(),
    )
}

/// [`run_sim_batch_with`] under a [`FaultPlan`]: evaluator crashes,
/// restarts, and tagged message drops/delays are injected at their
/// scheduled virtual times, and the recovery protocol (oracle crash
/// detection → region re-execution from input logs → idempotent
/// redelivery) runs inside the simulation — the deterministic mirror
/// of [`crate::parallel::pool::WorkerPool::kill_worker`]. Outputs are
/// byte-identical to the fault-free run; the report's
/// [`BatchSimReport::faults`] counters expose what recovery did.
///
/// # Panics
///
/// Panics if the plan crashes any process that is not an evaluator
/// machine (the parser and librarian are not replicated), or schedules
/// crashes without [`SchedulerMode::Stealing`] (the location table and
/// input logs are the recovery substrate); also if evaluation fails or
/// the protocol deadlocks, like [`run_sim_batch_with`].
pub fn run_sim_batch_with_faults<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
    granularity: RegionGranularity,
    faults: &FaultPlan,
) -> BatchSimReport<V> {
    assert!(!trees.is_empty(), "batch must contain at least one tree");
    let g = trees[0].grammar();
    assert!(
        trees.iter().all(|t| Arc::ptr_eq(t.grammar(), g)),
        "all trees in a batch share one grammar"
    );
    let depth = pipeline_depth.max(1);
    let table = SplitTable::new(g.as_ref(), config.min_size_scale);
    let work = WorkTable::new(g.as_ref());
    let decomps: Vec<Arc<Decomposition>> = trees
        .iter()
        .map(|t| Arc::new(decompose_granular(t, &table, &work, granularity)))
        .collect();
    // The machine park: one evaluator process per region up to the
    // configured machine count; beyond that, regions round-robin.
    let machines = decomps
        .iter()
        .map(|d| d.len())
        .max()
        .unwrap()
        .min(config.machines.max(1));
    validate_fault_plan(faults, config.scheduler, machines);
    let expected_roots: Vec<usize> = trees
        .iter()
        .map(|t| {
            let root_sym = g.prod(t.node(t.root()).prod).lhs;
            g.symbol(root_sym).attrs_of_kind(AttrKind::Syn).count()
        })
        .collect();

    let shared = Arc::new(BatchShared {
        trees: trees.to_vec(),
        decomps,
        plan: Arc::new(EvalPlan::from_parts(g, plans.cloned(), None)),
        cost: config.cost,
        mode: config.mode,
        result: config.result,
        classifier: Arc::clone(&config.classifier),
        librarian: ProcId(1 + machines),
        parser: ProcId(0),
        depth,
        park: machines,
        rotate: matches!(granularity, RegionGranularity::Adaptive { .. }),
        scheduler: config.scheduler,
        net: config.net,
        sched: Mutex::new(SimSched {
            deques: (0..machines).map(|_| VecDeque::new()).collect(),
            table: HashMap::new(),
            load: vec![0; machines],
            busy_until: vec![0; machines],
            counters: SchedCounters::default(),
            dead: vec![false; machines],
            logs: HashMap::new(),
            faults: FaultCounters::default(),
        }),
        expected_roots,
        eval_start: Mutex::new(0),
        finish: Mutex::new(vec![0; trees.len()]),
        root_values: Mutex::new(vec![Vec::new(); trees.len()]),
        segstores: Mutex::new(HashMap::new()),
        per_machine: Mutex::new(vec![EvalStats::default(); machines]),
        error: Mutex::new(None),
    });

    let mut sim: Sim<BatchMsg<V>> = Sim::new(config.net);
    sim.add_process(
        "parser",
        BatchParserProc {
            shared: Arc::clone(&shared),
            next_ship: 0,
            next_resolve: 0,
            resolving: false,
            region_dones: vec![0; trees.len()],
            finished: 0,
        },
    );
    for r in 0..machines {
        let letter = (b'a' + (r % 26) as u8) as char;
        sim.add_process(
            format!("evaluator-{letter}"),
            BatchEvaluatorProc {
                shared: Arc::clone(&shared),
                evaluator: r,
                running: Vec::new(),
                parked: Vec::new(),
            },
        );
    }
    sim.add_process(
        "librarian",
        BatchLibrarianProc {
            shared: Arc::clone(&shared),
            ledger: SegmentLedger::new(),
        },
    );
    sim.set_faults(faults.clone());
    sim.run();

    if let Some(e) = shared.error.lock().unwrap().take() {
        panic!("batched parallel evaluation failed: {e}");
    }
    let eval_start = *shared.eval_start.lock().unwrap();
    let finish = shared.finish.lock().unwrap().clone();
    let last = finish.iter().copied().max().unwrap_or(0);
    assert!(
        last >= eval_start && last > 0,
        "batch simulation ended without all roots resolved (deadlock?)"
    );

    let per_machine = shared.per_machine.lock().unwrap().clone();
    let mut stats = EvalStats::default();
    for s in &per_machine {
        stats += *s;
    }
    let segstores = shared.segstores.lock().unwrap();
    let root_values: Vec<Vec<(AttrId, V)>> = shared
        .root_values
        .lock()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(t, roots)| {
            let empty = SegmentStore::new();
            let store = segstores.get(&t).unwrap_or(&empty);
            roots.iter().map(|(a, v)| (*a, v.inflate(store))).collect()
        })
        .collect();
    drop(segstores);

    let (sched, fault_counters) = {
        let st = shared.sched.lock().unwrap();
        (st.counters, st.faults)
    };
    BatchSimReport {
        makespan: last - eval_start,
        finish_times: finish
            .iter()
            .map(|&f| f.saturating_sub(eval_start))
            .collect(),
        parse_time: eval_start,
        regions: shared.decomps.iter().map(|d| d.len()).collect(),
        stats,
        per_machine,
        trace: sim.trace().clone(),
        names: sim.names().to_vec(),
        root_values,
        sched,
        faults: fault_counters,
    }
}

// ---------------------------------------------------------------------
// Service simulation: an *open arrival* request stream against the same
// machine park, with bounded admission and a pluggable dispatch policy.
// Deterministic — this is how scheduling policies are ranked before a
// wall-clock run confirms.
// ---------------------------------------------------------------------

/// One request of an open-arrival service stream: tree `i` of the
/// accompanying slice arrives at `arrival_us`, billed to `tenant`.
#[derive(Debug, Clone, Copy)]
pub struct SimRequest {
    /// Absolute virtual arrival time, µs.
    pub arrival_us: Time,
    /// Tenant the request bills to (fair queueing only).
    pub tenant: u32,
}

/// Result of one simulated service run. All per-request vectors are
/// indexed like the request slice; `None` marks a shed request.
pub struct ServiceSimReport<V> {
    /// Final virtual time (last completion or shed decision).
    pub makespan: Time,
    /// Arrival times, echoed from the request stream.
    pub arrivals: Vec<Time>,
    /// When the parser admitted each request into the waiting queue.
    pub admitted: Vec<Option<Time>>,
    /// When each request's first region job was shipped.
    pub dispatched: Vec<Option<Time>>,
    /// When each request's root attributes were resolved.
    pub finished: Vec<Option<Time>>,
    /// Which requests were shed by admission control.
    pub shed: Vec<bool>,
    /// Regions each tree decomposed into.
    pub regions: Vec<usize>,
    /// Aggregated statistics over every evaluated request.
    pub stats: EvalStats,
    /// Per-evaluator statistics.
    pub per_machine: Vec<EvalStats>,
    /// The activity/message trace.
    pub trace: Trace,
    /// Process names aligned with the trace.
    pub names: Vec<String>,
    /// Per-request root values (empty for shed requests).
    pub root_values: Vec<Vec<(AttrId, V)>>,
    /// Steal-scheduler telemetry for the run (all zeros under
    /// [`SchedulerMode::Fixed`]).
    pub sched: SchedCounters,
    /// Crash/re-execution/duplicate-suppression telemetry (all zeros
    /// when the [`FaultPlan`] is empty).
    pub faults: FaultCounters,
}

impl<V> ServiceSimReport<V> {
    /// End-to-end latency (arrival → roots resolved) of request `i`,
    /// `None` if it was shed.
    pub fn latency(&self, i: usize) -> Option<Time> {
        self.finished[i].map(|f| f - self.arrivals[i])
    }

    /// All end-to-end latencies, request order.
    pub fn latencies(&self) -> Vec<Option<Time>> {
        (0..self.arrivals.len()).map(|i| self.latency(i)).collect()
    }

    /// Number of requests shed by admission control.
    pub fn shed_count(&self) -> usize {
        self.shed.iter().filter(|&&s| s).count()
    }
}

/// Per-request service timestamps, filled in by the parser process and
/// read back by [`run_sim_service`] after the run.
struct ServiceTimes {
    admitted: Mutex<Vec<Option<Time>>>,
    dispatched: Mutex<Vec<Option<Time>>>,
    shed: Mutex<Vec<bool>>,
}

/// The parser role of the service: parses each request when it
/// arrives, applies bounded admission against the waiting queue, and
/// dispatches waiting requests into the pipeline window in the order
/// the [`DispatchPolicy`] prescribes. Resolution stays strictly in
/// *dispatch* order — the pool retires tickets FIFO by dispatch, so a
/// policy reorders service by choosing what enters the window, not by
/// reordering what is already inside.
struct ServiceParserProc<V: AttrValue> {
    shared: Arc<BatchShared<V>>,
    times: Arc<ServiceTimes>,
    requests: Vec<SimRequest>,
    /// Per-request work estimates ([`EvalPlan::tree_work`]) — known at
    /// admission, before any evaluation.
    works: Vec<u64>,
    /// Bounded waiting-room size: an arrival finding this many waiting
    /// requests is shed.
    capacity: usize,
    queue: PolicyQueue,
    /// Dispatched, unretired tickets in dispatch order.
    resolve_order: VecDeque<usize>,
    resolving: bool,
    region_dones: Vec<usize>,
    arrivals_seen: usize,
    admitted_count: usize,
    finished: usize,
}

impl<V: AttrValue> ServiceParserProc<V> {
    /// Fills free window slots from the waiting queue, in policy order.
    fn try_dispatch(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        while self.resolve_order.len() < sh.depth {
            let Some(job) = self.queue.pop() else { break };
            let ticket = job.seq as usize;
            self.times.dispatched.lock().unwrap()[ticket] = Some(ctx.now());
            ship_regions(&sh, ctx, ticket);
            self.resolve_order.push_back(ticket);
        }
    }

    /// Resolves dispatched tickets whose regions have all reported, in
    /// dispatch order (the pool's FIFO retirement).
    fn advance(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        let sh = Arc::clone(&self.shared);
        while !self.resolving {
            let Some(&ticket) = self.resolve_order.front() else {
                return;
            };
            let complete = {
                let roots = sh.root_values.lock().unwrap();
                roots[ticket].len() == sh.expected_roots[ticket]
                    && self.region_dones[ticket] == sh.decomps[ticket].len()
            };
            if !complete {
                return;
            }
            match sh.result {
                ResultPropagation::Librarian => {
                    ctx.phase("result propagation");
                    ctx.send(sh.librarian, BatchMsg::Resolve { ticket }, 64, "resolve");
                    self.resolving = true;
                }
                ResultPropagation::Naive => self.finish_ticket(ctx, ticket),
            }
        }
    }

    fn finish_ticket(&mut self, ctx: &mut Ctx<BatchMsg<V>>, ticket: usize) {
        let sh = Arc::clone(&self.shared);
        sh.finish.lock().unwrap()[ticket] = ctx.now();
        self.finished += 1;
        debug_assert_eq!(self.resolve_order.front(), Some(&ticket));
        self.resolve_order.pop_front();
        self.resolving = false;
        // Retirement freed a window slot.
        self.try_dispatch(ctx);
        self.maybe_stop(ctx);
    }

    fn maybe_stop(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        if self.arrivals_seen == self.requests.len() && self.finished == self.admitted_count {
            ctx.stop();
        }
    }
}

impl<V: AttrValue> Process<BatchMsg<V>> for ServiceParserProc<V> {
    fn on_start(&mut self, ctx: &mut Ctx<BatchMsg<V>>) {
        // The whole arrival schedule becomes alarms; each request is
        // parsed (and admission-checked) only when it arrives.
        for (t, req) in self.requests.iter().enumerate() {
            ctx.wake_at(req.arrival_us, BatchMsg::Arrive { ticket: t });
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<BatchMsg<V>>, _from: ProcId, msg: BatchMsg<V>) {
        let sh = Arc::clone(&self.shared);
        match msg {
            BatchMsg::Arrive { ticket } => {
                self.arrivals_seen += 1;
                // Front-end parse of the arriving source.
                ctx.phase("parse");
                ctx.spend(sh.trees[ticket].len() as Time * sh.cost.parse_node_us);
                if self.queue.len() >= self.capacity {
                    // Backpressure: bounded waiting room, arrival shed.
                    self.times.shed.lock().unwrap()[ticket] = true;
                    self.maybe_stop(ctx);
                    return;
                }
                self.times.admitted.lock().unwrap()[ticket] = Some(ctx.now());
                self.admitted_count += 1;
                self.queue.push(QueuedJob {
                    seq: ticket as u64,
                    tenant: self.requests[ticket].tenant,
                    work: self.works[ticket],
                });
                self.try_dispatch(ctx);
                self.maybe_stop(ctx);
            }
            BatchMsg::Attr {
                ticket,
                attr,
                value,
                ..
            } => {
                ctx.phase("result propagation");
                {
                    // A re-executed root region re-sends its roots;
                    // each root attribute is unique per ticket, so
                    // presence is the idempotency key (the pool's
                    // exact rule).
                    let mut roots = sh.root_values.lock().unwrap();
                    if roots[ticket].iter().any(|(a, _)| *a == attr) {
                        drop(roots);
                        sh.sched.lock().unwrap().faults.dup_suppressed += 1;
                        return;
                    }
                    roots[ticket].push((attr, value));
                }
                self.advance(ctx);
            }
            BatchMsg::Done { ticket } => {
                self.region_dones[ticket] += 1;
                self.advance(ctx);
            }
            BatchMsg::Resolved { ticket } => {
                self.finish_ticket(ctx, ticket);
                self.advance(ctx);
            }
            _ => {}
        }
    }

    fn on_peer_crash(&mut self, ctx: &mut Ctx<BatchMsg<V>>, peer: ProcId) {
        recover_regions(&self.shared, ctx, peer);
    }
}

/// Runs one simulated compilation *service*: `trees[i]` arrives as an
/// open-arrival request at `requests[i].arrival_us`, is parsed and
/// admission-checked on arrival (at most `queue_capacity` requests may
/// wait; later arrivals are shed), and enters the evaluator park's
/// pipeline window in the order `policy` prescribes. Everything
/// downstream of dispatch — region machines, attribute exchange, the
/// split-phase librarian, FIFO-by-dispatch retirement — is exactly the
/// batched schedule of [`run_sim_batch_with`].
///
/// Fully deterministic, which is the point: policy rankings (FIFO vs
/// shortest-job-first vs fair queueing) computed here are exactly
/// reproducible, independent of host load, and the dispatch decisions
/// are made by the same [`PolicyQueue`] the wall-clock service queue
/// uses.
///
/// # Panics
///
/// Panics if evaluation fails or the protocol deadlocks, like
/// [`run_sim_batch_with`]; also if `requests.len() != trees.len()`.
#[allow(clippy::too_many_arguments)]
pub fn run_sim_service<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    requests: &[SimRequest],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
    granularity: RegionGranularity,
    policy: DispatchPolicy,
    queue_capacity: usize,
) -> ServiceSimReport<V> {
    run_sim_service_with_faults(
        trees,
        requests,
        plans,
        config,
        pipeline_depth,
        granularity,
        policy,
        queue_capacity,
        &FaultPlan::default(),
    )
}

/// [`run_sim_service`] under a [`FaultPlan`] — the open-arrival
/// counterpart of [`run_sim_batch_with_faults`]: evaluator crashes and
/// tagged message faults are injected mid-stream and the same
/// region-re-execution recovery runs, so admitted requests complete
/// with byte-identical results while [`ServiceSimReport::faults`]
/// exposes the recovery telemetry.
///
/// # Panics
///
/// Panics under the same conditions as [`run_sim_service`], plus the
/// fault-plan validity rules of [`run_sim_batch_with_faults`].
#[allow(clippy::too_many_arguments)]
pub fn run_sim_service_with_faults<V: AttrValue>(
    trees: &[Arc<ParseTree<V>>],
    requests: &[SimRequest],
    plans: Option<&Arc<Plans>>,
    config: &SimConfig,
    pipeline_depth: usize,
    granularity: RegionGranularity,
    policy: DispatchPolicy,
    queue_capacity: usize,
    faults: &FaultPlan,
) -> ServiceSimReport<V> {
    assert!(!trees.is_empty(), "service stream needs at least one tree");
    assert_eq!(
        trees.len(),
        requests.len(),
        "one request per tree, index-aligned"
    );
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us),
        "requests must be sorted by arrival time (ticket order is arrival order)"
    );
    let g = trees[0].grammar();
    assert!(
        trees.iter().all(|t| Arc::ptr_eq(t.grammar(), g)),
        "all trees in a stream share one grammar"
    );
    let depth = pipeline_depth.max(1);
    let capacity = queue_capacity.max(1);
    let table = SplitTable::new(g.as_ref(), config.min_size_scale);
    let work = WorkTable::new(g.as_ref());
    let decomps: Vec<Arc<Decomposition>> = trees
        .iter()
        .map(|t| Arc::new(decompose_granular(t, &table, &work, granularity)))
        .collect();
    let machines = decomps
        .iter()
        .map(|d| d.len())
        .max()
        .unwrap()
        .min(config.machines.max(1));
    validate_fault_plan(faults, config.scheduler, machines);
    let expected_roots: Vec<usize> = trees
        .iter()
        .map(|t| {
            let root_sym = g.prod(t.node(t.root()).prod).lhs;
            g.symbol(root_sym).attrs_of_kind(AttrKind::Syn).count()
        })
        .collect();
    let works: Vec<u64> = trees.iter().map(|t| work.tree_work(t)).collect();

    let shared = Arc::new(BatchShared {
        trees: trees.to_vec(),
        decomps,
        plan: Arc::new(EvalPlan::from_parts(g, plans.cloned(), None)),
        cost: config.cost,
        mode: config.mode,
        result: config.result,
        classifier: Arc::clone(&config.classifier),
        librarian: ProcId(1 + machines),
        parser: ProcId(0),
        depth,
        park: machines,
        rotate: matches!(granularity, RegionGranularity::Adaptive { .. }),
        scheduler: config.scheduler,
        net: config.net,
        sched: Mutex::new(SimSched {
            deques: (0..machines).map(|_| VecDeque::new()).collect(),
            table: HashMap::new(),
            load: vec![0; machines],
            busy_until: vec![0; machines],
            counters: SchedCounters::default(),
            dead: vec![false; machines],
            logs: HashMap::new(),
            faults: FaultCounters::default(),
        }),
        expected_roots,
        eval_start: Mutex::new(0),
        finish: Mutex::new(vec![0; trees.len()]),
        root_values: Mutex::new(vec![Vec::new(); trees.len()]),
        segstores: Mutex::new(HashMap::new()),
        per_machine: Mutex::new(vec![EvalStats::default(); machines]),
        error: Mutex::new(None),
    });
    let times = Arc::new(ServiceTimes {
        admitted: Mutex::new(vec![None; trees.len()]),
        dispatched: Mutex::new(vec![None; trees.len()]),
        shed: Mutex::new(vec![false; trees.len()]),
    });

    let mut sim: Sim<BatchMsg<V>> = Sim::new(config.net);
    sim.add_process(
        "parser",
        ServiceParserProc {
            shared: Arc::clone(&shared),
            times: Arc::clone(&times),
            requests: requests.to_vec(),
            works,
            capacity,
            queue: PolicyQueue::new(policy),
            resolve_order: VecDeque::new(),
            resolving: false,
            region_dones: vec![0; trees.len()],
            arrivals_seen: 0,
            admitted_count: 0,
            finished: 0,
        },
    );
    for r in 0..machines {
        let letter = (b'a' + (r % 26) as u8) as char;
        sim.add_process(
            format!("evaluator-{letter}"),
            BatchEvaluatorProc {
                shared: Arc::clone(&shared),
                evaluator: r,
                running: Vec::new(),
                parked: Vec::new(),
            },
        );
    }
    sim.add_process(
        "librarian",
        BatchLibrarianProc {
            shared: Arc::clone(&shared),
            ledger: SegmentLedger::new(),
        },
    );
    sim.set_faults(faults.clone());
    sim.run();

    if let Some(e) = shared.error.lock().unwrap().take() {
        panic!("service simulation evaluation failed: {e}");
    }
    let shed = times.shed.lock().unwrap().clone();
    let finish_raw = shared.finish.lock().unwrap().clone();
    let finished: Vec<Option<Time>> = finish_raw
        .iter()
        .zip(&shed)
        .map(|(&f, &s)| if s { None } else { Some(f) })
        .collect();
    assert!(
        finished.iter().zip(&shed).all(|(f, &s)| s || f.is_some()),
        "service simulation ended with unresolved requests (deadlock?)"
    );

    let per_machine = shared.per_machine.lock().unwrap().clone();
    let mut stats = EvalStats::default();
    for s in &per_machine {
        stats += *s;
    }
    let segstores = shared.segstores.lock().unwrap();
    let root_values: Vec<Vec<(AttrId, V)>> = shared
        .root_values
        .lock()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(t, roots)| {
            let empty = SegmentStore::new();
            let store = segstores.get(&t).unwrap_or(&empty);
            roots.iter().map(|(a, v)| (*a, v.inflate(store))).collect()
        })
        .collect();
    drop(segstores);

    let admitted = times.admitted.lock().unwrap().clone();
    let dispatched = times.dispatched.lock().unwrap().clone();
    let (sched, fault_counters) = {
        let st = shared.sched.lock().unwrap();
        (st.counters, st.faults)
    };
    ServiceSimReport {
        makespan: sim.now(),
        arrivals: requests.iter().map(|r| r.arrival_us).collect(),
        admitted,
        dispatched,
        finished,
        shed,
        regions: shared.decomps.iter().map(|d| d.len()).collect(),
        stats,
        per_machine,
        trace: sim.trace().clone(),
        names: sim.names().to_vec(),
        root_values,
        sched,
        faults: fault_counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compute_plans;
    use crate::eval::dynamic_eval;
    use crate::grammar::{Grammar, GrammarBuilder};
    use crate::tree::TreeBuilder;
    use crate::value::Value;

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
        let report = run_sim_batch_with(
            &b.trees,
            Some(&b.plans),
            &SimConfig::paper(4),
            2,
            RegionGranularity::Adaptive { budget },
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
        let granular = run_sim_batch_with(
            &b.trees,
            Some(&b.plans),
            &cfg,
            2,
            RegionGranularity::Adaptive { budget },
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
        let granular = run_sim_batch_with(
            &b.trees,
            Some(&b.plans),
            &cfg,
            2,
            RegionGranularity::Adaptive { budget },
        )
        .makespan;
        assert!(
            granular <= pipelined,
            "region-granular ({granular}µs) must be ≥ the pipelined schedule's throughput ({pipelined}µs)"
        );
    }

    #[test]
    fn stealing_sim_produces_correct_code_and_telemetry() {
        // A mixed stream deep enough that machines go idle while peers
        // hold queued work: the steal path itself must fire, not just
        // the LPT seeding.
        let shapes: Vec<(usize, usize)> = (0..16)
            .map(|i| match i % 4 {
                0 => (96, 6),
                1 => (8, 4),
                2 => (48, 5),
                _ => (16, 4),
            })
            .collect();
        let b = mini_batch(&shapes);
        let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
        let report = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
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
        // Attribute routing went through the shared job-location table,
        // and idle machines actually stole queued work.
        let sent = report.sched.local_sends + report.sched.remote_sends;
        assert!(sent > 0, "no table-routed attribute sends recorded");
        assert!(report.sched.steals > 0, "no steals fired on this stream");
        // Deterministic replay, telemetry included.
        let again = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        assert_eq!(report.makespan, again.makespan);
        assert_eq!(report.finish_times, again.finish_times);
        assert_eq!(report.sched, again.sched);
    }

    #[test]
    fn stealing_beats_fixed_placement_on_a_skewed_huge_tree_stream() {
        // One huge tree amid small ones: fixed modular placement parks
        // every small tree's first region on the same machine while the
        // huge tree's regions gate the others. LPT seeding spreads the
        // smalls and idle machines steal the stragglers.
        let b = mini_batch(&[(256, 6), (8, 4), (8, 4), (8, 4), (8, 4), (8, 4)]);
        let cfg = SimConfig::paper(4);
        let fixed = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        let stealing = run_sim_batch(
            &b.trees,
            Some(&b.plans),
            &cfg.clone().with_scheduler(SchedulerMode::Stealing),
            2,
        );
        // Zero result divergence: byte-identical root attributes.
        for (t, (f, s)) in fixed
            .root_values
            .iter()
            .zip(stealing.root_values.iter())
            .enumerate()
        {
            assert_eq!(f.len(), s.len(), "tree {t}: root attr count differs");
            for ((fa, fv), (sa, sv)) in f.iter().zip(s.iter()) {
                assert_eq!(fa, sa, "tree {t}: attr order differs");
                match (fv.as_rope(), sv.as_rope()) {
                    (Some(fr), Some(sr)) => {
                        assert!(fr.content_eq(sr), "tree {t}: rope diverged")
                    }
                    _ => assert_eq!(fv, sv, "tree {t}: value diverged"),
                }
            }
        }
        // The acceptance bar: ≥ 1.15× throughput on this stream.
        assert!(
            stealing.makespan * 115 <= fixed.makespan * 100,
            "stealing ({}µs) should beat fixed placement ({}µs) by ≥ 1.15×",
            stealing.makespan,
            fixed.makespan
        );
    }

    #[test]
    fn batch_sim_is_deterministic_and_matches_single_tree_at_depth_one() {
        let b = mini_batch(&[(32, 5), (32, 5)]);
        let r1 = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(3), 2);
        let r2 = run_sim_batch(&b.trees, Some(&b.plans), &SimConfig::paper(3), 2);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.finish_times, r2.finish_times);
        // Depth-1 single-tree batch reproduces run_sim's code result.
        let single = run_sim(&b.trees[0], Some(&b.plans), &SimConfig::paper(3));
        let batch1 = run_sim_batch(&b.trees[..1], Some(&b.plans), &SimConfig::paper(3), 1);
        let a = root_code(&single, b.code);
        let c = batch1.root_values[0]
            .iter()
            .find(|(x, _)| *x == b.code)
            .and_then(|(_, v)| v.as_rope().cloned())
            .unwrap();
        assert!(a.content_eq(&c));
    }

    // --- service (open-arrival) simulation ---

    fn requests_at(arrivals: &[(Time, u32)]) -> Vec<SimRequest> {
        arrivals
            .iter()
            .map(|&(arrival_us, tenant)| SimRequest { arrival_us, tenant })
            .collect()
    }

    fn service_code(report: &ServiceSimReport<Value>, t: usize, attr: AttrId) -> Rope {
        report.root_values[t]
            .iter()
            .find(|(a, _)| *a == attr)
            .and_then(|(_, v)| v.as_rope().cloned())
            .expect("root code attribute present")
    }

    #[test]
    fn service_sim_with_simultaneous_arrivals_matches_batch_results() {
        let b = mini_batch(&[(24, 5), (9, 4), (31, 5), (16, 4)]);
        let req = requests_at(&[(0, 0), (0, 0), (0, 0), (0, 0)]);
        let report = run_sim_service(
            &b.trees,
            &req,
            Some(&b.plans),
            &SimConfig::paper(3),
            2,
            RegionGranularity::Machines(3),
            DispatchPolicy::Fifo,
            usize::MAX,
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
            let fin = report.finished[t].expect("finished");
            assert!(report.arrivals[t] <= adm && adm <= dsp && dsp <= fin);
        }
        // FIFO over simultaneous arrivals preserves submission order,
        // exactly like the batch schedule's FIFO retirement.
        for w in report.finished.windows(2) {
            assert!(w[0].unwrap() <= w[1].unwrap(), "finish order violated");
        }
        // Deterministic replay.
        let again = run_sim_service(
            &b.trees,
            &req,
            Some(&b.plans),
            &SimConfig::paper(3),
            2,
            RegionGranularity::Machines(3),
            DispatchPolicy::Fifo,
            usize::MAX,
        );
        assert_eq!(report.finished, again.finished);
        assert_eq!(report.makespan, again.makespan);
    }

    #[test]
    fn sjf_beats_fifo_small_class_latency_on_a_skewed_stream() {
        // A huge request lands amid a burst of small ones. FIFO
        // dispatches it in arrival order, gating every later small
        // request behind its whole evaluation; shortest-job-first
        // (keyed by the same work table adaptive decomposition budgets
        // with) lets the smalls flow past it.
        let mut shapes = vec![(8usize, 4usize); 10];
        shapes[2] = (200, 6);
        let b = mini_batch(&shapes);
        let req = requests_at(&(0..10).map(|i| (i as Time * 1_000, 0)).collect::<Vec<_>>());
        let run = |policy| {
            run_sim_service(
                &b.trees,
                &req,
                Some(&b.plans),
                &SimConfig::paper(4),
                1,
                RegionGranularity::Machines(4),
                policy,
                usize::MAX,
            )
        };
        let fifo = run(DispatchPolicy::Fifo);
        let sjf = run(DispatchPolicy::ShortestJobFirst);
        assert_eq!(fifo.shed_count(), 0);
        assert_eq!(sjf.shed_count(), 0);
        let worst_small = |r: &ServiceSimReport<Value>| {
            (0..10)
                .filter(|&i| i != 2)
                .map(|i| r.latency(i).unwrap())
                .max()
                .unwrap()
        };
        let (wf, ws) = (worst_small(&fifo), worst_small(&sjf));
        assert!(
            ws < wf,
            "SJF worst small latency ({ws}µs) should beat FIFO ({wf}µs)"
        );
        // The huge request still completes correctly under SJF.
        let (dstore, _) = dynamic_eval(&b.trees[2]).unwrap();
        let want = dstore
            .get(b.trees[2].root(), b.code)
            .and_then(|v| v.as_rope().cloned())
            .unwrap();
        assert!(service_code(&sjf, 2, b.code).content_eq(&want));
    }

    #[test]
    fn fair_queueing_shields_a_quiet_tenant_from_a_flooder() {
        // Tenant 0 floods eight requests; tenant 1 submits one mid-
        // flood. Under FIFO the quiet tenant waits out most of the
        // flood; deficit round-robin serves it after at most ~one
        // quantum of tenant-0 work.
        let mut shapes = vec![(12usize, 5usize); 9];
        let quiet = 5usize;
        shapes[quiet] = (8, 4);
        let b = mini_batch(&shapes);
        let mut arrivals: Vec<(Time, u32)> = (0..9).map(|i| (i as Time * 1_000, 0)).collect();
        arrivals[quiet].1 = 1;
        let req = requests_at(&arrivals);
        let work = WorkTable::new(b.trees[0].grammar().as_ref());
        let quantum = work.tree_work(&b.trees[0]);
        let run = |policy| {
            run_sim_service(
                &b.trees,
                &req,
                Some(&b.plans),
                &SimConfig::paper(4),
                1,
                RegionGranularity::Machines(4),
                policy,
                usize::MAX,
            )
        };
        let fifo = run(DispatchPolicy::Fifo);
        let fair = run(DispatchPolicy::FairQueue { quantum });
        let lf = fifo.latency(quiet).unwrap();
        let lq = fair.latency(quiet).unwrap();
        assert!(
            lq < lf,
            "fair queueing ({lq}µs) should shield the quiet tenant vs FIFO ({lf}µs)"
        );
    }

    #[test]
    fn bounded_admission_sheds_deterministically_and_serves_the_rest() {
        // Six near-simultaneous arrivals against a 2-deep waiting room
        // and a depth-1 window: the overflow is shed, everything
        // admitted completes correctly, and a replay is identical.
        let b = mini_batch(&[(16, 5); 6]);
        let req = requests_at(&(0..6).map(|i| (i as Time * 10, 0)).collect::<Vec<_>>());
        let run = || {
            run_sim_service(
                &b.trees,
                &req,
                Some(&b.plans),
                &SimConfig::paper(3),
                1,
                RegionGranularity::Machines(3),
                DispatchPolicy::Fifo,
                2,
            )
        };
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
                assert_eq!(report.finished[t], None);
                assert!(report.root_values[t].is_empty());
            } else {
                assert!(report.finished[t].is_some());
                assert!(service_code(&report, t, b.code).content_eq(&want));
            }
        }
        let again = run();
        assert_eq!(report.shed, again.shed);
        assert_eq!(report.finished, again.finished);
        // A large enough waiting room sheds nothing from the same burst.
        let roomy = run_sim_service(
            &b.trees,
            &req,
            Some(&b.plans),
            &SimConfig::paper(3),
            1,
            RegionGranularity::Machines(3),
            DispatchPolicy::Fifo,
            6,
        );
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
        let shapes: Vec<(usize, usize)> = (0..24)
            .map(|i| match i % 3 {
                0 => (48, 6),
                1 => (16, 4),
                _ => (40, 5),
            })
            .collect();
        let b = mini_batch(&shapes);
        let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        assert_eq!(clean.faults, FaultCounters::default());

        // Crash evaluator-b (ProcId 2) a third of the way through.
        let crash_at = clean.parse_time + clean.makespan / 3;
        let plan = FaultPlan::seeded(11).crash_restart(2, crash_at, 200_000);
        let run = || {
            run_sim_batch_with_faults(
                &b.trees,
                Some(&b.plans),
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

    #[test]
    fn permanent_crash_is_survived_by_the_remaining_park() {
        let b = mini_batch(&[(48, 6), (16, 4), (40, 5), (24, 5), (32, 5), (20, 4)]);
        let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        // Machine d dies for good; three survivors absorb its work.
        let plan = FaultPlan::seeded(3).crash(4, clean.parse_time + clean.makespan / 4);
        let faulty = run_sim_batch_with_faults(
            &b.trees,
            Some(&b.plans),
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
        let req = requests_at(&(0..6).map(|i| (i as Time * 2_000, 0)).collect::<Vec<_>>());
        let cfg = SimConfig::paper(3).with_scheduler(SchedulerMode::Stealing);
        let run = |plan: &FaultPlan| {
            run_sim_service_with_faults(
                &b.trees,
                &req,
                Some(&b.plans),
                &cfg,
                2,
                RegionGranularity::Machines(3),
                DispatchPolicy::Fifo,
                usize::MAX,
                plan,
            )
        };
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
    fn golden_stealing_schedule_on_the_skewed_huge_tree_stream() {
        let b = mini_batch(&[(256, 6), (8, 4), (8, 4), (8, 4), (8, 4), (8, 4)]);
        let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
        let r = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        assert_eq!(r.makespan, 924_132);
        assert_eq!(
            r.finish_times,
            [739_327, 750_837, 824_984, 838_440, 910_676, 924_132]
        );
        assert_eq!(
            r.sched,
            SchedCounters {
                steals: 2,
                migrated_attrs: 0,
                local_sends: 12,
                remote_sends: 42,
            }
        );
    }

    #[test]
    fn golden_service_finish_times_under_fifo_and_sjf() {
        let mut shapes = vec![(8usize, 4usize); 10];
        shapes[2] = (200, 6);
        let b = mini_batch(&shapes);
        let req = requests_at(&(0..10).map(|i| (i as Time * 1_000, 0)).collect::<Vec<_>>());
        let run = |policy, capacity| {
            run_sim_service(
                &b.trees,
                &req,
                Some(&b.plans),
                &SimConfig::paper(4),
                1,
                RegionGranularity::Machines(4),
                policy,
                capacity,
            )
        };
        let fifo = run(DispatchPolicy::Fifo, usize::MAX);
        let sjf = run(DispatchPolicy::ShortestJobFirst, usize::MAX);
        let tight = run(DispatchPolicy::Fifo, 3);
        let times = |r: &ServiceSimReport<Value>| -> Vec<Time> {
            r.finished.iter().map(|f| f.unwrap_or(0)).collect()
        };
        assert_eq!(
            times(&fifo),
            [
                385_764, 455_138, 1_025_429, 1_094_803, 1_164_177, 1_233_551, 1_302_925, 1_372_299,
                1_441_673, 1_511_047
            ]
        );
        // SJF lets the seven waiting smalls pass the huge request 2.
        assert_eq!(
            times(&sjf),
            [
                385_764, 455_138, 1_511_047, 524_512, 593_886, 663_260, 732_634, 802_008, 871_382,
                940_756
            ]
        );
        assert_eq!(fifo.makespan, 1_511_047);
        assert_eq!(sjf.makespan, 1_511_047);
        // A three-deep waiting room behind the huge request sheds the
        // rest of the burst.
        assert_eq!(
            tight.shed,
            [false, false, false, false, true, true, true, true, true, true]
        );
        assert_eq!(
            times(&tight),
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
        let cfg = SimConfig::paper(4).with_scheduler(SchedulerMode::Stealing);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        let crash_at = clean.parse_time + clean.makespan / 3;
        let plan = FaultPlan::seeded(11).crash_restart(2, crash_at, 200_000);
        let faulty = run_sim_batch_with_faults(
            &b.trees,
            Some(&b.plans),
            &cfg,
            2,
            RegionGranularity::Machines(cfg.machines),
            &plan,
        );
        assert_eq!(clean.makespan, 3_201_004);
        assert_eq!(faulty.makespan, 3_202_004);
        assert_eq!(
            faulty.faults,
            FaultCounters {
                crashes: 1,
                regions_reexecuted: 1,
                dup_suppressed: 1,
                ..FaultCounters::default()
            }
        );
        let sched = SchedCounters {
            steals: 20,
            migrated_attrs: 0,
            local_sends: 31,
            remote_sends: 185,
        };
        assert_eq!(clean.sched, sched);
        assert_eq!(faulty.sched, sched);
    }

    #[test]
    #[should_panic(expected = "requires SchedulerMode::Stealing")]
    fn crash_injection_without_the_stealing_scheduler_is_rejected() {
        let b = mini_batch(&[(16, 4)]);
        let plan = FaultPlan::seeded(1).crash(1, 1_000);
        run_sim_batch_with_faults(
            &b.trees,
            Some(&b.plans),
            &SimConfig::paper(2),
            1,
            RegionGranularity::Machines(2),
            &plan,
        );
    }

    #[test]
    #[should_panic(expected = "not an evaluator machine")]
    fn crashing_the_parser_is_rejected() {
        let b = mini_batch(&[(16, 4)]);
        let plan = FaultPlan::seeded(1).crash(0, 1_000);
        let cfg = SimConfig::paper(2).with_scheduler(SchedulerMode::Stealing);
        run_sim_batch_with_faults(
            &b.trees,
            Some(&b.plans),
            &cfg,
            1,
            RegionGranularity::Machines(2),
            &plan,
        );
    }

    #[test]
    fn delayed_attribute_messages_do_not_change_results() {
        let b = mini_batch(&[(32, 5), (16, 4), (24, 5)]);
        let cfg = SimConfig::paper(3).with_scheduler(SchedulerMode::Stealing);
        let clean = run_sim_batch(&b.trees, Some(&b.plans), &cfg, 2);
        // A third of all attribute messages arrive 20 virtual ms late:
        // delivery reorders but the protocol is insensitive to it.
        let plan = FaultPlan::seeded(9).delay_tagged("attr", 333, 20_000);
        let faulty = run_sim_batch_with_faults(
            &b.trees,
            Some(&b.plans),
            &cfg,
            2,
            RegionGranularity::Machines(cfg.machines),
            &plan,
        );
        assert_roots_identical(&clean.root_values, &faulty.root_values);
        assert_eq!(faulty.faults.crashes, 0);
    }
}
