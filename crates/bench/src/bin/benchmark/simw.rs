//! The simulator workload: the paper's own experiment on the
//! deterministic `netsim` machine park. Virtual makespans repeat
//! exactly for a seed, so a move in them is a policy change, not
//! noise; the wall time of a run is the simulator's own cost.
//!
//! On this workload `lines_per_s` and `seq_lines_per_s` are in
//! *virtual* seconds — each paper-shape tree's lines over its 5-machine
//! and 1-machine evaluation times, Figure 5's end points, the median
//! tree reported — while `op_ms_*` are the simulator's own cost, box
//! milliseconds per round of simulations.

use crate::calib::BoxClock;
use crate::inputs::{seed_stream, Checked, Corpus, Digest, Program, Shape, DEFAULT_SEED};
use crate::layers::{self, Tree};
use crate::metrics::{Measured, RateSample, Report};
use crate::trace::Recorder;
use crate::{stats, Workload};
use paragram_bench::stream::SizeClass;
use paragram_core::grammar::AttrId;
use paragram_core::parallel::sim::{run_sim, run_sim_batch, SimConfig};
use paragram_netsim::trace::Trace;
use paragram_netsim::ProcId;
use paragram_pascal::{Compiler, PVal};
use rand::Rng;
use std::time::Instant;

/// Paper-shape trees each simulated alone. Six, because how well one
/// tree splits five ways is the luck of its seed: one tree's 5-machine
/// makespan ranged 6.6–15 virtual seconds across seeds.
const PAPER_TREES: usize = 6;
/// Machines of the batch run, and its pipeline depth.
const BATCH_MACHINES: usize = 4;
const BATCH_DEPTH: usize = 2;
/// Trees of the mixed batch (proc and unit sizes alternating).
const BATCH_TREES: usize = 24;

pub struct SimPaper {
    compiler: Compiler,
    /// The paper trees first, then the mixed batch.
    corpus: Corpus,
    trees: Vec<Tree>,
}

/// One round: each paper tree at 1 and at 5 machines, then the batch.
struct Round {
    wall_secs: f64,
    /// Per paper tree, the 1-machine and 5-machine evaluation times.
    one_us: Vec<u64>,
    five_us: Vec<u64>,
    batch_us: u64,
    events: usize,
    msgs: usize,
    /// Evaluator busy time over machines × makespan, 5-machine run.
    util: f64,
    ok: bool,
}

/// Runs one simulation, adding its wall time to `wall_secs` (checking
/// its output afterwards is not timed) and recording a span if traced.
fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    request: u32,
    wall_secs: &mut f64,
    work: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = match rec {
        Some(rec) => rec.span("core.parallel.sim", None, request, work),
        None => work(),
    };
    *wall_secs += t.elapsed().as_secs_f64();
    out
}

fn evaluator_util(trace: &Trace, names: &[String], makespan: u64) -> f64 {
    let busy: Vec<u64> = names
        .iter()
        .enumerate()
        .filter(|(_, n)| n.starts_with("evaluator-"))
        .map(|(i, _)| trace.busy_time(ProcId(i)))
        .collect();
    busy.iter().sum::<u64>() as f64 / (busy.len().max(1) as u64 * makespan.max(1)) as f64
}

impl SimPaper {
    /// Set-up: the paper trees and the mixed batch parsed, `Compiler::new`
    /// and one warm round.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let w = Self::new(seed)?;
        w.round(None, 0);
        Ok(w)
    }

    fn new(seed: u64) -> Result<Self, String> {
        let compiler = Compiler::new();
        let mut seeds = seed_stream(seed, 0x500);
        let mut programs: Vec<Program> = (0..PAPER_TREES)
            .map(|_| Program::generate(Shape::Size(SizeClass::Paper), seeds.next_u64()))
            .collect();
        programs.extend((0..BATCH_TREES).map(|i| {
            let class = if i % 2 == 0 {
                SizeClass::Proc
            } else {
                SizeClass::Unit
            };
            Program::generate(Shape::Size(class), seeds.next_u64())
        }));
        let trees = programs
            .iter()
            .map(|p| compiler.tree_from_source(&p.source))
            .collect::<Result<Vec<Tree>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(SimPaper {
            compiler,
            corpus: Corpus::new(programs),
            trees,
        })
    }

    /// Whether the root code attribute among `roots` is program
    /// `program`'s reference assembly.
    fn code_ok(&self, roots: &[(AttrId, PVal)], program: usize) -> bool {
        // Before the reference pass (the warm round) there is nothing
        // to compare against.
        let Some(want) = self.corpus.asm_digest.get(program) else {
            return true;
        };
        roots
            .iter()
            .find(|(a, _)| *a == self.compiler.pg.s_code)
            .is_some_and(|(_, v)| Digest::of(v.code().to_string().as_bytes()) == *want)
    }

    fn round(&self, mut rec: Option<&mut Recorder>, request: u32) -> Round {
        let plans = self.compiler.evals.plans();
        let mut r = Round {
            wall_secs: 0.0,
            one_us: Vec::new(),
            five_us: Vec::new(),
            batch_us: 0,
            events: 0,
            msgs: 0,
            util: 0.0,
            ok: true,
        };
        for (i, tree) in self.trees[..PAPER_TREES].iter().enumerate() {
            for machines in [1, 5] {
                let sim = timed(&mut rec, request, &mut r.wall_secs, || {
                    run_sim(tree, plans, &SimConfig::paper(machines))
                });
                r.ok &= self.code_ok(&sim.root_values, i);
                r.events += sim.trace.activities.len();
                r.msgs += sim.trace.messages.len();
                if machines == 1 {
                    r.one_us.push(sim.eval_time);
                } else {
                    r.five_us.push(sim.eval_time);
                    r.util +=
                        evaluator_util(&sim.trace, &sim.names, sim.eval_time) / PAPER_TREES as f64;
                }
            }
        }
        let batch = timed(&mut rec, request, &mut r.wall_secs, || {
            run_sim_batch(
                &self.trees[PAPER_TREES..],
                plans,
                &SimConfig::paper(BATCH_MACHINES),
                BATCH_DEPTH,
            )
        });
        r.ok &= batch.root_values.len() == BATCH_TREES
            && batch
                .root_values
                .iter()
                .enumerate()
                .all(|(i, roots)| self.code_ok(roots, PAPER_TREES + i));
        r.events += batch.trace.activities.len();
        r.msgs += batch.trace.messages.len();
        r.batch_us = batch.makespan;
        r
    }
}

impl Workload for SimPaper {
    fn check(&mut self, seed: u64) -> Checked {
        self.corpus.check(&self.compiler, seed)
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.corpus.digest_into(&mut d);
        d.0
    }

    fn measure(&mut self, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut op_ms = Vec::new();
        let virtual_rates = |us: &[u64]| -> Vec<RateSample> {
            us.iter()
                .zip(&self.corpus.programs)
                .map(|(&us, p)| RateSample {
                    class: 0,
                    lines: p.lines as f64,
                    secs: us as f64 / 1e6,
                })
                .collect()
        };
        let mut clock = BoxClock::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let r = self.round(None, 0);
            m.par.extend(virtual_rates(&r.five_us));
            m.seq.extend(virtual_rates(&r.one_us));
            op_ms.push(r.wall_secs * clock.speed() * 1e3);
            m.attempted += 1;
            m.failed += usize::from(!r.ok);
        }
        m.op_ms.push(op_ms);
        m.box_speed = clock.speeds;
        m
    }

    fn layers(
        &mut self,
        seconds: f64,
        checked: &Checked,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> (usize, usize) {
        let staged = layers::staged_pass(&self.compiler, &self.corpus, rec);
        layers::report_layers(rec, checked, &staged.seq, None, report);

        let mut rounds = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < 0.5 * seconds {
            rounds.push(self.round(Some(rec), rounds.len() as u32));
        }
        let last = rounds.last().expect("at least one round");
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_secs).collect();
        let wall = stats::median(&walls);
        let five: Vec<f64> = last.five_us.iter().map(|&us| us as f64).collect();
        report.set_sampled(
            "sim_makespan_us",
            stats::median(&five),
            stats::summarize(&five),
        );
        report.set("sim_batch_makespan_us", last.batch_us as f64);
        report.set_sampled("sim_wall_s", wall, stats::summarize(&walls));
        report.set("sim_events", last.events as f64);
        report.set("sim_msgs", last.msgs as f64);
        report.set("sim_wall_ns_per_event", wall * 1e9 / last.events as f64);
        report.set("sim_machine_util", last.util);

        let failed = staged.failed + rounds.iter().filter(|r| !r.ok).count();
        (self.corpus.programs.len() + rounds.len(), failed)
    }
}

/// What every run measures on the pinned reference inputs — this
/// workload's programs at [`DEFAULT_SEED`], whatever `--workload` and
/// `--seed` say. None of it is a wall time, so it repeats to the last
/// digit, and a move is a change to the code generator or to the
/// simulated scheduling policy, never noise: these are the end-to-end
/// metrics that can carry a 1 % bound.
pub struct Reference {
    /// Size and run cost (`vax::Vm::steps`) of the generated code.
    pub asm_bytes_per_line: f64,
    pub vm_steps_per_line: f64,
    /// Σ 1-machine ÷ Σ 5-machine evaluation time of the paper trees:
    /// Figure 5's end point.
    pub sim_speedup: f64,
    /// Source lines of the 24-tree batch per virtual second of its
    /// makespan on 4 machines.
    pub sim_batch_lines_per_vs: f64,
    pub failures: Vec<String>,
}

pub fn reference() -> Result<Reference, String> {
    let mut w = SimPaper::new(DEFAULT_SEED)?;
    if Some(w.input_digest()) != crate::inputs::pinned("sim_paper", DEFAULT_SEED) {
        return Err(
            "the reference inputs no longer hash to the digest pinned for sim_paper".into(),
        );
    }
    let checked = w.check(DEFAULT_SEED);
    let round = w.round(None, 0);
    let mut failures = checked.failures;
    if !round.ok {
        failures.push("reference: a simulation returned other code than the compiler".into());
    }
    let batch_lines: usize = w.corpus.programs[PAPER_TREES..]
        .iter()
        .map(|p| p.lines)
        .sum();
    let steps = &checked.vm_steps_per_line;
    Ok(Reference {
        asm_bytes_per_line: checked.asm_bytes as f64 / checked.lines as f64,
        vm_steps_per_line: steps.iter().sum::<f64>() / steps.len() as f64,
        sim_speedup: round.one_us.iter().sum::<u64>() as f64
            / round.five_us.iter().sum::<u64>() as f64,
        sim_batch_lines_per_vs: batch_lines as f64 * 1e6 / round.batch_us as f64,
        failures,
    })
}
