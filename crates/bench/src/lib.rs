//! Shared harness code for the figure/table binaries and Criterion
//! benches: the paper workload, simulator configurations, request
//! streams ([`stream`]) and small formatting helpers.

pub mod stream;

use paragram_core::analysis::Plans;
use paragram_core::eval::{EvalPlan, MachineMode};
use paragram_core::parallel::sim::{run_sim, SimConfig, SimReport};
use paragram_core::parallel::{phase_classifier, PhaseClassifier, ResultPropagation};
use paragram_core::tree::ParseTree;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{Compiler, PVal};
use std::sync::Arc;

/// The measurement workload: compiler, attributed tree and plans for
/// the paper-shaped generated program.
pub struct Workload {
    /// The AG compiler (grammar + plans).
    pub compiler: Compiler,
    /// The generated source text.
    pub source: String,
    /// The attributed parse tree.
    pub tree: Arc<ParseTree<PVal>>,
    /// Static plans.
    pub plans: Arc<Plans>,
}

impl Workload {
    /// Builds the paper workload (≈2000 lines, ≈60 procedures).
    pub fn paper() -> Workload {
        Workload::from_config(&GenConfig::paper())
    }

    /// Builds a smaller workload (for quick runs and tests).
    pub fn small() -> Workload {
        Workload::from_config(&GenConfig::small())
    }

    /// Builds a workload from a generator configuration.
    ///
    /// # Panics
    ///
    /// Panics if the generated source fails to compile — covered by
    /// generator tests.
    pub fn from_config(cfg: &GenConfig) -> Workload {
        let compiler = Compiler::new();
        let source = generate(cfg);
        let tree = compiler
            .tree_from_source(&source)
            .expect("generated workload parses");
        let plans = Arc::clone(compiler.evals.plans().expect("pascal grammar is ordered"));
        Workload {
            compiler,
            source,
            tree,
            plans,
        }
    }

    /// Source line count.
    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }

    /// The compiler's shared evaluation plan: grammar analysis, visit
    /// sequences and the compiled visit programs, built once per
    /// grammar. Benchmarks take this so program compilation stays out
    /// of their timed loops.
    pub fn plan(&self) -> &Arc<EvalPlan<PVal>> {
        self.compiler.evals.plan()
    }
}

/// The Figure-6 phase classifier for the Pascal grammar's attribute
/// names.
pub fn pascal_classifier() -> PhaseClassifier {
    phase_classifier(vec![
        ("env", "symbol table"),
        ("off", "symbol table"),
        ("sig", "symbol table"),
        ("code", "code generation"),
        ("errs", "code generation"),
        ("ty", "code generation"),
    ])
}

/// Simulator configuration for the Pascal workload.
pub fn pascal_sim_config(
    machines: usize,
    mode: MachineMode,
    result: ResultPropagation,
) -> SimConfig {
    let mut cfg = SimConfig::paper(machines);
    cfg.mode = mode;
    cfg.result = result;
    cfg.classifier = pascal_classifier();
    cfg
}

/// Runs one simulated parallel compilation of a workload.
pub fn simulate(w: &Workload, machines: usize, mode: MachineMode) -> SimReport<PVal> {
    let cfg = pascal_sim_config(machines, mode, ResultPropagation::Librarian);
    run_sim(&w.tree, Some(&w.plans), &cfg)
}

/// Formats a µs time as seconds with 2 decimals.
pub fn fmt_secs(us: u64) -> String {
    format!("{:6.2}s", us as f64 / 1e6)
}

/// Renders a simple horizontal bar for terminal tables.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}
