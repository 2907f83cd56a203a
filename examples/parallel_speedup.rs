//! Parallel compilation speedup, two ways:
//!
//! 1. on the deterministic simulated network multiprocessor (the
//!    paper's Figure-5 setting, virtual 1987 seconds), and
//! 2. on real host threads (wall-clock), demonstrating that the same
//!    combined-evaluator code path genuinely parallelizes.
//!
//! Run with: `cargo run --release --example parallel_speedup`

use paragram::core::eval::MachineMode;
use paragram::core::parallel::pool::{PoolConfig, WorkerPool};
use paragram::core::parallel::sim::{run_sim, SimConfig};
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::Compiler;
use std::sync::Arc;

fn main() {
    let compiler = Compiler::new();
    let source = generate(&GenConfig::paper());
    let tree = compiler.tree_from_source(&source).expect("workload parses");
    let plans = Arc::clone(compiler.evals.plans().expect("ordered grammar"));
    println!(
        "workload: {} lines, {} tree nodes\n",
        source.lines().count(),
        tree.len()
    );

    println!("simulated network multiprocessor (combined evaluator):");
    let mut base = 0.0;
    for machines in [1, 2, 3, 5] {
        let mut cfg = SimConfig::paper(machines);
        cfg.mode = MachineMode::Combined;
        let r = run_sim(&tree, Some(&plans), &cfg);
        if machines == 1 {
            base = r.eval_time as f64;
        }
        println!(
            "  {machines} machines: {:6.2} virtual s  (speedup {:.2}x)",
            r.eval_secs(),
            base / r.eval_time as f64
        );
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nreal host threads (same machines, wall-clock, {cores} core(s) available):");
    if cores == 1 {
        println!("  note: single-core host — expect correctness, not speedup");
    }
    let mut base = std::time::Duration::ZERO;
    for machines in [1, 2, 4] {
        let r = WorkerPool::new(compiler.evals.plan(), PoolConfig::workers(machines))
            .eval(&tree)
            .expect("parallel evaluation succeeds");
        if machines == 1 {
            base = r.elapsed;
        }
        println!(
            "  {machines} threads: {:>10.2?}  (speedup {:.2}x, {} regions)",
            r.elapsed,
            base.as_secs_f64() / r.elapsed.as_secs_f64(),
            r.regions
        );
    }
}
