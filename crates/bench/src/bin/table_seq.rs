//! §4.1 sequential comparison: AG evaluators vs the conventional
//! compiler.
//!
//! The paper compares its sequential evaluator against the vendor Pascal
//! compiler on identical hardware and reports parsing time separately.
//! Here the conventional baseline is the `direct` single-pass compiler
//! over the same AST, and two time scales are shown: *virtual* SUN-2
//! seconds from the simulator's cost model (comparable to the paper's
//! numbers) and real host wall-clock times.

use paragram_bench::{fmt_secs, simulate, Workload};
use paragram_core::eval::{dynamic_eval, MachineMode};
use paragram_pascal::direct::compile_direct;
use paragram_pascal::parser::parse;
use paragram_pascal::run_asm;
use std::time::Instant;

fn main() {
    let w = Workload::paper();
    println!(
        "§4.1 — sequential compilation of the {}-line workload\n",
        w.lines()
    );

    // Virtual (1987 SUN-2) seconds from the simulator.
    let combined = simulate(&w, 1, MachineMode::Combined);
    let dynamic = simulate(&w, 1, MachineMode::Dynamic);
    println!("virtual 1987 seconds (simulator cost model):");
    println!(
        "  parsing (reported separately)   {}",
        fmt_secs(combined.parse_time)
    );
    println!(
        "  static/combined evaluation      {}",
        fmt_secs(combined.eval_time)
    );
    println!(
        "  dynamic evaluation              {}",
        fmt_secs(dynamic.eval_time)
    );

    // Real host times.
    println!("\nreal host wall-clock:");
    let t = Instant::now();
    let ast = parse(&w.source).expect("workload parses");
    let parse_t = t.elapsed();
    println!("  parse + AST                     {parse_t:>10.2?}");

    let t = Instant::now();
    let tree = w.compiler.tree_from_source(&w.source).unwrap();
    let tree_t = t.elapsed();
    println!("  attributed-tree construction    {tree_t:>10.2?}");

    let t = Instant::now();
    let (store_s, stats_s) = w.compiler.evals.eval_sequential(&tree).unwrap();
    let static_t = t.elapsed();
    println!(
        "  AG static evaluation            {static_t:>10.2?}  ({} rules)",
        stats_s.static_applied
    );

    let t = Instant::now();
    let (_store_d, stats_d) = dynamic_eval(&tree).unwrap();
    let dynamic_t = t.elapsed();
    println!(
        "  AG dynamic evaluation           {dynamic_t:>10.2?}  ({} rules, {} graph edges)",
        stats_d.dynamic_applied, stats_d.graph_edges
    );

    let t = Instant::now();
    let direct = compile_direct(&ast);
    let direct_t = t.elapsed();
    println!("  direct (conventional) compile   {direct_t:>10.2?}");

    // Output quality: both compilers' programs must behave identically;
    // report code sizes (the paper: "code quality at least comparable").
    let ag_out = w.compiler.output_from_store(&tree, &store_s, stats_s);
    assert!(ag_out.errors.is_empty());
    assert!(direct.errors.is_empty());
    let ag_run = run_asm(&ag_out.asm).expect("AG output runs");
    let direct_run = run_asm(&direct.asm).expect("direct output runs");
    assert_eq!(ag_run, direct_run, "compilers disagree!");
    let (opt, pstats) = paragram_pascal::optimize_asm(&ag_out.asm).unwrap();
    println!("\ngenerated code:");
    println!(
        "  AG assembly                     {:>8} lines",
        ag_out.asm.lines().count()
    );
    println!(
        "  direct assembly                 {:>8} lines",
        direct.asm.lines().count()
    );
    println!(
        "  after peephole                  {:>8} lines  ({} removed, {} rewritten)",
        opt.lines().count(),
        pstats.removed,
        pstats.rewritten
    );
    let prog = paragram_vax::assemble(&ag_out.asm).unwrap();
    println!(
        "  machine-code size estimate      {:>8} bytes (vs {} bytes of assembly text)",
        prog.machine_size(),
        ag_out.asm.len()
    );
    println!("\nboth compilers produce behaviourally identical programs ✓");
}
