//! Recompiling an edited program through the memo — incremental
//! evaluation by function caching (Pugh & Teitelbaum, POPL 1989), not
//! by change propagation over a retained dependency graph.
//!
//! The paper's §5 sets incremental evaluators aside: they are "easily
//! applicable only in the context of a structure editor", and even an
//! editor "is likely to require a fast batch evaluator". The batch
//! driver's cross-tree memo needs no editor: it caches finished subtree
//! evaluations keyed by (subtree content, inherited values at its
//! root), so recompiling an edited source through the same driver
//! replays every memo point the edit left alone and re-evaluates the
//! rest.
//!
//! We compile a small generated program through a memo-on driver, edit
//! one token (`t0 := a + b` → `t1 := a + b`) and recompile the edited
//! source through the same driver, asserting its assembly equals a cold
//! sequential compile's. The paper-sized program gets the same recipe:
//! its leaf regions are all declaration lists, which have two visits
//! and so are no memo points, so nothing is probed and the edited
//! program is evaluated again in full.
//!
//! Run with: `cargo run --release --example incremental`

use paragram::core::memo::MemoCounters;
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{Compiler, DriverConfig};

/// The memo's byte budget: far more than either program fills.
const MEMO_BYTES: usize = 256 << 20;

/// One compilation through the driver: its assembly, the memo counters
/// it moved and the rules it applied.
struct Run {
    asm: String,
    memo: MemoCounters,
    rules: usize,
}

/// Compiles `src` cold through a fresh memo-on driver (two workers,
/// memo points at a sixteenth of the tree's work), then `edited`
/// through the same driver.
fn cold_then_edited(compiler: &Compiler, src: &str, edited: &str) -> (Run, Run) {
    let tree = compiler.tree_from_source(src).expect("parses");
    let budget = compiler.evals.plan().tree_work(&tree) / 16;
    let mut driver = compiler.batch_driver(
        DriverConfig::workers(2)
            .with_adaptive_budget(budget)
            .with_memo_capacity(MEMO_BYTES),
    );
    let mut run = |src: &str| {
        let tree = compiler.tree_from_source(src).expect("parses");
        let before = driver.memo_counters().expect("memo on");
        let out = driver.compile_tree(&tree).expect("evaluates");
        let memo = driver.memo_counters().expect("memo on").since(&before);
        let rules = out.stats.static_applied + out.stats.dynamic_applied;
        let asm = compiler.output_from_store(&tree, &out.store, out.stats).asm;
        Run { asm, memo, rules }
    };
    (run(src), run(edited))
}

fn report(name: &str, cold: &Run, warm: &Run) {
    let m = |r: &Run| {
        format!(
            "{} probes ({} hits, {} misses), {} inserts",
            r.memo.hits + r.memo.misses,
            r.memo.hits,
            r.memo.misses,
            r.memo.inserts
        )
    };
    println!("{name}:");
    println!("  cold   {:>7} rules; {}", cold.rules, m(cold));
    println!(
        "  edited {:>7} rules ({:.1}% of cold); {}",
        warm.rules,
        100.0 * warm.rules as f64 / cold.rules as f64,
        m(warm)
    );
}

fn main() {
    let compiler = Compiler::new();
    for (name, cfg) in [
        ("small program", GenConfig::small()),
        ("paper program", GenConfig::paper()),
    ] {
        let src = generate(&cfg);
        let edited = src.replacen("t0 := a + b", "t1 := a + b", 1);
        assert_ne!(src, edited, "the edit applies");
        let (cold, warm) = cold_then_edited(&compiler, &src, &edited);
        let fresh = compiler.compile(&edited).expect("compiles");
        assert_eq!(
            warm.asm, fresh.asm,
            "{name}: the recompile is a cold compile's"
        );
        report(name, &cold, &warm);
    }
    println!("each edited recompile's assembly equals a cold compile of the edited source");
}
