//! An edited program recompiled through the memo: the batch driver's
//! cross-tree memo is the repo's incremental evaluator. Each case
//! compiles a generated program cold through a memo-on driver (two
//! workers, memo points at a sixteenth of the tree's work, 256 MiB),
//! recompiles an edited source through the same driver and checks the
//! assembly against a cold sequential compile of the edited source.
//!
//! The counts are exact. A small program is one whole-tree job on one
//! worker, so its memo points are probed in one fixed order; the paper
//! program has no memo points at all (its leaf regions are declaration
//! lists, which have two visits), so its counters stay zero and every
//! rule is re-applied.

use paragram::core::memo::MemoCounters;
use paragram::pascal::generator::{generate, GenConfig};
use paragram::pascal::{Compiler, DriverConfig};

/// One compilation through the driver: its assembly, the memo counters
/// it moved as (hits, misses, inserts) and the rules it applied.
struct Run {
    asm: String,
    memo: (u64, u64, u64),
    rules: usize,
}

/// Compiles `src` cold, then `edited`, through one memo-on driver, and
/// checks the recompile against a cold sequential compile.
fn cold_then_edited(src: &str, edited: &str) -> (Run, Run) {
    assert_ne!(src, edited, "the edit applies");
    let compiler = Compiler::new();
    let tree = compiler.tree_from_source(src).unwrap();
    let budget = compiler.evals.plan().tree_work(&tree) / 16;
    let mut driver = compiler.batch_driver(
        DriverConfig::workers(2)
            .with_adaptive_budget(budget)
            .with_memo_capacity(256 << 20),
    );
    let mut run = |src: &str| {
        let tree = compiler.tree_from_source(src).unwrap();
        let before = driver.memo_counters().unwrap();
        let out = driver.compile_tree(&tree).unwrap();
        let MemoCounters {
            hits,
            misses,
            inserts,
            ..
        } = driver.memo_counters().unwrap().since(&before);
        let rules = out.stats.static_applied + out.stats.dynamic_applied;
        let asm = compiler.output_from_store(&tree, &out.store, out.stats).asm;
        Run {
            asm,
            memo: (hits, misses, inserts),
            rules,
        }
    };
    let (cold, warm) = (run(src), run(edited));
    let fresh = compiler.compile(edited).unwrap();
    assert!(fresh.errors.is_empty(), "{:?}", fresh.errors);
    assert_eq!(warm.asm, fresh.asm, "the recompile is a cold compile's");
    assert_eq!(cold.asm, compiler.compile(src).unwrap().asm);
    (cold, warm)
}

/// A one-token edit in the first procedure body, `c0f0`'s, leaves every
/// memo point's key alone: all nine hit, and 4 700 of 11 004 rules
/// re-run (42.7 %).
#[test]
fn a_token_edit_replays_every_point() {
    let src = generate(&GenConfig::small());
    let edited = src.replacen("t0 := a + b", "t1 := a + b", 1);
    let (cold, warm) = cold_then_edited(&src, &edited);
    assert_eq!((cold.memo, cold.rules), ((0, 9, 9), 11_004));
    assert_eq!((warm.memo, warm.rules), ((9, 0, 0), 4_700));
}

/// An edit that adds an `if` to the second procedure body, `c0f1`'s,
/// hands out one more unique-id token, and every token numbered after
/// it shifts. The tree builder numbers each list last item first, so
/// `c0f0`, which precedes `c0f1`, is numbered after the edit: its
/// tokens shift, its procedure label with them, and every environment
/// that can see `c0f0` carries that label. A point whose subtree holds
/// a shifted token, or whose inherited environment does, misses: three
/// of the nine miss and are installed afresh, and the recompile's labels
/// are the cold compile's.
#[test]
fn an_edit_that_adds_a_label_misses_the_points_it_renumbers() {
    let src = generate(&GenConfig::small());
    let (at, _) = src.match_indices("t0 := a + b;").nth(1).unwrap();
    let edited = format!("{}if t0 < 0 then t2 := 0; {}", &src[..at], &src[at..]);
    let (cold, warm) = cold_then_edited(&src, &edited);
    assert_eq!((cold.memo, cold.rules), ((0, 9, 9), 11_004));
    assert_eq!((warm.memo, warm.rules), ((6, 3, 3), 6_860));
}

/// The paper program has no memo points under this recipe: nothing is
/// probed, and the recompile re-applies every rule.
#[test]
fn the_paper_program_has_no_memo_points() {
    let src = generate(&GenConfig::paper());
    let edited = src.replacen("t0 := a + b", "t1 := a + b", 1);
    let (cold, warm) = cold_then_edited(&src, &edited);
    assert_eq!((cold.memo, cold.rules), ((0, 0, 0), 139_121));
    assert_eq!((warm.memo, warm.rules), ((0, 0, 0), 139_121));
}
