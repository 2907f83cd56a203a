//! Allocation budget of one compilation, per parse-tree node, and of
//! its parse, per token.
//!
//! Heap traffic is what building, evaluating and tearing down a tree
//! mostly costs (ROADMAP, "where teardown's time went"), and unlike a
//! time it repeats exactly: the generator is seeded and evaluation is
//! deterministic, so these ceilings gate on any runner. They are the
//! figures achieved when the test was written, rounded up to the next
//! 0.05 (`static_eval`'s to the next 0.01). A `realloc` counts as one
//! allocation and no free.
//!
//! The counters are thread-local: the harness's own threads allocate
//! too, and only the test's thread is to be counted.

use paragram_core::eval::static_eval;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{agtree, lex, parser, Compiler, PVal};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, frees) this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, frees) = (ALLOCS.get(), FREES.get());
    let out = f();
    (out, ALLOCS.get() - allocs, FREES.get() - frees)
}

#[test]
fn paper_tree_stays_inside_its_allocation_budget() {
    let compiler = Compiler::new();
    let plans = compiler.evals.plans().expect("pascal grammar is l-ordered");
    let src = generate(&GenConfig::paper());
    let tokens = lex::lex(&src).expect("generated source lexes").len();
    let (ast, parse_allocs, _) = counted(|| parser::parse(&src).expect("generated source parses"));

    let (tree, build_allocs, _) = counted(|| agtree::build_tree(&compiler.pg, &ast).unwrap());
    // The tree holds its own handles to the names: dropping the AST
    // frees its boxes and vectors, and no name.
    let ((), _, ast_frees) = counted(|| drop(ast));
    let ((store, _), eval_allocs, eval_frees) = counted(|| static_eval(&tree, plans).unwrap());

    // An error-free program's error attributes are all the empty list,
    // which owns nothing (`pval::tests::empty_error_list_owns_nothing`).
    let mut err_lists = 0;
    for i in 0..store.len() {
        if let Some(PVal::Errs(e)) = store.get_by_index(i) {
            assert!(e.is_empty(), "error-free program, instance {i}: {e:?}");
            err_lists += 1;
        }
    }
    assert!(err_lists > tree.len() / 2, "{err_lists} error attributes");

    let ((), _, drop_frees) = counted(|| drop(store));
    let nodes = tree.len();
    let ((), _, tree_frees) = counted(|| drop(tree));

    let per_node = |n: u64| n as f64 / nodes as f64;
    let per_token = |n: u64| n as f64 / tokens as f64;
    let figures = [
        // Per token. 1.159 and 0.715 while the lexer allocated a
        // lowercase `String` for every word and the parser cloned every
        // identifier token; with names interned in the lexer and tokens
        // moved, 0.470 and 0.445.
        (
            "parser::parse allocations per token",
            per_token(parse_allocs),
            0.50,
        ),
        ("drop(ast) frees per token", per_token(ast_frees), 0.45),
        // (what, achieved, ceiling). Achieved when written: 2.787,
        // 3.031, 0.051, 2.965, and 1.838 for the tree's drop. With every
        // piece of a rule's literal text a leaf of its own, every empty
        // error list an allocation and every declaration cloned into the
        // tree builder, the first four read 5.225, 6.299, 0.975, 5.310.
        // With children and token values in per-tree slabs, names
        // interned and the empty signature owning nothing, the five read
        // 0.007, 3.004, 0.051, 2.941, 0.004; `build_tree` 0.004 once the
        // names came interned from the lexer.
        (
            "build_tree allocations per node",
            per_node(build_allocs),
            0.05,
        ),
        (
            "static_eval allocations per node",
            per_node(eval_allocs),
            3.01,
        ),
        ("static_eval frees per node", per_node(eval_frees), 0.10),
        ("drop(store) frees per node", per_node(drop_frees), 3.00),
        ("drop(tree) frees per node", per_node(tree_frees), 0.05),
    ];
    for (what, got, _) in figures {
        println!("{what}: {got:.3}");
    }
    for (what, got, ceiling) in figures {
        assert!(got <= ceiling, "{what}: {got:.3} > {ceiling}");
    }
}
