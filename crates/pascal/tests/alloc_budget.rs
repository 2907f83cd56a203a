//! Allocation budget of one compilation, per parse-tree node.
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
use paragram_pascal::{agtree, parser, Compiler, PVal};
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
    let ast = parser::parse(&generate(&GenConfig::paper())).expect("generated source parses");

    let (tree, build_allocs, _) = counted(|| agtree::build_tree(&compiler.pg, &ast).unwrap());
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
    let figures = [
        // (what, achieved, ceiling). Achieved when written: 2.787,
        // 3.031, 0.051, 2.965, and 1.838 for the tree's drop. With every
        // piece of a rule's literal text a leaf of its own, every empty
        // error list an allocation and every declaration cloned into the
        // tree builder, the first four read 5.225, 6.299, 0.975, 5.310.
        // With children and token values in per-tree slabs, names
        // interned and the empty signature owning nothing, the five read
        // 0.007, 3.004, 0.051, 2.941, 0.004.
        ("build_tree allocations", per_node(build_allocs), 0.05),
        ("static_eval allocations", per_node(eval_allocs), 3.01),
        ("static_eval frees", per_node(eval_frees), 0.10),
        ("drop(store) frees", per_node(drop_frees), 3.00),
        ("drop(tree) frees", per_node(tree_frees), 0.05),
    ];
    for (what, got, _) in figures {
        println!("{what} per node: {got:.3}");
    }
    for (what, got, ceiling) in figures {
        assert!(got <= ceiling, "{what} per node: {got:.3} > {ceiling}");
    }
}
