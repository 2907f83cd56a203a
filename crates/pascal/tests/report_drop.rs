//! Who frees a pool report: the workers that built its stores, not the
//! thread that drops it.
//!
//! A compiled tree's attribute values are most of what tearing it down
//! costs. A report read through `output_from_store` hands its stores
//! back to the workers when it drops, so the dropping thread frees a
//! few bookkeeping blocks — the same few for a paper-sized tree and for
//! one four times larger. A report that outlives its pool has no worker
//! to hand them to, and frees them in place.
//!
//! The counters are thread-local: the pool's workers allocate and free
//! too, and only the test's thread is to be counted.

use paragram_driver::{BatchDriver, CompilationPlan, DriverConfig};
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::Compiler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static FREES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain thread-local cell that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // `try_with`: the allocator is still called while a thread's
        // locals are being torn down.
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The frees this thread makes while `f` runs.
fn frees(f: impl FnOnce()) -> u64 {
    let before = FREES.get();
    f();
    FREES.get() - before
}

/// The paper's program, and one with four times its clusters.
fn configs() -> [GenConfig; 2] {
    let paper = GenConfig::paper();
    let bigger = GenConfig {
        clusters: 4 * paper.clusters,
        ..paper
    };
    [paper, bigger]
}

#[test]
fn dropping_a_report_frees_a_few_blocks_on_the_caller_whatever_the_trees_size() {
    let compiler = Compiler::new();
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(2));
    let mut driver = BatchDriver::new(&plan);
    let mut counts = Vec::new();
    let mut nodes = Vec::new();
    for config in configs() {
        let tree = compiler.tree_from_source(&generate(&config)).unwrap();
        let out = driver.compile_tree(&tree).unwrap();
        assert_eq!(out.regions, 2, "a tree this size is cut for two workers");
        let output = compiler.output_from_store(&tree, &out.store, out.stats);
        assert!(output.errors.is_empty(), "{:?}", output.errors);
        assert!(output.asm.len() > 10_000);
        counts.push(frees(|| drop(out)));
        nodes.push(tree.len());
    }
    assert!(nodes[1] > 3 * nodes[0], "nodes {nodes:?}");
    assert_eq!(
        counts[0], counts[1],
        "the caller's frees grow with the tree: {counts:?} for {nodes:?} nodes"
    );
    // Three: the report's root-value list and the view's two index
    // vectors (its region stores and the workers that built them).
    assert!(counts[0] <= 4, "frees on the caller: {counts:?}");
}

#[test]
fn a_report_that_outlives_its_driver_frees_its_stores_in_place() {
    let compiler = Compiler::new();
    let plan = CompilationPlan::from_plan(compiler.evals.plan(), DriverConfig::workers(2));
    let tree = compiler
        .tree_from_source(&generate(&GenConfig::paper()))
        .unwrap();
    let out = BatchDriver::new(&plan).compile_tree(&tree).unwrap();
    let output = compiler.output_from_store(&tree, &out.store, out.stats);
    assert!(output.errors.is_empty(), "{:?}", output.errors);
    // No worker is left to hand the stores to: every value is freed
    // here — thousands of frees, not a handful.
    let in_place = frees(|| drop(out));
    assert!(in_place > tree.len() as u64 / 10, "{in_place} frees");
}
