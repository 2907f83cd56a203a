//! What the memo holds against what it charges: the resident bytes a
//! full memo keeps alive, counted by the allocator, beside the bytes
//! its budget charges for them (every cached value's wire size, which
//! prices a symbol table at all of its bindings, shared or not).
//!
//! The counter is process-wide: the pool's workers allocate what the
//! memo keeps.

use paragram_core::parallel::pool::{PoolConfig, WorkerPool};
use paragram_core::tree::ParseTree;
use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{Compiler, PVal};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain atomic that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A `memo_dup`-shaped stream: 512 programs of the 3-cluster memo
/// shape, the even ones exact repeats of 8 templates, the odd ones
/// sharing a two-cluster template prefix.
fn memo_dup_stream(compiler: &Compiler) -> Vec<Arc<ParseTree<PVal>>> {
    let mut rng = SmallRng::seed_from_u64(42);
    let templates: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    (0..512)
        .map(|i| {
            let (seed, template_clusters) = if i % 2 == 0 {
                (templates[rng.gen_range(0..templates.len())], 0)
            } else {
                (rng.next_u64(), 2)
            };
            let src = generate(&GenConfig {
                clusters: 3,
                procs_per_cluster: 2,
                stmts_per_proc: 4,
                nesting: 1,
                seed,
                template_clusters,
            });
            compiler.tree_from_source(&src).unwrap()
        })
        .collect()
}

/// Runs `trees` through a fresh pool, drops every report, and returns
/// the live heap bytes with the pool still up and its memo's charge.
fn live_after_a_pass(
    compiler: &Compiler,
    config: PoolConfig,
    trees: &[Arc<ParseTree<PVal>>],
) -> (isize, usize) {
    let mut pool = WorkerPool::new(compiler.evals.plan(), config);
    for tree in trees {
        pool.submit(tree);
        while let Some(report) = pool.take_ready() {
            drop(report.expect("evaluates"));
        }
    }
    while let Some(report) = pool.collect() {
        drop(report.expect("evaluates"));
    }
    // A dropped report hands its stores back to the workers, which free
    // them on their own threads.
    std::thread::sleep(Duration::from_millis(200));
    let live = LIVE.load(Ordering::Relaxed);
    let charged = pool.memo_bytes().unwrap_or(0);
    drop(pool);
    (live, charged)
}

#[test]
#[ignore = "a measurement; run with --ignored --nocapture to read it"]
fn memo_charge_against_resident_bytes_on_a_memo_dup_stream() {
    let compiler = Compiler::new();
    let trees = memo_dup_stream(&compiler);
    let budget = compiler.evals.plan().tree_work(&trees[0]) / 16;
    let off = PoolConfig::workers(2).with_adaptive_budget(budget);
    let on = off.with_memo_capacity(64 << 20);
    let (off_live, _) = live_after_a_pass(&compiler, off, &trees);
    let (on_live, charged) = live_after_a_pass(&compiler, on, &trees);
    let resident = on_live - off_live;
    println!(
        "memo charges {charged} B for {resident} B resident: ×{:.1}",
        charged as f64 / resident as f64
    );
    assert!(resident > 0, "a full memo holds something");
    assert!(charged > 0, "and charges for it");
}
