//! Dropping a rope must not need stack in proportion to its depth: a
//! statement list's code is a list-shaped rope as deep as the list is
//! long, and the pool's workers free such ropes on 2 MiB stacks.

use paragram_rope::Rope;

const LEAVES: usize = 1_000_000;

/// Builds a rope with `build` and drops it, on a 256 KiB stack (a
/// recursive drop needs well over 50 bytes a level: 50 MB here).
fn drop_on_a_small_stack(build: fn() -> Rope) {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let rope = build();
            assert_eq!(rope.len(), LEAVES);
            assert!(rope.depth() as usize >= LEAVES / 2);
            // While another handle shares it, dropping frees nothing.
            let shared = rope.clone();
            drop(rope);
            assert_eq!(shared.len(), LEAVES);
            drop(shared);
        })
        .expect("thread spawns")
        .join()
        .expect("dropping a deep rope neither overflows the stack nor panics");
}

#[test]
fn left_deep_rope_drops_on_a_small_stack() {
    drop_on_a_small_stack(|| {
        let mut rope = Rope::new();
        for _ in 0..LEAVES {
            rope.push_str("x");
        }
        rope
    });
}

#[test]
fn right_deep_rope_drops_on_a_small_stack() {
    drop_on_a_small_stack(|| {
        let leaf = Rope::from("x");
        let mut rope = Rope::new();
        for _ in 0..LEAVES {
            rope = leaf.concat(&rope);
        }
        rope
    });
}

#[test]
fn left_deep_rope_of_concatenations_drops_on_a_small_stack() {
    // Every right child is a concatenation too, so each level leaves
    // one behind for later: they wait on the heap, not on the stack.
    drop_on_a_small_stack(|| {
        let pair = Rope::from("x").concat(&Rope::from("x"));
        let mut rope = Rope::from("x");
        for _ in 0..(LEAVES - 1) / 2 {
            rope.push_rope(&pair);
        }
        rope.push_str("x");
        rope
    });
}
