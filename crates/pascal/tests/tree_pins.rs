//! What the parse tree's layout must never move.
//!
//! Memo keys are built from subtree hashes, and the simulator prices
//! shipping a subtree by its wire size. Both are computed from the
//! tree's content, never from how the tree is stored, so a change to
//! the tree's storage leaves every figure below exactly as it was. The
//! generator is seeded, so the paper tree is the same on every runner.

use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::{agtree, parser, Compiler};

#[test]
fn paper_tree_hashes_and_wire_sizes_are_pinned() {
    let compiler = Compiler::new();
    let ast = parser::parse(&generate(&GenConfig::paper())).expect("generated source parses");
    let tree = agtree::build_tree(&compiler.pg, &ast).unwrap();
    let root = tree.root();

    let hash_sum = tree.node_ids().fold(0u64, |sum, n| {
        sum.wrapping_add(tree.subtree_hash(n).expect("every token fingerprints"))
    });
    let got = (
        tree.len(),
        tree.subtree_hash(root),
        tree.subtree_wire_size(root),
        hash_sum,
    );
    let pinned = (
        25_693,
        Some(11_163_057_672_571_420_089),
        314_077,
        9_772_735_412_903_848_817,
    );
    assert_eq!(got, pinned, "(nodes, root hash, root wire size, Σ hash)");
}
