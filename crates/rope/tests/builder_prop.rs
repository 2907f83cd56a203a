//! `RopeBuilder` against the `push_str`/`push_rope` reference: the same
//! text and metadata, sub-ropes linked and not copied, and — the reason
//! it exists — the literal text between two linked sub-ropes as exactly
//! one leaf, however many calls delivered it.

use paragram_rope::{Rope, RopeBuilder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// `text(…)`.
    Text(String),
    /// `write!(…)` of a number.
    Fmt(i64),
    /// `rope(…)` of one leaf too long to be worth copying.
    LongLeaf(String),
    /// `rope(…)` of one leaf of a few bytes: copied into the run.
    ShortLeaf(String),
    /// `rope(…)` of several leaves.
    Leaves(Vec<String>),
    /// `rope(…)` of the empty rope.
    Empty,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            "[a-z\n]{0,20}".prop_map(Op::Text),
            (-1000i64..1000).prop_map(Op::Fmt),
            "[A-Z]{100,300}".prop_map(Op::LongLeaf),
            "[0-9]{1,8}".prop_map(Op::ShortLeaf),
            prop::collection::vec("[A-Z]{1,50}", 2..5).prop_map(Op::Leaves),
            (0usize..1).prop_map(|_| Op::Empty),
        ],
        0..24,
    )
}

fn chunk_ptrs(rope: &Rope) -> Vec<*const u8> {
    rope.chunks().map(str::as_ptr).collect()
}

proptest! {
    #[test]
    fn builder_agrees_with_push_str_and_push_rope(ops in ops()) {
        let mut b = RopeBuilder::new();
        let mut reference = Rope::new();
        // The chunks the built rope must consist of, and the run that
        // will become the next of them.
        let mut chunks: Vec<String> = Vec::new();
        let mut run = String::new();
        let mut linked: Vec<Rope> = Vec::new();
        for op in &ops {
            let sub = match op {
                Op::Text(t) => {
                    b.text(t);
                    reference.push_str(t);
                    run.push_str(t);
                    continue;
                }
                Op::Fmt(v) => {
                    write!(b, "${v}, ");
                    reference.push_str(&format!("${v}, "));
                    run.push_str(&format!("${v}, "));
                    continue;
                }
                Op::ShortLeaf(t) => {
                    b.rope(&Rope::from(t.as_str()));
                    reference.push_str(t);
                    run.push_str(t);
                    continue;
                }
                Op::LongLeaf(t) => Rope::from(t.as_str()),
                Op::Leaves(ts) => {
                    let mut r = Rope::new();
                    ts.iter().for_each(|t| r.push_str(t));
                    r
                }
                Op::Empty => Rope::new(),
            };
            b.rope(&sub);
            reference.push_rope(&sub);
            if !sub.is_empty() {
                chunks.extend((!run.is_empty()).then(|| std::mem::take(&mut run)));
                chunks.extend(sub.chunks().map(str::to_owned));
                linked.push(sub);
            }
        }
        chunks.extend((!run.is_empty()).then_some(run));
        let built = b.finish();

        prop_assert_eq!(built.to_string(), reference.to_string());
        prop_assert_eq!(&built, &reference);
        prop_assert_eq!(built.len(), reference.len());
        prop_assert_eq!(built.is_empty(), reference.is_empty());
        prop_assert_eq!(built.wire_size(), reference.wire_size());
        // One leaf per run, none for an empty one.
        prop_assert_eq!(built.chunks().collect::<Vec<_>>(), chunks);
        // A linked sub-rope is in the result by pointer.
        let ptrs = chunk_ptrs(&built);
        for sub in &linked {
            prop_assert!(chunk_ptrs(sub).iter().all(|p| ptrs.contains(p)));
        }
    }
}

#[test]
fn k_pieces_between_two_ropes_are_one_leaf() {
    let body = Rope::from("\tpushl $1\n".repeat(20));
    let mut b = RopeBuilder::new();
    b.rope(&body);
    b.text("\tmovl (sp), r0\n");
    b.text("\taddl2 $4, sp\n");
    write!(b, "\ttstl r0\n\tbeql L{}x\n", 12);
    b.text("");
    b.rope(&body);
    writeln!(b, "L{}x:", 12);
    let code = b.finish();
    assert_eq!(code.leaf_count(), 4);
    assert_eq!(code.depth(), 3);
    let chunks: Vec<&str> = code.chunks().collect();
    assert_eq!(
        chunks[1],
        "\tmovl (sp), r0\n\taddl2 $4, sp\n\ttstl r0\n\tbeql L12x\n"
    );
    assert_eq!(chunks[0].as_ptr(), chunks[2].as_ptr());
}

#[test]
fn a_run_longer_than_the_builder_keeps_inline_is_still_one_leaf() {
    let mut b = RopeBuilder::new();
    let mut want = String::new();
    for i in 0..100 {
        writeln!(b, "\tpushl ${i}");
        want.push_str(&format!("\tpushl ${i}\n"));
    }
    b.rope(&Rope::from("x".repeat(200)));
    b.text("tail");
    let code = b.finish();
    assert_eq!(code.leaf_count(), 3);
    assert_eq!(code.chunks().next(), Some(want.as_str()));
}

#[test]
fn nothing_emitted_is_the_empty_rope() {
    let mut b = RopeBuilder::new();
    b.text("");
    b.rope(&Rope::new());
    assert!(b.finish().is_empty());
    assert!(RopeBuilder::new().finish().is_empty());
}
