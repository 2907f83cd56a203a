//! What the O(1) concatenation promises: `concat`, `push_str` and
//! `push_rope` link their inputs as they are — no text copied, no
//! leaves merged — and the length, depth and wire size of the result
//! are read off its root, never walked. Every structural consumer of a
//! rope (the builder, the simulator's librarian accounting, retirement)
//! relies on a concatenation's leaves being exactly its inputs' leaves.

use paragram_rope::Rope;
use proptest::prelude::*;

/// One step of a random rope-building sequence. Indices pick an earlier
/// rope of the sequence (modulo how many there are).
#[derive(Debug, Clone)]
enum Op {
    Leaf(String),
    Concat(usize, usize),
    PushStr(usize, String),
    PushRope(usize, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            "[a-z\n]{0,40}".prop_map(Op::Leaf),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Concat(a, b)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Concat(a, b)),
            (0usize..64, "[a-z\n]{0,40}").prop_map(|(a, t)| Op::PushStr(a, t)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::PushRope(a, b)),
        ],
        1..48,
    )
}

fn chunk_ptrs(rope: &Rope) -> Vec<*const u8> {
    rope.chunks().map(str::as_ptr).collect()
}

proptest! {
    #[test]
    fn concat_and_push_link_their_inputs_without_copying_or_merging(ops in ops()) {
        // Each rope beside the leaves it must consist of, in order.
        let mut ropes: Vec<(Rope, Vec<String>)> = vec![(Rope::new(), Vec::new())];
        for op in ops {
            let pick = |i: usize| ropes[i % ropes.len()].clone();
            let (made, parts, linked) = match op {
                Op::Leaf(t) => {
                    let parts = if t.is_empty() { vec![] } else { vec![t.clone()] };
                    (Rope::from(t), parts, Vec::new())
                }
                Op::Concat(a, b) | Op::PushRope(a, b) => {
                    let ((ra, mut pa), (rb, pb)) = (pick(a), pick(b));
                    let made = match op {
                        Op::Concat(..) => ra.concat(&rb),
                        _ => {
                            let mut r = ra.clone();
                            r.push_rope(&rb);
                            r
                        }
                    };
                    pa.extend(pb);
                    let depth = match (ra.is_empty(), rb.is_empty()) {
                        (false, false) => ra.depth().max(rb.depth()) + 1,
                        _ => ra.depth().max(rb.depth()),
                    };
                    prop_assert_eq!(made.depth(), depth);
                    (made, pa, vec![ra, rb])
                }
                Op::PushStr(a, t) => {
                    let (ra, mut pa) = pick(a);
                    let mut made = ra.clone();
                    made.push_str(&t);
                    pa.extend((!t.is_empty()).then_some(t));
                    (made, pa, vec![ra])
                }
            };
            // Never merged: one chunk per input leaf, in order.
            prop_assert_eq!(made.chunks().collect::<Vec<_>>(), parts.clone());
            prop_assert_eq!(made.leaf_count(), parts.len());
            prop_assert_eq!(made.len(), parts.iter().map(String::len).sum::<usize>());
            prop_assert_eq!(made.wire_size(), made.len() + 8);
            // Never copied: the linked inputs' chunks, by pointer.
            let want: Vec<*const u8> = linked.iter().flat_map(chunk_ptrs).collect();
            prop_assert_eq!(&chunk_ptrs(&made)[..want.len()], &want[..]);
            ropes.push((made, parts));
        }
        // Persistent: no later step changed an earlier rope.
        for (rope, parts) in &ropes {
            prop_assert_eq!(rope.chunks().collect::<Vec<_>>(), parts.clone());
        }
    }
}

/// Complexity guard, no clock involved: 200 k metadata reads and
/// 200 k concatenations on a left-deep 200 k-leaf rope. As field reads
/// and O(1) links they are instant; a walk or a copy per call would
/// visit 4·10¹⁰ nodes in all (and a recursive walk runs out of stack on
/// the first call at this depth) — the test does not come back.
#[test]
fn metadata_reads_and_concatenation_do_not_walk_the_rope() {
    const N: usize = 200_000;
    let mut rope = Rope::new();
    for _ in 0..N {
        rope.push_str("x");
    }
    assert_eq!(rope.depth() as usize, N - 1);
    let mut sum = 0usize;
    for _ in 0..N {
        sum += rope.wire_size() + rope.len() + rope.depth() as usize;
    }
    assert_eq!(sum, N * ((N + 8) + N + (N - 1)));
    let tail = Rope::from("y");
    for _ in 0..N {
        let longer = rope.concat(&tail);
        sum += longer.len() - rope.len();
        let mut pushed = longer.clone();
        pushed.push_rope(&tail);
        sum += pushed.depth() as usize - longer.depth() as usize;
    }
    assert_eq!(sum, N * ((N + 8) + N + (N - 1)) + 2 * N);
}
