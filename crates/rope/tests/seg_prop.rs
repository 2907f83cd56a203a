//! Property tests for segment-bearing ropes (the librarian protocol):
//! deflate followed by resolve must be the identity on content, for any
//! mix of text and pre-existing segment references; the O(1) segment
//! metadata must agree with a walk; `resolve` and `deflate` must share
//! text instead of copying it, and `deflate` must allocate exactly the
//! segments the flattening implementation it replaced did (the
//! simulator's pinned virtual times are computed from them).

use paragram_rope::{Piece as RopePiece, Rope, SegmentId, SegmentStore};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Piece {
    Text(String),
    Registered(String),
}

fn pieces() -> impl Strategy<Value = Vec<Piece>> {
    prop::collection::vec(
        prop_oneof![
            "[a-z]{0,300}".prop_map(Piece::Text),
            "[A-Z]{1,40}".prop_map(Piece::Registered),
        ],
        0..12,
    )
}

proptest! {
    #[test]
    fn deflate_then_resolve_is_identity(parts in pieces(), threshold in 1usize..512) {
        let mut store = SegmentStore::new();
        let mut next = 0u32;
        // Build the input rope: text leaves plus already-registered
        // child segments (as an inner evaluator would have produced).
        let mut rope = Rope::new();
        let mut expected = String::new();
        for p in &parts {
            match p {
                Piece::Text(t) => {
                    rope.push_str(t);
                    expected.push_str(t);
                }
                Piece::Registered(t) => {
                    let id = SegmentId::from_parts(9, next);
                    next += 1;
                    store.register(id, Rope::from(t.as_str()));
                    rope.push_rope(&Rope::seg(id, t.len()));
                    expected.push_str(t);
                }
            }
        }
        prop_assert_eq!(rope.len(), expected.len());

        let (deflated, _created) = rope.deflate(threshold, &mut |text| {
            let id = SegmentId::from_parts(3, next);
            next += 1;
            store.register(id, text);
            id
        });
        // Logical length is preserved by deflation.
        prop_assert_eq!(deflated.len(), expected.len());
        // Physical wire size never exceeds the original text plus
        // header/reference overhead.
        prop_assert!(deflated.physical_wire_size() <= expected.len() + 8 + 9 * (parts.len() + 4));
        // Resolution restores the exact content.
        let resolved = deflated.resolve(&store).unwrap();
        prop_assert_eq!(resolved.to_string(), expected);
        prop_assert!(!resolved.has_segments());
    }

    #[test]
    fn concat_of_deflated_ropes_resolves_in_order(
        a in "[a-z]{0,400}",
        b in "[a-z]{0,400}",
    ) {
        let mut store = SegmentStore::new();
        let mut next = 0u32;
        let mut alloc = |text: Rope| {
            let id = SegmentId::from_parts(0, next);
            next += 1;
            store.register(id, text);
            id
        };
        let (da, _) = Rope::from(a.as_str()).deflate(64, &mut alloc);
        let (db, _) = Rope::from(b.as_str()).deflate(64, &mut alloc);
        let combined = da.concat(&db);
        prop_assert_eq!(
            combined.resolve(&store).unwrap().to_string(),
            format!("{a}{b}")
        );
    }
}

/// One step of a random rope-building session. Indices pick an earlier
/// rope of the session (modulo how many there are).
#[derive(Debug, Clone)]
enum Op {
    Leaf(String),
    /// A reference to a fresh segment holding this text.
    Seg(String),
    Concat(usize, usize),
    /// Deflate with this threshold.
    Deflate(usize, usize),
    Resolve(usize),
    /// Register an earlier rope — segment references and all — as a
    /// segment, and reference it: the nested-evaluator case.
    Nest(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Arms are drawn uniformly; the repeats weight a session towards
    // building ropes up (2 leaves and 3 concats for each other step).
    prop::collection::vec(
        prop_oneof![
            "[a-z]{0,120}".prop_map(Op::Leaf),
            "[a-z]{0,120}".prop_map(Op::Leaf),
            "[A-Z]{1,40}".prop_map(Op::Seg),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Concat(a, b)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Concat(a, b)),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Concat(a, b)),
            (0usize..64, 1usize..400).prop_map(|(a, t)| Op::Deflate(a, t)),
            (0usize..64).prop_map(Op::Resolve),
            (0usize..64).prop_map(Op::Nest),
        ],
        1..40,
    )
}

/// What the test knows a rope to be, kept beside it: its parts in
/// order, never merged, never looked up through the rope under test.
#[derive(Debug, Clone, PartialEq)]
enum Part {
    Text(String),
    Seg(SegmentId, usize),
}

/// The reference walk for the cached metadata.
fn walk(parts: &[Part]) -> (bool, usize) {
    let has = parts.iter().any(|p| matches!(p, Part::Seg(..)));
    let phys = parts
        .iter()
        .map(|p| match p {
            Part::Text(t) => t.len(),
            Part::Seg(..) => 9,
        })
        .sum::<usize>();
    (has, 8 + phys)
}

/// The text `parts` stand for, given every registered segment's text.
fn expand(parts: &[Part], texts: &HashMap<SegmentId, String>) -> String {
    parts
        .iter()
        .map(|p| match p {
            Part::Text(t) => t.as_str(),
            Part::Seg(id, _) => texts[id].as_str(),
        })
        .collect()
}

/// `Rope::deflate` as it was before it became structural: flatten into
/// pieces, re-leaf every run. Kept as the reference for which segments
/// are allocated, in which order, with which text.
fn deflate_by_pieces(
    rope: &Rope,
    threshold: usize,
    alloc: &mut dyn FnMut(Rope) -> SegmentId,
) -> (Rope, usize) {
    let mut created = 0;
    let mut result = Rope::new();
    for piece in rope.pieces() {
        match piece {
            RopePiece::Text(t) if t.len() >= threshold => {
                let len = t.len();
                let id = alloc(Rope::leaf(t));
                result.push_rope(&Rope::seg(id, len));
                created += 1;
            }
            RopePiece::Text(t) => result.push_str(&t),
            RopePiece::Seg(id, len) => result.push_rope(&Rope::seg(id, len)),
        }
    }
    (result, created)
}

/// Runs one `deflate` implementation against an allocator that counts
/// up from `first` and records what it is handed.
fn recording(
    first: u32,
    deflate: impl FnOnce(&mut dyn FnMut(Rope) -> SegmentId) -> (Rope, usize),
) -> ((Rope, usize), Vec<(SegmentId, Rope)>) {
    let mut handed: Vec<(SegmentId, Rope)> = Vec::new();
    let out = deflate(&mut |text: Rope| {
        let id = SegmentId::from_parts(3, first + handed.len() as u32);
        handed.push((id, text));
        id
    });
    (out, handed)
}

fn chunk_ptrs(rope: &Rope) -> HashSet<*const u8> {
    rope.chunks().map(str::as_ptr).collect()
}

proptest! {
    #[test]
    fn structural_segment_operations_match_their_references(ops in ops()) {
        let mut store = SegmentStore::new();
        // Full text of every registered segment, nested ones expanded.
        let mut texts: HashMap<SegmentId, String> = HashMap::new();
        let mut ropes: Vec<(Rope, Vec<Part>)> = vec![(Rope::new(), Vec::new())];
        let mut next = 0u32;

        for op in ops {
            let pick = |i: usize| ropes[i % ropes.len()].clone();
            let made = match op {
                Op::Leaf(t) => {
                    let parts = if t.is_empty() { vec![] } else { vec![Part::Text(t.clone())] };
                    (Rope::from(t), parts)
                }
                Op::Seg(t) => {
                    let id = SegmentId::from_parts(9, next);
                    next += 1;
                    store.register(id, Rope::from(t.as_str()));
                    let made = (Rope::seg(id, t.len()), vec![Part::Seg(id, t.len())]);
                    texts.insert(id, t);
                    made
                }
                Op::Concat(a, b) => {
                    let ((ra, mut pa), (rb, pb)) = (pick(a), pick(b));
                    pa.extend(pb);
                    (ra.concat(&rb), pa)
                }
                Op::Nest(a) => {
                    let (rope, parts) = pick(a);
                    if rope.is_empty() {
                        continue;
                    }
                    let id = SegmentId::from_parts(7, next);
                    next += 1;
                    texts.insert(id, expand(&parts, &texts));
                    store.register(id, rope.clone());
                    (Rope::seg(id, rope.len()), vec![Part::Seg(id, rope.len())])
                }
                Op::Resolve(a) => {
                    let (rope, parts) = pick(a);
                    let resolved = rope.resolve(&store).unwrap();
                    let text = expand(&parts, &texts);
                    prop_assert_eq!(resolved.to_string(), text.clone());
                    // No text is copied: every chunk is a chunk of the
                    // input or of a stored segment.
                    let mut sources = chunk_ptrs(&rope);
                    for id in texts.keys() {
                        sources.extend(chunk_ptrs(store.get(*id).unwrap()));
                    }
                    prop_assert!(resolved.chunks().all(|c| sources.contains(&c.as_ptr())));
                    if !rope.has_segments() {
                        prop_assert!(resolved.ptr_eq(&rope));
                    }
                    let parts = if text.is_empty() { vec![] } else { vec![Part::Text(text)] };
                    (resolved, parts)
                }
                Op::Deflate(a, threshold) => {
                    let (rope, parts) = pick(a);
                    let ((deflated, created), handed) =
                        recording(next, |alloc| rope.deflate(threshold, alloc));
                    let ((want, want_created), want_handed) =
                        recording(next, |alloc| deflate_by_pieces(&rope, threshold, alloc));
                    prop_assert_eq!(created, want_created);
                    prop_assert_eq!(created, handed.len());
                    prop_assert_eq!(deflated.pieces(), want.pieces());
                    prop_assert_eq!(deflated.physical_wire_size(), want.physical_wire_size());
                    prop_assert_eq!(handed.len(), want_handed.len());
                    for ((id, text), (want_id, want_text)) in handed.iter().zip(&want_handed) {
                        prop_assert_eq!(id, want_id);
                        prop_assert_eq!(text.len(), want_text.len());
                        prop_assert!(text.content_eq(want_text));
                        prop_assert_eq!(text.physical_wire_size(), want_text.physical_wire_size());
                        // Handed over as shared sub-ropes, not a copy.
                        let sources = chunk_ptrs(&rope);
                        prop_assert!(text.chunks().all(|c| sources.contains(&c.as_ptr())));
                    }
                    next += created as u32;
                    for (id, text) in handed {
                        texts.insert(id, text.to_string());
                        store.register(id, text);
                    }
                    let model = deflated
                        .pieces()
                        .into_iter()
                        .map(|p| match p {
                            RopePiece::Text(t) => Part::Text(t),
                            RopePiece::Seg(id, len) => Part::Seg(id, len),
                        })
                        .collect::<Vec<_>>();
                    // resolve(deflate(r)) is r's text again.
                    prop_assert_eq!(
                        deflated.resolve(&store).unwrap().to_string(),
                        expand(&parts, &texts)
                    );
                    prop_assert_eq!(expand(&model, &texts), expand(&parts, &texts));
                    (deflated, model)
                }
            };
            // The cached metadata of whatever was just built.
            let (has, phys) = walk(&made.1);
            prop_assert_eq!(made.0.has_segments(), has);
            prop_assert_eq!(made.0.physical_wire_size(), phys);
            prop_assert_eq!(
                made.0.len(),
                made.1.iter().map(|p| match p {
                    Part::Text(t) => t.len(),
                    Part::Seg(_, len) => *len,
                }).sum::<usize>()
            );
            ropes.push(made);
        }
    }
}

#[test]
fn resolve_of_nested_segments_reaches_the_innermost_text() {
    // a → "[" b "]", b → "(" c ")", c → "core": three levels.
    let (a, b, c) = (SegmentId(1), SegmentId(2), SegmentId(3));
    let mut store = SegmentStore::new();
    store.register(c, Rope::from("core"));
    store.register(
        b,
        Rope::from("(")
            .concat(&Rope::seg(c, 4))
            .concat(&Rope::from(")")),
    );
    store.register(
        a,
        Rope::from("[")
            .concat(&Rope::seg(b, 6))
            .concat(&Rope::from("]")),
    );
    let r = Rope::from("<")
        .concat(&Rope::seg(a, 8))
        .concat(&Rope::from(">"));
    let resolved = r.resolve(&store).unwrap();
    assert_eq!(resolved.to_string(), "<[(core)]>");
    assert!(!resolved.has_segments());
    // Losing the innermost registration is an error, not shorter text.
    let mut lossy = SegmentStore::new();
    lossy.register(a, store.get(a).unwrap().clone());
    lossy.register(b, store.get(b).unwrap().clone());
    assert_eq!(r.resolve(&lossy).unwrap_err().0, c);
}

/// Complexity guard, no clock involved: 200 k metadata reads on a
/// left-deep 200 k-leaf rope. As field reads they are instant; the
/// recursive walks they replaced visit 8·10¹⁰ nodes in all (and run
/// out of stack on the first read at this depth) — the test does not
/// come back.
#[test]
fn segment_metadata_reads_do_not_walk_the_rope() {
    const N: usize = 200_000;
    let mut rope = Rope::new();
    for _ in 0..N {
        rope.push_str("x");
    }
    assert_eq!(rope.depth() as usize, N - 1);
    let mut sum = 0usize;
    for _ in 0..N {
        sum += rope.physical_wire_size() + usize::from(rope.has_segments());
    }
    assert_eq!(sum, N * (N + 8));
    let tagged = rope.concat(&Rope::seg(SegmentId(1), 5));
    for _ in 0..N {
        sum += tagged.physical_wire_size() + usize::from(tagged.has_segments());
    }
    assert_eq!(sum, N * (N + 8) + N * (N + 9 + 8 + 1));
    // Freeing a rope recurses once per level of depth, which at this
    // depth needs more stack than a test thread has; depth like this
    // exists only here.
    std::mem::forget((rope, tagged));
}
