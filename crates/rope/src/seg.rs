//! Segment-reference support inside ropes.
//!
//! The paper's string-librarian optimization needs *no grammar or
//! evaluator changes*: "All that needs to be changed is the
//! implementation of the standard string data type used for code
//! attributes" (§4.2). This module is that change: a rope may contain
//! [`SegmentId`] references to text stored at the librarian. Evaluators
//! concatenate such ropes exactly like ordinary ones; the librarian
//! [`Rope::resolve`]s the final rope against its [`SegmentStore`].

use crate::{RNode, Rope, SegmentId, SegmentStore, UnknownSegment};
use std::sync::Arc;

/// A flattened view element of a rope: either owned text or a segment
/// reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// Literal text carried by the rope itself.
    Text(String),
    /// Reference to librarian-stored text with its logical length.
    Seg(SegmentId, usize),
}

impl Rope {
    /// Creates a rope that is a reference to librarian-stored text of
    /// logical length `len`.
    pub fn seg(id: SegmentId, len: usize) -> Rope {
        if len == 0 {
            return Rope::new();
        }
        Rope {
            root: Some(Arc::new(RNode::Seg(id, len))),
            has_seg: true,
        }
    }

    /// `true` if the rope contains unresolved segment references. O(1):
    /// the flag is cached in every concatenation node and in the handle.
    pub fn has_segments(&self) -> bool {
        self.has_seg
    }

    /// Segment ids referenced, left to right.
    pub fn seg_ids(&self) -> Vec<SegmentId> {
        self.pieces()
            .into_iter()
            .filter_map(|p| match p {
                Piece::Seg(id, _) => Some(id),
                Piece::Text(_) => None,
            })
            .collect()
    }

    /// Flattens the rope into maximal text runs and segment references.
    pub fn pieces(&self) -> Vec<Piece> {
        let mut out: Vec<Piece> = Vec::new();
        let mut stack: Vec<&RNode> = Vec::new();
        if let Some(r) = self.root.as_deref() {
            stack.push(r);
        }
        while let Some(n) = stack.pop() {
            match n {
                RNode::Leaf(s) => match out.last_mut() {
                    Some(Piece::Text(t)) => t.push_str(s),
                    _ => out.push(Piece::Text(s.to_string())),
                },
                RNode::Seg(id, len) => out.push(Piece::Seg(*id, *len)),
                RNode::Concat { left, right, .. } => {
                    stack.push(right);
                    stack.push(left);
                }
            }
        }
        out
    }

    /// Replaces text runs of at least `threshold` bytes with fresh
    /// segments allocated through `alloc` (which must register the text
    /// with the librarian). Segment references already present are kept.
    ///
    /// A *run* is a maximal stretch of text between segment references
    /// (or the rope's ends). No text is copied: the walk descends only
    /// into sub-ropes that hold a segment reference and takes every
    /// other sub-rope whole, so a run is handed to `alloc` — or left in
    /// the result — as a concatenation of shared sub-ropes.
    /// O(references × depth), independent of the amount of text; a
    /// reference-free rope is one run and costs O(1).
    ///
    /// Returns the deflated rope and how many new segments were created.
    pub fn deflate(
        &self,
        threshold: usize,
        alloc: &mut dyn FnMut(Rope) -> SegmentId,
    ) -> (Rope, usize) {
        let mut created = 0;
        let mut result = Rope::new();
        let mut run = Rope::new();
        let mut close_run = |run: &mut Rope, result: &mut Rope| {
            let text = std::mem::take(run);
            if text.len() >= threshold && !text.is_empty() {
                let len = text.len();
                result.push_rope(&Rope::seg(alloc(text), len));
                created += 1;
            } else {
                result.push_rope(&text);
            }
        };
        let mut stack: Vec<&Arc<RNode>> = self.root.iter().collect();
        while let Some(n) = stack.pop() {
            match n.as_ref() {
                RNode::Concat {
                    left,
                    right,
                    has_seg: true,
                    ..
                } => {
                    stack.push(right);
                    stack.push(left);
                }
                RNode::Seg(..) => {
                    close_run(&mut run, &mut result);
                    result.push_rope(&Rope::share(n));
                }
                RNode::Leaf(_) | RNode::Concat { .. } => run.push_rope(&Rope::share(n)),
            }
        }
        close_run(&mut run, &mut result);
        (result, created)
    }

    /// Resolves every segment reference against `store`, producing a
    /// pure-text rope.
    ///
    /// Structural: the walk descends only into sub-ropes that hold a
    /// segment reference, splices the stored segment rope in (resolving
    /// it the same way when it references segments itself — an inner
    /// evaluator's descriptors) and shares every other sub-rope, so no
    /// text is copied and a reference-free rope comes back as itself.
    /// O(references × depth), counting the references inside spliced
    /// segments.
    ///
    /// # Errors
    ///
    /// [`UnknownSegment`] if a referenced segment was never registered.
    pub fn resolve(&self, store: &SegmentStore) -> Result<Rope, UnknownSegment> {
        /// Post-order rebuild on explicit stacks: ropes are as deep as
        /// the statement lists that produced them.
        enum Step<'a> {
            Visit(&'a Arc<RNode>),
            Join,
        }
        let mut steps: Vec<Step<'_>> = self.root.iter().map(Step::Visit).collect();
        let mut built: Vec<Rope> = Vec::new();
        while let Some(step) = steps.pop() {
            match step {
                Step::Visit(n) => match n.as_ref() {
                    RNode::Concat {
                        left,
                        right,
                        has_seg: true,
                        ..
                    } => {
                        steps.push(Step::Join);
                        steps.push(Step::Visit(right));
                        steps.push(Step::Visit(left));
                    }
                    RNode::Seg(id, _) => {
                        let stored = store.get(*id).ok_or(UnknownSegment(*id))?;
                        match &stored.root {
                            Some(root) => steps.push(Step::Visit(root)),
                            None => built.push(Rope::new()),
                        }
                    }
                    RNode::Leaf(_) | RNode::Concat { .. } => built.push(Rope::share(n)),
                },
                Step::Join => {
                    let right = built.pop().expect("right operand built");
                    let left = built.pop().expect("left operand built");
                    built.push(left.concat(&right));
                }
            }
        }
        Ok(built.pop().unwrap_or_default())
    }

    /// Bytes physically carried by this rope on the wire: literal text
    /// plus 9 bytes per segment reference plus a header. This is what
    /// the librarian optimization shrinks — the logical [`Rope::len`] is
    /// unchanged. O(1): the sum is cached in every concatenation node.
    pub fn physical_wire_size(&self) -> usize {
        8 + self.root.as_deref().map_or(0, RNode::phys)
    }

    /// A rope over an existing node (shares it).
    fn share(node: &Arc<RNode>) -> Rope {
        Rope {
            has_seg: node.has_seg(),
            root: Some(Arc::clone(node)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(pairs: &[(SegmentId, &str)]) -> SegmentStore {
        let mut s = SegmentStore::new();
        for (id, text) in pairs {
            s.register(*id, Rope::from(*text));
        }
        s
    }

    #[test]
    fn seg_rope_has_logical_length() {
        let id = SegmentId::from_parts(1, 0);
        let r = Rope::seg(id, 100);
        assert_eq!(r.len(), 100);
        assert!(r.has_segments());
        assert_eq!(r.seg_ids(), vec![id]);
        assert_eq!(r.physical_wire_size(), 8 + 9);
    }

    #[test]
    fn zero_length_seg_collapses() {
        let r = Rope::seg(SegmentId(1), 0);
        assert!(r.is_empty());
        assert!(!r.has_segments());
    }

    #[test]
    fn pieces_merge_adjacent_text() {
        let id = SegmentId(9);
        let r = Rope::from("ab")
            .concat(&Rope::from("cd"))
            .concat(&Rope::seg(id, 5))
            .concat(&Rope::from("ef"));
        assert_eq!(
            r.pieces(),
            vec![
                Piece::Text("abcd".into()),
                Piece::Seg(id, 5),
                Piece::Text("ef".into())
            ]
        );
    }

    #[test]
    fn resolve_round_trips() {
        let a = SegmentId::from_parts(0, 0);
        let store = store_with(&[(a, "HELLO")]);
        let r = Rope::from("<")
            .concat(&Rope::seg(a, 5))
            .concat(&Rope::from(">"));
        assert_eq!(r.len(), 7);
        let resolved = r.resolve(&store).unwrap();
        assert_eq!(resolved.to_string(), "<HELLO>");
        assert!(!resolved.has_segments());
    }

    #[test]
    fn resolve_is_recursive() {
        // Segment a's stored text itself references segment b — the
        // nested-evaluator case.
        let a = SegmentId::from_parts(0, 0);
        let b = SegmentId::from_parts(1, 0);
        let mut store = SegmentStore::new();
        store.register(b, Rope::from("inner"));
        store.register(
            a,
            Rope::from("[")
                .concat(&Rope::seg(b, 5))
                .concat(&Rope::from("]")),
        );
        let r = Rope::seg(a, 7);
        assert_eq!(r.resolve(&store).unwrap().to_string(), "[inner]");
    }

    #[test]
    fn resolve_unknown_segment_errors() {
        let store = SegmentStore::new();
        let r = Rope::seg(SegmentId(77), 3);
        assert!(r.resolve(&store).is_err());
    }

    #[test]
    fn deflate_extracts_large_text_runs() {
        let mut store = SegmentStore::new();
        let mut next = 0u32;
        let big = "x".repeat(1000);
        let r = Rope::from(big.as_str()).concat(&Rope::from("tiny"));
        let (deflated, created) = {
            let mut alloc = |text: Rope| {
                let id = SegmentId::from_parts(5, next);
                next += 1;
                store.register(id, text);
                id
            };
            r.deflate(256, &mut alloc)
        };
        assert_eq!(created, 1);
        assert_eq!(deflated.len(), r.len());
        assert!(deflated.physical_wire_size() < 100);
        assert_eq!(
            deflated.resolve(&store).unwrap().to_string(),
            format!("{big}tiny")
        );
    }

    #[test]
    fn deflate_preserves_existing_segments() {
        let child = SegmentId::from_parts(1, 0);
        let mut store = store_with(&[(child, "CHILD")]);
        let local = "y".repeat(500);
        let r = Rope::from(local.as_str()).concat(&Rope::seg(child, 5));
        let mut next = 0u32;
        let (deflated, created) = {
            let mut alloc = |text: Rope| {
                let id = SegmentId::from_parts(2, next);
                next += 1;
                store.register(id, text);
                id
            };
            r.deflate(256, &mut alloc)
        };
        assert_eq!(created, 1);
        assert_eq!(deflated.seg_ids().len(), 2);
        assert_eq!(
            deflated.resolve(&store).unwrap().to_string(),
            format!("{local}CHILD")
        );
    }

    #[test]
    fn deflate_hands_text_over_without_copying_it() {
        let one = Rope::from("x".repeat(300));
        let child = SegmentId::from_parts(1, 0);
        let mut handed: Vec<Rope> = Vec::new();
        let mut alloc = |text: Rope| {
            handed.push(text);
            SegmentId::from_parts(2, handed.len() as u32)
        };
        // A reference-free rope is one run: handed over as it is.
        let (_, created) = one.deflate(256, &mut alloc);
        assert_eq!(created, 1);
        let many = one
            .concat(&Rope::from("yy"))
            .concat(&Rope::seg(child, 4))
            .concat(&Rope::from("z"));
        let (deflated, created) = many.deflate(256, &mut alloc);
        assert_eq!(created, 1);
        assert!(handed[0].ptr_eq(&one));
        assert_eq!(handed[1].to_string(), format!("{}yy", "x".repeat(300)));
        let x = one.chunks().next().unwrap().as_ptr();
        assert_eq!(handed[1].chunks().next().unwrap().as_ptr(), x);
        assert_eq!(
            deflated.pieces(),
            vec![
                Piece::Seg(SegmentId::from_parts(2, 2), 302),
                Piece::Seg(child, 4),
                Piece::Text("z".into())
            ]
        );
    }

    #[test]
    fn deflate_below_threshold_is_identity_shaped() {
        let r = Rope::from("small");
        let (d, created) = r.deflate(256, &mut |_| unreachable!("no alloc expected"));
        assert_eq!(created, 0);
        assert_eq!(d.to_string(), "small");
    }
}
