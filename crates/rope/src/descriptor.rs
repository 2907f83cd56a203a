//! The string librarian's segment store (paper §4.2).
//!
//! When an evaluator finishes a large code attribute it sends the *text*
//! to the string librarian process once, and passes up the process tree
//! only a *descriptor*: a rope that refers to the text by [`SegmentId`]
//! ([`Rope::seg`], [`Rope::deflate`]). Ancestors concatenate such ropes
//! like any other,
//! and the librarian [resolves](Rope::resolve) the final one against its
//! [`SegmentStore`]. This turns result propagation from a sequential
//! chain of ever-growing string transmissions into one parallel
//! transmission per evaluator plus a few bytes per reference.

use crate::Rope;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a text segment registered with the librarian.
///
/// The high bits name the owning evaluator so that ids allocated on
/// different machines never collide (the same scheme the paper uses for
/// unique label generation, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u64);

impl SegmentId {
    /// Builds a segment id from an evaluator index and a local counter.
    pub fn from_parts(evaluator: u32, local: u32) -> Self {
        SegmentId(((evaluator as u64) << 32) | local as u64)
    }

    /// The evaluator that allocated this id.
    pub fn evaluator(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}.{}", self.evaluator(), self.0 as u32)
    }
}

/// The librarian's storage: segment id → text.
///
/// # Examples
///
/// ```
/// use paragram_rope::{Rope, SegmentId, SegmentStore};
///
/// let mut store = SegmentStore::new();
/// let a = SegmentId::from_parts(1, 0);
/// let b = SegmentId::from_parts(2, 0);
/// store.register(a, Rope::from("hello "));
/// store.register(b, Rope::from("world"));
/// let refs = Rope::seg(a, 6).concat(&Rope::seg(b, 5));
/// assert_eq!(refs.resolve(&store).unwrap().to_string(), "hello world");
/// ```
#[derive(Debug, Default)]
pub struct SegmentStore {
    segments: HashMap<SegmentId, Rope>,
    bytes: usize,
}

/// Error returned by [`Rope::resolve`] when a rope refers to a segment
/// that was never registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSegment(pub SegmentId);

impl fmt::Display for UnknownSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown segment {}", self.0)
    }
}

impl std::error::Error for UnknownSegment {}

impl SegmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `text` under `id`, replacing any previous registration.
    pub fn register(&mut self, id: SegmentId, text: Rope) {
        self.bytes += text.len();
        if let Some(old) = self.segments.insert(id, text) {
            self.bytes -= old.len();
        }
    }

    /// Looks up a registered segment.
    pub fn get(&self, id: SegmentId) -> Option<&Rope> {
        self.segments.get(&id)
    }

    /// Number of registered segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` if no segments are registered.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total registered text bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_id_round_trips_parts() {
        let id = SegmentId::from_parts(3, 17);
        assert_eq!(id.evaluator(), 3);
        assert_eq!(id.0 & 0xffff_ffff, 17);
        assert_eq!(id.to_string(), "seg3.17");
    }

    #[test]
    fn empty_descriptor_resolves_empty() {
        let store = SegmentStore::new();
        let resolved = Rope::new().resolve(&store).unwrap();
        assert!(resolved.is_empty() && !resolved.has_segments());
    }

    #[test]
    fn concat_collapses_empty() {
        let id = SegmentId::from_parts(0, 0);
        let d = Rope::seg(id, 0).concat(&Rope::from("x"));
        assert_eq!(d.to_string(), "x");
        assert!(!d.has_segments());
        let d2 = Rope::from("").concat(&Rope::seg(id, 0));
        assert!(d2.is_empty() && !d2.has_segments());
    }

    #[test]
    fn resolve_interleaves_segments_and_literals() {
        let mut store = SegmentStore::new();
        let a = SegmentId::from_parts(0, 1);
        let b = SegmentId::from_parts(1, 1);
        store.register(a, Rope::from("AAA"));
        store.register(b, Rope::from("BBB"));
        let d = Rope::seg(a, 3)
            .concat(&Rope::from("--"))
            .concat(&Rope::seg(b, 3));
        assert_eq!(d.resolve(&store).unwrap().to_string(), "AAA--BBB");
        assert_eq!(d.seg_ids(), vec![a, b]);
    }

    #[test]
    fn unknown_segment_is_an_error() {
        let store = SegmentStore::new();
        let d = Rope::seg(SegmentId::from_parts(9, 9), 4);
        let err = d.resolve(&store).unwrap_err();
        assert_eq!(err.0, SegmentId::from_parts(9, 9));
        assert!(err.to_string().contains("seg9.9"));
    }

    #[test]
    fn register_replaces_and_tracks_bytes() {
        let mut store = SegmentStore::new();
        let id = SegmentId::from_parts(0, 0);
        store.register(id, Rope::from("12345"));
        assert_eq!(store.total_bytes(), 5);
        store.register(id, Rope::from("12"));
        assert_eq!(store.total_bytes(), 2);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn wire_size_is_small_for_descriptors() {
        let d = Rope::seg(SegmentId(1), 10_000).concat(&Rope::seg(SegmentId(2), 10_000));
        // Far smaller than the text the references stand for.
        assert_eq!(d.len(), 20_000);
        assert!(d.physical_wire_size() < 32);
    }
}
