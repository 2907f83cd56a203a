//! Persistent rope strings with O(1) concatenation.
//!
//! The paper (§4.3) implements compiler string attributes — most importantly
//! the generated-code attribute — as *binary trees with the actual text
//! residing in the leaves*, so that string concatenation is a constant-time
//! operation and all values are immutable (applicative). This crate is that
//! data structure and nothing more: a rope carries text. The string
//! librarian (§4.2) is the simulator's cost accounting, which walks a
//! rope's structure through [`Rope::halves`] and [`Rope::node_id`].
//!
//! # Examples
//!
//! ```
//! use paragram_rope::Rope;
//!
//! let a = Rope::from("movl r1, r2\n");
//! let b = Rope::from("addl2 $4, r2\n");
//! let code = a.concat(&b); // O(1), shares both inputs
//! assert_eq!(code.len(), a.len() + b.len());
//! assert_eq!(code.to_string(), "movl r1, r2\naddl2 $4, r2\n");
//! ```
//!
//! # Cost of each operation
//!
//! With *n* the number of nodes (leaves + concatenations) and *d* the
//! depth:
//!
//! | O(1) | O(d) | O(n) |
//! |---|---|---|
//! | `new`, `leaf`¹, `len`, `is_empty`, `depth`, `concat`, `push_str`¹, `push_rope`, `wire_size`, `halves`, `node_id`, `ptr_eq`, `clone`, `RopeBuilder::text`¹, `RopeBuilder::rope`² | `byte_at` | `chunks`, `lines`, `flatten`³, `to_string`³, `leaf_count`, `newline_count`, `content_eq`/`==`, `hash`, `rebalance`, `from_iter`, `drop` of the last handle |
//!
//! ¹ plus copying the text handed in. ² plus copying the builder's
//! pending run into its leaf — each byte of literal text once — and,
//! when the rope linked is itself one leaf of a few bytes, that leaf's
//! text (see [`RopeBuilder`]). ³ `flatten` allocates its `String` once,
//! at the rope's length; `to_string` goes through `Display` and grows
//! its buffer by doubling, so flatten a rope of any size with
//! [`Rope::flatten`]. Nothing else copies text except `flatten`,
//! `to_string`, `lines` and `rebalance`; in particular `concat`,
//! `push_str` and `push_rope` never merge leaves — a concatenation's
//! [halves](Rope::halves) are exactly the ropes it joined — so the way
//! to get one leaf out of adjacent literal text is to emit it through a
//! [`RopeBuilder`].
//!
//! Every concatenation node caches its length and depth, fixed at
//! construction, so neither is ever walked for.
//! Dropping the last handle to a rope frees it node by node, O(n), on
//! an explicit stack: a statement list's code is a list-shaped rope as
//! deep as the list is long, and freeing it must not need a machine
//! stack to match.

mod builder;

pub use builder::RopeBuilder;

use std::fmt;
use std::sync::Arc;

/// Internal rope node: a text leaf or an inner concatenation node.
#[derive(Debug)]
pub(crate) enum RNode {
    Leaf(Arc<str>),
    Concat {
        left: Arc<RNode>,
        right: Arc<RNode>,
        len: usize,
        depth: u32,
    },
}

impl RNode {
    fn len(&self) -> usize {
        match self {
            RNode::Leaf(s) => s.len(),
            RNode::Concat { len, .. } => *len,
        }
    }

    fn depth(&self) -> u32 {
        match self {
            RNode::Leaf(_) => 0,
            RNode::Concat { depth, .. } => *depth,
        }
    }
}

/// An immutable string represented as a binary tree of text chunks.
///
/// Cloning and concatenating are cheap (reference-counted structure
/// sharing); extracting the flat text is O(n). All compiler "string"
/// attributes in this repository are `Rope`s, exactly as in the paper.
/// The handle is one pointer wide.
#[derive(Clone, Default)]
pub struct Rope {
    pub(crate) root: Option<Arc<RNode>>,
}

impl Rope {
    /// Creates an empty rope.
    ///
    /// ```
    /// let r = paragram_rope::Rope::new();
    /// assert!(r.is_empty());
    /// ```
    pub fn new() -> Self {
        Rope::default()
    }

    /// Creates a rope holding a single leaf with `text`.
    pub fn leaf(text: impl Into<Arc<str>>) -> Self {
        let text: Arc<str> = text.into();
        if text.is_empty() {
            Rope::new()
        } else {
            Rope {
                root: Some(Arc::new(RNode::Leaf(text))),
            }
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.len())
    }

    /// `true` if the rope contains no text.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Height of the underlying tree (a leaf has depth 0).
    pub fn depth(&self) -> u32 {
        self.root.as_ref().map_or(0, |n| n.depth())
    }

    /// Number of text leaves.
    pub fn leaf_count(&self) -> usize {
        self.chunks().count()
    }

    /// Concatenates two ropes in O(1) without copying text.
    ///
    /// ```
    /// use paragram_rope::Rope;
    /// let r = Rope::from("ab").concat(&Rope::from("cd"));
    /// assert_eq!(r.to_string(), "abcd");
    /// ```
    pub fn concat(&self, other: &Rope) -> Rope {
        match (&self.root, &other.root) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(l), Some(r)) => Rope {
                root: Some(Arc::new(RNode::Concat {
                    len: l.len() + r.len(),
                    depth: l.depth().max(r.depth()) + 1,
                    left: Arc::clone(l),
                    right: Arc::clone(r),
                })),
            },
        }
    }

    /// Appends `text` as a new leaf (O(1)).
    pub fn push_str(&mut self, text: &str) {
        if !text.is_empty() {
            *self = self.concat(&Rope::leaf(text));
        }
    }

    /// Appends another rope (O(1)).
    pub fn push_rope(&mut self, other: &Rope) {
        *self = self.concat(other);
    }

    /// Iterates over the text chunks (leaves) left to right.
    pub fn chunks(&self) -> Chunks<'_> {
        let mut stack = Vec::new();
        if let Some(root) = &self.root {
            stack.push(root.as_ref());
        }
        Chunks { stack }
    }

    /// The text as one `String`, allocated once at its final length.
    /// `to_string` gives the same text through [`fmt::Display`], whose
    /// buffer grows by doubling: a megabyte of code is reallocated a
    /// score of times on the way.
    ///
    /// ```
    /// let r = paragram_rope::Rope::from("ab").concat(&"cd".into());
    /// assert_eq!(r.flatten(), "abcd");
    /// ```
    pub fn flatten(&self) -> String {
        let mut text = String::with_capacity(self.len());
        for chunk in self.chunks() {
            text.push_str(chunk);
        }
        text
    }

    /// Iterates over the lines of the rope (without trailing `\n`),
    /// crossing chunk boundaries.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        LineIter {
            chunks: self.chunks(),
            cur: "",
            pending: String::new(),
            done: false,
        }
    }

    /// Number of `\n` bytes in the rope.
    pub fn newline_count(&self) -> usize {
        self.chunks()
            .map(|c| c.bytes().filter(|&b| b == b'\n').count())
            .sum()
    }

    /// Byte at position `i`, or `None` past the end. O(depth).
    pub fn byte_at(&self, mut i: usize) -> Option<u8> {
        let mut node = self.root.as_deref()?;
        if i >= node.len() {
            return None;
        }
        loop {
            match node {
                RNode::Leaf(s) => return s.as_bytes().get(i).copied(),
                RNode::Concat { left, right, .. } => {
                    if i < left.len() {
                        node = left;
                    } else {
                        i -= left.len();
                        node = right;
                    }
                }
            }
        }
    }

    /// Rebuilds the rope into a balanced form with chunked leaves.
    ///
    /// Long evaluation pipelines produce deep, list-like ropes; the
    /// librarian flattens before final output. The text is copied once.
    pub fn rebalance(&self) -> Rope {
        if self.len() <= 1 {
            return self.clone();
        }
        const CHUNK: usize = 4096;
        let flat = self.flatten();
        let mut leaves: Vec<Rope> = Vec::new();
        let mut rest = flat.as_str();
        while !rest.is_empty() {
            let take = rest.len().min(CHUNK);
            // Avoid splitting a UTF-8 sequence.
            let mut cut = take;
            while !rest.is_char_boundary(cut) {
                cut -= 1;
            }
            let (head, tail) = rest.split_at(cut);
            leaves.push(Rope::leaf(head));
            rest = tail;
        }
        build_balanced(&leaves)
    }

    /// Approximate number of bytes needed to transmit this rope's text
    /// over the network in flattened form (text plus a length header).
    pub fn wire_size(&self) -> usize {
        self.len() + 8
    }

    /// The two ropes this one [concatenates](Rope::concat), sharing
    /// their nodes; `None` for a leaf or the empty rope. O(1).
    ///
    /// ```
    /// use paragram_rope::Rope;
    /// let (a, b) = (Rope::from("ab"), Rope::from("cd"));
    /// let (left, right) = a.concat(&b).halves().unwrap();
    /// assert!(left.ptr_eq(&a) && right.ptr_eq(&b));
    /// assert!(a.halves().is_none());
    /// ```
    pub fn halves(&self) -> Option<(Rope, Rope)> {
        match self.root.as_deref()? {
            RNode::Leaf(_) => None,
            RNode::Concat { left, right, .. } => Some((
                Rope {
                    root: Some(Arc::clone(left)),
                },
                Rope {
                    root: Some(Arc::clone(right)),
                },
            )),
        }
    }

    /// The identity of this rope's root node: equal for two ropes
    /// exactly when they [share](Rope::ptr_eq) it, and never reused by
    /// another node while a handle to this one lives. 0 for the empty
    /// rope. O(1).
    pub fn node_id(&self) -> usize {
        self.root.as_ref().map_or(0, |n| Arc::as_ptr(n) as usize)
    }

    /// `true` if both ropes are the same allocation (or both empty) —
    /// a clone, not merely equal text. O(1).
    pub fn ptr_eq(&self, other: &Rope) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `true` if both ropes have identical text content.
    ///
    /// Structural sharing is ignored: `"ab"+"c"` equals `"a"+"bc"`.
    pub fn content_eq(&self, other: &Rope) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.chunks();
        let mut b = other.chunks();
        let (mut ca, mut cb) = ("", "");
        loop {
            if ca.is_empty() {
                match a.next() {
                    Some(c) => ca = c,
                    None => return cb.is_empty() && b.next().is_none(),
                }
                continue;
            }
            if cb.is_empty() {
                match b.next() {
                    Some(c) => cb = c,
                    None => return false,
                }
                continue;
            }
            let n = ca.len().min(cb.len());
            if ca.as_bytes()[..n] != cb.as_bytes()[..n] {
                return false;
            }
            ca = &ca[n..];
            cb = &cb[n..];
        }
    }
}

/// Frees the nodes only this handle still owns, iteratively. Nodes have
/// no `Drop` of their own, so the one way a node is freed is through
/// the handle (or the parent node) that held the last reference to it —
/// here.
impl Drop for Rope {
    fn drop(&mut self) {
        let mut next = self.root.take();
        // Right-hand concatenations waiting their turn; a leaf is freed
        // on the spot, so a list-shaped rope
        // never pushes and a rope shared with another handle (the usual
        // case: `into_inner` is `None`) never allocates.
        let mut pending: Vec<Arc<RNode>> = Vec::new();
        while let Some(node) = next.take().or_else(|| pending.pop()) {
            if let Some(RNode::Concat { left, right, .. }) = Arc::into_inner(node) {
                next = Some(left);
                if matches!(*right, RNode::Concat { .. }) {
                    pending.push(right);
                }
            }
        }
    }
}

fn build_balanced(leaves: &[Rope]) -> Rope {
    match leaves.len() {
        0 => Rope::new(),
        1 => leaves[0].clone(),
        n => {
            let (l, r) = leaves.split_at(n / 2);
            build_balanced(l).concat(&build_balanced(r))
        }
    }
}

/// Left-to-right iterator over a rope's text chunks.
///
/// Produced by [`Rope::chunks`].
pub struct Chunks<'a> {
    stack: Vec<&'a RNode>,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while let Some(node) = self.stack.pop() {
            match node {
                RNode::Leaf(s) => return Some(s),
                RNode::Concat { left, right, .. } => {
                    self.stack.push(right);
                    self.stack.push(left);
                }
            }
        }
        None
    }
}

struct LineIter<'a> {
    chunks: Chunks<'a>,
    cur: &'a str,
    pending: String,
    done: bool,
}

impl<'a> Iterator for LineIter<'a> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if self.done {
            return None;
        }
        loop {
            if self.cur.is_empty() {
                match self.chunks.next() {
                    Some(c) => self.cur = c,
                    None => {
                        self.done = true;
                        if self.pending.is_empty() {
                            return None;
                        }
                        return Some(std::mem::take(&mut self.pending));
                    }
                }
                continue;
            }
            match self.cur.find('\n') {
                Some(pos) => {
                    self.pending.push_str(&self.cur[..pos]);
                    self.cur = &self.cur[pos + 1..];
                    return Some(std::mem::take(&mut self.pending));
                }
                None => {
                    self.pending.push_str(self.cur);
                    self.cur = "";
                }
            }
        }
    }
}

impl fmt::Display for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for chunk in self.chunks() {
            f.write_str(chunk)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rope({:?})", self.to_string())
    }
}

impl PartialEq for Rope {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}

impl Eq for Rope {}

impl From<&str> for Rope {
    fn from(s: &str) -> Self {
        Rope::leaf(s)
    }
}

impl From<String> for Rope {
    fn from(s: String) -> Self {
        Rope::leaf(s)
    }
}

impl FromIterator<Rope> for Rope {
    fn from_iter<I: IntoIterator<Item = Rope>>(iter: I) -> Self {
        let leaves: Vec<Rope> = iter.into_iter().collect();
        build_balanced(&leaves)
    }
}

impl<'a> FromIterator<&'a str> for Rope {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Self {
        iter.into_iter().map(Rope::leaf).collect()
    }
}

impl Extend<Rope> for Rope {
    fn extend<I: IntoIterator<Item = Rope>>(&mut self, iter: I) {
        for r in iter {
            self.push_rope(&r);
        }
    }
}

impl std::hash::Hash for Rope {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for chunk in self.chunks() {
            state.write(chunk.as_bytes());
        }
        state.write_u8(0xff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rope() {
        let r = Rope::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_string(), "");
        assert_eq!(r.depth(), 0);
        assert_eq!(r.leaf_count(), 0);
    }

    #[test]
    fn leaf_basics() {
        let r = Rope::from("hello");
        assert_eq!(r.len(), 5);
        assert_eq!(r.to_string(), "hello");
        assert_eq!(r.leaf_count(), 1);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn empty_leaf_collapses() {
        let r = Rope::leaf("");
        assert!(r.is_empty());
        assert_eq!(r.leaf_count(), 0);
    }

    #[test]
    fn concat_is_constant_shape() {
        let a = Rope::from("aa");
        let b = Rope::from("bb");
        let c = a.concat(&b);
        assert_eq!(c.len(), 4);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.to_string(), "aabb");
        // inputs unchanged (persistence)
        assert_eq!(a.to_string(), "aa");
        assert_eq!(b.to_string(), "bb");
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let a = Rope::from("xyz");
        let e = Rope::new();
        assert_eq!(a.concat(&e).to_string(), "xyz");
        assert_eq!(e.concat(&a).to_string(), "xyz");
        assert_eq!(e.concat(&e).len(), 0);
    }

    #[test]
    fn push_str_accumulates() {
        let mut r = Rope::new();
        r.push_str("one ");
        r.push_str("two ");
        r.push_str("three");
        assert_eq!(r.to_string(), "one two three");
    }

    #[test]
    fn byte_at_traverses_tree() {
        let r = Rope::from("abc").concat(&Rope::from("defg"));
        assert_eq!(r.byte_at(0), Some(b'a'));
        assert_eq!(r.byte_at(2), Some(b'c'));
        assert_eq!(r.byte_at(3), Some(b'd'));
        assert_eq!(r.byte_at(6), Some(b'g'));
        assert_eq!(r.byte_at(7), None);
    }

    #[test]
    fn content_eq_ignores_structure() {
        let a = Rope::from("ab").concat(&Rope::from("c"));
        let b = Rope::from("a").concat(&Rope::from("bc"));
        assert_eq!(a, b);
        assert_ne!(a, Rope::from("abd"));
        assert_ne!(a, Rope::from("ab"));
    }

    #[test]
    fn lines_cross_chunks() {
        let r = Rope::from("one\ntw").concat(&Rope::from("o\nthree"));
        let lines: Vec<String> = r.lines().collect();
        assert_eq!(lines, vec!["one", "two", "three"]);
        assert_eq!(r.newline_count(), 2);
    }

    #[test]
    fn lines_trailing_newline() {
        let r = Rope::from("a\nb\n");
        let lines: Vec<String> = r.lines().collect();
        assert_eq!(lines, vec!["a", "b"]);
    }

    #[test]
    fn rebalance_preserves_content() {
        let mut r = Rope::new();
        for i in 0..200 {
            r.push_str(&format!("line {i}\n"));
        }
        assert!(r.depth() >= 100); // list-like
        let b = r.rebalance();
        assert!(b.depth() < 20);
        assert_eq!(r, b);
    }

    #[test]
    fn from_iterator_balances() {
        let r: Rope = (0..64).map(|i| Rope::from(format!("{i},"))).collect();
        assert!(r.depth() <= 7);
        assert!(r.to_string().starts_with("0,1,2,"));
    }

    #[test]
    fn hash_agrees_with_content_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |r: &Rope| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        let a = Rope::from("ab").concat(&Rope::from("c"));
        let b = Rope::from("a").concat(&Rope::from("bc"));
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn wire_size_tracks_len() {
        let r = Rope::from("12345");
        assert_eq!(r.wire_size(), 5 + 8);
    }

    #[test]
    fn a_node_is_four_words() {
        assert_eq!(std::mem::size_of::<RNode>(), 32);
    }

    #[test]
    fn node_ids_follow_sharing_not_content() {
        let a = Rope::from("ab");
        assert_eq!(a.node_id(), a.clone().node_id());
        assert_ne!(a.node_id(), Rope::from("ab").node_id());
        assert_eq!(Rope::new().node_id(), 0);
        let (left, _) = a.concat(&a).halves().unwrap();
        assert_eq!(left.node_id(), a.node_id());
    }
}
