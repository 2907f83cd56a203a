//! Emitting a rope piece by piece.
//!
//! A semantic rule's code is mostly fixed instruction text with a few
//! formatted operands, wrapped around the code of its children. Built
//! with [`Rope::push_str`], every piece of literal text becomes a leaf
//! of its own — two allocations and a concatenation node each — although
//! nothing will ever look at the pieces separately. [`RopeBuilder`]
//! gathers adjacent literal text into one *run* and makes the run a
//! single leaf when a sub-rope (or the end) follows; sub-ropes are linked
//! exactly as [`Rope::concat`] links them.

use crate::{RNode, Rope};
use std::fmt;

/// A linked child that is one leaf of at most this many bytes is copied
/// into the run instead: linking it costs a concatenation node and
/// splits the literal text around it into two leaves (two allocations
/// each), copying costs its bytes once more. 32 bytes is any single
/// push instruction — an operand's whole code. On the Pascal grammar's
/// paper tree, allocations per parse-tree node during evaluation: 3.32
/// with no copying, 3.03 at 16 and at 32 bytes, 2.98 at 64, 2.97 at 128
/// (where runs start to outgrow the inline buffer): operand pushes are
/// the short leaves, and past them there is little left to win.
const COPY_LEAF_MAX: usize = 32;

/// Builds a [`Rope`] from literal text and shared sub-ropes, left to
/// right.
///
/// Text arrives through [`RopeBuilder::text`] or, formatted in place,
/// through `write!` (`write!(b, "\tpushl ${v}\n")` makes no temporary
/// `String`). The text between two [`RopeBuilder::rope`] calls is one
/// leaf, however many calls delivered it.
///
/// ```
/// use paragram_rope::{Rope, RopeBuilder};
///
/// let body = Rope::from("\tpushl $1\n".repeat(8));
/// let mut b = RopeBuilder::new();
/// b.text("L7t:\n");
/// b.rope(&body); // linked, not copied
/// write!(b, "\tbrb L{}t\n", 7);
/// b.text("L7x:\n");
/// let code = b.finish();
/// assert_eq!(code.leaf_count(), 3);
/// assert!(code.to_string().ends_with("\tbrb L7t\nL7x:\n"));
/// ```
pub struct RopeBuilder {
    /// Everything emitted before the pending run.
    built: Rope,
    /// The pending run — literal text not yet made a leaf — while it
    /// fits: a rule's fixed instruction sequence nearly always does, and
    /// then emitting it allocates the leaf and nothing else.
    short: [u8; SHORT_RUN],
    short_len: usize,
    /// The pending run once it has outgrown `short` (which is then
    /// empty).
    long: String,
}

/// Longest run kept inside the builder.
const SHORT_RUN: usize = 128;

impl Default for RopeBuilder {
    fn default() -> Self {
        RopeBuilder {
            built: Rope::new(),
            short: [0; SHORT_RUN],
            short_len: 0,
            long: String::new(),
        }
    }
}

impl RopeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        RopeBuilder::default()
    }

    /// Appends literal text to the pending run.
    pub fn text(&mut self, text: &str) {
        let end = self.short_len + text.len();
        if self.long.is_empty() && end <= SHORT_RUN {
            self.short[self.short_len..end].copy_from_slice(text.as_bytes());
            self.short_len = end;
        } else {
            if self.long.is_empty() {
                self.long.reserve(end.max(2 * SHORT_RUN));
                self.long.push_str(short_str(&self.short[..self.short_len]));
                self.short_len = 0;
            }
            self.long.push_str(text);
        }
    }

    /// Formats into the pending run. This is the method `write!(b, …)`
    /// calls, so — unlike through [`fmt::Write`], which the builder also
    /// implements — there is no `Result` to discard at every site.
    ///
    /// # Panics
    ///
    /// If a `Display` implementation among the arguments reports an
    /// error: the builder itself accepts all text.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(self, args).expect("a formatting trait reported an error");
    }

    /// Appends a rope, sharing it: the pending run (if any) becomes one
    /// leaf and `rope` is linked after it in O(1), as by
    /// [`Rope::push_rope`]. Only a rope that is itself a single short
    /// leaf is copied into the run instead.
    pub fn rope(&mut self, rope: &Rope) {
        match rope.root.as_deref() {
            None => {}
            Some(RNode::Leaf(text)) if text.len() <= COPY_LEAF_MAX => self.text(text),
            Some(_) => {
                self.flush();
                self.built.push_rope(rope);
            }
        }
    }

    /// The rope emitted.
    pub fn finish(mut self) -> Rope {
        self.flush();
        self.built
    }

    fn flush(&mut self) {
        if self.long.is_empty() {
            self.built
                .push_str(short_str(&self.short[..self.short_len]));
            self.short_len = 0;
        } else {
            self.built.push_str(&self.long);
            self.long.clear();
        }
    }
}

/// The text in the short-run buffer.
fn short_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("whole `str`s were copied in")
}

impl fmt::Write for RopeBuilder {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text(s);
        Ok(())
    }
}
