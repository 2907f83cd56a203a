//! Attribute value domains.
//!
//! Evaluators are generic over the attribute value type `V`; the only
//! requirements are captured by [`AttrValue`]. A convenience [`Value`]
//! enum covering the domains the paper's examples need (integers, rope
//! strings, applicative symbol tables, lists) is provided for the `spec`
//! crate and the examples; the Pascal compiler defines its own richer
//! domain.

use paragram_rope::Rope;
use paragram_symtab::SymTab;
use std::fmt;
use std::sync::Arc;

/// Requirements on attribute values.
///
/// `wire_size` is the paper's "conversion function" abstraction (§2.5): a
/// flattened, contiguous representation suitable for transmission over the
/// network must exist, and its size drives the simulated (and measured)
/// communication cost.
///
/// `Default` provides the placeholder that packed attribute stores keep
/// in unwritten slots (presence is tracked in a side bitset, so the
/// placeholder is never observable through the store API).
pub trait AttrValue: Clone + Default + Send + Sync + fmt::Debug + 'static {
    /// Bytes needed to ship this value over the network.
    fn wire_size(&self) -> usize {
        16
    }

    /// The rope of code text this value carries, if any — the text the
    /// string librarian (§4.2) would hold in its place. `wire_size`
    /// must count that rope's [`Rope::wire_size`] once: the simulator's
    /// librarian accounting prices the value as `wire_size` less the
    /// text it finds the librarian holds, plus a reference for each
    /// run of it. `None` (the default) for values that carry none.
    ///
    /// Only the *string data type* is involved in the librarian
    /// optimization; grammars and evaluators are untouched, exactly as
    /// the paper claims.
    fn librarian_text(&self) -> Option<&Rope> {
        None
    }

    /// Content fingerprint for memoization (subtree hashing and region
    /// input signatures). Two values with equal content must hash
    /// equal; the converse need not hold — a miss only costs a cache
    /// reuse, never correctness. Return `None` when the value is not
    /// fingerprintable (the default), which marks any tree node or
    /// region input carrying it as uncacheable.
    fn content_hash(&self) -> Option<u64> {
        None
    }

    /// `true` iff [`AttrValue::content_hash`] would return `Some` —
    /// i.e. the value carries no ticket-local state that would make it
    /// unsafe to replay under another ticket. A worker installing a
    /// memo point, when the point's visit returns, calls this on every
    /// value of the point's span, so implementations should answer with
    /// a cheap structural check rather than the default, which computes
    /// (and discards) the full content hash.
    fn is_fingerprintable(&self) -> bool {
        self.content_hash().is_some()
    }
}

/// FNV-1a over a byte slice — the workhorse for `content_hash` impls.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(0xcbf2_9ce4_8422_2325, bytes)
}

/// Extends an FNV-1a state with a byte slice. Feeding a text piece by
/// piece gives the state of feeding it whole, so a rope hashed chunk by
/// chunk fingerprints its text, not where its leaves happen to end.
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Extends an FNV-1a state with one 64-bit word (for combining child
/// hashes and variant tags).
pub fn fnv1a_u64(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl AttrValue for i64 {
    fn wire_size(&self) -> usize {
        8
    }
    fn content_hash(&self) -> Option<u64> {
        Some(fnv1a(&self.to_le_bytes()))
    }
}
impl AttrValue for u64 {
    fn wire_size(&self) -> usize {
        8
    }
    fn content_hash(&self) -> Option<u64> {
        Some(fnv1a(&self.to_le_bytes()))
    }
}
impl AttrValue for bool {
    fn wire_size(&self) -> usize {
        1
    }
    fn content_hash(&self) -> Option<u64> {
        Some(fnv1a(&[*self as u8]))
    }
}
impl AttrValue for String {
    fn wire_size(&self) -> usize {
        self.len() + 8
    }
    fn content_hash(&self) -> Option<u64> {
        Some(fnv1a(self.as_bytes()))
    }
}
impl AttrValue for () {
    fn content_hash(&self) -> Option<u64> {
        Some(fnv1a(&[]))
    }
}

/// A general-purpose attribute value domain: everything the paper's
/// appendix grammar and the examples need.
#[derive(Clone, Default)]
pub enum Value {
    /// Unit/absent value.
    #[default]
    Unit,
    /// 64-bit integer (the appendix grammar's `value` attribute).
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Short immutable string (identifier names from the scanner).
    Str(Arc<str>),
    /// Rope string (code attributes).
    Rope(Rope),
    /// Applicative symbol table (the appendix grammar's `stab`).
    Tab(SymTab<Value>),
    /// List of values.
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Creates a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The rope inside, if this is a `Rope`.
    pub fn as_rope(&self) -> Option<&Rope> {
        match self {
            Value::Rope(r) => Some(r),
            _ => None,
        }
    }

    /// The symbol table inside, if this is a `Tab`.
    pub fn as_tab(&self) -> Option<&SymTab<Value>> {
        match self {
            Value::Tab(t) => Some(t),
            _ => None,
        }
    }

    /// The list inside, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Name of the variant, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Rope(_) => "rope",
            Value::Tab(_) => "tab",
            Value::List(_) => "list",
        }
    }
}

impl AttrValue for Value {
    fn wire_size(&self) -> usize {
        1 + match self {
            Value::Unit => 0,
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() + 4,
            Value::Rope(r) => r.wire_size(),
            Value::Tab(t) => t.wire_size(),
            Value::List(l) => 4 + l.iter().map(AttrValue::wire_size).sum::<usize>(),
        }
    }

    fn librarian_text(&self) -> Option<&Rope> {
        self.as_rope()
    }

    fn content_hash(&self) -> Option<u64> {
        Some(paragram_symtab::TabValue::digest(self))
    }

    fn is_fingerprintable(&self) -> bool {
        true
    }
}

impl paragram_symtab::TabValue for Value {
    fn wire_size(&self) -> usize {
        AttrValue::wire_size(self)
    }

    /// Every `Value` has a content hash: the table's own digest stands
    /// for a `Tab`, so fingerprinting one is O(1) (see
    /// [`SymTab::digest`]).
    fn digest(&self) -> u64 {
        let mut h = fnv1a(&[match self {
            Value::Unit => 0u8,
            Value::Int(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
            Value::Rope(_) => 4,
            Value::Tab(_) => 5,
            Value::List(_) => 6,
        }]);
        match self {
            Value::Unit => {}
            Value::Int(i) => h = fnv1a_u64(h, *i as u64),
            Value::Bool(b) => h = fnv1a_u64(h, *b as u64),
            Value::Str(s) => h = fnv1a_u64(h, fnv1a(s.as_bytes())),
            Value::Rope(r) => {
                for chunk in r.chunks() {
                    h = fnv1a_bytes(h, chunk.as_bytes());
                }
            }
            Value::Tab(t) => {
                h = fnv1a_u64(h, t.digest());
                h = fnv1a_u64(h, t.len() as u64);
            }
            Value::List(l) => {
                for v in l.iter() {
                    h = fnv1a_u64(h, paragram_symtab::TabValue::digest(v));
                }
                h = fnv1a_u64(h, l.len() as u64);
            }
        }
        h
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Rope(a), Value::Rope(b)) => a == b,
            (Value::Tab(a), Value::Tab(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Rope(r) => write!(f, "rope({} bytes)", r.len()),
            Value::Tab(t) => write!(f, "tab({} entries)", t.len()),
            Value::List(l) => f.debug_list().entries(l.iter()).finish(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Rope(r) => write!(f, "{r}"),
            Value::Tab(t) => write!(f, "{t:?}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<Rope> for Value {
    fn from(r: Rope) -> Self {
        Value::Rope(r)
    }
}

impl From<SymTab<Value>> for Value {
    fn from(t: SymTab<Value>) -> Self {
        Value::Tab(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::Unit.as_int(), None);
        let l = Value::list([Value::Int(1), Value::Int(2)]);
        assert_eq!(l.as_list().map(|x| x.len()), Some(2));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::Int(1), Value::Int(1));
        assert_ne!(Value::Int(1), Value::Int(2));
        assert_ne!(Value::Int(1), Value::Bool(true));
        let a = Value::Rope(Rope::from("ab").concat(&Rope::from("c")));
        let b = Value::Rope(Rope::from("abc"));
        assert_eq!(a, b);
    }

    #[test]
    fn rope_hash_is_of_the_text_not_of_the_leaves() {
        use paragram_rope::RopeBuilder;
        let text = "addl2 r1, r0\npushl r0\n";
        let (head, tail) = text.split_at(7);
        let mut b = RopeBuilder::new();
        b.text(head);
        b.rope(&Rope::from("x".repeat(40)));
        b.text(tail);
        let built = b.finish();
        let hash = |r: Rope| Value::Rope(r).content_hash();
        let whole = hash(Rope::from(text));
        assert!(whole.is_some());
        assert_eq!(hash(Rope::from(head).concat(&Rope::from(tail))), whole);
        assert_eq!(hash(text.split_inclusive(' ').collect()), whole);
        assert_eq!(
            hash(built),
            hash(Rope::from(format!("{head}{}{tail}", "x".repeat(40))))
        );
        assert_ne!(hash(Rope::from(text.replace("r1", "r2"))), whole);
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        assert_eq!(Value::Unit.wire_size(), 1);
        assert_eq!(Value::Int(0).wire_size(), 9);
        let small = Value::Rope(Rope::from("x"));
        let big = Value::Rope(Rope::from("x".repeat(1000)));
        assert!(big.wire_size() > small.wire_size());
        let tab = Value::Tab(SymTab::new().add("name", Value::Int(1)));
        assert!(tab.wire_size() > 10);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::str("id").to_string(), "id");
        assert_eq!(
            Value::list([Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Unit.kind_name(), "unit");
        assert_eq!(Value::Tab(SymTab::new()).kind_name(), "tab");
    }
}
