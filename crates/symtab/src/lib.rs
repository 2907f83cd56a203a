//! Applicative (persistent) symbol tables.
//!
//! The paper (§4.3) implements symbol tables as binary search trees so that
//! *applicative updates are simple and fast*: `st_add` returns a new table
//! sharing almost all structure with the old one, which is exactly what an
//! attribute grammar needs — the symbol-table attribute of a block is a pure
//! function of the enclosing table, and many attribute instances alias large
//! parts of each other.
//!
//! Keys are not identifiers themselves but a *hash* of the identifier
//! ("symbol table entries map the hash table index of an identifier to the
//! information associated with that identifier"), which keeps key values
//! essentially uniformly distributed so the unbalanced BST stays shallow
//! without any rebalancing machinery. Each node holds one binding
//! inline, so a path-copied node is one allocation; two names whose
//! hashes collide are ordered by name.
//!
//! A table prices and fingerprints itself in O(1): every node keeps its
//! subtree's wire bytes (`st_put`'s flattened size, §2.5) and a digest
//! of its subtree's shape and bindings. A binding's value is priced and
//! digested once, when `add` binds it; a path-copied node reuses its
//! binding's digest and combines its new children's in O(1), and no
//! name is hashed again.
//!
//! # Examples
//!
//! ```
//! use paragram_symtab::SymTab;
//!
//! let empty: SymTab<i64> = SymTab::new();       // st_create
//! let t1 = empty.add("x", 7);                   // st_add (applicative)
//! let t2 = t1.add("y", 9);
//! assert_eq!(t2.lookup("x"), Some(&7));         // st_lookup
//! assert_eq!(t2.lookup("y"), Some(&9));
//! assert_eq!(t1.lookup("y"), None);             // old version unchanged
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// FNV-1a, the uniform identifier hash used as the BST key.
///
/// Any 64-bit avalanche hash works; FNV is dependency-free and stable
/// across runs, which keeps the simulator deterministic.
pub fn ident_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    // FNV-1a alone avalanches poorly in the high bits that drive BST
    // ordering; finish with a splitmix64-style mixer so similar
    // identifiers spread uniformly (the balance property §4.3 relies on).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// What a table needs of its values to price and fingerprint itself:
/// the bytes a value adds to a flattened entry, and a digest of its
/// content. `add` asks each once, for the value it binds.
pub trait TabValue {
    /// Bytes the value takes in a flattened table entry, beside its
    /// name and the entry's fixed overhead.
    fn wire_size(&self) -> usize;
    /// A digest of the value's content: equal values digest equal.
    fn digest(&self) -> u64;
}

macro_rules! int_tab_value {
    ($($t:ty),*) => {$(
        /// Priced at its width and digested as itself.
        impl TabValue for $t {
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn digest(&self) -> u64 {
                *self as u64
            }
        }
    )*};
}

int_tab_value!(i32, i64, u32, u64, usize);

type Link<V> = Option<Arc<TNode<V>>>;

/// One binding, held inline, with what its subtree weighs and digests
/// to. A node never changes once built.
#[derive(Debug)]
struct TNode<V> {
    key: u64,
    /// Digest of this node's binding: its key and its value's digest,
    /// taken when `add` bound it and kept by every copy.
    binding: u64,
    /// Digest of the subtree: the binding's, then the left child's,
    /// then the right child's.
    digest: u64,
    /// Wire bytes of the subtree's entries: per entry its name, 12
    /// bytes of overhead and its value's price.
    wire: usize,
    name: Arc<str>,
    value: V,
    left: Link<V>,
    right: Link<V>,
}

fn wire_of<V>(link: &Link<V>) -> usize {
    link.as_deref().map_or(0, |n| n.wire)
}

fn digest_of<V>(link: &Link<V>) -> u64 {
    link.as_deref().map_or(EMPTY_DIGEST, |n| n.digest)
}

impl<V> TNode<V> {
    /// Where `(key, name)` lies relative to this node's binding: names
    /// are compared only when their hashes collide.
    fn cmp(&self, key: u64, name: &str) -> Ordering {
        key.cmp(&self.key).then_with(|| name.cmp(&self.name))
    }

    /// A node binding `name` to `value` over `left` and `right`: the one
    /// place a value is priced and digested.
    fn bind(key: u64, name: Arc<str>, value: V, left: Link<V>, right: Link<V>) -> Arc<Self>
    where
        V: TabValue,
    {
        let binding = mix(key, value.digest());
        let wire = name.len() + 12 + value.wire_size() + wire_of(&left) + wire_of(&right);
        Arc::new(TNode {
            key,
            binding,
            digest: mix(mix(binding, digest_of(&left)), digest_of(&right)),
            wire,
            name,
            value,
            left,
            right,
        })
    }

    /// A copy of this node's binding over new children, weighed and
    /// digested from the parts in O(1).
    fn relink(&self, left: Link<V>, right: Link<V>) -> Arc<Self>
    where
        V: Clone,
    {
        let own = self.wire - wire_of(&self.left) - wire_of(&self.right);
        Arc::new(TNode {
            key: self.key,
            binding: self.binding,
            digest: mix(mix(self.binding, digest_of(&left)), digest_of(&right)),
            wire: own + wire_of(&left) + wire_of(&right),
            name: self.name.clone(),
            value: self.value.clone(),
            left,
            right,
        })
    }
}

/// Digest of an empty (sub)table.
const EMPTY_DIGEST: u64 = 0x6a09_e667_f3bc_c908;

/// Folds one word into a digest: a splitmix64 finalizer over the xor,
/// so the order of the words matters.
fn mix(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A persistent symbol table: `add` is O(depth) path copying, one
/// allocation per copied node, `lookup` is O(depth), and old versions
/// remain valid and unchanged.
pub struct SymTab<V> {
    root: Link<V>,
    len: usize,
}

impl<V> Clone for SymTab<V> {
    fn clone(&self) -> Self {
        SymTab {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<V> Default for SymTab<V> {
    fn default() -> Self {
        SymTab { root: None, len: 0 }
    }
}

impl<V> SymTab<V> {
    /// Creates an empty table (`st_create` in the paper's appendix).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bindings (later bindings of the same name shadow but are
    /// counted once).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the binding of `name` (`st_lookup`).
    pub fn lookup(&self, name: &str) -> Option<&V> {
        let key = ident_hash(name);
        let mut node = self.root.as_deref()?;
        loop {
            node = match node.cmp(key, name) {
                Ordering::Equal => return Some(&node.value),
                Ordering::Less => node.left.as_deref()?,
                Ordering::Greater => node.right.as_deref()?,
            };
        }
    }

    /// `true` if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// Iterates over all `(name, value)` bindings in unspecified order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
        }
    }

    /// Height of the tree (empty = 0). With uniform hash keys this stays
    /// close to log2(len) without rebalancing — asserted in tests, since
    /// the paper's performance argument depends on it.
    pub fn depth(&self) -> usize {
        fn go<V>(n: Option<&TNode<V>>) -> usize {
            n.map_or(0, |n| 1 + go(n.left.as_deref()).max(go(n.right.as_deref())))
        }
        go(self.root.as_deref())
    }

    /// Bytes to transmit the table flattened over the network
    /// (`st_put`/`st_get` conversion functions, §2.5): 8, plus per entry
    /// its name, its value's [`TabValue::wire_size`] and 12 bytes of
    /// overhead. O(1): the root keeps the sum.
    pub fn wire_size(&self) -> usize {
        8 + wire_of(&self.root)
    }

    /// A digest of the table's shape and bindings, O(1) like
    /// [`SymTab::wire_size`]. Tables whose bindings, visited in
    /// preorder, agree name for name and value for value digest equal:
    /// a binary search tree is determined by its keys' preorder. Equal
    /// tables built in different orders may digest differently.
    pub fn digest(&self) -> u64 {
        digest_of(&self.root)
    }
}

impl<V: Clone + TabValue> SymTab<V> {
    /// Returns a *new* table in which `name` is bound to `value`
    /// (`st_add`). The receiver is unchanged; structure is shared.
    #[must_use = "st_add is applicative: it returns the updated table"]
    pub fn add(&self, name: impl Into<Arc<str>>, value: V) -> SymTab<V> {
        let name: Arc<str> = name.into();
        let key = ident_hash(&name);
        let (root, added) = insert(self.root.as_ref(), key, name, value);
        SymTab {
            root: Some(root),
            len: self.len + usize::from(added),
        }
    }
}

fn insert<V: Clone + TabValue>(
    node: Option<&Arc<TNode<V>>>,
    key: u64,
    name: Arc<str>,
    value: V,
) -> (Arc<TNode<V>>, bool) {
    let Some(n) = node else {
        return (TNode::bind(key, name, value, None, None), true);
    };
    match n.cmp(key, &name) {
        Ordering::Equal => (
            TNode::bind(key, name, value, n.left.clone(), n.right.clone()),
            false,
        ),
        Ordering::Less => {
            let (left, added) = insert(n.left.as_ref(), key, name, value);
            (n.relink(Some(left), n.right.clone()), added)
        }
        Ordering::Greater => {
            let (right, added) = insert(n.right.as_ref(), key, name, value);
            (n.relink(n.left.clone(), Some(right)), added)
        }
    }
}

/// Iterator over the bindings of a [`SymTab`]: a node, then its right
/// subtree, then its left.
pub struct Iter<'a, V> {
    stack: Vec<&'a TNode<V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (&'a str, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.stack.extend(node.left.as_deref());
        self.stack.extend(node.right.as_deref());
        Some((&node.name, &node.value))
    }
}

impl<V: Clone + TabValue> FromIterator<(Arc<str>, V)> for SymTab<V> {
    fn from_iter<I: IntoIterator<Item = (Arc<str>, V)>>(iter: I) -> Self {
        let mut t = SymTab::new();
        for (n, v) in iter {
            t = t.add(n, v);
        }
        t
    }
}

impl<V: fmt::Debug> fmt::Debug for SymTab<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(&str, &V)> = self.iter().collect();
        entries.sort_by_key(|(n, _)| *n);
        f.debug_map().entries(entries).finish()
    }
}

impl<V: PartialEq> PartialEq for SymTab<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        self.iter().all(|(n, v)| other.lookup(n) == Some(v))
    }
}

impl<V: Eq> Eq for SymTab<V> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value priced at 4 bytes and digested as itself.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct W(u64);

    impl TabValue for W {
        fn wire_size(&self) -> usize {
            4
        }
        fn digest(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn empty_table() {
        let t: SymTab<i32> = SymTab::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup("x"), None);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn add_then_lookup() {
        let t = SymTab::new().add("alpha", 1).add("beta", 2);
        assert_eq!(t.lookup("alpha"), Some(&1));
        assert_eq!(t.lookup("beta"), Some(&2));
        assert_eq!(t.lookup("gamma"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn applicative_update_preserves_old_versions() {
        let t0: SymTab<i32> = SymTab::new();
        let t1 = t0.add("x", 1);
        let t2 = t1.add("x", 2); // shadow
        let t3 = t2.add("y", 3);
        assert_eq!(t0.lookup("x"), None);
        assert_eq!(t1.lookup("x"), Some(&1));
        assert_eq!(t2.lookup("x"), Some(&2));
        assert_eq!(t2.len(), 1);
        assert_eq!(t3.lookup("x"), Some(&2));
        assert_eq!(t3.lookup("y"), Some(&3));
    }

    #[test]
    fn rebinding_does_not_grow_len() {
        let t = SymTab::new().add("k", 1).add("k", 2).add("k", 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("k"), Some(&3));
    }

    #[test]
    fn iter_visits_every_binding_once() {
        let names = ["a", "b", "c", "d", "e", "f"];
        let mut t = SymTab::new();
        for (i, n) in names.iter().enumerate() {
            t = t.add(*n, i);
        }
        let mut got: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        got.sort_unstable();
        assert_eq!(got, names);
    }

    #[test]
    fn uniform_hash_keeps_tree_shallow() {
        // The paper's balance argument: with hash keys, no rebalancing is
        // needed. 4096 sequentially named identifiers (worst case for a
        // name-keyed BST) must stay within a small factor of log2(n).
        let mut t = SymTab::new();
        for i in 0..4096 {
            t = t.add(format!("ident{i}"), i);
        }
        assert_eq!(t.len(), 4096);
        assert!(
            t.depth() <= 4 * 12,
            "depth {} too large for 4096 uniform keys",
            t.depth()
        );
    }

    #[test]
    fn equality_is_extensional() {
        let a = SymTab::new().add("x", 1).add("y", 2);
        let b = SymTab::new().add("y", 2).add("x", 1);
        assert_eq!(a, b);
        let c = a.add("z", 3);
        assert_ne!(a, c);
    }

    #[test]
    fn wire_size_counts_entries() {
        let t = SymTab::new().add("ab", W(5)).add("cde", W(6));
        assert_eq!(t.wire_size(), 8 + (2 + 12 + 4) + (3 + 12 + 4));
        assert_eq!(SymTab::<W>::new().wire_size(), 8);
        // A shadowing add reprices the binding it replaces.
        assert_eq!(t.add("ab", W(9)).wire_size(), t.wire_size());
    }

    #[test]
    fn digest_follows_the_bindings_not_the_handle() {
        let a = SymTab::new().add("x", W(1)).add("y", W(2));
        let b = SymTab::new().add("x", W(1)).add("y", W(2));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), a.add("y", W(3)).digest());
        assert_ne!(a.digest(), SymTab::new().add("x", W(1)).digest());
        assert_ne!(SymTab::<W>::new().digest(), 0);
    }

    #[test]
    fn colliding_keys_keep_both_bindings() {
        // Two names forced onto one key, as a hash collision would put
        // them: both stay bound, and a rebinding replaces only its own.
        let (a, b): (Arc<str>, Arc<str>) = ("a".into(), "b".into());
        let one = insert(None, 7, a.clone(), 1).0;
        let (two, added) = insert(Some(&one), 7, b.clone(), 2);
        assert!(added);
        let (three, added) = insert(Some(&two), 7, a, 3);
        assert!(!added);
        let t = SymTab {
            root: Some(three),
            len: 2,
        };
        let mut got: Vec<(&str, i32)> = t.iter().map(|(n, v)| (n, *v)).collect();
        got.sort_unstable();
        assert_eq!(got, [("a", 3), ("b", 2)]);
    }

    #[test]
    fn a_node_is_one_allocation_with_its_binding() {
        // Key, binding digest, subtree digest and wire bytes, name,
        // value and two links: nothing behind a second pointer.
        assert_eq!(
            std::mem::size_of::<TNode<u64>>(),
            8 + 8 + 8 + 8 + 16 + 8 + 8 + 8
        );
    }

    #[test]
    fn a_path_copy_keeps_its_binding_digest_and_reweighs_its_children() {
        let t = SymTab::new().add("p", W(1)).add("q", W(2)).add("r", W(3));
        let grown = t.add("s", W(4));
        let root = grown.root.as_deref().unwrap();
        assert_eq!(root.binding, t.root.as_deref().unwrap().binding);
        assert_eq!(root.wire, t.wire_size() - 8 + (1 + 12 + 4));
    }

    #[test]
    fn debug_output_sorted_and_nonempty() {
        let t = SymTab::new().add("b", 2).add("a", 1);
        assert_eq!(format!("{t:?}"), r#"{"a": 1, "b": 2}"#);
    }

    #[test]
    fn hash_is_stable() {
        // The simulator's determinism depends on a stable hash.
        let h = ident_hash("");
        assert_eq!(h, ident_hash("")); // same run
        assert_ne!(h, 0); // mixed, not a raw constant
        assert_eq!(ident_hash("x"), ident_hash("x"));
        assert_ne!(ident_hash("x"), ident_hash("y"));
    }
}
