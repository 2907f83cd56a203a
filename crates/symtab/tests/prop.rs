//! Property tests: the persistent symbol table must behave exactly like a
//! sequence of immutable snapshots of a reference map.

use paragram_symtab::{SymTab, TabValue};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Add(String, i64),
    Shadow(usize, i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ("[a-z]{1,8}", any::<i64>()).prop_map(|(n, v)| Op::Add(n, v)),
            (any::<usize>(), any::<i64>()).prop_map(|(i, v)| Op::Shadow(i, v)),
        ],
        0..64,
    )
}

/// A value whose price depends on it, so a shadowing add changes the
/// table's price: 0–7 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Priced(i64);

impl TabValue for Priced {
    fn wire_size(&self) -> usize {
        self.0.rem_euclid(8) as usize
    }
    fn digest(&self) -> u64 {
        self.0 as u64
    }
}

/// The flattened price by definition: a walk over every binding.
fn walked_wire_size(tab: &SymTab<Priced>) -> usize {
    8 + tab
        .iter()
        .map(|(name, v)| name.len() + 12 + v.wire_size())
        .sum::<usize>()
}

/// A table's bindings, sorted by name.
type Bindings = Vec<(String, i64)>;

fn sorted_bindings(tab: &SymTab<Priced>) -> Bindings {
    let mut bindings: Bindings = tab.iter().map(|(n, v)| (n.to_owned(), v.0)).collect();
    bindings.sort();
    bindings
}

/// The name and value each op binds, `None` for a shadow with nothing
/// to shadow yet.
fn binding(op: Op, names: &[String]) -> Option<(String, i64)> {
    match op {
        Op::Add(n, v) => Some((n, v)),
        Op::Shadow(i, v) => (!names.is_empty()).then(|| (names[i % names.len()].clone(), v)),
    }
}

proptest! {
    /// The price the root keeps is the walk's, on every version: asked
    /// as the table grows, and asked again of every old version
    /// afterwards, which must still answer for its own bindings.
    #[test]
    fn cached_wire_size_is_the_walk_on_every_version(ops in ops()) {
        let mut tab = SymTab::new();
        let mut names: Vec<String> = Vec::new();
        let mut versions: Vec<(SymTab<Priced>, usize, Bindings)> = Vec::new();
        for op in ops {
            let Some((name, value)) = binding(op, &names) else { continue };
            tab = tab.add(name.clone(), Priced(value));
            names.push(name);
            let size = tab.wire_size();
            prop_assert_eq!(size, walked_wire_size(&tab));
            versions.push((tab.clone(), size, sorted_bindings(&tab)));
        }
        for (old, size, bindings) in &versions {
            prop_assert_eq!(old.wire_size(), *size);
            prop_assert_eq!(walked_wire_size(old), *size);
            prop_assert_eq!(&sorted_bindings(old), bindings);
        }
    }

    /// Two tables built by the same adds, each from its own names,
    /// digest equal; rebinding one name to another value changes the
    /// digest, and rebinding it back restores it.
    #[test]
    fn digest_follows_the_bindings(ops in ops(), pick in any::<usize>(), delta in 1i64..1000) {
        let (mut one, mut two) = (SymTab::new(), SymTab::new());
        let mut names: Vec<String> = Vec::new();
        for op in ops {
            let Some((name, value)) = binding(op, &names) else { continue };
            one = one.add(name.clone(), Priced(value));
            two = two.add(name.as_str(), Priced(value));
            names.push(name);
        }
        prop_assert_eq!(one.digest(), two.digest());
        if names.is_empty() {
            return Ok(());
        }
        let name = &names[pick % names.len()];
        let value = *one.lookup(name).expect("bound");
        let changed = one.add(name.clone(), Priced(value.0.wrapping_add(delta)));
        prop_assert_ne!(changed.digest(), one.digest());
        prop_assert_eq!(changed.add(name.clone(), value).digest(), one.digest());
    }

    #[test]
    fn matches_reference_map(ops in ops()) {
        let mut tab = SymTab::new();
        let mut reference: HashMap<String, i64> = HashMap::new();
        let mut names: Vec<String> = Vec::new();
        for op in ops {
            let (name, value) = match op {
                Op::Add(n, v) => (n, v),
                Op::Shadow(i, v) => {
                    if names.is_empty() { continue; }
                    (names[i % names.len()].clone(), v)
                }
            };
            tab = tab.add(name.clone(), value);
            reference.insert(name.clone(), value);
            names.push(name);
            prop_assert_eq!(tab.len(), reference.len());
        }
        for (name, value) in &reference {
            prop_assert_eq!(tab.lookup(name), Some(value));
        }
        let mut got: Vec<(String, i64)> =
            tab.iter().map(|(n, v)| (n.to_owned(), *v)).collect();
        got.sort();
        let mut want: Vec<(String, i64)> =
            reference.into_iter().collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn snapshots_are_immutable(names in prop::collection::vec("[a-z]{1,6}", 1..32)) {
        // Record every intermediate version, then mutate further and check
        // the old versions still answer from their own era.
        let mut versions: Vec<(SymTab<usize>, usize)> = Vec::new();
        let mut tab = SymTab::new();
        for (i, n) in names.iter().enumerate() {
            versions.push((tab.clone(), i));
            tab = tab.add(n.clone(), i);
        }
        for (snapshot, era) in &versions {
            for n in &names {
                // The binding visible in snapshot `era` is the most recent
                // add of `n` strictly before `era`, if any.
                match names[..*era].iter().rposition(|m| m == n) {
                    Some(pos) => prop_assert_eq!(snapshot.lookup(n), Some(&pos)),
                    None => prop_assert_eq!(snapshot.lookup(n), None),
                }
            }
        }
    }

    #[test]
    fn depth_stays_logarithmic(n in 1usize..600) {
        let mut tab = SymTab::new();
        for i in 0..n {
            tab = tab.add(format!("v{i}"), i);
        }
        let log2 = usize::BITS - n.leading_zeros();
        prop_assert!(tab.depth() <= 4 * log2 as usize + 4,
            "depth {} for n {}", tab.depth(), n);
    }
}
