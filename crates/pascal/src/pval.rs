//! The Pascal compiler's attribute-value domain.
//!
//! A value costs the heap objects it carries and no more: the store of
//! a compiled tree holds one `PVal` per attribute instance, and freeing
//! them one `free` at a time is most of what tearing a tree down costs.
//! `Unit`, `Int`, `Ty`, the empty [`ErrList`] — the value of every
//! error attribute of a correct program — and the empty [`SigList`] own
//! nothing; the others are one reference-counted handle, so a copy rule
//! shares instead of copying. `PVal` is 24 bytes (asserted below); a variant that needs
//! more grows every slot of every store.

use crate::env::{Entry, Env, ParamSig, SigList, Ty};
use paragram_core::value::{fnv1a, fnv1a_bytes, fnv1a_u64, AttrValue};
use paragram_rope::Rope;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A list of semantic-error messages, shared by handle. The empty list
/// is a value, not an allocation: it owns nothing and copying it counts
/// nothing.
#[derive(Clone, PartialEq, Default)]
pub struct ErrList(
    /// `Some` is never empty.
    Option<Arc<[String]>>,
);

impl From<Vec<String>> for ErrList {
    fn from(msgs: Vec<String>) -> Self {
        ErrList((!msgs.is_empty()).then(|| msgs.into()))
    }
}

impl Deref for ErrList {
    type Target = [String];

    fn deref(&self) -> &[String] {
        self.0.as_deref().unwrap_or_default()
    }
}

impl fmt::Debug for ErrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Attribute values of the Pascal attribute grammar.
#[derive(Clone, PartialEq, Default)]
pub enum PVal {
    /// Absent/unit value.
    #[default]
    Unit,
    /// Integer (offsets, constants, levels, unique ids).
    Int(i64),
    /// Identifier or string-literal text.
    Str(Arc<str>),
    /// A type.
    Ty(Ty),
    /// The environment (symbol table).
    Env(Env),
    /// Generated code.
    Code(Rope),
    /// Semantic-error messages.
    Errs(ErrList),
    /// Parameter signatures (synthesized by formal-parameter lists).
    Sig(SigList),
}

impl PVal {
    /// Empty error list.
    pub fn no_errs() -> PVal {
        PVal::Errs(ErrList::default())
    }

    /// Single-message error list.
    pub fn err(msg: impl Into<String>) -> PVal {
        PVal::errs(vec![msg.into()])
    }

    /// An error list with these messages.
    pub fn errs(msgs: Vec<String>) -> PVal {
        PVal::Errs(msgs.into())
    }

    /// Concatenates any number of error lists. When at most one of them
    /// has messages the result is that list's handle (or the empty
    /// list): nothing is copied and nothing allocated.
    pub fn errs_concat(parts: &[&PVal]) -> PVal {
        let mut with_msgs = parts.iter().filter(|p| !p.as_errs().is_empty());
        match (with_msgs.next(), with_msgs.next()) {
            (None, _) => PVal::no_errs(),
            (Some(&only), None) => only.clone(),
            _ => PVal::errs(parts.iter().flat_map(|p| p.as_errs()).cloned().collect()),
        }
    }

    /// The integer inside (panics on other variants — semantic rules
    /// are type-correct by construction and tested).
    pub fn int(&self) -> i64 {
        match self {
            PVal::Int(i) => *i,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// The string inside.
    pub fn str(&self) -> &Arc<str> {
        match self {
            PVal::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// The type inside.
    pub fn ty(&self) -> Ty {
        match self {
            PVal::Ty(t) => *t,
            other => panic!("expected Ty, got {other:?}"),
        }
    }

    /// The environment inside.
    pub fn env(&self) -> &Env {
        match self {
            PVal::Env(e) => e,
            other => panic!("expected Env, got {other:?}"),
        }
    }

    /// The code rope inside.
    pub fn code(&self) -> &Rope {
        match self {
            PVal::Code(c) => c,
            other => panic!("expected Code, got {other:?}"),
        }
    }

    /// The error list inside (empty for `Unit`).
    pub fn as_errs(&self) -> &[String] {
        match self {
            PVal::Errs(e) => e,
            PVal::Unit => &[],
            other => panic!("expected Errs, got {other:?}"),
        }
    }

    /// The signature list inside.
    pub fn sig(&self) -> &SigList {
        match self {
            PVal::Sig(s) => s,
            other => panic!("expected Sig, got {other:?}"),
        }
    }
}

impl fmt::Debug for PVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PVal::Unit => write!(f, "()"),
            PVal::Int(i) => write!(f, "{i}"),
            PVal::Str(s) => write!(f, "{s:?}"),
            PVal::Ty(t) => write!(f, "{t}"),
            PVal::Env(e) => write!(f, "env({} entries)", e.len()),
            PVal::Code(c) => write!(f, "code({} bytes)", c.len()),
            PVal::Errs(e) => write!(f, "errs({})", e.len()),
            PVal::Sig(s) => write!(f, "sig({} params)", s.len()),
        }
    }
}

impl AttrValue for PVal {
    fn wire_size(&self) -> usize {
        1 + match self {
            PVal::Unit => 0,
            PVal::Int(_) => 8,
            PVal::Str(s) => 4 + s.len(),
            PVal::Ty(_) => 1,
            PVal::Env(e) => e.wire_size(|entry| match entry {
                crate::env::Entry::Proc { params, label, .. }
                | crate::env::Entry::Func { params, label, .. } => {
                    label.len() + 8 + params.len() * 12
                }
                _ => 16,
            }),
            PVal::Code(c) => c.wire_size(),
            PVal::Errs(e) => 4 + e.iter().map(|m| m.len() + 4).sum::<usize>(),
            PVal::Sig(s) => 4 + s.len() * 12,
        }
    }

    fn librarian_text(&self) -> Option<&Rope> {
        match self {
            PVal::Code(c) => Some(c),
            _ => None,
        }
    }

    fn content_hash(&self) -> Option<u64> {
        let mut h = fnv1a(&[match self {
            PVal::Unit => 0u8,
            PVal::Int(_) => 1,
            PVal::Str(_) => 2,
            PVal::Ty(_) => 3,
            PVal::Env(_) => 4,
            PVal::Code(_) => 5,
            PVal::Errs(_) => 6,
            PVal::Sig(_) => 7,
        }]);
        match self {
            PVal::Unit => {}
            PVal::Int(i) => h = fnv1a_u64(h, *i as u64),
            PVal::Str(s) => h = fnv1a_u64(h, fnv1a(s.as_bytes())),
            PVal::Ty(t) => h = fnv1a_u64(h, ty_hash(*t)),
            PVal::Env(e) => {
                // Iteration order follows the table's build sequence:
                // identically threaded environments hash identically;
                // equal-content tables built differently may miss,
                // never false-hit.
                for (name, entry) in e.iter() {
                    h = fnv1a_u64(h, fnv1a(name.as_bytes()));
                    h = fnv1a_u64(h, entry_hash(entry));
                }
                h = fnv1a_u64(h, e.len() as u64);
            }
            PVal::Code(c) => {
                for chunk in c.chunks() {
                    h = fnv1a_bytes(h, chunk.as_bytes());
                }
            }
            PVal::Errs(e) => {
                for msg in e.iter() {
                    h = fnv1a_u64(h, fnv1a(msg.as_bytes()));
                }
                h = fnv1a_u64(h, e.len() as u64);
            }
            PVal::Sig(s) => {
                for p in s.iter() {
                    h = fnv1a_u64(h, sig_hash(p));
                }
                h = fnv1a_u64(h, s.len() as u64);
            }
        }
        Some(h)
    }

    fn is_fingerprintable(&self) -> bool {
        true
    }
}

fn ty_hash(t: Ty) -> u64 {
    match t {
        Ty::Int => 1,
        Ty::Bool => 2,
        Ty::Error => 3,
    }
}

fn sig_hash(p: &ParamSig) -> u64 {
    let mut h = fnv1a(p.name.as_bytes());
    h = fnv1a_u64(h, ty_hash(p.ty));
    fnv1a_u64(h, p.by_ref as u64)
}

fn entry_hash(e: &Entry) -> u64 {
    match e {
        Entry::Const(v) => fnv1a_u64(fnv1a(&[1u8]), *v as u64),
        Entry::Var {
            level,
            offset,
            ty,
            by_ref,
        } => {
            let mut h = fnv1a(&[2u8]);
            h = fnv1a_u64(h, *level as u64);
            h = fnv1a_u64(h, *offset as u64);
            h = fnv1a_u64(h, ty_hash(*ty));
            fnv1a_u64(h, *by_ref as u64)
        }
        Entry::Arr {
            level,
            offset,
            lo,
            hi,
        } => {
            let mut h = fnv1a(&[3u8]);
            h = fnv1a_u64(h, *level as u64);
            h = fnv1a_u64(h, *offset as u64);
            h = fnv1a_u64(h, *lo as u64);
            fnv1a_u64(h, *hi as u64)
        }
        Entry::Proc {
            label,
            level,
            params,
        } => {
            let mut h = fnv1a(&[4u8]);
            h = fnv1a_u64(h, fnv1a(label.as_bytes()));
            h = fnv1a_u64(h, *level as u64);
            for p in params.iter() {
                h = fnv1a_u64(h, sig_hash(p));
            }
            fnv1a_u64(h, params.len() as u64)
        }
        Entry::Func {
            label,
            level,
            params,
            ret,
        } => {
            let mut h = fnv1a(&[5u8]);
            h = fnv1a_u64(h, fnv1a(label.as_bytes()));
            h = fnv1a_u64(h, *level as u64);
            for p in params.iter() {
                h = fnv1a_u64(h, sig_hash(p));
            }
            h = fnv1a_u64(h, params.len() as u64);
            fnv1a_u64(h, ty_hash(*ret))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errs_concat_flattens() {
        let a = PVal::err("one");
        let b = PVal::no_errs();
        let c = PVal::err("two");
        let all = PVal::errs_concat(&[&a, &b, &c]);
        assert_eq!(all.as_errs(), &["one".to_string(), "two".to_string()]);
    }

    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<PVal>(), 24);
        // A rope handle is one pointer: `PVal::Code` holds it inline
        // beside the tag, with room to spare.
        assert_eq!(std::mem::size_of::<Rope>(), 8);
    }

    #[test]
    fn empty_error_list_owns_nothing() {
        for empty in [PVal::no_errs(), PVal::errs(Vec::new())] {
            let PVal::Errs(list) = &empty else {
                unreachable!()
            };
            assert!(list.0.is_none(), "no handle: nothing allocated or counted");
            // What the simulator, the memo and the logs see is what an
            // empty `Arc<Vec<String>>` showed them.
            assert_eq!(empty.wire_size(), 5);
            assert_eq!(empty.content_hash(), Some(fnv1a_u64(fnv1a(&[6]), 0)));
            assert_eq!(format!("{empty:?}"), "errs(0)");
            assert_eq!(empty, PVal::no_errs());
            assert_ne!(empty, PVal::err("x"));
            assert_ne!(empty, PVal::Unit);
        }
        let one = PVal::err("ab");
        assert_eq!(one.wire_size(), 1 + 4 + (2 + 4));
        assert_eq!(format!("{one:?}"), "errs(1)");
        assert_eq!(
            one.content_hash(),
            Some(fnv1a_u64(fnv1a_u64(fnv1a(&[6]), fnv1a(b"ab")), 1))
        );
    }

    #[test]
    fn empty_signature_owns_nothing() {
        let param = ParamSig {
            name: "x".into(),
            ty: Ty::Int,
            by_ref: false,
        };
        let one = SigList::from(param.clone());
        for empty in [
            SigList::default(),
            SigList::from(Vec::new()),
            SigList::from(&one[1..]),
            SigList::default().concat(&SigList::default()),
        ] {
            assert_eq!(empty, SigList::default(), "no handle: nothing allocated");
            let empty = PVal::Sig(empty);
            // What an empty `Arc<Vec<ParamSig>>` showed the simulator
            // and the memo.
            assert_eq!(empty.wire_size(), 5);
            assert_eq!(empty.content_hash(), Some(fnv1a_u64(fnv1a(&[7]), 0)));
            assert_eq!(format!("{empty:?}"), "sig(0 params)");
        }
        // A list concatenated with an empty one is the same handle.
        let PVal::Sig(joined) = PVal::Sig(one.concat(&SigList::default())) else {
            unreachable!()
        };
        assert!(std::ptr::eq(joined.as_ptr(), one.as_ptr()));
        assert_eq!(&*SigList::default().concat(&one), &[param.clone()][..]);
        assert_eq!(one.concat(&one).len(), 2);
    }

    #[test]
    fn errs_concat_of_one_nonempty_list_is_its_handle() {
        let x = PVal::err("x");
        let PVal::Errs(ErrList(Some(handle))) = &x else {
            unreachable!()
        };
        for parts in [[&PVal::no_errs(), &x], [&x, &PVal::Unit]] {
            let PVal::Errs(ErrList(Some(got))) = PVal::errs_concat(&parts) else {
                panic!("one message expected");
            };
            assert!(Arc::ptr_eq(&got, handle));
        }
        let PVal::Errs(none) = PVal::errs_concat(&[&PVal::no_errs(), &PVal::Unit]) else {
            unreachable!()
        };
        assert!(none.0.is_none());
    }

    #[test]
    fn code_hash_is_of_the_text_not_of_the_leaves() {
        use paragram_rope::RopeBuilder;
        let text = "\tpushl $1\n\tpushl -8(fp)\n\tcalls $2, __lss\n";
        let (head, tail) = text.split_at(11);
        let mut b = RopeBuilder::new();
        b.text(&text[..5]);
        b.rope(&Rope::from(&text[5..40]));
        b.text(&text[40..]);
        let shapes = [
            Rope::from(text),
            Rope::from(head).concat(&Rope::from(tail)),
            text.split_inclusive('\n').collect(),
            b.finish(),
        ];
        assert!(shapes.iter().any(|r| r.leaf_count() > 2));
        let hash = |r: &Rope| PVal::Code(r.clone()).content_hash().expect("code hashes");
        for r in &shapes {
            assert_eq!(r.to_string(), text);
            assert_eq!(hash(r), hash(&shapes[0]), "{} leaves", r.leaf_count());
        }
        let other = Rope::from(head).concat(&Rope::from(tail.replace("__lss", "__lsr")));
        assert_ne!(hash(&other), hash(&shapes[0]));
    }

    #[test]
    fn accessors() {
        assert_eq!(PVal::Int(3).int(), 3);
        assert_eq!(PVal::Ty(Ty::Bool).ty(), Ty::Bool);
        assert_eq!(PVal::Code(Rope::from("x")).code().len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        PVal::Unit.int();
    }

    #[test]
    fn wire_size_env_counts_entries() {
        let e = Env::new().add("x", crate::env::Entry::Const(1));
        let small = PVal::Env(Env::new()).wire_size();
        let big = PVal::Env(e).wire_size();
        assert!(big > small);
    }
}
