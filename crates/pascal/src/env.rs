//! Types and symbol-table entries.
//!
//! The environment is an applicative [`SymTab`] (paper §4.3): `add`
//! returns a new table sharing structure, which is what lets the
//! attribute grammar thread hundreds of environment versions through
//! the tree cheaply.

use paragram_symtab::SymTab;
use std::ops::Deref;
use std::sync::Arc;

/// A value type in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `integer`
    Int,
    /// `boolean`
    Bool,
    /// Propagated after an error to suppress cascades.
    Error,
}

impl Ty {
    /// `true` if either side is the error type (mismatches involving it
    /// are not re-reported).
    pub fn compatible(self, other: Ty) -> bool {
        self == Ty::Error || other == Ty::Error || self == other
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Int => write!(f, "integer"),
            Ty::Bool => write!(f, "boolean"),
            Ty::Error => write!(f, "<error>"),
        }
    }
}

/// Formal-parameter signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSig {
    /// Parameter name.
    pub name: Arc<str>,
    /// Value type.
    pub ty: Ty,
    /// `true` for `var` parameters (passed by address).
    pub by_ref: bool,
}

/// A routine's formal-parameter signatures, shared by handle. Like an
/// empty [`crate::pval::ErrList`], the empty list — a parameterless
/// routine's, a failed lookup's, a call's after its last argument — is
/// a value, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SigList(
    /// `Some` is never empty.
    Option<Arc<[ParamSig]>>,
);

impl From<Vec<ParamSig>> for SigList {
    fn from(sigs: Vec<ParamSig>) -> Self {
        SigList((!sigs.is_empty()).then(|| sigs.into()))
    }
}

impl From<ParamSig> for SigList {
    fn from(sig: ParamSig) -> Self {
        SigList(Some(Arc::new([sig])))
    }
}

impl From<&[ParamSig]> for SigList {
    fn from(sigs: &[ParamSig]) -> Self {
        SigList((!sigs.is_empty()).then(|| sigs.into()))
    }
}

impl SigList {
    /// This list followed by `rest`, sharing a handle when either is
    /// empty.
    pub fn concat(&self, rest: &SigList) -> SigList {
        match (&self.0, &rest.0) {
            (_, None) => self.clone(),
            (None, _) => rest.clone(),
            (Some(head), Some(tail)) => {
                SigList(Some(head.iter().chain(tail.iter()).cloned().collect()))
            }
        }
    }
}

impl Deref for SigList {
    type Target = [ParamSig];

    fn deref(&self) -> &[ParamSig] {
        self.0.as_deref().unwrap_or_default()
    }
}

/// A symbol-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// Named integer constant.
    Const(i64),
    /// Scalar variable or value/var parameter.
    Var {
        /// Static nesting level of the owning frame (0 = program).
        level: u32,
        /// Frame-pointer-relative byte offset.
        offset: i32,
        /// Value type.
        ty: Ty,
        /// `true` if the slot holds an address (var parameter).
        by_ref: bool,
    },
    /// Array variable (integer elements).
    Arr {
        /// Static nesting level.
        level: u32,
        /// Offset of element `lo` (lowest address of the block).
        offset: i32,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// Procedure.
    Proc {
        /// Assembly label.
        label: Arc<str>,
        /// Level of the procedure's own frame.
        level: u32,
        /// Parameter signatures.
        params: SigList,
    },
    /// Function.
    Func {
        /// Assembly label.
        label: Arc<str>,
        /// Level of the function's own frame.
        level: u32,
        /// Parameter signatures.
        params: SigList,
        /// Result type.
        ret: Ty,
    },
}

impl Entry {
    /// Short description for error messages.
    pub fn describe(&self) -> &'static str {
        match self {
            Entry::Const(_) => "a constant",
            Entry::Var { .. } => "a variable",
            Entry::Arr { .. } => "an array",
            Entry::Proc { .. } => "a procedure",
            Entry::Func { .. } => "a function",
        }
    }
}

/// The environment attribute: an applicative symbol table.
pub type Env = SymTab<Entry>;

/// Converts an AST type to [`Ty`] (arrays are handled separately).
pub fn scalar_ty(t: &crate::ast::TypeExpr) -> Ty {
    match t {
        crate::ast::TypeExpr::Integer => Ty::Int,
        crate::ast::TypeExpr::Boolean => Ty::Bool,
        crate::ast::TypeExpr::Array { .. } => Ty::Error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_is_applicative() {
        let e0: Env = Env::new();
        let e1 = e0.add("x", Entry::Const(3));
        let e2 = e1.add(
            "x",
            Entry::Var {
                level: 0,
                offset: -8,
                ty: Ty::Int,
                by_ref: false,
            },
        );
        assert_eq!(e1.lookup("x"), Some(&Entry::Const(3)));
        assert!(matches!(e2.lookup("x"), Some(Entry::Var { .. })));
        assert_eq!(e0.lookup("x"), None);
    }

    #[test]
    fn ty_compatibility_suppresses_error_cascades() {
        assert!(Ty::Int.compatible(Ty::Int));
        assert!(!Ty::Int.compatible(Ty::Bool));
        assert!(Ty::Error.compatible(Ty::Bool));
        assert!(Ty::Int.compatible(Ty::Error));
    }

    #[test]
    fn descriptions() {
        assert_eq!(Entry::Const(1).describe(), "a constant");
        assert_eq!(
            Entry::Proc {
                label: "P1_f".into(),
                level: 1,
                params: SigList::default()
            }
            .describe(),
            "a procedure"
        );
    }
}
