//! Pure code-generation helpers shared by the attribute grammar's
//! semantic rules and the direct baseline compiler.
//!
//! Every helper *emits into* the [`RopeBuilder`] it is handed and
//! returns nothing (bar [`chase`], which names the base register it
//! left): a rule opens one builder, calls helpers and links its
//! children's code in order, and gets a rope in which each stretch of
//! instruction text between two children is one leaf, whatever number
//! of helpers and operands it was put together from. There is no other
//! way to make code — the two compilers' byte-identical output depends
//! on sharing this one.
//!
//! Conventions (see `paragram-vax` docs for the frame layout):
//!
//! * expressions are compiled to **stack code**: each expression's code
//!   pushes exactly one longword;
//! * `-4(fp)` holds the static link, stored from `r11` by the prologue;
//!   `-8(fp)` is the function-result slot; locals follow;
//! * parameter `i` of `n` (0-based, declared left-to-right, pushed
//!   left-to-right) lives at `12 + 4*(n-1-i)`(fp);
//! * `r0`/`r1` are expression scratch, `r2` holds addresses, `r10` walks
//!   static links, `r11` passes the callee's static link;
//! * booleans are `0`/`1`; comparison and logical operators call fixed
//!   runtime routines (so they need no compiler-generated labels).

use crate::env::{Entry, ParamSig, Ty};
use paragram_rope::{Rope, RopeBuilder};
use std::sync::Arc;

/// Pops the top of stack into register `rN`.
pub fn pop_to(b: &mut RopeBuilder, reg: &str) {
    write!(b, "\tmovl (sp), {reg}\n\taddl2 $4, sp\n");
}

/// Pushes a literal.
pub fn push_imm(b: &mut RopeBuilder, v: i64) {
    write!(b, "\tpushl ${v}\n");
}

/// Emits static-link chasing: leaves the frame pointer of the frame
/// `diff` levels out in `r10` (for `diff >= 1`). Returns the base
/// register name to use (`"fp"` when `diff == 0`).
pub fn chase(b: &mut RopeBuilder, diff: u32) -> &'static str {
    if diff == 0 {
        return "fp";
    }
    b.text("\tmovl -4(fp), r10\n");
    for _ in 1..diff {
        b.text("\tmovl -4(r10), r10\n");
    }
    "r10"
}

/// Code leaving the *address* of a scalar variable in `r2`.
/// `cur_level` is the static level of the code being generated.
pub fn var_addr_to_r2(b: &mut RopeBuilder, level: u32, offset: i32, by_ref: bool, cur_level: u32) {
    let base = chase(b, cur_level - level);
    if by_ref {
        write!(b, "\tmovl {offset}({base}), r2\n");
    } else {
        write!(b, "\taddl3 ${offset}, {base}, r2\n");
    }
}

/// Code leaving the address of array element `lo` in `r2`.
pub fn arr_base_to_r2(b: &mut RopeBuilder, level: u32, offset: i32, cur_level: u32) {
    let base = chase(b, cur_level - level);
    write!(b, "\taddl3 ${offset}, {base}, r2\n");
}

/// Given index code already emitted (index value on top of stack) and
/// the array base in `r2`, finish computing the element address in
/// `r2`.
pub fn index_fixup(b: &mut RopeBuilder, lo: i64) {
    pop_to(b, "r1");
    if lo != 0 {
        write!(b, "\tsubl2 ${lo}, r1\n");
    }
    b.text("\tmull2 $4, r1\n\taddl2 r1, r2\n");
}

/// Pushes the value of a scalar variable.
pub fn push_var(b: &mut RopeBuilder, level: u32, offset: i32, by_ref: bool, cur_level: u32) {
    let base = chase(b, cur_level - level);
    if by_ref {
        write!(b, "\tmovl {offset}({base}), r2\n\tpushl (r2)\n");
    } else {
        write!(b, "\tpushl {offset}({base})\n");
    }
}

/// Sets up the static link in `r11` for calling a routine whose frame
/// level is `callee_level`, from code at `cur_level`.
pub fn static_link_setup(b: &mut RopeBuilder, callee_level: u32, cur_level: u32) {
    let diff = cur_level + 1 - callee_level; // levels to the defining scope
    let base = chase(b, diff);
    write!(b, "\tmovl {base}, r11\n");
}

/// Emits a call: `args_code` must push the arguments.
pub fn call(
    b: &mut RopeBuilder,
    args_code: &Rope,
    nargs: usize,
    label: &str,
    callee_level: u32,
    cur_level: u32,
    push_result: bool,
) {
    b.rope(args_code);
    static_link_setup(b, callee_level, cur_level);
    write!(b, "\tcalls ${nargs}, {label}\n");
    if push_result {
        b.text("\tpushl r0\n");
    }
}

/// Binary arithmetic on the two top stack values (lhs pushed first);
/// result pushed.
pub fn arith(b: &mut RopeBuilder, op: &str) {
    // Top = rhs -> r1, then lhs -> r0.
    pop_to(b, "r1");
    pop_to(b, "r0");
    write!(b, "\t{op} r1, r0\n\tpushl r0\n");
}

/// Calls a two-argument runtime routine on the two top stack values;
/// result pushed.
pub fn runtime2(b: &mut RopeBuilder, name: &str) {
    write!(b, "\tcalls $2, {name}\n\tpushl r0\n");
}

/// Calls a one-argument runtime routine on the top stack value; result
/// pushed.
pub fn runtime1(b: &mut RopeBuilder, name: &str) {
    write!(b, "\tcalls $1, {name}\n\tpushl r0\n");
}

/// Negates the top of stack in place.
pub fn negate(b: &mut RopeBuilder) {
    pop_to(b, "r0");
    b.text("\tmnegl r0, r0\n\tpushl r0\n");
}

/// `write` of the (integer/boolean) value on top of the stack.
pub fn write_top(b: &mut RopeBuilder) {
    pop_to(b, "r0");
    b.text("\twriteint r0\n");
}

/// `write('...')`.
pub fn write_str(b: &mut RopeBuilder, s: &str) {
    b.text("\twritestr \"");
    for c in s.chars() {
        if matches!(c, '\\' | '"') {
            b.text("\\");
        }
        b.text(c.encode_utf8(&mut [0; 4]));
    }
    b.text("\"\n");
}

/// Procedure/function prologue: `label:` then frame allocation, static
/// link store, and result-slot clearing for functions. `off_out` is the
/// declaration pass's next-free offset (negative).
pub fn prologue(b: &mut RopeBuilder, label: &str, off_out: i32, is_func: bool) {
    let size = (-off_out - 4).max(4);
    write!(b, "{label}:\n\tsubl2 ${size}, sp\n\tmovl r11, -4(fp)\n");
    if is_func {
        b.text("\tclrl -8(fp)\n");
    }
}

/// Function/procedure epilogue.
pub fn epilogue(b: &mut RopeBuilder, is_func: bool) {
    if is_func {
        b.text("\tmovl -8(fp), r0\n");
    }
    b.text("\tret\n");
}

/// Frame-relative offset of parameter `i` of `n` (pushed
/// left-to-right).
pub fn param_offset(i: usize, n: usize) -> i32 {
    12 + 4 * (n - 1 - i) as i32
}

/// Builds the body-scope symbol-table additions for a routine's
/// parameters.
pub fn param_entries(params: &[ParamSig], callee_level: u32) -> Vec<(Arc<str>, Entry)> {
    let n = params.len();
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                Arc::clone(&p.name),
                Entry::Var {
                    level: callee_level,
                    offset: param_offset(i, n),
                    ty: p.ty,
                    by_ref: p.by_ref,
                },
            )
        })
        .collect()
}

/// The whole-program wrapper: `start`, the runtime library, `__main`
/// with the program body, then all procedure bodies.
pub fn program_code(b: &mut RopeBuilder, main_off_out: i32, main_body: &Rope, proc_bodies: &Rope) {
    let size = (-main_off_out - 4).max(4);
    b.text("start:\n\tclrl r11\n\tcalls $0, __main\n\thalt\n");
    b.text(RUNTIME_LIB);
    write!(b, "__main:\n\tsubl2 ${size}, sp\n\tmovl r11, -4(fp)\n");
    b.rope(main_body);
    b.text("\tret\n");
    b.rope(proc_bodies);
}

/// The runtime support library: comparison, logical and `mod` routines
/// with fixed labels, so expression code needs no generated labels
/// (label generation is reserved for control flow and procedures,
/// where the parser's unique-id tokens provide them — §4.3).
///
/// Arguments are stacked left-to-right: with two arguments, the left
/// one is at `16(fp)` and the right at `12(fp)`.
pub const RUNTIME_LIB: &str = "\
__lss:\n\tcmpl 16(fp), 12(fp)\n\tblss __rt_t\n\tclrl r0\n\tret\n\
__leq:\n\tcmpl 16(fp), 12(fp)\n\tbleq __rt_t\n\tclrl r0\n\tret\n\
__gtr:\n\tcmpl 16(fp), 12(fp)\n\tbgtr __rt_t\n\tclrl r0\n\tret\n\
__geq:\n\tcmpl 16(fp), 12(fp)\n\tbgeq __rt_t\n\tclrl r0\n\tret\n\
__eql:\n\tcmpl 16(fp), 12(fp)\n\tbeql __rt_t\n\tclrl r0\n\tret\n\
__neq:\n\tcmpl 16(fp), 12(fp)\n\tbneq __rt_t\n\tclrl r0\n\tret\n\
__rt_t:\n\tmovl $1, r0\n\tret\n\
__and:\n\tmull3 12(fp), 16(fp), r0\n\tbeql __rt_z\n\tmovl $1, r0\n\tret\n\
__or:\n\taddl3 12(fp), 16(fp), r0\n\tbeql __rt_z\n\tmovl $1, r0\n\tret\n\
__rt_z:\n\tclrl r0\n\tret\n\
__not:\n\ttstl 12(fp)\n\tbeql __rt_t\n\tclrl r0\n\tret\n\
__mod:\n\tdivl3 12(fp), 16(fp), r0\n\tmull2 12(fp), r0\n\tsubl3 r0, 16(fp), r0\n\tret\n";

/// Ensures a type is `integer`, producing an error message otherwise.
pub fn expect_int(what: &str, ty: Ty, errs: &mut Vec<String>) {
    if !ty.compatible(Ty::Int) {
        errs.push(format!("{what} must be integer, found {ty}"));
    }
}

/// Ensures a type is `boolean`.
pub fn expect_bool(what: &str, ty: Ty, errs: &mut Vec<String>) {
    if !ty.compatible(Ty::Bool) {
        errs.push(format!("{what} must be boolean, found {ty}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragram_vax::{assemble, Vm};

    #[test]
    fn runtime_lib_assembles() {
        let src = format!("start:\n halt\n{RUNTIME_LIB}");
        assemble(&src).unwrap();
    }

    fn run_runtime(call: &str, args: &[i64]) -> i64 {
        let mut src = String::from("start:\n");
        for a in args {
            src.push_str(&format!("\tpushl ${a}\n"));
        }
        src.push_str(&format!("\tcalls ${}, {call}\n\thalt\n", args.len()));
        src.push_str(RUNTIME_LIB);
        let p = assemble(&src).unwrap();
        let mut vm = Vm::new(&p);
        vm.run().unwrap();
        vm.reg(paragram_vax::Reg::R0)
    }

    #[test]
    fn comparisons() {
        assert_eq!(run_runtime("__lss", &[1, 2]), 1);
        assert_eq!(run_runtime("__lss", &[2, 2]), 0);
        assert_eq!(run_runtime("__leq", &[2, 2]), 1);
        assert_eq!(run_runtime("__gtr", &[3, 2]), 1);
        assert_eq!(run_runtime("__gtr", &[2, 3]), 0);
        assert_eq!(run_runtime("__geq", &[2, 3]), 0);
        assert_eq!(run_runtime("__eql", &[5, 5]), 1);
        assert_eq!(run_runtime("__neq", &[5, 5]), 0);
    }

    #[test]
    fn logic() {
        assert_eq!(run_runtime("__and", &[1, 1]), 1);
        assert_eq!(run_runtime("__and", &[1, 0]), 0);
        assert_eq!(run_runtime("__or", &[0, 0]), 0);
        assert_eq!(run_runtime("__or", &[0, 1]), 1);
        assert_eq!(run_runtime("__not", &[0]), 1);
        assert_eq!(run_runtime("__not", &[1]), 0);
    }

    #[test]
    fn modulo() {
        assert_eq!(run_runtime("__mod", &[17, 5]), 2);
        assert_eq!(run_runtime("__mod", &[15, 5]), 0);
    }

    #[test]
    fn param_offsets_right_to_left() {
        // Two params: first at 16(fp), second at 12(fp).
        assert_eq!(param_offset(0, 2), 16);
        assert_eq!(param_offset(1, 2), 12);
        assert_eq!(param_offset(0, 1), 12);
    }

    fn emitted(emit: impl FnOnce(&mut RopeBuilder)) -> String {
        let mut b = RopeBuilder::new();
        emit(&mut b);
        b.finish().to_string()
    }

    #[test]
    fn chase_levels() {
        let mut base = "";
        assert_eq!(emitted(|b| base = chase(b, 0)), "");
        assert_eq!(base, "fp");
        let code = emitted(|b| base = chase(b, 2));
        assert_eq!(base, "r10");
        assert_eq!(code, "\tmovl -4(fp), r10\n\tmovl -4(r10), r10\n");
    }

    #[test]
    fn prologue_sizes() {
        // off_out = -8 (no locals beyond the static link) → 4 bytes.
        let p = emitted(|b| prologue(b, "P1_f", -8, false));
        assert!(p.contains("subl2 $4, sp"));
        // One local at -8 → off_out = -12 → 8 bytes.
        let p = emitted(|b| prologue(b, "P1_f", -12, false));
        assert!(p.contains("subl2 $8, sp"));
        // Function result slot cleared.
        let p = emitted(|b| prologue(b, "F", -12, true));
        assert!(p.contains("clrl -8(fp)"));
    }

    #[test]
    fn helpers_emit_into_the_run_they_are_given() {
        // A fixed instruction sequence is text, not structure: however
        // many helpers and pieces it is made of, it is one leaf.
        let mut b = RopeBuilder::new();
        arith(&mut b, "addl2");
        negate(&mut b);
        write_str(&mut b, "a\\b\"c");
        let code = b.finish();
        assert_eq!(code.leaf_count(), 1);
        assert_eq!(
            code.to_string(),
            "\tmovl (sp), r1\n\taddl2 $4, sp\n\tmovl (sp), r0\n\taddl2 $4, sp\n\
             \taddl2 r1, r0\n\tpushl r0\n\
             \tmovl (sp), r0\n\taddl2 $4, sp\n\tmnegl r0, r0\n\tpushl r0\n\
             \twritestr \"a\\\\b\\\"c\"\n"
        );
    }
}
