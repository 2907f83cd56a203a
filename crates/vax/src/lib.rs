//! A VAX-like assembly toolchain: instruction model, text
//! parser/printer, two-pass assembler, peephole optimizer and an
//! execution VM.
//!
//! The paper's compiler produces VAX assembly language; its authors
//! could run the output on real VAX hardware. We cannot, so this crate
//! is the substitute substrate: a faithful subset of the VAX-11
//! instruction style — `movl`/`addl2`/`addl3` three-operand arithmetic,
//! `cmpl` + condition branches, a `calls`-style frame convention — plus
//! `write*` pseudo-instructions in place of Pascal run-time I/O, so
//! that compiled programs can be *executed* in tests and their output
//! checked end-to-end. (The workspace's other stand-ins are listed in
//! the status notes of `ROADMAP.md` at the repository root.)
//!
//! # Examples
//!
//! ```
//! use paragram_vax::{assemble, Vm};
//!
//! let program = assemble(
//!     "start:\n movl $21, r0\n addl3 r0, r0, r1\n writeint r1\n writeln\n halt\n",
//! ).unwrap();
//! let mut vm = Vm::new(&program);
//! let out = vm.run().unwrap();
//! assert_eq!(out, "42\n");
//! ```

mod asm;
mod instr;
mod peephole;
mod vm;

pub use asm::{assemble, assemble_items, parse_asm, render, AsmError, Program};
pub use instr::{Instr, Item, Operand, Reg};
pub use peephole::{peephole, PeepholeStats};
pub use vm::{RunError, Vm};
