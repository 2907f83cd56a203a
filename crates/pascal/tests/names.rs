//! What the front end must keep while it spends an allocation per
//! distinct name rather than per token: Pascal is case-insensitive, a
//! keyword is matched whole, and every occurrence of a name is one
//! shared text — in the attribute-grammar compiler and the direct one
//! alike.

use paragram_core::tree::Child;
use paragram_pascal::direct::compile_direct;
use paragram_pascal::{agtree, parser, run_asm, Compiler, PVal};
use std::sync::Arc;

/// Keywords and names in every case; `Foo`, `FOO` and `foo` are one
/// variable. The string literals keep theirs.
const MIXED: &str = "\
PROGRAM Mixed;
CONST Limit = 3;
VAR Foo, i: Integer; Flags: ARRAY [1..3] OF INTEGER; Ok: Boolean;
Procedure AddTo(X: integer; VAR Acc: INTEGER);
BEGIN Acc := acc + x END;
FUNCTION Twice(N: Integer): Integer;
Begin twice := n * 2 End;
BEGIN
  foo := 1; I := 1; OK := TRUE AND NOT False OR (7 MOD 2 = 0);
  WHILE i <= LIMIT DO BEGIN
    FLAGS[I] := Twice(i) DIV 1; AddTo(flags[i], FOO); i := I + 1
  END;
  IF Ok THEN Write('Sum ', FOO) ELSE WriteLn('No');
  Writeln
END.
";

/// Words that extend a keyword, and one longer than any keyword, are
/// identifiers.
const WORDS: &str = "\
program words;
var procedures, endx, do_it, writelnx,
  a_forty_byte_identifier_longer_than_any_: integer;
procedure beginning; begin writelnx := writelnx + 1 end;
begin
  procedures := 1; endx := 2; do_it := 3; writelnx := 4;
  a_forty_byte_identifier_longer_than_any_ := procedures + endx + do_it + writelnx;
  beginning;
  write(a_forty_byte_identifier_longer_than_any_, ' ', writelnx)
end.
";

/// `src` lowercased outside its string literals.
fn lowercase_twin(src: &str) -> String {
    let mut in_string = false;
    src.chars()
        .map(|c| {
            if c == '\'' {
                in_string = !in_string;
            }
            if in_string {
                c
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// The asm both compilers make of `src`, checked free of errors.
fn both_compilers(compiler: &Compiler, src: &str) -> (String, String) {
    let ag = compiler.compile(src).expect("compiles");
    assert!(ag.errors.is_empty(), "{:?}", ag.errors);
    let direct = compile_direct(&parser::parse(src).expect("parses"));
    assert!(direct.errors.is_empty(), "{:?}", direct.errors);
    (ag.asm, direct.asm)
}

#[test]
fn a_mixed_case_program_compiles_like_its_lowercase_twin() {
    let compiler = Compiler::new();
    let twin = lowercase_twin(MIXED);
    assert!(twin.contains("'Sum '") && twin.contains("procedure addto"));
    let (ag, direct) = both_compilers(&compiler, MIXED);
    let (twin_ag, twin_direct) = both_compilers(&compiler, &twin);
    assert_eq!(ag, twin_ag, "attribute-grammar compiler");
    assert_eq!(direct, twin_direct, "direct compiler");
    assert_eq!(run_asm(&ag).unwrap(), "Sum 13\n");
    assert_eq!(run_asm(&direct).unwrap(), "Sum 13\n");
}

#[test]
fn words_past_a_keyword_are_names_in_both_compilers() {
    let compiler = Compiler::new();
    let (ag, direct) = both_compilers(&compiler, WORDS);
    assert_eq!(run_asm(&ag).unwrap(), "10 5");
    assert_eq!(run_asm(&direct).unwrap(), "10 5");
}

#[test]
fn every_occurrence_of_a_name_in_a_tree_shares_one_allocation() {
    let compiler = Compiler::new();
    let ast = parser::parse(MIXED).unwrap();
    let tree = agtree::build_tree(&compiler.pg, &ast).unwrap();
    let mut foos: Vec<Arc<str>> = Vec::new();
    for id in tree.node_ids() {
        for c in tree.children(id) {
            if let Child::Token(span) = *c {
                if let [PVal::Str(s)] = tree.token(span) {
                    if &**s == "foo" {
                        foos.push(Arc::clone(s));
                    }
                }
            }
        }
    }
    // Declared as `Foo`, assigned as `foo`, passed and written as `FOO`.
    assert_eq!(foos.len(), 4, "{foos:?}");
    for foo in &foos[1..] {
        assert!(Arc::ptr_eq(foo, &foos[0]));
    }
}
