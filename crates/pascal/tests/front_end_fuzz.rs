//! The lexer and parser never panic: generated programs, broken by
//! deleting, duplicating and swapping tokens, truncating, and
//! inserting stray characters, lex and parse to `Ok` or `Err`.
//!
//! Only the front end is fuzzed. Compiling a broken program reaches the
//! attribute grammar's rules, which are not yet panic-free on every
//! ill-formed program (ROADMAP item 14).
//!
//! The many-case run is `#[ignore]`d:
//! `cargo test -p paragram-pascal --test front_end_fuzz -- --ignored`.

use paragram_pascal::generator::{generate, GenConfig};
use paragram_pascal::lex::{lex, Tok};
use paragram_pascal::parser::parse;
use proptest::prelude::*;

/// Characters an edit may insert: every one the lexer treats specially,
/// some it rejects, and multi-byte ones.
const STRAY: &[char] = &[
    '{', '}', '(', ')', '*', '\'', '.', ':', '=', '<', '>', '[', ']', ';', ',', '+', '-', '\n',
    '\t', ' ', '0', '9', 'a', 'Z', '_', '?', '"', '\0', '\u{7f}', 'é', '∑', '🦀',
];

/// One edit: its kind and two draws that pick its places. Five kinds
/// of eight edit tokens; the rest, and every edit after them, edit text.
type Edit = (u8, u64, u64);

/// A small generated program, `seed` choosing its shape's contents.
fn program(seed: u64) -> String {
    generate(&GenConfig {
        clusters: 2,
        procs_per_cluster: 2,
        stmts_per_proc: 4,
        nesting: 2,
        seed,
        template_clusters: 0,
    })
}

/// Source text for a token.
fn spell(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => s.to_string(),
        Tok::Num(n) => n.to_string(),
        Tok::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// `src` with `edits` applied: token edits on its token stream, the
/// rest on its text.
fn mutate(src: &str, edits: &[Edit]) -> String {
    let mut words: Vec<String> = lex(src)
        .expect("generated programs lex")
        .iter()
        .map(|t| spell(&t.kind))
        .collect();
    let mut text = None::<String>;
    for &(kind, a, b) in edits {
        if let Some(text) = &mut text {
            edit_text(text, kind, a, b);
            continue;
        }
        let n = words.len() as u64;
        if n == 0 {
            break;
        }
        let (i, j) = ((a % n) as usize, (b % n) as usize);
        match kind % 8 {
            0 => {
                words.remove(i);
            }
            1 => {
                // Splice a copy of up to 8 tokens from `i` in at `j`.
                let run: Vec<String> = words[i..]
                    .iter()
                    .take(1 + (b % 8) as usize)
                    .cloned()
                    .collect();
                words.splice(j..j, run);
            }
            2 => words.swap(i, j),
            3 | 4 => words[i] = words[j].clone(),
            _ => {
                // From here on, edit the text.
                let mut joined = words.join(" ");
                edit_text(&mut joined, kind, a, b);
                text = Some(joined);
            }
        }
    }
    text.unwrap_or_else(|| words.join(" "))
}

/// Inserts a stray character at, or truncates at, a char boundary.
fn edit_text(text: &mut String, kind: u8, a: u64, b: u64) {
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let at = boundaries[(a % boundaries.len() as u64) as usize];
    if kind % 8 == 7 {
        text.truncate(at);
    } else {
        text.insert(at, STRAY[(b % STRAY.len() as u64) as usize]);
    }
}

fn lex_and_parse_return(seed: u64, edits: &[Edit]) -> Result<(), TestCaseError> {
    let src = mutate(&program(seed), edits);
    let lexed = lex(&src);
    let parsed = parse(&src);
    // `parse` lexes first: a lexical error is its error too.
    prop_assert!(lexed.is_ok() || parsed.is_err(), "{src}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn broken_programs_lex_and_parse_without_panicking(
        seed in 0u64..1_000_000,
        edits in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..8),
    ) {
        lex_and_parse_return(seed, &edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    #[ignore = "many cases; run with --ignored"]
    fn broken_programs_lex_and_parse_without_panicking_many_cases(
        seed in 0u64..1_000_000,
        edits in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..24),
    ) {
        lex_and_parse_return(seed, &edits)?;
    }
}

#[test]
fn unbroken_programs_round_trip_through_spelling() {
    let src = program(7);
    assert_eq!(
        parse(&mutate(&src, &[])).unwrap(),
        parse(&src).unwrap(),
        "respelled tokens parse to the same program"
    );
}
