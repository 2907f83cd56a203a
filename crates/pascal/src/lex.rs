//! Lexer for the Pascal subset (§3 of the paper).
//!
//! Like the paper's scanner, it enters each distinct name once (§4.3):
//! every occurrence of an identifier or string literal in one program
//! is a handle to one shared text, so the parser, the tree and the
//! symbol tables after it pass names around by reference count. A
//! program's tokens cost an allocation per distinct name, not per
//! occurrence, and a keyword costs none.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A token with its source line (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: Tok,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    // Keywords.
    /// `program`
    Program,
    /// `const`
    Const,
    /// `var`
    Var,
    /// `procedure`
    Procedure,
    /// `function`
    Function,
    /// `begin`
    Begin,
    /// `end`
    End,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `integer`
    Integer,
    /// `boolean`
    Boolean,
    /// `array`
    Array,
    /// `of`
    Of,
    /// `div`
    Div,
    /// `mod`
    Mod,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `true`
    True,
    /// `false`
    False,
    /// `write` (treated as a keyword, as the paper notes its compiler
    /// does)
    Write,
    /// `writeln`
    Writeln,
    // Literals and identifiers.
    /// Identifier, lowercased.
    Ident(Arc<str>),
    /// Unsigned integer literal.
    Num(i64),
    /// Quoted string literal (for `write('...')`).
    Str(Arc<str>),
    // Punctuation and operators.
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBrack,
    /// `]`
    RBrack,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `:=`
    Assign,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Num(n) => write!(f, "number {n}"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            other => write!(f, "{}", keyword_text(other)),
        }
    }
}

fn keyword_text(t: &Tok) -> &'static str {
    use Tok::*;
    match t {
        Program => "program",
        Const => "const",
        Var => "var",
        Procedure => "procedure",
        Function => "function",
        Begin => "begin",
        End => "end",
        If => "if",
        Then => "then",
        Else => "else",
        While => "while",
        Do => "do",
        Integer => "integer",
        Boolean => "boolean",
        Array => "array",
        Of => "of",
        Div => "div",
        Mod => "mod",
        And => "and",
        Or => "or",
        Not => "not",
        True => "true",
        False => "false",
        Write => "write",
        Writeln => "writeln",
        Plus => "+",
        Minus => "-",
        Star => "*",
        LParen => "(",
        RParen => ")",
        LBrack => "[",
        RBrack => "]",
        Semi => ";",
        Colon => ":",
        Comma => ",",
        Dot => ".",
        DotDot => "..",
        Assign => ":=",
        Eq => "=",
        Ne => "<>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Ident(_) | Num(_) | Str(_) => unreachable!(),
    }
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lexical error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes Pascal source. Case-insensitive keywords; `{ … }` and
/// `(* … *)` comments.
///
/// # Errors
///
/// [`LexError`] on unterminated strings/comments or stray characters.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / BYTES_PER_TOKEN);
    let mut names = Names::default();
    // An identifier spelled with an uppercase letter, folded.
    let mut folded = String::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '{' => {
                while i < bytes.len() && bytes[i] != b'}' {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i == bytes.len() {
                    return Err(LexError {
                        line,
                        msg: "unterminated comment".into(),
                    });
                }
                i += 1;
            }
            '(' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            line,
                            msg: "unterminated comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b')' {
                        i += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    if bytes[j] == b'\n' {
                        return Err(LexError {
                            line,
                            msg: "unterminated string".into(),
                        });
                    }
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(LexError {
                        line,
                        msg: "unterminated string".into(),
                    });
                }
                toks.push(Token {
                    kind: Tok::Str(names.intern(&src[start..j])),
                    line,
                });
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|_| LexError {
                    line,
                    msg: format!("number {} out of range", &src[start..i]),
                })?;
                toks.push(Token {
                    kind: Tok::Num(n),
                    line,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                let mut upper = false;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    upper |= bytes[i].is_ascii_uppercase();
                    i += 1;
                }
                let word = &src[start..i];
                let kind = match keyword(word) {
                    Some(kw) => kw,
                    None if upper => {
                        folded.clear();
                        folded.push_str(word);
                        folded.make_ascii_lowercase();
                        Tok::Ident(names.intern(&folded))
                    }
                    None => Tok::Ident(names.intern(word)),
                };
                toks.push(Token { kind, line });
            }
            '+' => push1(&mut toks, &mut i, line, Tok::Plus),
            '-' => push1(&mut toks, &mut i, line, Tok::Minus),
            '*' => push1(&mut toks, &mut i, line, Tok::Star),
            '(' => push1(&mut toks, &mut i, line, Tok::LParen),
            ')' => push1(&mut toks, &mut i, line, Tok::RParen),
            '[' => push1(&mut toks, &mut i, line, Tok::LBrack),
            ']' => push1(&mut toks, &mut i, line, Tok::RBrack),
            ';' => push1(&mut toks, &mut i, line, Tok::Semi),
            ',' => push1(&mut toks, &mut i, line, Tok::Comma),
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push(Token {
                        kind: Tok::DotDot,
                        line,
                    });
                    i += 2;
                } else {
                    push1(&mut toks, &mut i, line, Tok::Dot);
                }
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token {
                        kind: Tok::Assign,
                        line,
                    });
                    i += 2;
                } else {
                    push1(&mut toks, &mut i, line, Tok::Colon);
                }
            }
            '=' => push1(&mut toks, &mut i, line, Tok::Eq),
            '<' => match bytes.get(i + 1) {
                Some(b'>') => {
                    toks.push(Token {
                        kind: Tok::Ne,
                        line,
                    });
                    i += 2;
                }
                Some(b'=') => {
                    toks.push(Token {
                        kind: Tok::Le,
                        line,
                    });
                    i += 2;
                }
                _ => push1(&mut toks, &mut i, line, Tok::Lt),
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token {
                        kind: Tok::Ge,
                        line,
                    });
                    i += 2;
                } else {
                    push1(&mut toks, &mut i, line, Tok::Gt);
                }
            }
            other => {
                return Err(LexError {
                    line,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

/// Fewer source bytes than a token takes in any program the repository
/// compiles (2.7 in the generator's, 2.6–3.4 in `examples/pascal`), so
/// that the token vector is allocated once: a third too long on the
/// generator's programs.
const BYTES_PER_TOKEN: usize = 2;

/// The longest keyword, `procedure`: a longer word is an identifier.
const KEYWORD_MAX: usize = 9;

/// The keyword `word` spells, in any case, folded on the stack.
fn keyword(word: &str) -> Option<Tok> {
    let mut buf = [0u8; KEYWORD_MAX];
    let folded = buf.get_mut(..word.len())?;
    folded.copy_from_slice(word.as_bytes());
    folded.make_ascii_lowercase();
    Some(match &*folded {
        b"program" => Tok::Program,
        b"const" => Tok::Const,
        b"var" => Tok::Var,
        b"procedure" => Tok::Procedure,
        b"function" => Tok::Function,
        b"begin" => Tok::Begin,
        b"end" => Tok::End,
        b"if" => Tok::If,
        b"then" => Tok::Then,
        b"else" => Tok::Else,
        b"while" => Tok::While,
        b"do" => Tok::Do,
        b"integer" => Tok::Integer,
        b"boolean" => Tok::Boolean,
        b"array" => Tok::Array,
        b"of" => Tok::Of,
        b"div" => Tok::Div,
        b"mod" => Tok::Mod,
        b"and" => Tok::And,
        b"or" => Tok::Or,
        b"not" => Tok::Not,
        b"true" => Tok::True,
        b"false" => Tok::False,
        b"write" => Tok::Write,
        b"writeln" => Tok::Writeln,
        _ => return None,
    })
}

/// One program's distinct names: identifier and string-literal text.
/// Names come from outside the program, so the set keeps the default
/// keyed hasher: a source crafted to collide in it costs no more to lex.
#[derive(Default)]
struct Names(HashSet<Arc<str>>);

impl Names {
    /// The shared handle to `text`, allocated on its first occurrence.
    fn intern(&mut self, text: &str) -> Arc<str> {
        if let Some(name) = self.0.get(text) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(text);
        self.0.insert(Arc::clone(&name));
        name
    }
}

fn push1(toks: &mut Vec<Token>, i: &mut usize, line: usize, kind: Tok) {
    toks.push(Token { kind, line });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("program Foo; begin end."),
            vec![
                Tok::Program,
                Tok::Ident("foo".into()),
                Tok::Semi,
                Tok::Begin,
                Tok::End,
                Tok::Dot
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("BEGIN End"), vec![Tok::Begin, Tok::End]);
    }

    #[test]
    fn every_keyword_lexes_as_itself_in_any_case() {
        use Tok::*;
        let keywords = [
            Program, Const, Var, Procedure, Function, Begin, End, If, Then, Else, While, Do,
            Integer, Boolean, Array, Of, Div, Mod, And, Or, Not, True, False, Write, Writeln,
        ];
        let longest = keywords.iter().map(|k| keyword_text(k).len()).max();
        assert_eq!(longest, Some(KEYWORD_MAX));
        for kw in keywords {
            let text = keyword_text(&kw);
            let mut capitalized = text.to_string();
            capitalized[..1].make_ascii_uppercase();
            for spelling in [text.to_string(), text.to_ascii_uppercase(), capitalized] {
                assert_eq!(kinds(&spelling), vec![kw.clone()], "{spelling}");
            }
        }
    }

    #[test]
    fn words_extending_a_keyword_are_identifiers() {
        let long = "a_forty_byte_identifier_longer_than_any_";
        assert_eq!(long.len(), 40);
        for word in ["procedures", "endx", "do_it", "writelnx", "Programs", long] {
            let folded = word.to_ascii_lowercase();
            assert_eq!(
                kinds(word),
                vec![Tok::Ident(folded.as_str().into())],
                "{word}"
            );
        }
    }

    #[test]
    fn every_occurrence_of_a_name_shares_one_text() {
        let toks = kinds("foo Foo FOO fOo bar 'foo' 'Foo'");
        let Tok::Ident(foo) = &toks[0] else {
            panic!("{toks:?}")
        };
        assert_eq!(&**foo, "foo");
        for t in &toks[1..4] {
            assert!(matches!(t, Tok::Ident(s) if Arc::ptr_eq(s, foo)), "{t:?}");
        }
        assert!(matches!(&toks[4], Tok::Ident(s) if &**s == "bar"));
        // A literal keeps its case: the same text, the same handle.
        assert!(matches!(&toks[5], Tok::Str(s) if Arc::ptr_eq(s, foo)));
        assert!(matches!(&toks[6], Tok::Str(s) if &**s == "Foo"));
    }

    #[test]
    fn operators_two_char() {
        assert_eq!(
            kinds("a := 1 <= 2 <> 3 >= 4 < 5 > 6 = 7"),
            vec![
                Tok::Ident("a".into()),
                Tok::Assign,
                Tok::Num(1),
                Tok::Le,
                Tok::Num(2),
                Tok::Ne,
                Tok::Num(3),
                Tok::Ge,
                Tok::Num(4),
                Tok::Lt,
                Tok::Num(5),
                Tok::Gt,
                Tok::Num(6),
                Tok::Eq,
                Tok::Num(7)
            ]
        );
    }

    #[test]
    fn array_range_dots() {
        assert_eq!(
            kinds("array [1..10] of integer"),
            vec![
                Tok::Array,
                Tok::LBrack,
                Tok::Num(1),
                Tok::DotDot,
                Tok::Num(10),
                Tok::RBrack,
                Tok::Of,
                Tok::Integer
            ]
        );
    }

    #[test]
    fn strings_and_comments() {
        assert_eq!(
            kinds("write('hi { not a comment }') { real comment } (* also *) ;"),
            vec![
                Tok::Write,
                Tok::LParen,
                Tok::Str("hi { not a comment }".into()),
                Tok::RParen,
                Tok::Semi
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'oops").is_err());
        assert!(lex("'oops\n'").is_err());
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(lex("{ forever").is_err());
        assert!(lex("(* forever").is_err());
    }

    #[test]
    fn stray_character_is_error() {
        let e = lex("a ? b").unwrap_err();
        assert!(e.to_string().contains('?'));
    }
}
