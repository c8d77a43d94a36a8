//! Token stream over the stripped "code view".
//!
//! [`crate::scan::strip_non_code`] blanks comments, strings, and char
//! literals while preserving line structure, so lexing the result is a
//! small, honest job: identifiers, numbers, lifetimes, and punctuation,
//! each carrying a span (0-based line, char column). Rules match token
//! sequences instead of substrings, which kills the remaining grep
//! false-positive class (`MyHashMapLike`, `unwrap_or`) without pulling
//! in a real parser.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `as`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — char literals are already blanked.
    Lifetime,
    /// Numeric literal, including suffixes (`1_000u64`, `0xFF`, `1.5`).
    Number,
    /// Operator or delimiter; multi-char operators (`::`, `->`, `..=`)
    /// lex as a single token.
    Punct,
}

/// One token with its position in the original file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    /// 0-based line index (same numbering as `code_lines`).
    pub line: usize,
    /// 0-based char column of the token's first char.
    pub col: usize,
}

impl Token {
    /// Is this an identifier/keyword with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this a punctuation token with exactly this text?
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Multi-char operators, longest first so maximal munch works by probing
/// in order.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lex the stripped code view into a token stream. Blanked regions
/// (comments/strings/chars) contribute nothing; tokens never span lines
/// because the stripper preserves line structure.
pub fn lex(code_lines: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (line_idx, line) in code_lines.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: line_idx,
                    col: start,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                // Integer part with radix prefixes and suffixes
                // (0xFF_u32, 1_000u64): any alphanumeric/underscore run.
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Fraction: a '.' followed by a digit ('..' is a range).
                if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Number,
                    text: chars[start..i].iter().collect(),
                    line: line_idx,
                    col: start,
                });
            } else if c == '\'' {
                // The stripper leaves `'` only for lifetimes.
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line: line_idx,
                    col: start,
                });
            } else {
                let rest: String = chars[i..].iter().collect();
                let munched = MULTI_PUNCT.iter().find(|p| rest.starts_with(**p));
                let text = match munched {
                    Some(p) => (*p).to_owned(),
                    None => c.to_string(),
                };
                let len = text.chars().count();
                out.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line: line_idx,
                    col: i,
                });
                i += len;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_str(s: &str) -> Vec<Token> {
        let lines: Vec<String> = s.lines().map(str::to_owned).collect();
        lex(&lines)
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let t = lex_str("let x2 = 1_000u64 + 0xFF;");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x2", "=", "1_000u64", "+", "0xFF", ";"]);
        assert_eq!(t[3].kind, TokenKind::Number);
    }

    #[test]
    fn multi_char_puncts_munch_maximally() {
        let t = lex_str("a::b -> c..=d .. e");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["a", "::", "b", "->", "c", "..=", "d", "..", "e"]);
    }

    #[test]
    fn floats_vs_ranges() {
        let t = lex_str("1.5 + 0..10");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["1.5", "+", "0", "..", "10"]);
    }

    #[test]
    fn lifetimes_lex_as_one_token() {
        let t = lex_str("fn f<'a>(x: &'a str)");
        assert!(t
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn spans_point_at_line_and_col() {
        let t = lex_str("ab\n  cd");
        assert_eq!((t[0].line, t[0].col), (0, 0));
        assert_eq!((t[1].line, t[1].col), (1, 2));
    }
}
