//! Source loading and lexical preprocessing.
//!
//! The analyzer is deliberately *not* a parser: rules match the token
//! stream of a "code view" of each file in which comments, string
//! literals, and char literals have been blanked out. That keeps the
//! engine dependency-free (no `syn`) while eliminating the classic grep
//! false positives (a banned token inside a doc comment or a log
//! message). The stripping pass is a small character-level state machine
//! that understands nested block comments, escape sequences, raw strings
//! (`r"…"`, `r#"…"#`), byte strings/chars, and the char-literal/lifetime
//! ambiguity. A second "comment view" produced by the same pass keeps
//! *only* the text of plain `//` comments — the one place a
//! `flowtune-allow` waiver may legally live — so waivers quoted in doc
//! comments or string literals are no longer collected as real.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token};
use crate::model::FileModel;

/// Which compilation target a file belongs to — rules scope themselves
/// by kind (e.g. cast-discipline skips test targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` excluding `src/bin/**` and `src/main.rs`.
    Lib,
    /// `src/bin/**` or `src/main.rs` — CLI entry points.
    Bin,
    /// `tests/**`, `benches/**`, `examples/**` (including workspace-level
    /// targets referenced from a crate manifest).
    Test,
}

/// One `flowtune-allow(<rule>)` declaration found in a plain comment.
///
/// The engine's stale-waiver audit consumes these: a declaration whose
/// covered lines never suppressed a finding for its rule is itself a
/// diagnostic.
#[derive(Debug, Clone)]
pub struct WaiverDecl {
    pub rule: String,
    /// 0-based line the waiver comment sits on.
    pub line: usize,
    /// Whether the mandatory `: <reason>` was present. Reason-less
    /// waivers suppress nothing.
    pub has_reason: bool,
}

/// A loaded source file: raw text, stripped code view, token stream,
/// item model, and the waivers declared in its comments.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the scanned workspace root, `/`-separated.
    pub rel: String,
    pub kind: FileKind,
    /// Original lines (comments intact).
    pub raw_lines: Vec<String>,
    /// Token stream over the code view (tokens never span lines).
    pub tokens: Vec<Token>,
    /// Item model: fn/impl/mod boundaries and structural `#[cfg(test)]`
    /// scoping derived from the token stream.
    pub model: FileModel,
    /// `true` for lines inside a `#[cfg(test)]` item (from the model).
    pub test_lines: Vec<bool>,
    /// Every waiver declaration, in source order (reasoned or not).
    pub waiver_decls: Vec<WaiverDecl>,
    /// rule name -> covered 0-based line -> declaring lines.
    waivers: BTreeMap<String, BTreeMap<usize, Vec<usize>>>,
}

impl SourceFile {
    pub fn load(path: &Path, rel: String, kind: FileKind) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_text(&text, path.to_path_buf(), rel, kind))
    }

    /// Build a `SourceFile` from in-memory text (also used by tests).
    pub fn from_text(text: &str, path: PathBuf, rel: String, kind: FileKind) -> SourceFile {
        let views = strip_views(text);
        let raw_lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let code_lines: Vec<String> = views.code.lines().map(str::to_owned).collect();
        let comment_lines: Vec<String> = views.comment.lines().map(str::to_owned).collect();
        let tokens = lex(&code_lines);
        let model = FileModel::build(&tokens, raw_lines.len());
        let test_lines = model.test_lines.clone();
        let (waivers, waiver_decls) = collect_waivers(&comment_lines);
        SourceFile {
            path,
            rel,
            kind,
            raw_lines,
            tokens,
            model,
            test_lines,
            waiver_decls,
            waivers,
        }
    }

    /// 0-based lines of the waiver declarations covering `line_idx` for
    /// `rule` (empty when the line is not waived). A waiver comment
    /// covers its own line and the line immediately below it, so both
    /// trailing (`stmt; // flowtune-allow(...)`) and preceding
    /// (comment-only line above the statement) placements work.
    pub fn waiver_decl_lines(&self, rule: &str, line_idx: usize) -> &[usize] {
        self.waivers
            .get(rule)
            .and_then(|m| m.get(&line_idx))
            .map_or(&[], Vec::as_slice)
    }

    /// Convenience: is this line library (non-test) code?
    pub fn is_test_line(&self, line_idx: usize) -> bool {
        self.test_lines.get(line_idx).copied().unwrap_or(false)
    }
}

/// The two line-preserving projections of a source text.
#[derive(Debug)]
pub struct Views {
    /// Comments, strings, and char literals blanked to spaces.
    pub code: String,
    /// Everything blanked *except* the text of plain `//` comments.
    /// Doc comments (`///`, `//!`), block comments, and string contents
    /// are spaces here — so a waiver is only real in a plain comment.
    pub comment: String,
}

/// Blank out comments, strings, and char literals, preserving length and
/// line structure so byte offsets map 1:1 onto the original.
pub fn strip_non_code(text: &str) -> String {
    strip_views(text).code
}

/// One pass of the stripping state machine, producing both views.
pub fn strip_views(text: &str) -> Views {
    enum State {
        Code,
        /// `doc` is true for `///` and `//!` comments, which are
        /// rendered documentation, not annotations on the line below.
        LineComment {
            doc: bool,
        },
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let bytes: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut comment = String::with_capacity(text.len());
    // Push one char to the code view and its blank to the comment view.
    let both = |code: &mut String, comment: &mut String, c: char| {
        code.push(c);
        comment.push(if c == '\n' { '\n' } else { ' ' });
    };
    let mut st = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            State::Code => {
                if c == '/' && next == Some('/') {
                    let doc = matches!(bytes.get(i + 2), Some('/') | Some('!'));
                    st = State::LineComment { doc };
                    both(&mut code, &mut comment, ' ');
                    both(&mut code, &mut comment, ' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::BlockComment(1);
                    both(&mut code, &mut comment, ' ');
                    both(&mut code, &mut comment, ' ');
                    i += 2;
                } else if c == '"' {
                    st = State::Str;
                    both(&mut code, &mut comment, ' ');
                    i += 1;
                } else if (c == 'r' || c == 'b') && raw_str_hashes(&bytes, i).is_some() {
                    // r"…", r#"…"#, br"…" etc. Consume prefix up to the
                    // opening quote, record the hash count.
                    let (hashes, quote_at) = match raw_str_hashes(&bytes, i) {
                        Some(v) => v,
                        None => unreachable!(),
                    };
                    for _ in i..=quote_at {
                        both(&mut code, &mut comment, ' ');
                    }
                    i = quote_at + 1;
                    st = State::RawStr(hashes);
                } else if c == 'b'
                    && matches!(next, Some('\'') | Some('"'))
                    && (i == 0 || !is_ident_char(bytes[i - 1]))
                {
                    // Byte literal prefix (b'x', b"…"): blank the `b` so
                    // it doesn't survive as a stray identifier; the
                    // quote is handled on the next iteration.
                    both(&mut code, &mut comment, ' ');
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime. A char literal is
                    // 'x', '\n', '\u{..}' — i.e. the quote is followed by
                    // either an escape or exactly one char then a quote.
                    if next == Some('\\') {
                        // Escaped char literal: consume to closing quote.
                        both(&mut code, &mut comment, ' ');
                        i += 1;
                        while i < bytes.len() {
                            let d = bytes[i];
                            both(&mut code, &mut comment, if d == '\n' { '\n' } else { ' ' });
                            i += 1;
                            if d == '\'' {
                                break;
                            }
                            if d == '\\' && i < bytes.len() {
                                let e = bytes[i];
                                both(&mut code, &mut comment, if e == '\n' { '\n' } else { ' ' });
                                i += 1; // skip escaped char
                            }
                        }
                    } else if bytes.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        for _ in 0..3 {
                            both(&mut code, &mut comment, ' ');
                        }
                        i += 3;
                    } else {
                        // Lifetime — part of the code view.
                        both(&mut code, &mut comment, c);
                        i += 1;
                    }
                } else {
                    both(&mut code, &mut comment, c);
                    i += 1;
                }
            }
            State::LineComment { doc } => {
                if c == '\n' {
                    code.push('\n');
                    comment.push('\n');
                    st = State::Code;
                } else {
                    code.push(' ');
                    comment.push(if doc { ' ' } else { c });
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    both(&mut code, &mut comment, ' ');
                    both(&mut code, &mut comment, ' ');
                    i += 2;
                    if depth == 1 {
                        st = State::Code;
                    } else {
                        st = State::BlockComment(depth - 1);
                    }
                } else if c == '/' && next == Some('*') {
                    both(&mut code, &mut comment, ' ');
                    both(&mut code, &mut comment, ' ');
                    i += 2;
                    st = State::BlockComment(depth + 1);
                } else {
                    both(&mut code, &mut comment, if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    both(&mut code, &mut comment, ' ');
                    if let Some(d) = next {
                        both(&mut code, &mut comment, if d == '\n' { '\n' } else { ' ' });
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    both(&mut code, &mut comment, ' ');
                    i += 1;
                    st = State::Code;
                } else {
                    both(&mut code, &mut comment, if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_str(&bytes, i, hashes) {
                    for _ in 0..=hashes {
                        both(&mut code, &mut comment, ' ');
                    }
                    i += 1 + hashes as usize;
                    st = State::Code;
                } else {
                    both(&mut code, &mut comment, if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    Views { code, comment }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// At position `i` on `r`/`b`: if this begins a raw string literal,
/// return `(hash_count, index_of_opening_quote)`.
fn raw_str_hashes(bytes: &[char], i: usize) -> Option<(u32, usize)> {
    // Accept r, rb?, br prefixes conservatively: r…" or br…".
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        // Guard against identifiers ending in r (e.g. `var"`) — the char
        // before `i` must not be alphanumeric/underscore.
        if i > 0 && is_ident_char(bytes[i - 1]) {
            return None;
        }
        Some((hashes, j))
    } else {
        None
    }
}

/// Does the quote at `i` terminate a raw string with `hashes` hashes?
fn closes_raw_str(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Parse `// flowtune-allow(<rule>): <reason>` waivers from the comment
/// view (plain `//` comments only — a waiver quoted in a doc comment or
/// a string literal is not a waiver). A reason is mandatory — a waiver
/// without one suppresses nothing (and surfaces in the stale-waiver
/// audit). Each waiver covers its own line and the next line.
#[allow(
    clippy::type_complexity,
    reason = "the lookup map and the declaration list are built in one pass"
)]
fn collect_waivers(
    comment_lines: &[String],
) -> (
    BTreeMap<String, BTreeMap<usize, Vec<usize>>>,
    Vec<WaiverDecl>,
) {
    let mut map: BTreeMap<String, BTreeMap<usize, Vec<usize>>> = BTreeMap::new();
    let mut decls = Vec::new();
    for (idx, line) in comment_lines.iter().enumerate() {
        let mut rest = line.as_str();
        while let Some(pos) = rest.find("flowtune-allow(") {
            rest = &rest[pos + "flowtune-allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_owned();
            let after = &rest[close + 1..];
            let reason_ok =
                after.trim_start().starts_with(':') && !after.trim_start()[1..].trim().is_empty();
            if !rule.is_empty() {
                if reason_ok {
                    let entry = map.entry(rule.clone()).or_default();
                    entry.entry(idx).or_default().push(idx);
                    entry.entry(idx + 1).or_default().push(idx);
                }
                decls.push(WaiverDecl {
                    rule,
                    line: idx,
                    has_reason: reason_ok,
                });
            }
            rest = after;
        }
    }
    (map, decls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_non_code("let x = 1; // HashMap here\n/* Instant::now() */ let y = 2;");
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("Instant"));
        assert!(s.contains("let x = 1;"));
        assert!(s.contains("let y = 2;"));
    }

    #[test]
    fn strips_strings_and_chars_but_not_lifetimes() {
        let s =
            strip_non_code("fn f<'a>(x: &'a str) { let c = 'x'; let s = \"unwrap() inside\"; }");
        assert!(s.contains("fn f<'a>(x: &'a str)"));
        assert!(!s.contains("unwrap"));
        assert!(!s.contains('x') || !s.contains("'x'"));
    }

    #[test]
    fn strips_raw_strings_with_hashes() {
        let s = strip_non_code("let s = r#\"panic!(\"boom\")\"#; let t = 3;");
        assert!(!s.contains("panic"));
        assert!(s.contains("let t = 3;"));
    }

    #[test]
    fn nested_block_comments() {
        let s = strip_non_code("/* outer /* inner unwrap() */ still */ let z = 1;");
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let z = 1;"));
    }

    #[test]
    fn deeply_nested_block_comments_unwind_fully() {
        let s = strip_non_code("/*1/*2/*3/*4/*5 panic!() */4*/3*/2*/1*/ let ok = 1;");
        assert!(!s.contains("panic"));
        assert!(s.contains("let ok = 1;"));
    }

    #[test]
    fn preserves_line_count() {
        let text = "a\n\"multi\nline\nstring\"\nb\n";
        assert_eq!(strip_non_code(text).lines().count(), text.lines().count());
    }

    #[test]
    fn byte_literals_are_blanked_including_prefix() {
        let s = strip_non_code("let a = b'x'; let s = b\"unwrap()\"; let blob = 1;");
        assert!(!s.contains("unwrap"));
        // The `b` prefix must not survive as a stray identifier...
        assert!(s.contains("let a =  "), "got: {s:?}");
        // ...while identifiers starting with b are untouched.
        assert!(s.contains("let blob = 1;"));
    }

    #[test]
    fn escaped_quote_char_literal() {
        let s = strip_non_code("let q = '\\''; let r = 1;");
        assert!(s.contains("let r = 1;"), "got: {s:?}");
        assert!(!s.contains('\''), "quote leaked: {s:?}");
    }

    #[test]
    fn unterminated_raw_string_at_eof_consumes_rest() {
        // Malformed input must not panic or leak the tail into code.
        let s = strip_non_code("let s = r#\"never closed unwrap()");
        assert!(!s.contains("unwrap"));
        let s2 = strip_non_code("let s = \"also open\nunwrap()");
        assert!(!s2.contains("unwrap"));
        assert_eq!(s2.lines().count(), 2);
    }

    #[test]
    fn lifetime_vs_char_after_generics() {
        let s = strip_non_code("fn f<'a, 'b>(x: &'a u8, y: &'b u8) { let c = 'c'; }");
        assert!(s.contains("<'a, 'b>"), "lifetimes must survive: {s:?}");
        assert!(s.contains("&'a u8"));
        assert!(!s.contains("'c'"), "char literal must be blanked: {s:?}");
    }

    #[test]
    fn escaped_backslash_char_literal_terminates() {
        let s = strip_non_code("let b = '\\\\'; let after = 2;");
        assert!(s.contains("let after = 2;"), "got: {s:?}");
    }

    #[test]
    fn comment_view_keeps_only_plain_line_comments() {
        let text = "\
//! doc: flowtune-allow(newtype-discipline): phantom\n\
/// also doc: flowtune-allow(newtype-discipline): phantom\n\
// real: flowtune-allow(cast-discipline): genuine\n\
let s = \"flowtune-allow(newtype-discipline): in a string\";\n\
/* block: flowtune-allow(newtype-discipline): phantom */\n";
        let v = strip_views(text);
        assert_eq!(v.comment.matches("flowtune-allow").count(), 1);
        assert!(v.comment.contains("flowtune-allow(cast-discipline)"));
        assert!(!v.code.contains("flowtune-allow"));
    }

    #[test]
    fn waiver_requires_reason_and_covers_next_line() {
        let lines: Vec<String> = vec![
            "// flowtune-allow(cast-discipline): invariant upheld by caller".into(),
            "".into(),
            "// flowtune-allow(cast-discipline)".into(), // no reason -> suppresses nothing
            "".into(),
        ];
        let (map, decls) = collect_waivers(&lines);
        let set = &map["cast-discipline"];
        assert!(set.contains_key(&0) && set.contains_key(&1));
        assert!(!set.contains_key(&2) && !set.contains_key(&3));
        // Both declarations are recorded for the stale-waiver audit.
        assert_eq!(decls.len(), 2);
        assert!(decls[0].has_reason);
        assert!(!decls[1].has_reason);
        assert_eq!(decls[1].line, 2);
    }

    #[test]
    fn waivers_in_docs_and_strings_are_phantom() {
        let text = "\
//! // flowtune-allow(newtype-discipline): doc example\n\
fn f() {\n\
    let s = \"flowtune-allow(obs-discipline): stringly\";\n\
}\n";
        let f = SourceFile::from_text(text, PathBuf::from("x.rs"), "x.rs".into(), FileKind::Lib);
        assert!(f.waiver_decls.is_empty());
        assert!(f.waiver_decl_lines("newtype-discipline", 0).is_empty());
        assert!(f.waiver_decl_lines("obs-discipline", 2).is_empty());
    }

    #[test]
    fn source_file_exposes_tokens_and_model() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = SourceFile::from_text(text, PathBuf::from("x.rs"), "x.rs".into(), FileKind::Lib);
        assert!(f.tokens.iter().any(|t| t.is_ident("lib")));
        assert_eq!(f.test_lines, vec![false, true, true, true, true]);
        assert!(!f.is_test_line(0) && f.is_test_line(3));
    }

    #[test]
    fn waiver_decl_lines_point_at_declaration() {
        let text = "// flowtune-allow(newtype-discipline): reason here\nlet x = 1;\n";
        let f = SourceFile::from_text(text, PathBuf::from("x.rs"), "x.rs".into(), FileKind::Lib);
        assert_eq!(f.waiver_decl_lines("newtype-discipline", 1), &[0]);
        assert_eq!(
            f.waiver_decl_lines("newtype-discipline", 5),
            &[] as &[usize]
        );
    }
}
