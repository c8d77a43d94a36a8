//! The workspace's one JSON implementation: a value, a canonical
//! pretty renderer, a parser, and the string/float writers every JSON
//! producer shares — zero dependencies (DESIGN §7).
//!
//! The renderer is *canonical*: objects keep insertion order, nesting is
//! two-space indented, strings use the shortest escape form, and floats
//! use Rust's shortest round-trip form. The parser accepts any standard
//! JSON and preserves object key order, so
//! `render(parse(render(v))) == render(v)` byte-for-byte — what makes
//! committed baselines (`ANALYZE_baseline.json`, `BENCH_*.json`) diff
//! cleanly. `flowtune-obs` keeps its own compact one-line layout for the
//! trace and metrics goldens but writes every string and float through
//! [`push_str`] and [`push_f64`].

use std::fmt::Write as _;

/// A JSON value. Integers and floats are kept apart so that whole
/// numbers round-trip without a trailing `.0`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Canonical pretty rendering (two-space indent, trailing newline
    /// left to the caller).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(f) => push_f64(out, *f),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    push_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append a JSON string literal with escaping.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a float. Finite values use the shortest representation that
/// round-trips (`{:?}`, always with a `.` or an exponent, so the parser
/// reads it back as a float), which is platform-independent; NaN/±inf
/// have no JSON spelling and become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Parse a JSON document. Errors carry a byte offset and description.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut p = Parser { bytes, at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing content at offset {}", p.at));
    }
    Ok(v)
}

struct Parser {
    bytes: Vec<char>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.at)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.at += 1,
                Some('}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.at += 1,
                Some(']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some('"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d =
                                    self.peek().and_then(|c| c.to_digit(16)).ok_or_else(|| {
                                        format!("bad \\u escape at offset {}", self.at)
                                    })?;
                                code = code * 16 + d;
                                self.at += 1;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some('-') {
            self.at += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => self.at += 1,
                '.' | 'e' | 'E' | '+' | '-' => {
                    float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text: String = self.bytes[start..self.at].iter().collect();
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_byte_identically() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("flowtune.analyze.v1".into())),
            (
                "findings".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("file".into(), Json::Str("a/b.rs".into())),
                    ("line".into(), Json::Int(7)),
                ])]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let rendered = doc.render();
        let reparsed = parse(&rendered).expect("own output parses");
        assert_eq!(reparsed.render(), rendered);
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn parses_compact_and_nested_input() {
        let v = parse(r#"{"a":[1,2.5,true,null],"b":{"c":"d\ne"}}"#).expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("d\ne")
        );
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2}"#).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn whole_floats_stay_floats() {
        for v in [1000.0, 2.0, 1e21, 0.1] {
            let rendered = Json::Float(v).render();
            assert_eq!(parse(&rendered), Ok(Json::Float(v)), "{rendered}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = Json::Str("quote \" slash \\ nl \n tab \t ctrl \u{1}".into());
        let rendered = s.render();
        assert_eq!(parse(&rendered).expect("parses"), s);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
