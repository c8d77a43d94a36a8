//! The structured event log.
//!
//! An [`Event`] is one record of the trace: a sim-time stamp, a stable
//! event kind (dot-separated, `layer.what`), and an ordered list of
//! `(key, value)` fields. Rendering is a compact one-line layout over the
//! shared `flowtune_common::json` string and float writers, so the
//! workspace stays zero-dependency (DESIGN §7) and the byte output is a
//! pure function of the recorded values: keys keep insertion order,
//! floats render via Rust's shortest-round-trip formatter, and nothing
//! ever consults a wall clock or a hash map.

use std::fmt::Write as _;

use flowtune_common::json::{push_f64, push_str};

/// A field value: the closed set of types events may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (ids, counts, milliseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (fractions, gains, quanta). Non-finite values render as
    /// JSON `null`.
    F64(f64),
    /// String (application names, labels).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Sim-time stamp in milliseconds (the recorder's current clock).
    pub at_ms: u64,
    /// Stable kind, `layer.what` (e.g. `sched.step`, `cloud.exec`).
    pub kind: &'static str,
    /// Ordered fields; order is part of the schema and of the bytes.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Render as one JSON object: `{"t":…,"kind":…,<fields…>}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"t\":");
        // Writing to a String cannot fail; ignore the fmt plumbing.
        let _ = write!(out, "{}", self.at_ms);
        out.push_str(",\"kind\":");
        push_str(&mut out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            push_str(&mut out, key);
            out.push(':');
            push_json_value(&mut out, value);
        }
        out.push('}');
        out
    }
}

/// Append a JSON value.
pub(crate) fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => push_f64(out, *v),
        Value::Str(s) => push_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_stable_json() {
        let e = Event {
            at_ms: 61_000,
            kind: "sched.step",
            fields: vec![
                ("step", Value::from(3u64)),
                ("width", Value::from(8usize)),
                ("app", Value::from("Montage")),
                ("frac", Value::from(0.5f64)),
                ("ok", Value::from(true)),
            ],
        };
        assert_eq!(
            e.to_json(),
            r#"{"t":61000,"kind":"sched.step","step":3,"width":8,"app":"Montage","frac":0.5,"ok":true}"#
        );
    }

    // The trace and metrics goldens pin these exact bytes from the
    // shared writers.
    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nonfinite_floats_are_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(',');
        push_f64(&mut out, f64::INFINITY);
        out.push(',');
        push_f64(&mut out, 1.25e-7);
        assert_eq!(out, "null,null,1.25e-7");
    }
}
