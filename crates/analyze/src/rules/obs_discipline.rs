//! Rule `obs-discipline`: the observability surface is a contract — the
//! metric names passed to `flowtune_obs::count/gauge/observe` and the
//! event kinds passed to `obs_event!` end up in traces, dashboards, and
//! the committed goldens. The rule extracts every name literal and
//! enforces:
//!
//! 1. **format** — names are dotted snake_case (`area.metric`), so the
//!    trace/metrics namespaces stay greppable and sort by subsystem;
//! 2. **no duplicates** — a metric name recorded as two different kinds
//!    (counter here, distribution there) splits one series in the
//!    summary, and an event kind emitted from two sites makes traces
//!    ambiguous; the earliest site is canonical, later ones are flagged;
//! 3. **golden membership** — every metric name must appear in
//!    `tests/golden/metrics_smoke.json`; a name absent from the smoke
//!    golden is either dead, misspelled, or only reachable on paths the
//!    smoke run skips (waive with which path exercises it).
//!
//! Names are string literals — blanked in the code view — so the rule
//! locates call sites by token and reads the literal back from the raw
//! line(s) following the opening parenthesis.

use super::{Emitter, Rule};
use crate::lexer::TokenKind;
use crate::scan::{FileKind, SourceFile};
use crate::workspace::Workspace;
use flowtune_common::json;
use std::collections::{BTreeMap, BTreeSet};

/// Root-relative path of the metrics golden the membership check uses.
const METRICS_GOLDEN: &str = "tests/golden/metrics_smoke.json";

#[derive(Debug)]
pub struct ObsDiscipline;

/// One extracted name literal.
struct Site<'a> {
    file: &'a SourceFile,
    /// 0-based line of the call ident.
    line: usize,
    name: String,
    /// "count" | "gauge" | "observe" | "event".
    kind: &'static str,
}

impl Rule for ObsDiscipline {
    fn name(&self) -> &'static str {
        "obs-discipline"
    }

    fn description(&self) -> &'static str {
        "obs names must be dotted snake_case, unique, and present in the metrics golden"
    }

    fn check_workspace(&self, ws: &Workspace, em: &mut Emitter<'_>) {
        let mut sites: Vec<Site<'_>> = Vec::new();
        for krate in &ws.crates {
            // The analyzer manipulates these idents as data; the obs
            // crate defines them. Neither emits.
            if krate.name == "flowtune-analyze" {
                continue;
            }
            for file in &krate.files {
                if file.kind == FileKind::Test {
                    continue;
                }
                collect_sites(file, &mut sites);
            }
        }

        for site in &sites {
            if !valid_name(&site.name) {
                em.emit(
                    site.file,
                    site.line,
                    format!(
                        "obs name `{}` must be dotted snake_case (`area.metric`)",
                        site.name
                    ),
                );
            }
        }

        // Duplicate detection: the earliest site (scan order is
        // deterministic: crates and files sorted, then token order) is
        // canonical; later conflicting sites are flagged.
        let mut first_metric: BTreeMap<&str, &Site<'_>> = BTreeMap::new();
        let mut first_event: BTreeMap<&str, &Site<'_>> = BTreeMap::new();
        for site in &sites {
            if site.kind == "event" {
                match first_event.get(site.name.as_str()) {
                    None => {
                        first_event.insert(&site.name, site);
                    }
                    Some(canon) => em.emit(
                        site.file,
                        site.line,
                        format!(
                            "event `{}` is already emitted at {}:{}; one kind, one site",
                            site.name,
                            canon.file.rel,
                            canon.line + 1
                        ),
                    ),
                }
            } else {
                match first_metric.get(site.name.as_str()) {
                    None => {
                        first_metric.insert(&site.name, site);
                    }
                    Some(canon) if canon.kind != site.kind => em.emit(
                        site.file,
                        site.line,
                        format!(
                            "metric `{}` recorded as {} here but as {} at {}:{}; pick one kind",
                            site.name,
                            site.kind,
                            canon.kind,
                            canon.file.rel,
                            canon.line + 1
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }

        // Golden membership, metrics only (event kinds appear in traces,
        // which have no committed name inventory).
        let Some(keys) = golden_metric_names(ws) else {
            return;
        };
        let mut flagged: BTreeSet<(&str, usize, &str)> = BTreeSet::new();
        for site in &sites {
            if site.kind == "event" || keys.contains(site.name.as_str()) {
                continue;
            }
            if !flagged.insert((&site.file.rel, site.line, &site.name)) {
                continue;
            }
            em.emit(
                site.file,
                site.line,
                format!(
                    "metric `{}` is absent from {METRICS_GOLDEN}; add it to the smoke \
                     golden or waive with the path that exercises it",
                    site.name
                ),
            );
        }
    }
}

/// Find `count(` / `gauge(` / `observe(` / `obs_event!(` call sites whose
/// first argument is a string literal, and read that literal back from
/// the raw source.
fn collect_sites<'a>(file: &'a SourceFile, out: &mut Vec<Site<'a>>) {
    let toks = &file.tokens;
    for at in 0..toks.len() {
        let t = &toks[at];
        if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let (kind, paren_at) = if matches!(t.text.as_str(), "count" | "gauge" | "observe")
            && toks.get(at + 1).is_some_and(|n| n.is_punct("("))
            // `.count()` and friends are iterator adaptors, not obs calls.
            && !(at > 0 && toks[at - 1].is_punct("."))
        {
            (literal_kind(&t.text), at + 1)
        } else if t.is_ident("obs_event")
            && toks.get(at + 1).is_some_and(|n| n.is_punct("!"))
            && toks.get(at + 2).is_some_and(|n| n.is_punct("("))
        {
            ("event", at + 2)
        } else {
            continue;
        };
        let paren = &toks[paren_at];
        if let Some(name) = literal_after(file, paren.line, paren.col + 1) {
            out.push(Site {
                file,
                line: t.line,
                name,
                kind,
            });
        }
    }
}

/// Map the call ident to its static kind string.
fn literal_kind(text: &str) -> &'static str {
    match text {
        "count" => "count",
        "gauge" => "gauge",
        _ => "observe",
    }
}

/// The string literal starting at/after `(line, col)` in the raw source,
/// skipping whitespace (across lines). `None` when the next
/// non-whitespace isn't a plain `"` literal — then the name is computed,
/// not a literal, and the rule has nothing to check.
fn literal_after(file: &SourceFile, line: usize, col: usize) -> Option<String> {
    let (mut line, mut col) = (line, col);
    loop {
        let raw = file.raw_lines.get(line)?;
        let chars: Vec<char> = raw.chars().collect();
        match chars.get(col) {
            None => {
                line += 1;
                col = 0;
            }
            Some(c) if c.is_whitespace() => col += 1,
            Some('"') => {
                let mut name = String::new();
                for &c in chars.get(col + 1..)? {
                    match c {
                        '"' => return Some(name),
                        // Escapes never appear in obs names; bail rather
                        // than guess.
                        '\\' => return None,
                        c => name.push(c),
                    }
                }
                return None;
            }
            Some(_) => return None,
        }
    }
}

/// Is `name` dotted snake_case with at least two segments?
fn valid_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// All metric names the committed smoke golden knows (counters, gauges,
/// and distributions). `None` when the golden is missing or unparseable
/// — golden-coverage owns existence, so this rule stays quiet then.
fn golden_metric_names(ws: &Workspace) -> Option<BTreeSet<String>> {
    let doc = json::parse(&ws.golden(METRICS_GOLDEN)?.text).ok()?;
    let mut keys = BTreeSet::new();
    for section in ["counters", "gauges", "distributions"] {
        for (k, _) in doc.get(section)?.as_obj()? {
            keys.insert(k.clone());
        }
    }
    Some(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileKind;

    #[test]
    fn name_format() {
        assert!(valid_name("sched.steps"));
        assert!(valid_name("interleave.knapsack_nodes"));
        assert!(valid_name("a.b.c2"));
        assert!(!valid_name("sched"));
        assert!(!valid_name("Sched.steps"));
        assert!(!valid_name("sched.Steps"));
        assert!(!valid_name("sched..steps"));
        assert!(!valid_name("sched.steps-x"));
        assert!(!valid_name(".steps"));
    }

    #[test]
    fn extracts_names_from_raw_source() {
        let file = SourceFile::from_text(
            "fn f() {\n    flowtune_obs::count(\"sched.steps\", 1);\n    obs_event!(\n        \"sched.step\",\n        t\n    );\n    let n = xs.iter().count();\n    flowtune_obs::observe(computed_name, 1.0);\n}\n",
            std::path::PathBuf::from("m.rs"),
            "m.rs".to_owned(),
            FileKind::Lib,
        );
        let mut sites = Vec::new();
        collect_sites(&file, &mut sites);
        let got: Vec<(&str, &str, usize)> = sites
            .iter()
            .map(|s| (s.name.as_str(), s.kind, s.line))
            .collect();
        // The iterator `.count()` and the computed-name observe are
        // skipped; the multiline obs_event! literal is found.
        assert_eq!(
            got,
            [("sched.steps", "count", 1), ("sched.step", "event", 2)]
        );
    }
}
