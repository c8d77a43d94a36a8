//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p flowtune-analyze                  # analyze this workspace
//! cargo run -p flowtune-analyze -- <root>        # analyze another tree
//! cargo run -p flowtune-analyze -- --list-rules  # list rules
//! cargo run -p flowtune-analyze -- --format json --baseline ANALYZE_baseline.json
//! ```
//!
//! `--format json` emits the stable `flowtune.analyze.v1` document; a
//! clean run's output is itself a valid `--baseline` file. Baselined
//! findings (matched on file + rule + message, line ignored so
//! unrelated edits don't invalidate entries) are accepted without
//! failing the run. `--rule <name>` (repeatable) narrows the report;
//! all rules still *run* so the stale-waiver audit sees the full
//! suppression record.
//!
//! Exit codes: 0 clean (warn-only and baselined findings included),
//! 1 unbaselined deny findings, 2 I/O or usage error.

use flowtune_analyze::{Diagnostic, Severity};
use flowtune_common::json::{self, Json};
use std::collections::BTreeSet;
use std::process::ExitCode;

struct Options {
    root: Option<String>,
    format_json: bool,
    baseline: Option<String>,
    rules: Vec<String>,
    list_rules: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format_json: false,
        baseline: None,
        rules: Vec::new(),
        list_rules: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => opts.help = true,
            "--list-rules" | "--rules" => opts.list_rules = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.format_json = true,
                Some("text") => opts.format_json = false,
                Some(other) => return Err(format!("unknown format `{other}` (json|text)")),
                None => return Err("--format needs a value (json|text)".to_owned()),
            },
            "--baseline" => {
                opts.baseline = Some(it.next().ok_or("--baseline needs a file path")?.to_owned());
            }
            "--rule" => {
                opts.rules
                    .push(it.next().ok_or("--rule needs a rule name")?.to_owned());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            root => {
                if opts.root.replace(root.to_owned()).is_some() {
                    return Err("more than one ROOT argument".to_owned());
                }
            }
        }
    }
    Ok(opts)
}

/// The baseline's `(file, rule, message)` triples.
fn load_baseline(path: &str) -> Result<BTreeSet<(String, String, String)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("flowtune.analyze.v1") => {}
        other => {
            return Err(format!(
                "baseline {path}: expected schema \"flowtune.analyze.v1\", got {other:?}"
            ))
        }
    }
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("baseline {path}: missing `findings` array"))?;
    let mut set = BTreeSet::new();
    for f in findings {
        let field = |key: &str| {
            f.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("baseline {path}: finding missing `{key}`"))
        };
        set.insert((field("file")?, field("rule")?, field("message")?));
    }
    Ok(set)
}

/// Render the `flowtune.analyze.v1` document.
fn render_report(findings: &[&Diagnostic], baselined: usize) -> String {
    let (mut deny, mut warn) = (0i64, 0i64);
    let items: Vec<Json> = findings
        .iter()
        .map(|d| {
            match d.severity {
                Severity::Deny => deny += 1,
                Severity::Warn => warn += 1,
            }
            Json::Obj(vec![
                ("file".into(), Json::Str(d.file.clone())),
                ("line".into(), Json::Int(d.line as i64)),
                ("rule".into(), Json::Str(d.rule.to_owned())),
                ("severity".into(), Json::Str(d.severity.as_str().to_owned())),
                ("message".into(), Json::Str(d.message.clone())),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("flowtune.analyze.v1".into())),
        ("findings".into(), Json::Arr(items)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("deny".into(), Json::Int(deny)),
                ("warn".into(), Json::Int(warn)),
                ("baselined".into(), Json::Int(baselined as i64)),
            ]),
        ),
    ]);
    doc.render()
}

fn run() -> Result<ExitCode, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI argument parsing is this binary's input boundary"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    if opts.help {
        println!(
            "flowtune-analyze: workspace invariant checker\n\n\
             usage: flowtune-analyze [OPTIONS] [ROOT]\n\n\
             options:\n\
             \x20 --format json|text     output format (default text)\n\
             \x20 --baseline FILE        accept findings listed in FILE (flowtune.analyze.v1)\n\
             \x20 --rule NAME            report only this rule (repeatable; all rules still run)\n\
             \x20 --list-rules           list rules with severity and description\n\n\
             Scans ROOT (default: this workspace) and reports invariant violations.\n\
             Waive a false positive in place with a plain comment on or above the\n\
             line: `// flowtune-allow(<rule>): <reason>`. Stale waivers are\n\
             themselves reported by the waiver-audit rule."
        );
        return Ok(ExitCode::SUCCESS);
    }
    let registry = flowtune_analyze::all_rules();
    if opts.list_rules {
        for rule in &registry {
            println!(
                "{:<20} {:<5} {}",
                rule.name(),
                rule.severity().as_str(),
                rule.description()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    for name in &opts.rules {
        if !registry.iter().any(|r| r.name() == name.as_str()) {
            return Err(format!("unknown rule `{name}` (see --list-rules)"));
        }
    }
    let baseline = match &opts.baseline {
        Some(path) => load_baseline(path)?,
        None => BTreeSet::new(),
    };
    let root = opts
        .root
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(flowtune_analyze::workspace_root);

    let diags = flowtune_analyze::check_workspace(&root)
        .map_err(|e| format!("i/o error scanning {}: {e}", root.display()))?;

    let mut baselined = 0usize;
    let reported: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| opts.rules.is_empty() || opts.rules.iter().any(|r| r == d.rule))
        .filter(|d| {
            let hit = baseline.contains(&(d.file.clone(), d.rule.to_owned(), d.message.clone()));
            baselined += usize::from(hit);
            !hit
        })
        .collect();
    let deny = reported
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();

    if opts.format_json {
        println!("{}", render_report(&reported, baselined));
    } else if reported.is_empty() {
        println!(
            "flowtune-analyze: workspace clean ({}{})",
            root.display(),
            if baselined > 0 {
                format!(", {baselined} baselined")
            } else {
                String::new()
            }
        );
    } else {
        for d in &reported {
            println!("{d}");
        }
        let warn = reported.len() - deny;
        println!("\nflowtune-analyze: {deny} deny, {warn} warn, {baselined} baselined");
    }
    Ok(if deny == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("flowtune-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
