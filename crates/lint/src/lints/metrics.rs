//! `metric-registry`: every span/counter name is a well-formed dotted
//! hierarchy, unique per call site, and consistent with what CI asserts.
//!
//! Three checks, all over *tokens* (so names in comments and test code
//! never participate):
//!
//! 1. **Format + uniqueness.** A name passed to `span!`, `Span::enter`,
//!    `counter`, or the traced morsel dispatchers must match
//!    `[a-z0-9_]` segments joined by dots (≥ 2 segments). A name
//!    registered from two or more call sites is flagged unless the
//!    shared-name allowlist records why (e.g. the directed and
//!    undirected conversion paths record the same fill phase); an
//!    allowlist entry whose name no longer has multiple sites is stale.
//! 2. **CI cross-check.** Dotted names quoted in
//!    `.github/workflows/ci.yml` and in `examples/*.rs` are references:
//!    each must resolve to a registered name (exact) or to at least one
//!    registered name when it ends with `.` (prefix assert). A dead or
//!    misspelled assert is an error — CI must not green-light a span
//!    nobody records.
//! 3. **Synthetic names.** Names that exist only at export time (e.g.
//!    the sinks' `trace.events.dropped` tally) are declared in
//!    the config with a reason; freshness requires the literal to still
//!    appear in library source.
//!
//! Dynamic dispatch (`Span::enter(name)` where `name` is a parameter)
//! registers nothing here — the literal at the *call site that chose
//! the name* is what gets collected.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::str_content;
use crate::lints::{finding_at, is_dotted_metric, Lint};
use crate::source::{LineIndex, SourceFile, Workspace};
use crate::tree::TokenTree;

/// See module docs.
pub struct MetricRegistry;

/// Path/file-name endings that disqualify a dotted literal from being
/// treated as a metric reference (CI quotes plenty of file names).
const FILE_EXTENSIONS: &[&str] = &[
    "json", "rs", "out", "yml", "yaml", "toml", "txt", "md", "csv", "tsv", "gz", "lock", "html",
    "rg",
];

fn looks_like_file(name: &str) -> bool {
    name.rsplit('.')
        .next()
        .is_some_and(|ext| FILE_EXTENSIONS.contains(&ext))
}

fn all_numeric(name: &str) -> bool {
    name.split('.')
        .all(|s| s.bytes().all(|b| b.is_ascii_digit()))
}

/// Functions whose first string argument names a metric.
const NAME_TAKING_FNS: &[&str] = &[
    "counter",
    "parallel_map_morsels_traced",
    "parallel_for_morsels_traced",
];

/// Collects every string literal inside `children`, recursively — a
/// literal in a name-registering position IS a metric name, well-formed
/// or not (the format check rejects the malformed ones; filtering here
/// would make that check unfalsifiable).
fn literals_in(children: &[TokenTree], file: &SourceFile, out: &mut Vec<(String, usize)>) {
    for node in children {
        match node {
            TokenTree::Leaf(i) => {
                let t = file.tokens[*i];
                if let Some(content) = str_content(t.kind, t.text(&file.text)) {
                    out.push((content.to_owned(), *i));
                }
            }
            TokenTree::Group { children, .. } => literals_in(children, file, out),
        }
    }
}

/// Like [`literals_in`], but only before the first top-level `,` —
/// the name argument of the traced morsel dispatchers.
fn first_arg_literals(children: &[TokenTree], file: &SourceFile, out: &mut Vec<(String, usize)>) {
    let end = children
        .iter()
        .position(|n| matches!(n, TokenTree::Leaf(i) if file.tok_text(*i) == ","))
        .unwrap_or(children.len());
    literals_in(&children[..end], file, out);
}

/// Scans one sibling list for name-registering calls and recurses.
fn scan_children(
    children: &[TokenTree],
    file: &SourceFile,
    defs: &mut Vec<(String, usize)>, // (name, token index) per site, this file
) {
    // Significant sibling positions, to look behind call groups.
    let sig: Vec<usize> = children
        .iter()
        .enumerate()
        .filter(|(_, n)| match n {
            TokenTree::Leaf(i) => !file.tokens[*i].kind.is_trivia(),
            TokenTree::Group { .. } => true,
        })
        .map(|(idx, _)| idx)
        .collect();
    for (k, &idx) in sig.iter().enumerate() {
        if let TokenTree::Group {
            delim: '(',
            children: inner,
            ..
        } = &children[idx]
        {
            let leaf = |back: usize| -> &str {
                if k >= back {
                    if let TokenTree::Leaf(i) = &children[sig[k - back]] {
                        return file.tok_text(*i);
                    }
                }
                ""
            };
            let mut found = Vec::new();
            let is_span_macro = leaf(1) == "!" && leaf(2) == "span";
            let is_span_enter = leaf(1) == "enter" && leaf(2) == "::" && leaf(3) == "Span";
            if is_span_macro || is_span_enter {
                literals_in(inner, file, &mut found);
            } else if NAME_TAKING_FNS.contains(&leaf(1)) && leaf(2) != "." && leaf(2) != "fn" {
                // Plain function call (not a method named `counter`, not
                // the `fn counter(…)` declaration itself).
                first_arg_literals(inner, file, &mut found);
            }
            defs.append(&mut found);
        }
        if let TokenTree::Group {
            children: inner, ..
        } = &children[idx]
        {
            scan_children(inner, file, defs);
        }
    }
}

/// Extracts dotted-name references from quoted strings in a YAML/script
/// text. Returns `(name, byte offset)`; names keep a trailing `.` when
/// the quote was a prefix assert.
fn yaml_references(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for quote in ['"', '\''] {
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] as char == quote {
                if let Some(len) = text[i + 1..].find(quote) {
                    let inner = &text[i + 1..i + 1 + len];
                    if !inner.contains('\n') {
                        let (name, is_prefix) = match inner.strip_suffix('.') {
                            Some(stripped) => (stripped, true),
                            None => (inner, false),
                        };
                        if (is_dotted_metric(name)
                            || (is_prefix
                                && !name.contains('.')
                                && is_dotted_metric(&format!("{name}.x"))))
                            && !looks_like_file(name)
                            && !all_numeric(name)
                        {
                            let full = if is_prefix {
                                format!("{name}.")
                            } else {
                                name.to_owned()
                            };
                            out.push((full, i + 1));
                        }
                    }
                    i += len + 2;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

impl Lint for MetricRegistry {
    fn name(&self) -> &'static str {
        "metric-registry"
    }

    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
        // ---- collect definitions -------------------------------------
        // name -> list of (file index, token index)
        let mut sites: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in ws.lib_files.iter().enumerate() {
            if cfg.scan_exempt.contains(&file.rel) {
                continue;
            }
            let mut defs = Vec::new();
            scan_children(&file.trees, file, &mut defs);
            // A literal can be collected twice when calls nest (a
            // `counter` inside a `span!` group); one token is one site.
            defs.sort();
            defs.dedup();
            for (name, ti) in defs {
                if file.in_test_code(ti) {
                    continue;
                }
                sites.entry(name).or_default().push((fi, ti));
            }
        }

        // ---- format + per-call-site uniqueness -----------------------
        for (name, locs) in &sites {
            for &(fi, ti) in locs {
                let file = &ws.lib_files[fi];
                if !is_dotted_metric(name) {
                    out.push(finding_at(
                        self.name(),
                        file,
                        ti,
                        format!(
                            "metric name `{name}` is not a dotted [a-z0-9_] hierarchy \
                             (e.g. `table.join`)"
                        ),
                    ));
                }
            }
            if locs.len() > 1 && !cfg.shared_metric_allow.iter().any(|(n, _)| n == name) {
                for &(fi, ti) in &locs[1..] {
                    let file = &ws.lib_files[fi];
                    out.push(finding_at(
                        self.name(),
                        file,
                        ti,
                        format!(
                            "metric name `{name}` is registered from {} call sites; \
                             names must be unique per call site so attribution is \
                             unambiguous (or record a reason in the shared-name \
                             allowlist)",
                            locs.len()
                        ),
                    ));
                }
            }
        }

        // ---- allowlist freshness -------------------------------------
        for (name, reason) in &cfg.shared_metric_allow {
            if sites.get(name).map_or(0, Vec::len) < 2 {
                out.push(Finding::new(
                    self.name(),
                    "crates/lint/src/config.rs",
                    1,
                    1,
                    format!(
                        "stale shared-metric allowlist entry `{name}` ({reason}): \
                         fewer than two call sites remain"
                    ),
                ));
            }
        }
        for (name, reason) in &cfg.synthetic_metrics {
            let live = ws.lib_files.iter().any(|f| {
                f.tokens
                    .iter()
                    .any(|t| str_content(t.kind, t.text(&f.text)).is_some_and(|c| c == name))
            });
            if !live {
                out.push(Finding::new(
                    self.name(),
                    "crates/lint/src/config.rs",
                    1,
                    1,
                    format!(
                        "stale synthetic-metric entry `{name}` ({reason}): the literal \
                         no longer appears in library source"
                    ),
                ));
            }
        }

        // ---- CI + example cross-check --------------------------------
        let resolves = |name: &str| -> bool {
            let known = |n: &String| sites.contains_key(n.as_str());
            match name.strip_suffix('.') {
                Some(prefix) => {
                    sites.keys().any(|n| n.starts_with(name) || n == prefix)
                        || cfg
                            .synthetic_metrics
                            .iter()
                            .any(|(n, _)| n.starts_with(name) || n == prefix)
                }
                None => {
                    known(&name.to_owned()) || cfg.synthetic_metrics.iter().any(|(n, _)| n == name)
                }
            }
        };
        if !ws.ci_yaml.is_empty() {
            let lines = LineIndex::new(&ws.ci_yaml);
            for (name, off) in yaml_references(&ws.ci_yaml) {
                if !resolves(&name) {
                    let (line, col) = lines.line_col(off);
                    out.push(Finding::new(
                        self.name(),
                        ".github/workflows/ci.yml",
                        line,
                        col,
                        format!(
                            "CI asserts metric name `{name}` but no library call site \
                             registers it — dead or misspelled assert"
                        ),
                    ));
                }
            }
        }
        for ex in &ws.example_files {
            for &ti in &ex.sig {
                let t = ex.tokens[ti];
                let Some(content) = str_content(t.kind, t.text(&ex.text)) else {
                    continue;
                };
                let is_ref = match content.strip_suffix('.') {
                    Some(p) => {
                        is_dotted_metric(p)
                            || !p.contains('.') && is_dotted_metric(&format!("{p}.x"))
                    }
                    None => is_dotted_metric(content),
                };
                if is_ref
                    && !looks_like_file(content)
                    && !all_numeric(content)
                    && !resolves(content)
                {
                    out.push(finding_at(
                        self.name(),
                        ex,
                        ti,
                        format!(
                            "example references metric name `{content}` but no library \
                             call site registers it"
                        ),
                    ));
                }
            }
        }
    }
}
