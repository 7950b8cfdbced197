//! `env-knob-registry`: every `RINGO_*` environment knob read by
//! library code appears in exactly one inventory (the config's
//! [`knob table`](crate::config::Config::knob_inventory), printed by
//! `ringo-lint --knobs`) and in README's knob reference table.
//!
//! Collection is over string-literal *content* in library code (tests
//! and the config file itself excluded): any word-bounded
//! `RINGO_<NAME>` occurrence counts as a knob reference, which covers
//! direct `std::env::var("RINGO_X")` reads as well as knob names routed
//! through helpers (`env_knob("RINGO_MORSEL_ROWS", …)`) and knob names
//! printed in messages (`"ignoring invalid RINGO_THREADS…"`). An
//! all-underscore tail (`RINGO________`, binary-magic padding) is not a
//! knob.
//!
//! Three failure modes:
//! * library code references a knob missing from the inventory;
//! * an inventory entry is no longer referenced anywhere (stale —
//!   shrink the inventory);
//! * an inventory entry is missing from README's knob table.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::str_content;
use crate::lints::{finding_at, Lint};
use crate::source::Workspace;

/// See module docs.
pub struct EnvKnobRegistry;

/// Word-bounded `RINGO_[A-Z0-9_]+` occurrences in `content`, excluding
/// all-underscore tails.
pub(crate) fn knob_names(content: &str) -> Vec<String> {
    let bytes = content.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = content[i..].find("RINGO_") {
        let start = i + pos;
        let bounded = start == 0 || {
            let b = bytes[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let mut end = start + "RINGO_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let tail = &content[start + "RINGO_".len()..end];
        if bounded && !tail.is_empty() && !tail.bytes().all(|b| b == b'_') {
            out.push(content[start..end].to_owned());
        }
        i = end.max(start + 1);
    }
    out
}

impl Lint for EnvKnobRegistry {
    fn name(&self) -> &'static str {
        "env-knob-registry"
    }

    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
        let inventoried = |knob: &str| cfg.knob_inventory.iter().any(|(n, _)| n == knob);
        let mut referenced: Vec<String> = Vec::new();
        for file in &ws.lib_files {
            if cfg.scan_exempt.contains(&file.rel) {
                continue;
            }
            for &ti in &file.sig {
                let t = file.tokens[ti];
                let Some(content) = str_content(t.kind, t.text(&file.text)) else {
                    continue;
                };
                for knob in knob_names(content) {
                    if file.in_test_code(ti) {
                        continue;
                    }
                    if !inventoried(&knob) {
                        out.push(finding_at(
                            self.name(),
                            file,
                            ti,
                            format!(
                                "`{knob}` is not in the knob inventory — add it to \
                                 KNOB_INVENTORY in crates/lint/src/config.rs with a \
                                 description, and to README's knob table"
                            ),
                        ));
                    }
                    referenced.push(knob);
                }
            }
        }
        for (knob, desc) in &cfg.knob_inventory {
            if !referenced.iter().any(|k| k == knob) {
                out.push(Finding::new(
                    self.name(),
                    "crates/lint/src/config.rs",
                    1,
                    1,
                    format!(
                        "stale knob inventory entry `{knob}` ({desc}): no library code \
                         references it any more — remove the entry and the README row"
                    ),
                ));
            } else if !ws.readme.contains(knob.as_str()) {
                out.push(Finding::new(
                    self.name(),
                    "README.md",
                    1,
                    1,
                    format!("knob `{knob}` ({desc}) is missing from README's knob table"),
                ));
            }
        }
    }
}
