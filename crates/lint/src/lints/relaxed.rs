//! `relaxed-ordering-comment`: every `Ordering::Relaxed` use must carry
//! a `// ORDERING:` comment in the lookback window explaining why no
//! synchronization edge is required.
//!
//! Stronger orderings are self-documenting (they claim an edge);
//! `Relaxed` claims the *absence* of one, which no test can prove by
//! running it — so the source must say why it believes it. Token-aware:
//! `Ordering::Relaxed` inside strings, comments, or `#[cfg(test)]` code
//! is ignored.

use crate::config::Config;
use crate::diag::Finding;
use crate::lints::{finding_at, Lint};
use crate::source::Workspace;

/// See module docs.
pub struct RelaxedOrderingComment;

impl Lint for RelaxedOrderingComment {
    fn name(&self) -> &'static str {
        "relaxed-ordering-comment"
    }

    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
        for file in &ws.lib_files {
            for p in 0..file.sig.len() {
                if !file.sig_matches(p, &["Ordering", "::", "Relaxed"]) {
                    continue;
                }
                let ti = match file.sig_tok(p + 2) {
                    Some(t) => t,
                    None => continue,
                };
                if file.in_test_code(ti) {
                    continue;
                }
                let (line, _) = file.tok_line_col(ti);
                if !file.annotated(line, cfg.lookback, &["ORDERING:"]) {
                    out.push(finding_at(
                        self.name(),
                        file,
                        ti,
                        format!(
                            "`Ordering::Relaxed` without a `// ORDERING:` justification \
                             within {} lines (Relaxed claims the *absence* of a needed \
                             edge; say why)",
                            cfg.lookback
                        ),
                    ));
                }
            }
        }
    }
}
