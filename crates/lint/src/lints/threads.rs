//! `thread-confinement`: ad-hoc thread creation is forbidden outside
//! the worker pool. Everything else must go through the pool so work
//! is bounded by its worker count and observable in pool stats.
//!
//! Token-aware re-implementation of PR 4's rule 3: matches the
//! significant-token sequences `thread :: spawn` and
//! `thread :: Builder`, so mentions in strings and comments no longer
//! count.

use crate::config::Config;
use crate::diag::Finding;
use crate::lints::{finding_at, Lint};
use crate::source::Workspace;

/// See module docs.
pub struct ThreadConfinement;

fn allowed(cfg: &Config, rel: &str) -> bool {
    cfg.thread_spawn_allow.iter().any(|a| {
        if a.ends_with('/') {
            rel.starts_with(a.as_str())
        } else {
            rel == a
        }
    })
}

impl Lint for ThreadConfinement {
    fn name(&self) -> &'static str {
        "thread-confinement"
    }

    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
        for file in &ws.lib_files {
            if allowed(cfg, &file.rel) {
                continue;
            }
            for p in 0..file.sig.len() {
                let hit = file.sig_matches(p, &["thread", "::", "spawn"])
                    || file.sig_matches(p, &["thread", "::", "Builder"]);
                if !hit {
                    continue;
                }
                let ti = match file.sig_tok(p) {
                    Some(t) => t,
                    None => continue,
                };
                if file.in_test_code(ti) {
                    continue;
                }
                out.push(finding_at(
                    self.name(),
                    file,
                    ti,
                    "ad-hoc thread creation outside the worker pool \
                     (route work through ringo_concurrent::pool so it is bounded and \
                     observable)",
                ));
            }
        }
    }
}
