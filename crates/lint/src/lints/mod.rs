//! The lint catalog and shared helpers.
//!
//! Each lint is a unit struct implementing [`Lint`]; the driver (and the
//! tier-1 `tests/static_gate.rs`) runs [`run_all`] over a
//! [`Workspace`] with a [`Config`]. Fixture tests run individual lints
//! against synthetic workspaces so each rule is provably live.

use crate::config::Config;
use crate::diag::Finding;
use crate::source::{SourceFile, Workspace};

pub mod dropped_guard;
pub mod env_knob;
pub mod hot_alloc;
pub mod metrics;
pub mod relaxed;
pub mod safety;
pub mod threads;
pub mod unwrap;

/// One static-analysis rule.
pub trait Lint {
    /// Stable kebab-case identifier, used in reports and allowlists.
    fn name(&self) -> &'static str;
    /// Appends findings for the whole workspace.
    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>);
}

/// Every lint, in report order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(safety::UnsafeSafetyComment),
        Box::new(relaxed::RelaxedOrderingComment),
        Box::new(threads::ThreadConfinement),
        Box::new(unwrap::UnwrapAudit),
        Box::new(dropped_guard::DroppedGuard),
        Box::new(metrics::MetricRegistry),
        Box::new(env_knob::EnvKnobRegistry),
        Box::new(hot_alloc::HotAlloc),
    ]
}

/// Runs every lint and returns the combined findings.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for lint in all_lints() {
        lint.check(ws, cfg, &mut out);
    }
    out
}

/// Emits a finding at token `ti` of `file`.
pub(crate) fn finding_at(
    lint: &'static str,
    file: &SourceFile,
    ti: usize,
    message: impl Into<String>,
) -> Finding {
    let (line, col) = file.tok_line_col(ti);
    Finding::new(lint, &file.rel, line, col, message)
}

/// True when `name` is a well-formed dotted metric name: two or more
/// non-empty `[a-z0-9_]` segments joined by single dots.
pub(crate) fn is_dotted_metric(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}
