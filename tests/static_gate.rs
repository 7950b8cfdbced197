//! Tier-1 static-analysis gate, driven by `ringo-lint` (`crates/lint`).
//!
//! PR 4 shipped this gate as a line-based tripwire; it is now a thin
//! driver over the token-aware analyzer, which enforces the same four
//! source rules plus the observability/concurrency lints the line scan
//! could not express:
//!
//! * `unsafe-safety-comment` — every `unsafe` token carries `// SAFETY:`
//!   (or a `# Safety` doc heading) within the lookback window;
//! * `relaxed-ordering-comment` — every `Ordering::Relaxed` carries
//!   `// ORDERING:` explaining why no synchronization edge is needed;
//! * `thread-confinement` — `thread::spawn`/`Builder` only in the
//!   worker pool;
//! * `unwrap-audit` — `.unwrap()`/`.expect(` only in audited files;
//! * `dropped-guard` — no span guards destroyed on the spot;
//! * `metric-registry` — span/counter names dotted, unique per call
//!   site, and cross-checked against the names CI asserts;
//! * `env-knob-registry` — every `RINGO_*` knob inventoried and in
//!   README's knob table;
//! * `hot-alloc` — no allocation idioms inside `// LINT: hot` kernels.
//!
//! Being token-aware buys exactness the line scan lacked: `unsafe` in a
//! string literal is data, `SAFETY:` inside a doc example is prose, and
//! everything at or past a file's first `#[cfg(test)]` token is exempt
//! (the workspace keeps test modules last). Allowlists live in
//! [`ringo_lint::Config::project`] and are shrink-only: each entry
//! records its audit reason, and a stale entry is itself a finding
//! (enforced by the per-lint freshness checks, so the lists cannot
//! accrete). Per-lint tests below keep failures attributable; the
//! fixture suite in `crates/lint/tests/` proves every rule live.

use std::path::Path;

use ringo_lint::{render_human, Config, Finding, Workspace};

/// This integration test runs with the workspace root as its manifest dir.
fn load_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Workspace::load(root).expect("workspace sources must be readable")
}

/// Runs the full catalog once and returns the findings of one lint.
fn findings_of(lint: &str) -> Vec<Finding> {
    let ws = load_workspace();
    let cfg = Config::project();
    ringo_lint::run_all(&ws, &cfg)
        .into_iter()
        .filter(|f| f.lint == lint)
        .collect()
}

fn assert_clean(lint: &str) {
    let f = findings_of(lint);
    assert!(
        f.is_empty(),
        "static gate failed ({} finding{}):\n{}",
        f.len(),
        if f.len() == 1 { "" } else { "s" },
        render_human(&f)
    );
}

#[test]
fn unsafe_blocks_have_safety_comments() {
    assert_clean("unsafe-safety-comment");
}

#[test]
fn relaxed_orderings_are_justified() {
    assert_clean("relaxed-ordering-comment");
}

#[test]
fn thread_spawn_only_in_pool() {
    assert_clean("thread-confinement");
}

#[test]
fn no_unannotated_unwrap_in_library_code() {
    // Covers allowlist freshness too: a stale entry is a finding of the
    // same lint, so the list can only shrink.
    assert_clean("unwrap-audit");
}

#[test]
fn span_guards_are_never_dropped_on_the_spot() {
    assert_clean("dropped-guard");
}

#[test]
fn metric_names_are_dotted_unique_and_ci_checked() {
    assert_clean("metric-registry");
}

#[test]
fn env_knobs_are_inventoried_and_documented() {
    assert_clean("env-knob-registry");
}

#[test]
fn hot_kernels_do_not_allocate_per_element() {
    assert_clean("hot-alloc");
}

/// The whole catalog at once — the same run CI performs via
/// `cargo run --release -p ringo-lint -- --workspace`. Also pins that
/// the catalog actually contains every lint the per-rule tests name
/// (a typo'd name would otherwise filter to an empty, always-green set).
#[test]
fn full_lint_run_is_clean_and_catalog_is_complete() {
    let ws = load_workspace();
    let cfg = Config::project();
    let findings = ringo_lint::run_all(&ws, &cfg);
    assert!(
        findings.is_empty(),
        "ringo-lint found violations:\n{}",
        render_human(&findings)
    );

    let lints = ringo_lint::all_lints();
    let names: Vec<&str> = lints.iter().map(|l| l.name()).collect();
    for expected in [
        "unsafe-safety-comment",
        "relaxed-ordering-comment",
        "thread-confinement",
        "unwrap-audit",
        "dropped-guard",
        "metric-registry",
        "env-knob-registry",
        "hot-alloc",
    ] {
        assert!(
            names.contains(&expected),
            "lint `{expected}` missing from catalog"
        );
    }

    // The workspace loader must actually be looking at the sources: a
    // wrong root would vacuously pass every rule above.
    assert!(
        ws.lib_files
            .iter()
            .any(|f| f.rel == "crates/lint/src/lib.rs"),
        "workspace load missed the lint crate itself"
    );
    assert!(
        !ws.ci_yaml.is_empty() && !ws.readme.is_empty(),
        "workspace load missed README/ci.yml"
    );
}
