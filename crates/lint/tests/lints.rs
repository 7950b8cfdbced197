//! Every lint is provably live: for each rule there is a fixture that
//! trips it and a control that passes it, run against synthetic
//! workspaces ([`Workspace::synthetic`]) with [`Config::empty`] (or a
//! minimal config exercising the allowlist path). Deleting a lint's
//! implementation makes its trip test fail — the catalog cannot decay
//! silently. The freshness tests pin the shrink-only allowlist policy:
//! an entry that stops suppressing anything becomes a finding itself.

use ringo_lint::{run_all, Config, Finding, Workspace};

const LIB: &str = "crates/fixture/src/lib.rs";

fn findings_of(ws: &Workspace, cfg: &Config, lint: &str) -> Vec<Finding> {
    run_all(ws, cfg)
        .into_iter()
        .filter(|f| f.lint == lint)
        .collect()
}

fn lib_ws(text: &str) -> Workspace {
    Workspace::synthetic(&[(LIB, text)], "", "", &[])
}

// ---------------------------------------------------------------- safety

#[test]
fn safety_trips_on_unannotated_unsafe() {
    let ws = lib_ws(include_str!("fixtures/safety_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "unsafe-safety-comment");
    assert!(!f.is_empty(), "unannotated `unsafe` must trip");
    assert_eq!(f[0].file, LIB);
}

#[test]
fn safety_passes_with_annotation() {
    let ws = lib_ws(include_str!("fixtures/safety_pass.rs"));
    let f = findings_of(&ws, &Config::empty(), "unsafe-safety-comment");
    assert!(f.is_empty(), "annotated `unsafe` must pass: {f:?}");
}

// --------------------------------------------------------------- relaxed

#[test]
fn relaxed_trips_on_unannotated_relaxed() {
    let ws = lib_ws(include_str!("fixtures/relaxed_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "relaxed-ordering-comment");
    assert!(!f.is_empty(), "unannotated `Ordering::Relaxed` must trip");
}

#[test]
fn relaxed_passes_with_annotation() {
    let ws = lib_ws(include_str!("fixtures/relaxed_pass.rs"));
    let f = findings_of(&ws, &Config::empty(), "relaxed-ordering-comment");
    assert!(
        f.is_empty(),
        "annotated `Ordering::Relaxed` must pass: {f:?}"
    );
}

// --------------------------------------------------------------- threads

#[test]
fn threads_trip_outside_allowlist() {
    let ws = lib_ws(include_str!("fixtures/threads_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "thread-confinement");
    assert!(!f.is_empty(), "spawn outside the allowlist must trip");
}

#[test]
fn threads_pass_inside_allowlist() {
    let ws = lib_ws(include_str!("fixtures/threads_pass.rs"));
    let mut cfg = Config::empty();
    cfg.thread_spawn_allow.push(LIB.to_owned());
    let f = findings_of(&ws, &cfg, "thread-confinement");
    assert!(f.is_empty(), "allowlisted spawn must pass: {f:?}");
}

#[test]
fn threads_prefix_entries_match_directories() {
    let ws = lib_ws(include_str!("fixtures/threads_pass.rs"));
    let mut cfg = Config::empty();
    cfg.thread_spawn_allow.push("crates/fixture/".to_owned());
    let f = findings_of(&ws, &cfg, "thread-confinement");
    assert!(f.is_empty(), "directory-prefix allowlist must match: {f:?}");
}

// ---------------------------------------------------------------- unwrap

#[test]
fn unwrap_trips_outside_allowlist() {
    let ws = lib_ws(include_str!("fixtures/unwrap_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "unwrap-audit");
    assert!(!f.is_empty(), "unaudited `.unwrap()` must trip");
}

#[test]
fn unwrap_passes_with_audited_entry() {
    let ws = lib_ws(include_str!("fixtures/unwrap_pass.rs"));
    let mut cfg = Config::empty();
    cfg.unwrap_allow
        .push((LIB.to_owned(), "audited".to_owned()));
    let f = findings_of(&ws, &cfg, "unwrap-audit");
    assert!(f.is_empty(), "audited `.unwrap()` must pass: {f:?}");
}

#[test]
fn unwrap_allowlist_entries_go_stale() {
    // An entry for a file with no live uses, and one for a file that no
    // longer exists: both must surface as freshness findings.
    let ws = lib_ws("pub fn clean() {}\n");
    let mut cfg = Config::empty();
    cfg.unwrap_allow
        .push((LIB.to_owned(), "was audited".to_owned()));
    cfg.unwrap_allow.push((
        "crates/gone/src/lib.rs".to_owned(),
        "file removed".to_owned(),
    ));
    let f = findings_of(&ws, &cfg, "unwrap-audit");
    assert_eq!(f.len(), 2, "both stale entries must be findings: {f:?}");
}

// --------------------------------------------------------- dropped-guard

#[test]
fn dropped_guard_trips_on_both_forms() {
    let ws = lib_ws(include_str!("fixtures/dropped_guard_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "dropped-guard");
    assert_eq!(
        f.len(),
        2,
        "bare `span!(…);` and `let _ = Span::enter(…);` must both trip: {f:?}"
    );
}

#[test]
fn dropped_guard_passes_named_bindings() {
    let ws = lib_ws(include_str!("fixtures/dropped_guard_pass.rs"));
    let f = findings_of(&ws, &Config::empty(), "dropped-guard");
    assert!(
        f.is_empty(),
        "underscore-prefixed bindings must pass: {f:?}"
    );
}

// ------------------------------------------------------- metric-registry

#[test]
fn metrics_trip_on_format_duplicates_and_dead_ci_assert() {
    let ws = Workspace::synthetic(
        &[(LIB, include_str!("fixtures/metrics_trip.rs"))],
        "",
        "      - run: grep -q \"ghost.metric\" trace.json\n",
        &[],
    );
    let f = findings_of(&ws, &Config::empty(), "metric-registry");
    let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`BadName`")),
        "malformed name must trip: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`fixture.dup`")),
        "duplicate call sites must trip: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`ghost.metric`")),
        "dead CI assert must trip: {msgs:?}"
    );
}

#[test]
fn metrics_pass_with_unique_names_and_resolving_asserts() {
    let ws = Workspace::synthetic(
        &[(LIB, include_str!("fixtures/metrics_pass.rs"))],
        "",
        "      - run: grep -q \"fixture.scan\" trace.json\n      - run: grep -q \"fixture.\" trace.json\n",
        &[],
    );
    let f = findings_of(&ws, &Config::empty(), "metric-registry");
    assert!(
        f.is_empty(),
        "unique dotted names + live asserts pass: {f:?}"
    );
}

#[test]
fn metrics_shared_allowlist_suppresses_and_goes_stale() {
    let trip = include_str!("fixtures/metrics_trip.rs");
    // Allowlisting the duplicated name suppresses the uniqueness finding.
    let ws = lib_ws(trip);
    let mut cfg = Config::empty();
    cfg.shared_metric_allow.push((
        "fixture.dup".to_owned(),
        "two passes of one kernel".to_owned(),
    ));
    let f = findings_of(&ws, &cfg, "metric-registry");
    assert!(
        !f.iter().any(|x| x.message.contains("`fixture.dup`")),
        "allowlisted duplicate must be suppressed: {f:?}"
    );
    // With only one call site left, the same entry is stale.
    let ws = lib_ws(include_str!("fixtures/metrics_pass.rs"));
    let f = findings_of(&ws, &cfg, "metric-registry");
    assert!(
        f.iter().any(|x| x.message.contains("stale shared-metric")),
        "entry with <2 sites must be stale: {f:?}"
    );
}

#[test]
fn metrics_example_references_are_cross_checked() {
    let ws = Workspace::synthetic(
        &[(LIB, include_str!("fixtures/metrics_pass.rs"))],
        "",
        "",
        &[(
            "examples/demo.rs",
            "fn main() { assert_present(\"fixture.scan\"); assert_present(\"ghost.name\"); }\n",
        )],
    );
    let f = findings_of(&ws, &Config::empty(), "metric-registry");
    assert!(
        f.iter().any(|x| x.message.contains("`ghost.name`")),
        "dead example reference must trip: {f:?}"
    );
    assert!(
        !f.iter().any(|x| x.message.contains("`fixture.scan`")),
        "registered name referenced by the example must pass: {f:?}"
    );
}

// ----------------------------------------------------- env-knob-registry

#[test]
fn env_knob_trips_on_uninventoried_knob() {
    let ws = lib_ws(include_str!("fixtures/env_knob_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "env-knob-registry");
    assert_eq!(f.len(), 1, "uninventoried knob must trip once: {f:?}");
    assert!(f[0].message.contains("RINGO_FIXTURE_THREADS"));
}

#[test]
fn env_knob_passes_when_inventoried_and_documented() {
    let ws = Workspace::synthetic(
        &[(LIB, include_str!("fixtures/env_knob_pass.rs"))],
        "| `RINGO_FIXTURE_THREADS` | fixture knob |\n",
        "",
        &[],
    );
    let mut cfg = Config::empty();
    cfg.knob_inventory.push((
        "RINGO_FIXTURE_THREADS".to_owned(),
        "fixture knob".to_owned(),
    ));
    let f = findings_of(&ws, &cfg, "env-knob-registry");
    assert!(f.is_empty(), "inventoried + documented knob passes: {f:?}");
}

#[test]
fn env_knob_inventory_goes_stale_and_readme_is_required() {
    // Inventoried but never read: stale. Read + inventoried but not in
    // README: a README finding.
    let ws = lib_ws(include_str!("fixtures/env_knob_pass.rs"));
    let mut cfg = Config::empty();
    cfg.knob_inventory.push((
        "RINGO_FIXTURE_THREADS".to_owned(),
        "fixture knob".to_owned(),
    ));
    cfg.knob_inventory
        .push(("RINGO_NEVER_READ".to_owned(), "dead knob".to_owned()));
    let f = findings_of(&ws, &cfg, "env-knob-registry");
    assert!(
        f.iter().any(|x| x
            .message
            .contains("stale knob inventory entry `RINGO_NEVER_READ`")),
        "unreferenced inventory entry must be stale: {f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.file == "README.md" && x.message.contains("RINGO_FIXTURE_THREADS")),
        "knob missing from README must be a finding: {f:?}"
    );
}

#[test]
fn env_knob_ignores_magic_padding_tails() {
    // The io.rs bad-magic fixture shape: `NOTRINGO________` — `RINGO_`
    // glued to a word on the left and an all-underscore tail on the
    // right. Neither side makes it a knob.
    let ws = lib_ws("pub const BAD: &[u8; 16] = b\"NOTRINGO________\";\n");
    let f = findings_of(&ws, &Config::empty(), "env-knob-registry");
    assert!(f.is_empty(), "magic padding is not a knob: {f:?}");
}

// ------------------------------------------------------------- hot-alloc

#[test]
fn hot_alloc_trips_on_vec_new_in_hot_fn() {
    let ws = lib_ws(include_str!("fixtures/hot_alloc_trip.rs"));
    let f = findings_of(&ws, &Config::empty(), "hot-alloc");
    assert_eq!(f.len(), 1, "Vec::new in a hot kernel must trip: {f:?}");
    assert!(f[0].message.contains("`collect_even`"));
}

#[test]
fn hot_alloc_passes_presized_buffers() {
    let ws = lib_ws(include_str!("fixtures/hot_alloc_pass.rs"));
    let f = findings_of(&ws, &Config::empty(), "hot-alloc");
    assert!(f.is_empty(), "with_capacity in a hot kernel passes: {f:?}");
}

#[test]
fn hot_alloc_flags_annotation_without_function() {
    let ws = lib_ws("// LINT: hot\npub const N: usize = 4;\n");
    let f = findings_of(&ws, &Config::empty(), "hot-alloc");
    assert_eq!(f.len(), 1, "dangling annotation must be a finding: {f:?}");
    assert!(f[0].message.contains("no function"));
}

#[test]
fn hot_alloc_ignores_doc_comment_mentions() {
    // Prose like this crate's own lint table must not create hot regions.
    let ws = lib_ws(
        "//! The `// LINT: hot` annotation marks kernels.\npub fn f() -> Vec<u32> { Vec::new() }\n",
    );
    let f = findings_of(&ws, &Config::empty(), "hot-alloc");
    assert!(
        f.is_empty(),
        "doc-comment mention is not an annotation: {f:?}"
    );
}

// ----------------------------------------------------------- whole-suite

#[test]
fn test_code_is_exempt_everywhere() {
    // The same violations that trip in library code are exempt past the
    // `#[cfg(test)]` cutoff (workspace convention: test modules last).
    let src = "\
pub fn lib_code() {}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::thread;

    #[test]
    fn helper() {
        let x = AtomicU32::new(0);
        x.load(Ordering::Relaxed);
        x.store(1, Ordering::Release);
        thread::spawn(|| {}).join().unwrap();
        ringo_trace::span!(\"test.span\");
    }
}
";
    let ws = lib_ws(src);
    let f = run_all(&ws, &Config::empty());
    assert!(
        f.is_empty(),
        "test code must be exempt from every lint: {f:?}"
    );
}
