//! `bench_e2e` — Ringo-rs measured end to end, one interactive session at a
//! time. See `README.md` beside this package for what each metric and
//! workload means; `BENCHMARK.json` at the repository root is the contract.
//!
//! One closed-loop client drives the engine through the public
//! `ringo_core::Ringo` facade. Per workload: set-up (timed, repeated),
//! oracle answers (untimed), one warm-up session, then either the
//! end-to-end pass (sessions with no clock read inside them) or the traced
//! pass (untraced and traced sessions alternating, so the pair difference
//! is the tracing overhead), or both.

mod host;
mod json;
mod oracle;
mod spans;
mod stats;
mod workloads;

use json::Json;
use ringo_core::{mem, Ringo};
use spans::{Layer, Observation, Recorder, Span};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Expected, Spec, Want, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

/// Bytes per MB, the repository's convention (`mem::format_bytes`).
const MB: f64 = 1024.0 * 1024.0;

/// `(name, unit, bound)`: what a user of the system sees. `bound` is the
/// share of the median by which a later change may worsen the metric.
const END_TO_END: [(&str, &str, f64); 3] = [
    ("session_s", "s", 0.25),
    ("peak_heap_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
];

/// `(name, unit)` of every per-layer metric, in report order.
const PER_LAYER: [(&str, &str); 22] = [
    ("io.busy_s", "s"),
    ("io.mb_per_s", "MB/s"),
    ("table.busy_s", "s"),
    ("table.rows_per_s", "rows/s"),
    ("convert.busy_s", "s"),
    ("convert.edges_per_s", "edges/s"),
    ("algo.busy_s", "s"),
    ("algo.edges_per_s", "edges/s"),
    ("algo.pagerank_s", "s"),
    ("algo.bfs_s", "s"),
    ("algo.scc_s", "s"),
    ("algo.wcc_s", "s"),
    ("algo.kcore_s", "s"),
    ("algo.sssp_s", "s"),
    ("algo.triangles_s", "s"),
    ("graph.busy_s", "s"),
    ("graph.mutations_per_s", "1/s"),
    ("core.busy_s", "s"),
    ("core.publishes", "count"),
    ("core.versions_freed", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// The span name behind each `algo.<kernel>_s` sub-figure.
const KERNEL_SPANS: [(&str, &str); 7] = [
    ("algo.pagerank_s", "pagerank"),
    ("algo.bfs_s", "bfs"),
    ("algo.scc_s", "scc"),
    ("algo.wcc_s", "wcc"),
    ("algo.kcore_s", "k_core"),
    ("algo.sssp_s", "sssp_unweighted"),
    ("algo.triangles_s", "count_triangles"),
];

/// Seconds one pass measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 10.0;
/// A pass never stops before this many timed sessions, so the quartiles
/// always rest on a sample of the same minimum size.
const MIN_SESSIONS: usize = 7;
/// Set-up is done this many times per run and `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// The traced pass runs at least this many untraced/traced pairs.
const MIN_TRACED_PAIRS: usize = 2;
const SMOKE_SHRINK: u32 = 32;
const SMOKE_SESSIONS: usize = 2;
/// More unexplained session time than this share is printed as a finding.
const UNATTRIBUTED_LIMIT: f64 = 0.05;

const USAGE: &str = "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke]
  --workload NAME  run one workload (default: all six)
  --seed N         seed every input is generated from (default 42)
  --seconds S      seconds each pass measures (default 10; at least 7 sessions regardless)
  --trace 0|1      0: end-to-end pass only; 1: traced pass only (default: both)
  --repeat N       run the whole set N times and fail if two runs differ by more than a metric's bound
  --smoke          every scale / 32 and 2 sessions, for tests; the result is marked and not comparable";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes.
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: None,
        repeat: 1,
        smoke: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke && args.repeat > 1 {
        return Err("--smoke results are not comparable, so --repeat refuses them".to_string());
    }
    Ok(args)
}

/// Where result, trace and generated input files go: inside cargo's target
/// directory, which the checkout ignores.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("bench_e2e")
}

/// One layer's figures over the traced sessions of one workload.
struct LayerStat {
    layer: Layer,
    calls: u64,
    busy_s: f64,
    items_in: u64,
    items_out: u64,
}

impl LayerStat {
    /// Input items per busy second; 0 for a layer the workload never calls.
    fn rate(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.items_in as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

/// The traced pass of one workload. Every time is a median over sessions.
struct Traced {
    pairs: usize,
    untraced_session_s: f64,
    traced_session_s: f64,
    /// Indexed like [`Layer::ENGINE`].
    layers: [LayerStat; 6],
    /// `algo.<kernel>_s` values, in [`KERNEL_SPANS`] order.
    kernels_s: Vec<f64>,
    publishes: u64,
    versions_freed: u64,
    unattributed_s: f64,
}

impl Traced {
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_session_s - self.untraced_session_s) / self.untraced_session_s
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    fn metrics(&self) -> Vec<f64> {
        let [io, table, convert, algo, graph, core] = &self.layers;
        let mut values = vec![
            io.busy_s,
            io.rate() / MB,
            table.busy_s,
            table.rate(),
            convert.busy_s,
            convert.rate(),
            algo.busy_s,
            algo.rate(),
        ];
        values.extend(&self.kernels_s);
        values.extend([
            graph.busy_s,
            graph.rate(),
            core.busy_s,
            self.publishes as f64,
            self.versions_freed as f64,
            self.unattributed_s,
            self.overhead_pct(),
        ]);
        values
    }

    fn summarise(untraced_s: &[f64], spans: &[Span]) -> Self {
        let own = spans::self_times_ns(spans);
        let rolls = spans::rollup(spans);
        let secs = |ns: u64| ns as f64 / 1e9;
        let median_of = |f: &dyn Fn(&spans::SessionRollup) -> u64| {
            stats::median(&rolls.iter().map(|r| secs(f(r))).collect::<Vec<_>>())
        };
        // Calls and items are the same in every session; take the first.
        let first = &rolls[0];
        let layers = std::array::from_fn(|i| LayerStat {
            layer: Layer::ENGINE[i],
            calls: first.layers[i].calls,
            busy_s: median_of(&|r| r.layers[i].busy_ns),
            items_in: first.layers[i].items_in,
            items_out: first.layers[i].items_out,
        });
        let named = |session: u32, name: &'static str| {
            spans
                .iter()
                .filter(move |s| s.session == session && s.name == name)
        };
        let kernels_s = KERNEL_SPANS
            .iter()
            .map(|&(_, name)| {
                median_of(&|r| named(r.session, name).map(|s| own[s.id as usize]).sum())
            })
            .collect();
        Self {
            pairs: untraced_s.len(),
            untraced_session_s: stats::median(untraced_s),
            traced_session_s: median_of(&|r| r.wall_ns),
            layers,
            kernels_s,
            publishes: named(first.session, "publish_graph").count() as u64,
            versions_freed: named(first.session, "catalog_gc")
                .map(|s| s.items_out)
                .sum(),
            unattributed_s: median_of(&|r| r.unattributed_ns),
        }
    }
}

/// Everything one run learned about one workload.
struct Outcome {
    name: &'static str,
    items: (u64, &'static str),
    input_bytes: usize,
    setup_s: Summary,
    session_s: Summary,
    peak_heap_bytes: usize,
    /// Checked verb outputs over all timed sessions, and how many failed.
    verbs: u64,
    failed_verbs: u64,
    failures: Vec<String>,
    traced: Option<Traced>,
}

impl Outcome {
    fn end_to_end(&self) -> [f64; 3] {
        [
            self.session_s.median,
            self.peak_heap_bytes as f64 / MB,
            self.setup_s.median,
        ]
    }
}

/// Holds `got` to `expected`, returning how many verbs failed and
/// describing the first few in `failures`.
fn grade(
    expected: &[Expected],
    warmup: &[Observation],
    got: &[Observation],
    session: usize,
    failures: &mut Vec<String>,
) -> u64 {
    let mut fail = |message: String| {
        if failures.len() < 8 {
            failures.push(format!("session {session}: {message}"));
        }
    };
    if got.len() != expected.len() || warmup.len() != expected.len() {
        fail(format!(
            "{} observations where {} were expected",
            got.len(),
            expected.len()
        ));
        return expected.len() as u64;
    }
    let mut failed = 0;
    for (i, ((verb, want), seen)) in expected.iter().zip(got).enumerate() {
        let want = match *want {
            Want::Exactly(value) => value,
            Want::SameEverySession => warmup[i].value,
        };
        if seen.verb != *verb || seen.value != want {
            failed += 1;
            fail(format!(
                "verb #{i} {verb}: got {}={}, want {want}",
                seen.verb, seen.value
            ));
        }
    }
    failed
}

/// One session against a fresh context: wall seconds and peak heap bytes,
/// with the session's observations left in `rec`.
fn run_session(workload: &dyn Workload, rec: &mut Recorder, traced: bool) -> (f64, usize) {
    let ringo = Ringo::with_threads(host::threads());
    workload.prepare(&ringo);
    mem::reset_peak();
    let wall = rec.session(traced, |rec| workload.session(&ringo, rec));
    (wall.as_secs_f64(), mem::peak_bytes())
}

fn run_workload(spec: &Spec, args: &Args, dir: &Path) -> std::io::Result<Outcome> {
    let shrink = if args.smoke { SMOKE_SHRINK } else { 1 };
    let end_to_end = args.trace != Some(true);
    let traced = args.trace != Some(false);
    std::fs::create_dir_all(dir)?;

    let setup_ringo = Ringo::with_threads(host::threads());
    let repeats = if end_to_end && !args.smoke {
        SETUP_REPEATS
    } else {
        1
    };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..repeats {
        drop(workload.take());
        let start = Instant::now();
        workload = Some((spec.setup)(&setup_ringo, args.seed, shrink, dir));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set-up ran at least once");
    let expected = workload.expected();
    let workload = &*workload;

    let mut rec = Recorder::new();
    run_session(workload, &mut rec, false);
    let warmup = rec.observations.clone();
    // The warm-up is not counted: what it gets wrong, every timed session
    // gets wrong too. Grading it only puts its report first.
    let mut failures = Vec::new();
    grade(&expected, &warmup, &warmup, 0, &mut failures);

    let (mut session_s, mut peak_heap_bytes) = (Vec::new(), 0);
    let (mut sessions, mut failed_verbs) = (0, 0);
    let mut timed = |rec: &mut Recorder, traced: bool, failures: &mut Vec<String>| {
        let (wall, peak) = run_session(workload, rec, traced);
        sessions += 1;
        failed_verbs += grade(&expected, &warmup, &rec.observations, sessions, failures);
        (wall, peak)
    };

    if end_to_end {
        let start = Instant::now();
        let another = |done: usize| match args.smoke {
            true => done < SMOKE_SESSIONS,
            false => done < MIN_SESSIONS || start.elapsed().as_secs_f64() < args.seconds,
        };
        while another(session_s.len()) {
            let (wall, peak) = timed(&mut rec, false, &mut failures);
            session_s.push(wall);
            peak_heap_bytes = peak_heap_bytes.max(peak);
        }
    }

    let mut traced_report = None;
    if traced {
        let full_window = args.trace == Some(true) && !args.smoke;
        let mut untraced_s = Vec::new();
        let start = Instant::now();
        while untraced_s.len() < MIN_TRACED_PAIRS
            || (full_window && start.elapsed().as_secs_f64() < args.seconds)
        {
            let (wall, peak) = timed(&mut rec, false, &mut failures);
            untraced_s.push(wall);
            peak_heap_bytes = peak_heap_bytes.max(peak);
            timed(&mut rec, true, &mut failures);
        }
        if !end_to_end {
            session_s.clone_from(&untraced_s);
        }
        std::fs::write(
            dir.join(format!("trace_{}.json", spec.name)),
            spans::trace_json(spec.name, args.seed, &rec.spans).render(),
        )?;
        traced_report = Some(Traced::summarise(&untraced_s, &rec.spans));
    }

    Ok(Outcome {
        name: spec.name,
        items: workload.items(),
        input_bytes: workload.input_bytes(),
        setup_s: Summary::of(&setup_s),
        session_s: Summary::of(&session_s),
        peak_heap_bytes,
        verbs: sessions as u64 * expected.len() as u64,
        failed_verbs,
        failures,
        traced: traced_report,
    })
}

fn print_outcome(o: &Outcome) {
    let timing = |name: &str, s: &Summary| {
        println!(
            "{:<14} {name:<12} median {:.4} s   q1 {:.4}  q3 {:.4}  (iqr {:.1}%)  min {:.4}  max {:.4}  n {}",
            o.name,
            s.median,
            s.q1,
            s.q3,
            100.0 * s.iqr_share(),
            s.min,
            s.max,
            s.n
        );
    };
    timing("session_s", &o.session_s);
    let (items, unit) = o.items;
    println!(
        "{:<14} {:<12} {:.0} {unit}/s   ({items} {unit} per session)",
        o.name,
        "items_per_s",
        items as f64 / o.session_s.median
    );
    println!(
        "{:<14} {:<12} {:.2} MB   ({:.2}x the input's mem_size of {:.2} MB)",
        o.name,
        "peak_heap_mb",
        o.peak_heap_bytes as f64 / MB,
        o.peak_heap_bytes as f64 / o.input_bytes as f64,
        o.input_bytes as f64 / MB
    );
    timing("setup_s", &o.setup_s);
    println!(
        "{:<14} {:<12} {} / {}",
        o.name, "failed_verbs", o.failed_verbs, o.verbs
    );
    for failure in &o.failures {
        println!("{:<14} FAILED {failure}", o.name);
    }
    let Some(t) = &o.traced else { return };
    println!(
        "{:<14} traced pass: {} untraced/traced pairs, session {:.4} s untraced, {:.4} s traced",
        o.name, t.pairs, t.untraced_session_s, t.traced_session_s
    );
    for l in &t.layers {
        println!(
            "{:<14}   {:<8} calls {:>3}  busy {:.4} s ({:>5.1}%)  in {:>10}  out {:>10}",
            o.name,
            l.layer.name(),
            l.calls,
            l.busy_s,
            100.0 * l.busy_s / t.traced_session_s,
            l.items_in,
            l.items_out
        );
    }
    for ((name, unit), value) in PER_LAYER.iter().zip(t.metrics()) {
        println!("{:<14}   {name:<24} {value:.6} {unit}", o.name);
    }
    if t.unattributed_s > UNATTRIBUTED_LIMIT * t.traced_session_s {
        println!(
            "{:<14} WARNING unattributed_s is {:.1}% of the session, above {:.0}%: a finding",
            o.name,
            100.0 * t.unattributed_s / t.traced_session_s,
            100.0 * UNATTRIBUTED_LIMIT
        );
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let mut fields = vec![
        ("name", Json::str(o.name)),
        ("items", Json::Num(o.items.0 as f64)),
        ("items_unit", Json::str(o.items.1)),
        ("input_mb", Json::Num(o.input_bytes as f64 / MB)),
        ("session_s", o.session_s.to_json()),
        (
            "items_per_s",
            Json::Num(o.items.0 as f64 / o.session_s.median),
        ),
        ("peak_heap_mb", Json::Num(o.peak_heap_bytes as f64 / MB)),
        (
            "peak_over_input",
            Json::Num(o.peak_heap_bytes as f64 / o.input_bytes as f64),
        ),
        ("setup_s", o.setup_s.to_json()),
        ("verbs", Json::Num(o.verbs as f64)),
        ("failed_verbs", Json::Num(o.failed_verbs as f64)),
        (
            "failures",
            Json::Arr(o.failures.iter().map(Json::str).collect()),
        ),
    ];
    if let Some(t) = &o.traced {
        let layers = t.layers.iter().map(|l| {
            Json::obj([
                ("layer", Json::str(l.layer.name())),
                ("calls", Json::Num(l.calls as f64)),
                ("busy_s", Json::Num(l.busy_s)),
                ("share_of_session", Json::Num(l.busy_s / t.traced_session_s)),
                ("items_in", Json::Num(l.items_in as f64)),
                ("items_out", Json::Num(l.items_out as f64)),
            ])
        });
        fields.push((
            "traced",
            Json::obj([
                ("pairs", Json::Num(t.pairs as f64)),
                ("untraced_session_s", Json::Num(t.untraced_session_s)),
                ("traced_session_s", Json::Num(t.traced_session_s)),
                ("layers", Json::Arr(layers.collect())),
                (
                    "metrics",
                    Json::Obj(metric_fields("", PER_LAYER, t.metrics())),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

/// `("<prefix><name>", {"value": .., "unit": ..})` per metric.
fn metric_fields(
    prefix: &str,
    names_units: impl IntoIterator<Item = (&'static str, &'static str)>,
    values: impl IntoIterator<Item = f64>,
) -> Vec<(String, Json)> {
    names_units
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| (format!("{prefix}{name}"), Json::metric(value, unit)))
        .collect()
}

/// Across the runs of `--repeat`, each end-to-end metric's largest
/// difference between two runs as a share of the smaller one. Returns the
/// rows and whether every one stays within its bound.
fn spreads(runs: &[Vec<Outcome>]) -> (Vec<Json>, bool) {
    let mut rows = Vec::new();
    let mut within = true;
    for w in 0..runs[0].len() {
        for (m, (metric, _, bound)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[w].end_to_end()[m]).collect();
            let s = Summary::of(&values);
            let spread = (s.max - s.min) / s.min;
            let ok = spread <= *bound;
            within &= ok;
            println!(
                "{:<14} {metric:<12} spread between {} runs {:.2}% (bound {:.0}%) {}",
                runs[0][w].name,
                runs.len(),
                100.0 * spread,
                100.0 * bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(runs[0][w].name)),
                ("metric", Json::str(*metric)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(*bound)),
                ("within_bound", Json::Bool(ok)),
            ]));
        }
    }
    (rows, within)
}

fn run(args: &Args) -> std::io::Result<bool> {
    // The engine's own tracing stays off whatever the environment says:
    // spans here are the bench's, taken from outside.
    ringo_core::trace::set_enabled(false);
    let dir = out_dir();
    let selected: Vec<&Spec> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    println!(
        "bench_e2e: seed {}, {} s per pass, nproc {}, threads {}{}",
        args.seed,
        args.seconds,
        host::nproc(),
        host::threads(),
        if args.smoke {
            ", SMOKE (scales / 32; not comparable)"
        } else {
            ""
        }
    );

    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for repetition in 1..=args.repeat {
        if args.repeat > 1 {
            println!("--- run {repetition} of {}", args.repeat);
        }
        let mut outcomes = Vec::new();
        for spec in &selected {
            let outcome = run_workload(spec, args, &dir)?;
            print_outcome(&outcome);
            outcomes.push(outcome);
        }
        runs.push(outcomes);
    }
    let (spread_rows, steady) = if runs.len() > 1 {
        spreads(&runs)
    } else {
        (Vec::new(), true)
    };

    let last = runs.last().expect("--repeat is at least 1");
    let (verbs, failed): (u64, u64) = runs
        .iter()
        .flatten()
        .fold((0, 0), |(v, f), o| (v + o.verbs, f + o.failed_verbs));
    let correct = failed == 0;
    std::fs::write(
        dir.join("result.json"),
        Json::obj([
            ("benchmark", Json::str("bench_e2e")),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("min_sessions", Json::Num(MIN_SESSIONS as f64)),
            ("smoke", Json::Bool(args.smoke)),
            ("host", host::to_json()),
            ("correct", Json::Bool(correct)),
            (
                "workloads",
                Json::Arr(last.iter().map(outcome_json).collect()),
            ),
            ("spread_between_runs", Json::Arr(spread_rows)),
            ("claim", Json::Null),
        ])
        .render(),
    )?;

    // The last line: one workload reports its metrics by name; the whole
    // set prefixes each with the workload.
    let mut metrics = Vec::new();
    for o in last {
        let prefix = if selected.len() == 1 {
            String::new()
        } else {
            format!("{}.", o.name)
        };
        if args.trace != Some(true) {
            let names_units = END_TO_END.map(|(name, unit, _)| (name, unit));
            metrics.extend(metric_fields(&prefix, names_units, o.end_to_end()));
        }
        if let Some(t) = &o.traced {
            metrics.extend(metric_fields(&prefix, PER_LAYER, t.metrics()));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(verbs as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    Ok(correct && steady)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_e2e: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_core::trace::json::{parse, JsonValue};

    fn contract() -> JsonValue {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        let items = doc
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect("array in BENCHMARK.json");
        items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn workload_names_are_plain_and_match_the_contract() {
        for w in &WORKLOADS {
            assert!(
                !w.name.is_empty()
                    && w.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{:?} is outside [A-Za-z0-9_.-]+",
                w.name
            );
        }
        let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&contract(), "workloads"), ours);
    }

    #[test]
    fn metric_tables_match_the_contract() {
        let doc = contract();
        assert_eq!(names(&doc, "end_to_end"), END_TO_END.map(|m| m.0));
        assert_eq!(names(&doc, "per_layer"), PER_LAYER.map(|m| m.0));
        let e2e = doc
            .get("end_to_end")
            .and_then(JsonValue::as_arr)
            .expect("end_to_end");
        for (entry, (_, unit, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(JsonValue::as_arr)
            .expect("per_layer");
        for (entry, (_, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(RUN_SECONDS)
        );
        for (metric, _) in KERNEL_SPANS {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == metric),
                "{metric} is reported"
            );
        }
    }

    #[test]
    fn arguments_parse_and_refuse_nonsense() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let driver =
            parse("--workload lj_churn --seed 7 --seconds 3 --trace 1").expect("driver form");
        assert_eq!(
            driver,
            Args {
                workload: Some("lj_churn".into()),
                seed: 7,
                seconds: 3.0,
                trace: Some(true),
                repeat: 1,
                smoke: false
            }
        );
        assert_eq!(parse("").expect("defaults").trace, None);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--smoke --repeat 2").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn grading_counts_mismatches_against_oracle_and_warmup() {
        let expected = [("a", Want::Exactly(3)), ("b", Want::SameEverySession)];
        let obs = |a, b| {
            vec![
                Observation {
                    verb: "a",
                    value: a,
                },
                Observation {
                    verb: "b",
                    value: b,
                },
            ]
        };
        let mut failures = Vec::new();
        assert_eq!(
            grade(&expected, &obs(3, 9), &obs(3, 9), 1, &mut failures),
            0
        );
        assert_eq!(
            grade(&expected, &obs(3, 9), &obs(4, 9), 2, &mut failures),
            1
        );
        assert_eq!(
            grade(&expected, &obs(3, 9), &obs(3, 8), 3, &mut failures),
            1
        );
        assert_eq!(
            grade(&expected, &obs(3, 9), &obs(3, 9)[..1], 4, &mut failures),
            2
        );
        assert_eq!(failures.len(), 3);
        assert!(
            failures[0].starts_with("session 2: verb #0 a"),
            "{failures:?}"
        );
    }

    /// The whole benchmark at 1/32 scale: every workload, both passes, every
    /// check, and a traced pass whose layers account for the session.
    #[test]
    fn smoke_run_of_all_six_workloads_passes_its_checks() {
        ringo_core::trace::set_enabled(false);
        let args = Args {
            workload: None,
            seed: 5,
            seconds: 1.0,
            trace: None,
            repeat: 1,
            smoke: true,
        };
        let dir = out_dir().join("test_smoke");
        for spec in &WORKLOADS {
            let o = run_workload(spec, &args, &dir).expect("workload runs");
            assert_eq!(o.failed_verbs, 0, "{}: {:?}", o.name, o.failures);
            assert!(o.failures.is_empty(), "{}: {:?}", o.name, o.failures);
            assert!(o.verbs > 0 && o.session_s.n == SMOKE_SESSIONS && o.setup_s.n == 1);
            assert!(
                o.end_to_end().iter().all(|v| *v > 0.0),
                "{}: no metric is 0",
                o.name
            );

            let t = o.traced.as_ref().expect("both passes ran");
            assert_eq!(t.metrics().len(), PER_LAYER.len());
            let busy: f64 = t.layers.iter().map(|l| l.busy_s).sum();
            let explained = (busy + t.unattributed_s) / t.traced_session_s;
            assert!(
                (0.8..1.25).contains(&explained),
                "{}: medians explain {explained} of the session",
                o.name
            );

            let text = std::fs::read_to_string(dir.join(format!("trace_{}.json", o.name)))
                .expect("trace file");
            let trace = parse(&text).expect("trace file parses");
            let spans = trace
                .get("spans")
                .and_then(JsonValue::as_arr)
                .expect("spans");
            let sessions = spans
                .iter()
                .filter(|s| s.get("parent") == Some(&JsonValue::Null))
                .count();
            assert_eq!(sessions, t.pairs);
            parse(&outcome_json(&o).render()).expect("result entry parses");
        }
    }
}
