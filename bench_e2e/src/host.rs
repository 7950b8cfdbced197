//! Facts about the machine and the checkout that every result records, so
//! two result files can be told apart before their numbers are compared.

use crate::json::Json;
use std::path::Path;

/// The repository root: this package sits one level below it.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package lies inside the repository")
}

/// Cores the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads every session uses: all cores up to four, so that a
/// result from a bigger host stays comparable with the 2-core reference.
pub fn threads() -> usize {
    nproc().min(4)
}

/// `cpu0`'s caches as sysfs lists them, e.g. `L2 Unified 4096K`.
fn caches() -> Vec<Json> {
    let mut found = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{dir}/{file}")).map(|s| s.trim().to_string())
        };
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            found.push(Json::Str(format!("L{level} {kind} {size}")));
        }
    }
    found
}

/// The checked-out commit, read from `.git` by hand (no process is
/// started); `unknown` in an exported tree.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let commit = read(git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read(git.join(reference)),
        None => Some(head),
    });
    commit.unwrap_or_else(|| "unknown".to_string())
}

fn count_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                count_lines(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                std::fs::read_to_string(&path).map_or(0, |text| text.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust under each crate's `src/`, by crate name.
fn crate_lines() -> Json {
    let mut crates: Vec<(String, Json)> = std::fs::read_dir(repo_root().join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            (
                name,
                Json::Num(count_lines(&entry.path().join("src")) as f64),
            )
        })
        .collect();
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(crates)
}

pub fn to_json() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads() as f64)),
        ("caches_cpu0", Json::Arr(caches())),
        ("git_commit", Json::Str(git_commit())),
        ("crate_lines", crate_lines()),
    ])
}
