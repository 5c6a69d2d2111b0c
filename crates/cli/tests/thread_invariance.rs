//! Thread-count invariance: the same manifest executed with `--threads 1`
//! and `--threads 4` must produce byte-identical JSON/CSV exports.
//!
//! This is the end-to-end check of the whole determinism chain: grid cells
//! are split into blocks deterministically
//! (`PreparedSweep::replay_grid_batched`), hardware sampling seeds derive
//! from (seed, job, point, fault angles) rather than any shared stream, records sort into a canonical order, and artifacts
//! are generated from checkpoints — so neither the point-worker × grid
//! split of the thread budget nor OS scheduling can leak into the output.

use qufi_cli::{run_to_completion, Manifest, RunOptions, RunStatus};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Noisy (exact) and hardware (finite-shot sampling) scenarios: sampling
/// is the easiest place for scheduling order to leak in, so both run.
const NOISY: &str = r#"
[campaign]
name = "threads-noisy"
threads = 2
executor = "noisy"
workloads = ["bv-3"]
backends = ["jakarta"]

[grid]
thetas = [0.0, 1.5707963267948966, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

const HARDWARE: &str = r#"
[campaign]
name = "threads-hardware"
seed = 23
shots = 256
executor = "hardware"
workloads = ["bv-3"]
backends = ["lima"]

[grid]
thetas = [0.0, 3.141592653589793]
phis = [0.0, 3.141592653589793]
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qufi-threads-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file under `root`, keyed by relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn run_with_threads(manifest: &Manifest, tag: &str, threads: usize) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(&format!("{tag}-t{threads}"));
    let outcome = run_to_completion(
        manifest,
        &dir,
        &RunOptions {
            threads: Some(threads),
            quiet: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.summary.status, RunStatus::Complete);
    let artifacts = tree(&dir.join("results"));
    assert!(
        artifacts.keys().any(|p| p.ends_with(".json"))
            && artifacts.keys().any(|p| p.ends_with(".csv")),
        "expected JSON and CSV artifacts, got {:?}",
        artifacts.keys().collect::<Vec<_>>()
    );
    let _ = fs::remove_dir_all(dir);
    artifacts
}

fn assert_identical_artifacts(manifest_toml: &str, tag: &str) {
    let manifest = Manifest::from_toml(manifest_toml).unwrap();
    let reference = run_with_threads(&manifest, tag, 1);
    for threads in [2usize, 4] {
        let other = run_with_threads(&manifest, tag, threads);
        assert_eq!(
            reference.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "{tag}: different artifact sets at --threads {threads}"
        );
        for (path, bytes) in &reference {
            assert_eq!(
                bytes, &other[path],
                "{tag}: artifact {path} differs between --threads 1 and --threads {threads}"
            );
        }
    }
}

#[test]
fn noisy_exports_are_thread_count_invariant() {
    assert_identical_artifacts(NOISY, "noisy");
}

#[test]
fn hardware_exports_are_thread_count_invariant() {
    assert_identical_artifacts(HARDWARE, "hardware");
}
