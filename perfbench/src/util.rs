//! Small helpers: results digests, order statistics, process memory and
//! host facts.

use qufi_core::engine::SeedHasher;
use qufi_obs::json::quote;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a over every file under `dir`: relative path, length, bytes,
/// in sorted path order. Two `results/` trees digest equal exactly when
/// they hold the same files with the same bytes.
pub fn digest_dir(dir: &Path) -> io::Result<String> {
    let mut files = Vec::new();
    collect_files(dir, dir, &mut files)?;
    files.sort();
    let mut h = SeedHasher::new();
    for rel in &files {
        let bytes = fs::read(dir.join(rel))?;
        h.mix_bytes(rel.to_string_lossy().as_bytes())
            .mix_bytes(&[0])
            .mix_u64(bytes.len() as u64)
            .mix_bytes(&bytes);
    }
    Ok(format!("{:016x}:{}", h.finish(), files.len()))
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_files(root, &path, out)?;
        } else {
            out.push(
                path.strip_prefix(root)
                    .expect("walked below the root")
                    .to_path_buf(),
            );
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir` whose name ends in `suffix`.
pub fn bytes_under(dir: &Path, suffix: &str) -> io::Result<u64> {
    let mut files = Vec::new();
    collect_files(dir, dir, &mut files)?;
    let mut total = 0;
    for rel in files {
        if rel.to_string_lossy().ends_with(suffix) {
            total += fs::metadata(dir.join(rel))?.len();
        }
    }
    Ok(total)
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The sample median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size (`VmHWM`) of a process, in KiB; `pid = None`
/// reads this process.
pub fn vm_hwm_kib(pid: Option<u32>) -> io::Result<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Facts about the host and the build that every result carries, as a
/// JSON object.
pub fn host_facts_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).split(' ').collect())
        .unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    let mut out = String::from("{");
    let _ = write!(out, "\"nproc\":{nproc},\"cpu\":{}", quote(model));
    for flag in ["avx2", "avx512f", "fma"] {
        let _ = write!(out, ",\"cpu_{flag}\":{}", flags.contains(&flag));
    }
    let _ = write!(
        out,
        ",\"rustflags\":{},\"compiled_avx2\":{},\"compiled_avx512f\":{},\"compiled_fma\":{},\"commit\":{}}}",
        quote(env!("PERFBENCH_RUSTFLAGS")),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "avx512f"),
        cfg!(target_feature = "fma"),
        quote(&git_commit()),
    );
    out
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
