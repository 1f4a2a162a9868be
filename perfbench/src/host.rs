//! What the report records about the machine and the code it measured.

use crate::report::quote;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit, when the benchmark runs inside a git work tree.
fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !sha.is_empty()).then_some(sha)
}

/// FNV-1a over the program's and the benchmark's sources (relative path
/// and bytes, in sorted path order), so a report identifies the code it
/// measured even in a checkout without git metadata.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(f.into());
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Return freed heap memory to the system, then restart the
/// peak-resident-memory mark (`clear_refs` 5), so the peak read later
/// covers only what runs after this call. Input generation, reference
/// renders and earlier set-ups happen before it.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
        // free memory at the tops of the allocator's heaps; any argument is
        // valid.
        unsafe {
            malloc_trim(0);
        }
    }
    restart_peak_mark();
}

/// Restart the peak-resident-memory mark without touching the heap.
pub fn restart_peak_mark() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident memory of each whole second of the next `seconds`:
/// the mark is read and restarted once a second.
pub fn peak_rss_per_second(seconds: f64) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut peaks = Vec::new();
    restart_peak_mark();
    for k in 1..=seconds.floor() as u32 {
        let due = std::time::Duration::from_secs(k.into());
        std::thread::sleep(due.saturating_sub(start.elapsed()));
        peaks.extend(peak_rss_mb());
        restart_peak_mark();
    }
    peaks
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `host` object of the report.
pub fn meta_json() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"git_sha\":{},\"source_digest\":{},\"nproc\":{},\"cpu\":{},\"profile\":{}}}",
        git_sha().map_or("null".into(), |s| quote(&s)),
        quote(&source_digest()),
        nproc(),
        quote(&cpu_model()),
        quote(profile)
    )
}
