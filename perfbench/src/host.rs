//! Host fingerprint and process memory, for the results record.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit of the measured tree, if it is a git checkout.
    pub git_sha: String,
}

impl Host {
    /// Reads the fingerprint; missing pieces read `unknown`.
    pub fn detect(root: &Path) -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        // `output()` waits for the child, so no process outlives this.
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(unknown);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            git_sha: git_sha(root).unwrap_or_else(unknown),
        }
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(sha, _)| sha.to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Iterations of the calibration loop.
const CALIBRATION_STEPS: u32 = 1 << 21;
/// Entries of the calibration loop's table (1 MiB of `u32`).
const CALIBRATION_TABLE: u64 = 1 << 18;

/// Calibration time of the reference host, s: a quiet two-core
/// 2.1 GHz Xeon VM runs [`calibrate`] in about this long. Normalized
/// figures read as if measured on that host.
pub const CALIBRATION_REFERENCE_S: f64 = 0.025;

/// Times a fixed, deterministic CPU loop — random reads and writes over
/// a 1 MiB table, integer hashing and a dependent float chain, the mix
/// the simulators and the serving kernels run — and returns its wall
/// time in seconds. Run between rounds, it tracks how fast the host is
/// running the benchmark at that moment. It is self-contained (no
/// workspace code), so no change to the program can move it.
pub fn calibrate() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut table: Vec<u32> = (0..CALIBRATION_TABLE)
        .map(|_| u32::try_from(next() >> 32).unwrap_or(0))
        .collect();
    let started = std::time::Instant::now();
    let mut acc = 0.0f64;
    for step in 0..CALIBRATION_STEPS {
        let index = usize::try_from(next() % CALIBRATION_TABLE).unwrap_or(0);
        let v = table[index];
        table[index] = v.wrapping_add(step);
        acc = acc * 0.999 + f64::from(v & 0xFF);
        if v & 1 == 0 {
            acc += 1.0;
        }
    }
    std::hint::black_box((acc, &table));
    started.elapsed().as_secs_f64()
}
