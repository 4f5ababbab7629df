//! The host a run was taken on: what the numbers must be normalised by
//! and what two reports must share before `compare` will compare them.

use qse_util::json::{Json, ToJson};
use std::hint::black_box;
use std::time::Instant;

/// Size of the buffer the memcpy ceiling is measured with. This host's
/// shared last-level cache (see [`Fingerprint::llc`]) can be larger, in
/// which case the ceiling — like the 16–64 MiB statevectors it is held
/// against — is a cache-resident figure; the report states both sizes.
pub const MEMCPY_BYTES: usize = 128 << 20;

/// Identifies the machine and process configuration behind a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Kernel worker threads (`QSE_THREADS`, latched once per process).
    pub qse_threads: usize,
    /// Whether sweeps run the AVX2+FMA kernel bodies in this process.
    pub fma: bool,
    /// Measured single-thread `memcpy` of [`MEMCPY_BYTES`], GiB/s.
    pub memcpy_gib_s: f64,
    /// Last-level cache size as the kernel reports it, or `unknown`.
    pub llc: String,
    /// Commit the checkout is at, or `unknown` outside a git checkout.
    pub git_sha: String,
}

impl Fingerprint {
    /// Measures the ceiling and reads the rest. Allocates 2 ×
    /// [`MEMCPY_BYTES`]: call it only after `peak_rss_mib` was read.
    pub fn measure() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            qse_threads: qse_util::parallel::num_threads(),
            fma: fma_latch(),
            memcpy_gib_s: memcpy_gib_s(MEMCPY_BYTES, 5),
            llc: std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        }
    }
}

impl ToJson for Fingerprint {
    fn to_json(&self) -> Json {
        Json::object([
            ("nproc", self.nproc.to_json()),
            ("qse_threads", self.qse_threads.to_json()),
            ("fma", self.fma.to_json()),
            ("memcpy_gib_s", self.memcpy_gib_s.to_json()),
            ("memcpy_bytes", MEMCPY_BYTES.to_json()),
            ("llc", self.llc.to_json()),
            ("git_sha", self.git_sha.to_json()),
        ])
    }
}

/// The condition `qse_statevec`'s private `kernel::use_fma` latches on
/// first use, re-evaluated here because the latch itself is not public.
fn fma_latch() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::env::var_os("QSE_SCALAR_KERNELS").is_none()
            && std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Best of `reps` single-thread copies of a `bytes`-long buffer, in
/// GiB/s of bytes copied — the one-copy-per-byte ceiling exchanges and
/// sweeps are held against, measured in the same process as they are.
pub fn memcpy_gib_s(bytes: usize, reps: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best / (1u64 << 30) as f64
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Resolves `.git/HEAD` of the current directory by hand — no `git`
/// process, and nothing read outside the checkout.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => match std::fs::read_to_string(format!(".git/{r}")) {
            Ok(s) => s.trim().to_owned(),
            Err(_) => std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_owned()))?,
        },
    };
    Some(sha.chars().take(12).collect())
}
