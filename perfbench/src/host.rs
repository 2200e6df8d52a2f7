//! Host description and process memory readings.

/// `nproc`: the parallelism the standard library reports.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The ChaCha four-block kernel tier `rand_chacha` selects. The vendored
/// crate does not export its choice, so this applies its documented rule:
/// the escape hatch forces `portable`, else AVX2 when the CPU has it, else
/// SSE2 on x86_64.
#[must_use]
pub fn chacha_kernel() -> &'static str {
    if std::env::var("CNE_FORCE_PORTABLE_KERNELS").is_ok_and(|v| v == "1") {
        return "portable";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        return "sse2";
    }
    #[allow(unreachable_code)]
    "portable"
}

/// One line naming the host: parallelism and the kernel tiers in use.
#[must_use]
pub fn describe() -> String {
    format!(
        "nproc={} popcount_kernel={} chacha_kernel={}",
        nproc(),
        bigraph::bitset::active_popcount_kernel(),
        chacha_kernel()
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, when readable.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MiB.
#[must_use]
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(0.0)
}
