//! What a workload run hands back to `main`, and helpers shared by the
//! workloads.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The privacy budget every query spends (the paper's default ε).
pub const EPSILON: f64 = 2.0;
/// Setups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 9;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries and writes, checks included).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one failed check, printing why.
    pub fn fail(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.check(false);
    }
}

/// Directory for run artifacts (trace files, sockets, shard files),
/// relative to the checkout root the benchmark runs from.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir).expect("create the run-artifact directory");
    dir
}

/// Milliseconds in `d`.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a summary line: median, tail percentile and sample count.
pub fn print_summary(label: &str, unit: &str, s: &Summary) {
    let warn = if s.tail_pct >= 100.0 {
        " (too few samples for a percentile: tail is the maximum)"
    } else {
        ""
    };
    println!(
        "  {label:<24} p50 {:>10.4} {unit}  p{:<5.2} {:>10.4} {unit}  mean {:>10.4} {unit}  n={}{warn}",
        s.p50, s.tail_pct, s.tail, s.mean, s.n
    );
}

/// Waits until `due`, calling `poll` meanwhile. The client spins, yielding
/// its core to any runnable thread on every turn, instead of sleeping: a
/// sleeping client lets its core go idle, and the wake-up latency of an idle
/// virtual core then lands on whichever request or writer hand-off comes
/// next.
pub fn wait_until(due: Instant, mut poll: impl FnMut()) {
    loop {
        poll();
        if Instant::now() >= due {
            return;
        }
        std::thread::yield_now();
    }
}

/// FNV-1a over 64-bit words: the run's estimate fingerprint.
#[must_use]
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A report's estimate-relevant bytes, for byte-identity checks: each
/// candidate and its estimate bits, then the budget ledger and transcript.
#[must_use]
pub fn report_bytes(report: &cne::BatchReport) -> String {
    let mut out = String::new();
    for e in &report.estimates {
        out.push_str(&format!("{}:{:016x};", e.candidate, e.estimate.to_bits()));
    }
    out.push_str(&format!("{:?}|{:?}", report.budget, report.transcript));
    out
}

/// The per-response checks every screening answer must pass: one finite
/// estimate per candidate, in order, and a budget spent of exactly ε.
#[must_use]
pub fn batch_ok(report: &cne::BatchReport, candidates: &[u32]) -> bool {
    report.estimates.len() == candidates.len()
        && report
            .estimates
            .iter()
            .zip(candidates)
            .all(|(e, &w)| e.candidate == w && e.estimate.is_finite())
        && (report.budget.consumed() - EPSILON).abs() < 1e-9
}
