//! The repository benchmark: one command that generates seeded inputs,
//! runs one workload against the estimation engine, the serving tier or a
//! 2-worker cluster, checks every answer, and prints every metric by name
//! and unit. The last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload <pairs_bx|screen_serve_bx|screen_cluster2_bx> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload untraced and then traced from the benchmark's own calls into
//! each layer, and reports the per-layer metrics, the closure ratio and the
//! tracing overhead.

mod cluster2;
mod gen;
mod host;
mod openloop;
mod pairs;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod tracefile;

use report::Outcome;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("throughput_qps", "1/s"),
    ("ingest_visible_ms_p50", "ms"),
    ("ingest_visible_ms_p99", "ms"),
    ("mae", "count"),
    ("comm_kb_per_query", "KiB"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("ldp.rr.perturb_us_p50", "us"),
    ("ldp.rr.noisy_row_bits_mean", "bits"),
    ("ldp.laplace.degree_round_us_p50", "us"),
    ("cne.optimizer.us_p50", "us"),
    ("cne.single_source.value_us_p50", "us"),
    ("cne.batch.round1_us_p50", "us"),
    ("cne.batch.round2_us_per_candidate", "us"),
    ("cne.batch.assemble_us_p50", "us"),
    ("cne.engine.dense_candidate_share", "ratio"),
    ("cne.engine.warm_touched_ms_p50", "ms"),
    ("cne.engine.build_s", "s"),
    ("cne.engine.warm_s", "s"),
    ("cne.serving.pin_us_p99", "us"),
    ("cne.serving.extend_us_p50", "us"),
    ("cne.serving.deltas_per_publish", "count"),
    ("cne.serving.lag_p95", "count"),
    ("bigraph.delta.splice_ms_p50", "ms"),
    ("bigraph.delta.deltas_per_splice", "count"),
    ("cluster.wire.encode_us_p50", "us"),
    ("cluster.wire.decode_us_p50", "us"),
    ("cluster.wire.bytes_per_query", "B"),
    ("cluster.coordinator.query_overhead_ms_p50", "ms"),
    ("cluster.coordinator.estimate_batch_ms_p50", "ms"),
    ("cluster.coordinator.pump_ms_p50", "ms"),
    ("cluster.coordinator.flush_ms_p50", "ms"),
    ("cluster.coordinator.spawn_s", "s"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.error_rate", "ratio"),
    ("bench.query_samples", "count"),
    ("trace.closure_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ms_per_op", "ms"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["pairs_bx", "screen_serve_bx", "screen_cluster2_bx"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The final JSON line: the metrics of the mode, in the declared order.
fn result_line(out: &Outcome, trace: bool) -> String {
    let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = spec
        .iter()
        .map(|&(name, unit)| {
            let value = match out.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    // Shard workers are this binary re-executed with the worker environment.
    if cluster::maybe_run_worker_from_env() {
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host: {}", host::describe());
    let mut out = match args.workload.as_str() {
        "pairs_bx" => pairs::run(args.seed, args.seconds, args.trace),
        "screen_serve_bx" => serve::run(args.seed, args.seconds, args.trace),
        _ => cluster2::run(args.seed, args.seconds, args.trace),
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("bench.error_rate", error_rate);
    println!(
        "  error_rate {error_rate} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    if !args.trace {
        for &(name, unit) in &END_TO_END {
            println!("  {name:<24} {:>14.4} {unit}", out.values[name]);
        }
    }
    println!("{}", result_line(&out, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names here and in `BENCHMARK.json` agree.
    #[test]
    fn names_match_the_benchmark_file() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.check(true);
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_line(&out, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
