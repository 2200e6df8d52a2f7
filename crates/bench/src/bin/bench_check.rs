//! The CI perf-regression gate (`bench-check` job).
//!
//! Reads the recorded baseline (`BENCH_micro.json`) and a log produced by
//! running the criterion stub (`cargo bench -p bench --bench
//! engine_cached_batch --bench micro_primitives --bench streaming_updates
//! --bench streaming_serving`), and fails — exit code
//! 1 — when a gated speedup ratio regressed by more than the tolerance.
//!
//! Gates compare **ratios of benchmarks from the same run** (warm engine
//! vs uncached path, skip sampling vs dense perturbation) against the same
//! ratios in the baseline, not absolute nanoseconds: CI hardware differs
//! from the recording machine, but a ratio like "warm multi-target is
//! 3.8× the uncached path" is a property of the code, so a warm
//! multi-target run that regresses > 1.5× relative to the baseline ratio
//! fails the gate on any machine.
//!
//! Usage: `bench-check <BENCH_micro.json> <bench.log>`

use std::collections::HashMap;
use std::process::ExitCode;

/// Regression tolerance: a gated ratio may be up to this factor worse than
/// the recorded baseline ratio before the gate fails.
const TOLERANCE: f64 = 1.5;

/// One gate: `numerator / denominator` (both benchmark ids, mean ns) must
/// not exceed the baseline's ratio by more than [`TOLERANCE`].
struct Gate {
    name: &'static str,
    numerator: &'static str,
    denominator: &'static str,
}

/// The gated invariants of the warm engine and the perturbation kernels.
const GATES: &[Gate] = &[
    Gate {
        name: "engine warm multi-target vs uncached",
        numerator: "micro/engine_cached_batch/warm_multi_target",
        denominator: "micro/engine_cached_batch/uncached_multi_target",
    },
    Gate {
        name: "engine warm single-target vs uncached",
        numerator: "micro/engine_cached_batch/warm_single_target",
        denominator: "micro/engine_cached_batch/uncached_single_target",
    },
    Gate {
        name: "engine warm batch vs cold store (cache-fill amortization)",
        numerator: "micro/engine_cached_batch/warm_single_target",
        denominator: "micro/engine_cached_batch/cold_single_target",
    },
    Gate {
        name: "perturb skip-sampling vs dense (eps=1)",
        numerator: "micro/perturb_sparse_large/skip/1",
        denominator: "micro/perturb_sparse_large/dense/1",
    },
    Gate {
        name: "perturb skip-sampling vs dense (eps=4)",
        numerator: "micro/perturb_sparse_large/skip/4",
        denominator: "micro/perturb_sparse_large/dense/4",
    },
    Gate {
        name: "perturb packed-native vs list output (eps=1)",
        numerator: "micro/perturb_sparse_large/packed/1",
        denominator: "micro/perturb_sparse_large/skip/1",
    },
    Gate {
        name: "perturb packed-native vs list output (eps=4)",
        numerator: "micro/perturb_sparse_large/packed/4",
        denominator: "micro/perturb_sparse_large/skip/4",
    },
    Gate {
        name: "perturb packed-native vs dense reference (eps=1)",
        numerator: "micro/perturb_sparse_large/packed/1",
        denominator: "micro/perturb_sparse_large/dense/1",
    },
    // Kernel-dispatch gates: hardware-neutral by construction — whatever
    // tier the CPU selects is compared against the scalar reference from
    // the same run, so the gate holds on AVX2, popcnt-only, and portable
    // machines alike.
    Gate {
        name: "popcount dispatched kernel vs scalar reference",
        numerator: "micro/popcount_kernels/dispatched",
        denominator: "micro/popcount_kernels/scalar",
    },
    Gate {
        name: "rng setup batched vs per-seed",
        numerator: "micro/rng_setup/batched_256",
        denominator: "micro/rng_setup/scalar_256",
    },
    Gate {
        name: "laplace block sampler vs scalar draws",
        numerator: "micro/laplace_block/block_256",
        denominator: "micro/laplace_block/scalar_256",
    },
    // Splice gate: an update batch is spliced into the CSR in place, so a
    // 64-edge splice costs one memmove of the adjacency past the first
    // touched vertex — well under a full copy of the graph. A splice that
    // rebuilt or reallocated the arrays would cost a clone or more and
    // trip the gate on any hardware.
    Gate {
        name: "splice 64 edges vs graph clone",
        numerator: "micro/streaming_updates/apply_batch_64_edges",
        denominator: "micro/streaming_updates/clone_graph",
    },
    // Serving-tier gates (ISSUE 7): both sides of each ratio come from the
    // same run of `streaming_serving`, so the ratios are hardware-neutral.
    // Sustained: double-buffered serving must keep its coalescing edge
    // over the stop-the-world splice cycle (≥2× at recording time; the
    // gate allows the recorded ~5× edge to erode to ~3.5× before failing).
    Gate {
        name: "serving sustained double-buffered vs stop-the-world",
        numerator: "micro/streaming_serving/sustained_double_buffered",
        denominator: "micro/streaming_serving/sustained_stop_the_world",
    },
    // Tail latency: a reader's p95 cycle must stay bounded by query cost,
    // not merge cost — readers never wait on a splice.
    Gate {
        name: "serving p95 window double-buffered vs stop-the-world",
        numerator: "micro/streaming_serving/worst_window_double_buffered",
        denominator: "micro/streaming_serving/worst_window_stop_the_world",
    },
    // Multi-process serving gates (ISSUE 8): all legs come from the same
    // run under the same bounded-staleness contract (every cycle's deltas
    // published cluster-wide before the cycle ends), so merge counts are
    // pinned and the ratios are hardware-neutral.
    //
    // Ingest scaling — the headline: partitioning the update stream means
    // 4 shard workers splice ~¼-size graphs where 4 full replicas splice
    // the full graph 4×. Recorded at 3.2× on a 2-core host (4.5× while a
    // splice still rebuilt the whole CSR; the in-place splice made the
    // work replication multiplies cheaper). It is a work-multiplier, not
    // a parallelism effect. The gate trips when the sharded deployment
    // loses that edge.
    Gate {
        name: "cluster 4-worker sharded vs 4-worker replicated ingest",
        numerator: "micro/streaming_serving/sustained_cluster_4worker_sharded",
        denominator: "micro/streaming_serving/sustained_cluster_4worker_replicated",
    },
    // Fan-out overhead: a 4-shard query fans round 2 to every owner, and
    // that coordination tax must stay bounded next to a single worker
    // owning the whole graph. Recorded at 1.18× on a single core and
    // 0.94× on a 2-core host (total splice+query work is conserved under
    // sharding; a multi-core host overlaps the per-shard work and drives
    // this below 1).
    Gate {
        name: "cluster 4-worker sharded vs 1-worker front",
        numerator: "micro/streaming_serving/sustained_cluster_4worker_sharded",
        denominator: "micro/streaming_serving/sustained_cluster_1worker",
    },
    // Persistence gates (ISSUE 9): both sides of each ratio come from the
    // same run, so the ratios are hardware-neutral.
    //
    // Fast restart — adopting a binary snapshot (read + checksum validate
    // + install pre-packed bitmaps into the adjacency store) must keep
    // its edge over the cold restart (read text, parse, CSR build, warm
    // pass over both layers). Recorded at 5.51x; the ≥5x acceptance
    // floor erodes to the gate's 1.5x tolerance before failing.
    Gate {
        name: "snapshot load vs cold text build (fast restart)",
        numerator: "micro/streaming_serving/snapshot_load",
        denominator: "micro/streaming_serving/cold_text_build",
    },
    // Cluster restart — spawning 4 shard workers from per-shard restricted
    // snapshot files (path-only BootstrapSnapshot frames; the coordinator
    // reuses the files across restarts behind a byte-exact manifest) must
    // keep beating the edge-frame bootstrap that ships every shard's edge
    // list over its socket. Recorded at 1.29x.
    Gate {
        name: "cluster snapshot bootstrap vs edge-frame bootstrap",
        numerator: "micro/streaming_serving/spawn_bootstrap_snapshot",
        denominator: "micro/streaming_serving/spawn_bootstrap_frames",
    },
    // Live-rebalance gate (ISSUE 10): a query issued between rebalance
    // steps must stay bounded by query cost — the heavy work (snapshot
    // capture, shard-file cuts, bootstrap, tail replay) happens inside
    // the steps, never inside a reader's critical path. Recorded at
    // ~3.5× the steady mean, the largest of three runs because the worst
    // query is a single sample (the worst sample lands right after the
    // cutover swap: cold worker caches plus the first pump of the
    // backlog) — a reader paying a snapshot cut or a worker bootstrap
    // would blow far past the tolerance on this ratio.
    Gate {
        name: "serving worst mid-rebalance query vs steady query",
        numerator: "micro/streaming_serving/rebalance_worst_query",
        denominator: "micro/streaming_serving/rebalance_steady_query",
    },
];

/// Gates on a **measured value itself**, not a ratio: the benchmark
/// reports a count disguised as a raw `ns` value, and the gate fails on
/// anything but exactly zero. Unlike [`check`]'s ratio lookups (which
/// reject non-positive values as "missing"), these are read raw — zero
/// is the expected reading, not an absent one.
const ZERO_GATES: &[(&str, &str)] = &[(
    "live rebalance serves with zero failed queries",
    "micro/streaming_serving/rebalance_failed_queries",
)];

/// One line describing the CPU tier the dispatched kernels run on — printed
/// at the top of the report so a regression can be read in context of the
/// hardware that produced the log.
fn cpu_feature_header() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        format!(
            "bench-check: cpu features avx2={} popcnt={}, active popcount kernel `{}`",
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("popcnt"),
            bigraph::bitset::active_popcount_kernel(),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        format!(
            "bench-check: non-x86_64 host, active popcount kernel `{}`",
            bigraph::bitset::active_popcount_kernel(),
        )
    }
}

/// Parses the baseline JSON's `results` array into `id -> mean_ns`.
fn parse_baseline(json: &str) -> Result<HashMap<String, f64>, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let results = value
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("baseline has no `results` array")?;
    let mut out = HashMap::new();
    for entry in results {
        let (Some(id), Some(mean)) = (
            entry.get("id").and_then(|v| v.as_str()),
            entry.get("mean_ns").and_then(serde_json::Value::as_f64),
        ) else {
            return Err("baseline entry without `id` + numeric `mean_ns`".into());
        };
        out.insert(id.to_string(), mean);
    }
    Ok(out)
}

/// Parses the criterion stub's stdout (`bench: <id>  <t> <unit>/iter ...`)
/// into `id -> mean_ns`.
fn parse_bench_log(log: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in log.lines() {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("bench:") {
            continue;
        }
        let (Some(id), Some(value), Some(unit)) = (tokens.next(), tokens.next(), tokens.next())
        else {
            continue;
        };
        let Ok(t) = value.parse::<f64>() else {
            continue;
        };
        let ns = match unit.split('/').next() {
            Some("ns") => t,
            Some("µs") | Some("us") => t * 1e3,
            Some("ms") => t * 1e6,
            Some("s") => t * 1e9,
            _ => continue,
        };
        out.insert(id.to_string(), ns);
    }
    out
}

/// Evaluates every gate; returns human-readable failures.
fn check(
    baseline: &HashMap<String, f64>,
    measured: &HashMap<String, f64>,
) -> Result<Vec<String>, String> {
    let lookup = |map: &HashMap<String, f64>, id: &str, what: &str| -> Result<f64, String> {
        map.get(id)
            .copied()
            .filter(|&v| v > 0.0)
            .ok_or_else(|| format!("{what} is missing benchmark `{id}`"))
    };
    let mut failures = Vec::new();
    for gate in GATES {
        let base_ratio = lookup(baseline, gate.numerator, "baseline")?
            / lookup(baseline, gate.denominator, "baseline")?;
        let now_ratio = lookup(measured, gate.numerator, "bench log")?
            / lookup(measured, gate.denominator, "bench log")?;
        let regression = now_ratio / base_ratio;
        let verdict = if regression > TOLERANCE { "FAIL" } else { "ok" };
        println!(
            "bench-check [{verdict:>4}] {}: ratio {:.3} vs baseline {:.3} ({}{:.2}x)",
            gate.name,
            now_ratio,
            base_ratio,
            if regression >= 1.0 { "+" } else { "" },
            regression,
        );
        if regression > TOLERANCE {
            failures.push(format!(
                "{}: measured ratio {:.3} regressed {:.2}x past baseline {:.3} (tolerance {}x)",
                gate.name, now_ratio, regression, base_ratio, TOLERANCE
            ));
        }
    }
    for &(name, id) in ZERO_GATES {
        let value = measured
            .get(id)
            .copied()
            .ok_or_else(|| format!("bench log is missing benchmark `{id}`"))?;
        let verdict = if value == 0.0 { "ok" } else { "FAIL" };
        println!("bench-check [{verdict:>4}] {name}: measured {value} (must be 0)");
        if value != 0.0 {
            failures.push(format!("{name}: measured {value}, must be exactly 0"));
        }
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, log_path] = args.as_slice() else {
        eprintln!("usage: bench-check <BENCH_micro.json> <bench.log>");
        return ExitCode::from(2);
    };
    println!("{}", cpu_feature_header());
    let run = || -> Result<Vec<String>, String> {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
        let log = std::fs::read_to_string(log_path)
            .map_err(|e| format!("cannot read {log_path}: {e}"))?;
        check(&parse_baseline(&baseline)?, &parse_bench_log(&log))
    };
    match run() {
        Ok(failures) if failures.is_empty() => {
            println!(
                "bench-check: all {} ratio gates within {TOLERANCE}x, {} zero gates clean",
                GATES.len(),
                ZERO_GATES.len()
            );
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("bench-check FAILURE: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-check error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> HashMap<String, f64> {
        let mut m = HashMap::new();
        m.insert("micro/engine_cached_batch/warm_multi_target".into(), 1.94e6);
        m.insert(
            "micro/engine_cached_batch/uncached_multi_target".into(),
            11.60e6,
        );
        m.insert(
            "micro/engine_cached_batch/warm_single_target".into(),
            0.49e6,
        );
        m.insert(
            "micro/engine_cached_batch/uncached_single_target".into(),
            2.87e6,
        );
        m.insert(
            "micro/engine_cached_batch/cold_single_target".into(),
            4.03e6,
        );
        m.insert("micro/perturb_sparse_large/skip/1".into(), 0.206e6);
        m.insert("micro/perturb_sparse_large/packed/1".into(), 0.202e6);
        m.insert("micro/perturb_sparse_large/dense/1".into(), 1.06e6);
        m.insert("micro/perturb_sparse_large/skip/4".into(), 0.021e6);
        m.insert("micro/perturb_sparse_large/packed/4".into(), 0.022e6);
        m.insert("micro/perturb_sparse_large/dense/4".into(), 0.61e6);
        m.insert("micro/popcount_kernels/dispatched".into(), 0.22e3);
        m.insert("micro/popcount_kernels/scalar".into(), 0.90e3);
        m.insert("micro/rng_setup/batched_256".into(), 1.1e3);
        m.insert("micro/rng_setup/scalar_256".into(), 2.6e3);
        m.insert("micro/laplace_block/block_256".into(), 1.6e3);
        m.insert("micro/laplace_block/scalar_256".into(), 2.4e3);
        m.insert("micro/streaming_updates/apply_batch_64_edges".into(), 1.0e6);
        m.insert("micro/streaming_updates/clone_graph".into(), 2.5e6);
        m.insert(
            "micro/streaming_serving/sustained_double_buffered".into(),
            3.3e6,
        );
        m.insert(
            "micro/streaming_serving/sustained_stop_the_world".into(),
            20.0e6,
        );
        m.insert(
            "micro/streaming_serving/worst_window_double_buffered".into(),
            5.4e6,
        );
        m.insert(
            "micro/streaming_serving/worst_window_stop_the_world".into(),
            22.0e6,
        );
        m.insert(
            "micro/streaming_serving/sustained_cluster_1worker".into(),
            20.0e6,
        );
        m.insert(
            "micro/streaming_serving/sustained_cluster_4worker_sharded".into(),
            23.3e6,
        );
        m.insert(
            "micro/streaming_serving/sustained_cluster_4worker_replicated".into(),
            109.0e6,
        );
        m.insert("micro/streaming_serving/cold_text_build".into(), 220.1e6);
        m.insert("micro/streaming_serving/snapshot_load".into(), 40.0e6);
        m.insert(
            "micro/streaming_serving/spawn_bootstrap_frames".into(),
            157.1e6,
        );
        m.insert(
            "micro/streaming_serving/spawn_bootstrap_snapshot".into(),
            121.9e6,
        );
        m.insert(
            "micro/streaming_serving/rebalance_steady_query".into(),
            5.0e6,
        );
        m.insert(
            "micro/streaming_serving/rebalance_worst_query".into(),
            8.0e6,
        );
        m.insert(
            "micro/streaming_serving/rebalance_failed_queries".into(),
            0.0,
        );
        m
    }

    #[test]
    fn cpu_header_names_a_selectable_kernel() {
        let header = cpu_feature_header();
        assert!(
            ["avx2", "popcnt", "portable"]
                .iter()
                .any(|k| header.contains(&format!("`{k}`"))),
            "{header}"
        );
    }

    #[test]
    fn log_parser_reads_stub_output_in_every_unit() {
        let log = "\
bench: micro/perturb_sparse_large/skip/4                     56.74 µs/iter (1762.3 Melem/s)
bench: micro/noisy_intersection/packed_popcount             1130.0 ns/iter
noise line that is ignored
bench: micro/engine_cached_batch/warm_multi_target              3.68 ms/iter (0.2 Melem/s)
bench: micro/slow_thing                                         1.20 s/iter
bench: micro/streaming_serving/sustained_double_buffered          3.326 ms/iter
";
        let parsed = parse_bench_log(log);
        assert_eq!(parsed["micro/perturb_sparse_large/skip/4"], 56_740.0);
        assert_eq!(parsed["micro/noisy_intersection/packed_popcount"], 1130.0);
        assert_eq!(
            parsed["micro/engine_cached_batch/warm_multi_target"],
            3_680_000.0
        );
        assert_eq!(parsed["micro/slow_thing"], 1_200_000_000.0);
        // The hand-rolled streaming_serving harness pads its ids; the
        // whitespace-splitting parser must read it like any stub line.
        assert_eq!(
            parsed["micro/streaming_serving/sustained_double_buffered"],
            3_326_000.0
        );
        assert_eq!(parsed.len(), 5);
    }

    #[test]
    fn baseline_parser_reads_bench_micro_schema() {
        let json = r#"{
            "schema": "ldp-cne/bench-baseline/v1",
            "results": [
                {"id": "a/b", "mean_ns": 123.5, "throughput": "x"},
                {"id": "c/d", "mean_ns": 4.0}
            ]
        }"#;
        let parsed = parse_baseline(json).unwrap();
        assert_eq!(parsed["a/b"], 123.5);
        assert_eq!(parsed["c/d"], 4.0);
    }

    #[test]
    fn repo_baseline_contains_every_gated_id() {
        // The gate must stay in sync with BENCH_micro.json at the repo root.
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_micro.json"
        ))
        .expect("BENCH_micro.json at repo root");
        let parsed = parse_baseline(&json).unwrap();
        for gate in GATES {
            assert!(parsed.contains_key(gate.numerator), "{}", gate.numerator);
            assert!(
                parsed.contains_key(gate.denominator),
                "{}",
                gate.denominator
            );
        }
        for &(_, id) in ZERO_GATES {
            assert!(parsed.contains_key(id), "{id}");
        }
    }

    #[test]
    fn matching_ratios_pass_and_regressions_fail() {
        let base = baseline();
        // Different hardware, same ratios (everything 3x slower): pass.
        let mut measured: HashMap<String, f64> =
            base.iter().map(|(k, v)| (k.clone(), v * 3.0)).collect();
        assert!(check(&base, &measured).unwrap().is_empty());
        // Warm multi-target loses its edge (2x past tolerance): fail.
        *measured
            .get_mut("micro/engine_cached_batch/warm_multi_target")
            .unwrap() *= 2.0;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("warm multi-target"));
    }

    #[test]
    fn serving_gates_catch_a_lost_coalescing_edge() {
        let base = baseline();
        // Same hardware, but double-buffered serving drops to parity with
        // the stop-the-world cycle (coalescing edge gone): the sustained
        // gate fails, the tail-window gate (untouched) stays green.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_serving/sustained_double_buffered")
            .unwrap() = 20.0e6;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("serving sustained"));
    }

    #[test]
    fn splice_gate_catches_a_rebuilding_splice() {
        let base = baseline();
        // The splice falls back to rebuilding the CSR (costing more than a
        // clone of the graph): only the splice gate fails.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_updates/apply_batch_64_edges")
            .unwrap() = 4.0 * 2.5e6;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("splice 64 edges"));
        // A slower machine copies and splices alike: the ratio holds.
        let mut measured = base.clone();
        for id in ["apply_batch_64_edges", "clone_graph"] {
            *measured
                .get_mut(&format!("micro/streaming_updates/{id}"))
                .unwrap() *= 2.0;
        }
        assert!(check(&base, &measured).unwrap().is_empty());
    }

    #[test]
    fn cluster_gates_catch_a_lost_ingest_scaling_edge() {
        let base = baseline();
        // The sharded deployment degrades to replicated-ingest cost (its
        // update-stream partitioning edge gone): both cluster gates fail
        // — against the replicated leg and against the 1-worker front —
        // while every single-process gate stays green.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_serving/sustained_cluster_4worker_sharded")
            .unwrap() = 109.0e6;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().all(|f| f.contains("cluster 4-worker")));
    }

    #[test]
    fn snapshot_gates_catch_a_lost_restart_edge() {
        let base = baseline();
        // The snapshot loader degrades to cold-build cost (bulk adoption
        // edge gone) and the snapshot cluster spawn to edge-frame cost
        // (shard-file reuse edge gone): both persistence gates fail,
        // everything else stays green.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_serving/snapshot_load")
            .unwrap() = 220.1e6;
        *measured
            .get_mut("micro/streaming_serving/spawn_bootstrap_snapshot")
            .unwrap() = 250.0e6;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 2);
        assert!(failures.iter().any(|f| f.contains("fast restart")));
        assert!(failures.iter().any(|f| f.contains("snapshot bootstrap")));
    }

    #[test]
    fn missing_benchmarks_are_errors_not_passes() {
        let base = baseline();
        let measured = HashMap::new();
        assert!(check(&base, &measured).is_err());
    }

    #[test]
    fn rebalance_gates_catch_downtime_and_reader_stalls() {
        let base = baseline();
        // A single failed query during the live rebalance: the zero gate
        // fails no matter how small the count.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_serving/rebalance_failed_queries")
            .unwrap() = 1.0;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("zero failed queries"));
        // A mid-rebalance query that pays a splice (~10x the steady mean
        // instead of the recorded ~1.6x): the ratio gate fails.
        let mut measured = base.clone();
        *measured
            .get_mut("micro/streaming_serving/rebalance_worst_query")
            .unwrap() = 50.0e6;
        let failures = check(&base, &measured).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("mid-rebalance"));
    }

    #[test]
    fn zero_gate_reads_raw_values_missing_is_an_error() {
        let base = baseline();
        // The ratio lookups treat non-positive values as missing; the
        // zero gate must NOT — 0 is its passing reading — but an absent
        // line is still an error, never a silent pass.
        let mut measured = base.clone();
        measured.remove("micro/streaming_serving/rebalance_failed_queries");
        let err = check(&base, &measured).unwrap_err();
        assert!(err.contains("rebalance_failed_queries"), "{err}");
    }
}
