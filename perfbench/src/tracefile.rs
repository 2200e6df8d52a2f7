//! The traced run's report: the per-layer self-time table, the closure
//! ratio and the tracing overhead, printed and written with the span
//! record to `.perfbench_out/trace-<workload>-seed<seed>.json`.

use crate::report::{out_dir, Outcome};
use crate::trace::{closure_ratio, spans_json, LayerTable, Tracer};
use std::fmt::Write as _;

/// Finishes a traced run. `kinds` lists each root span name with the
/// untraced mean end-to-end time (ms) of that operation kind and how many
/// traced roots of that kind there are. `derived` holds figures computed
/// from in-process replays rather than spans (name, value, unit); they are
/// reported beside the table and never counted in the closure.
pub fn finish(
    workload: &str,
    seed: u64,
    tr: &Tracer,
    kinds: &[(&str, f64, usize)],
    derived: &[(&str, f64, &str)],
    out: &mut Outcome,
) {
    let table = LayerTable::from_spans(tr.spans());
    let untraced_ns: f64 = kinds.iter().map(|&(_, m, n)| m * 1e6 * n as f64).sum();
    let closure = closure_ratio(table.attributed_ns(), untraced_ns);
    let unattributed = table.unattributed_ns as f64 / untraced_ns.max(1.0);
    let overhead_ms = (table.traced_ns as f64 - untraced_ns) / 1e6 / table.ops.max(1) as f64;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "trace {workload} seed={seed}: {}",
        crate::host::describe()
    );
    for &(kind, untraced_ms, n) in kinds {
        let traced: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && s.name == kind)
            .map(|s| s.duration() as f64 / 1e6)
            .collect();
        let traced_ms = crate::stats::mean(&traced);
        let _ = writeln!(
            text,
            "  {kind:<14} ops={n:<6} untraced mean {untraced_ms:>9.4} ms  traced mean {traced_ms:>9.4} ms  overhead {:>+8.4} ms",
            traced_ms - untraced_ms
        );
    }
    let _ = writeln!(
        text,
        "  {:<28} {:>8} {:>12} {:>10}",
        "layer", "calls", "self ms/op", "share"
    );
    let ops = table.ops.max(1) as f64;
    for (layer, &(calls, ns)) in &table.layers {
        let _ = writeln!(
            text,
            "  {layer:<28} {calls:>8} {:>12.4} {:>9.1}%",
            ns as f64 / 1e6 / ops,
            100.0 * ns as f64 / untraced_ns.max(1.0)
        );
    }
    let _ = writeln!(
        text,
        "  {:<28} {:>8} {:>12.4} {:>9.1}%",
        "unattributed",
        table.ops,
        table.unattributed_ns as f64 / 1e6 / ops,
        100.0 * unattributed
    );
    let _ = writeln!(
        text,
        "  closure {closure:.4} (layer self time / untraced end-to-end), tracing overhead {overhead_ms:+.4} ms/op"
    );
    for &(name, value, unit) in derived {
        let _ = writeln!(text, "  derived {name:<40} {value:>12.4} {unit}");
    }
    print!("{text}");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"host\":\"{}\",\"closure_ratio\":{closure},\"unattributed_share\":{unattributed},\"overhead_ms_per_op\":{overhead_ms},\"untraced_ns\":{untraced_ns},\"traced_ns\":{},\"ops\":{},\"layers\":{{",
        crate::host::describe(),
        table.traced_ns,
        table.ops
    );
    let rows: Vec<String> = table
        .layers
        .iter()
        .map(|(l, &(calls, ns))| format!("\"{l}\":{{\"calls\":{calls},\"self_ns\":{ns}}}"))
        .chain(std::iter::once(format!(
            "\"unattributed\":{{\"calls\":{},\"self_ns\":{}}}",
            table.ops, table.unattributed_ns
        )))
        .collect();
    json.push_str(&rows.join(","));
    json.push_str("},\"derived\":{");
    let rows: Vec<String> = derived
        .iter()
        .map(|&(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    json.push_str(&rows.join(","));
    json.push_str("},\"spans\":[\n");
    json.push_str(&spans_json(tr.spans()).trim_end().replace('\n', ",\n"));
    json.push_str("\n]}\n");
    let path = out_dir().join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, json).expect("write the trace file");
    println!("  spans written to {}", path.display());

    out.set("trace.closure_ratio", closure);
    out.set("trace.unattributed_share", unattributed);
    out.set("trace.overhead_ms_per_op", overhead_ms);
}
