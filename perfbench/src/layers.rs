//! Metric definitions: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced run with the end-to-end metric each one
//! should move, and the human-readable report.

use crate::stats::{median, quantile, tail_quantile};
use crate::trace::{aggregate, breakdown, per};
use crate::{primary_op, Args, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics: `(name, unit, meaning)`.
pub const END_TO_END: [(&str, &str, &str); 2] = [
    (
        "setup_s",
        "s",
        "time until the service answers its first request, lower quartile of the run's set-ups",
    ),
    (
        "op_p50_ref",
        "ref",
        "median latency of one closed-loop operation per segment over the yardstick's time next to it, median over segments",
    ),
];

/// A per-layer metric: `(name, unit, better, should move, on)`.
type Layer = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

/// The per-layer metrics of `BENCHMARK.json`, each with the direction an
/// improvement moves it. Every one is reported on every workload listed
/// there; the README names the ones that read 0 on a workload.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 17] = [
    ("store.json_parse_us", "us", "lower", "render_p50_us", "explore, tune"),
    ("store.json_encode_us", "us", "lower", "mine_hit_p50_us", "explore"),
    ("store.json_encode_mb_per_s", "MB/s", "higher", "mine_hit_p50_us", "explore"),
    ("cache.capset_encode_us", "us", "lower", "mine_hit_p50_us, sweep_p50_ms", "explore, tune"),
    ("cache.capset_decode_us", "us", "lower", "render_p50_us", "explore"),
    ("cache.result_hit_ratio", "ratio", "higher", "ops_per_s", "explore"),
    ("cache.results_stored", "count", "lower", "sweep_p90_ms, mine_miss_p99_us", "tune, explore"),
    ("cache.extraction_hit_ratio", "ratio", "higher", "mine_miss_p50_us", "explore"),
    ("core.extraction_us", "us", "lower", "mine_miss_p50_us, fresh_p50_us", "explore, live"),
    ("core.spatial_us", "us", "lower", "sweep_p50_ms", "tune"),
    ("core.search_us", "us", "lower", "sweep_p50_ms, mine_miss_p50_us", "tune, explore"),
    ("server.service_us", "us", "lower", "mine_miss_p50_us, sweep_p50_ms", "explore, tune"),
    ("server.service_self_us", "us", "lower", "mine_miss_p50_us, sweep_p50_ms", "explore, tune"),
    ("viz.render_us", "us", "lower", "render_p50_us", "explore, live"),
    ("viz.svg_bytes", "B", "lower", "render_p50_us", "explore, live"),
    ("trace.residual_us", "us", "lower", "none (unattributed time per operation)", "all"),
    ("trace.overhead_pct", "%", "lower", "none (cost of tracing)", "all"),
];

/// Per-layer metrics shown in the report, not in the result line: the
/// bases of the ratios above and the counts that describe an operation's
/// size (no direction is better), the counters that read 0 on every
/// workload of `BENCHMARK.json`, and the write path, which only `live`
/// reaches. The direction field is empty where no direction is better.
#[rustfmt::skip]
pub const REPORT_ONLY: [Layer; 18] = [
    ("cache.result_probes", "count", "", "none (base of cache.result_hit_ratio)", "all"),
    ("cache.extraction_probes", "count", "", "none (base of cache.extraction_hit_ratio)", "all"),
    ("cache.extraction_evicted", "count", "lower", "mine_miss_p50_us, fresh_p50_us", "live"),
    ("core.caps_per_op", "count", "", "none (explains the op size)", "all"),
    ("core.largest_component", "count", "", "none (explains the op size)", "all"),
    ("core.sweep_graphs_built", "count", "", "none (explains the op size)", "tune"),
    ("core.sweep_search_groups", "count", "", "none (explains the op size)", "tune"),
    ("server.admission_shed", "count", "lower", "failed_share", "all"),
    ("server.admission_admitted", "count", "", "none (base of server.admission_shed)", "all"),
    ("trace.spans_per_op", "count", "", "none (tracing density)", "all"),
    ("store.wal_bytes_per_row", "B", "lower", "append_p50_us", "live"),
    ("store.wal_syncs_per_append", "count", "lower", "append_p50_us", "live"),
    ("store.compactions", "count", "lower", "append_p99_us", "live"),
    ("store.replayed_records", "count", "lower", "setup_s", "live"),
    ("server.append_begin_us", "us", "lower", "append_p50_us, append_p99_us", "live"),
    ("server.append_chunk_us", "us", "lower", "append_p50_us, append_p99_us", "live"),
    ("server.append_finish_us", "us", "lower", "append_p50_us, append_p99_us", "live"),
    ("server.watch_wakeup_us", "us", "lower", "fresh_p50_us", "live"),
];

/// Completed primary operations per measured second.
fn ops_per_s(o: &Outcome, workload: &str) -> f64 {
    let (attempted, failed) = o.ops.totals(primary_op(workload));
    (attempted - failed) as f64 / o.measured_s().max(1e-9)
}

/// The warm segments' operation p50 over the yardstick's time next to them.
fn segment_ratios(o: &Outcome) -> Vec<f64> {
    let skip = o.warmup_segments.min(o.segments.len().saturating_sub(1));
    o.segments[skip..]
        .iter()
        .filter(|s| !s.yardstick_s.is_empty())
        .map(|s| median(&s.op_us) * 1e-6 / median(&s.yardstick_s))
        .collect()
}

/// The end-to-end metrics of an untraced pass. `setup_s` is the lower
/// quartile of the run's set-ups: load from the rest of a shared host only
/// ever adds time, so the lower quartile follows the program's own cost
/// while up to three quarters of the set-ups are slowed.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let values = [quantile(&o.setup_s, 0.25), median(&segment_ratios(o))];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect()
}

/// The per-layer metrics of a traced pass `t`, with `plain` (the untraced
/// pass of the same run) as the base of the tracing overhead: those of
/// `BENCHMARK.json`, then the report-only ones.
pub fn per_layer(workload: &str, plain: &Outcome, t: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let agg = aggregate(&t.spans);
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let encode = a("store.json_encode");
    let render = a("viz.render");
    let result_probes = c("result_hits") + c("result_misses");
    let extraction_probes = c("extraction_hits") + c("extraction_misses");
    let ops = t.ops.totals(primary_op(workload)).0 as f64;
    let residual_ns: u64 = agg
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, g)| g.self_ns)
        .sum();
    let traced_rate = ops_per_s(t, workload);
    let values: BTreeMap<&str, f64> = [
        ("store.json_parse_us", a("store.json_parse").mean_us()),
        ("store.json_encode_us", encode.mean_us()),
        (
            "store.json_encode_mb_per_s",
            ratio(encode.bytes as f64 * 1e3, encode.total_ns as f64),
        ),
        (
            "store.wal_bytes_per_row",
            ratio(c("wal_bytes"), c("wal_rows")),
        ),
        (
            "store.wal_syncs_per_append",
            ratio(c("wal_syncs"), c("wal_appends")),
        ),
        ("store.compactions", c("compactions")),
        ("store.replayed_records", c("replayed_records")),
        ("cache.capset_encode_us", a("cache.capset_encode").mean_us()),
        ("cache.capset_decode_us", a("cache.capset_decode").mean_us()),
        (
            "cache.result_hit_ratio",
            ratio(c("result_hits"), result_probes),
        ),
        ("cache.result_probes", result_probes),
        (
            "cache.results_stored",
            ratio(c("results_stored"), c("rounds")),
        ),
        (
            "cache.extraction_hit_ratio",
            ratio(
                c("extraction_hits") + c("extraction_prefix_hits"),
                extraction_probes,
            ),
        ),
        ("cache.extraction_probes", extraction_probes),
        ("cache.extraction_evicted", c("extraction_evicted")),
        ("core.extraction_us", a("core.extraction").mean_us()),
        ("core.spatial_us", a("core.spatial").mean_us()),
        ("core.search_us", a("core.search").mean_us()),
        ("core.caps_per_op", ratio(c("caps"), c("responses"))),
        (
            "core.largest_component",
            ratio(c("largest_component"), c("mined")),
        ),
        (
            "core.sweep_graphs_built",
            ratio(c("sweep_graphs_built"), c("sweeps")),
        ),
        (
            "core.sweep_search_groups",
            ratio(c("sweep_search_groups"), c("sweeps")),
        ),
        ("server.service_us", a("server.service").mean_us()),
        ("server.service_self_us", a("server.service").mean_self_us()),
        ("server.append_begin_us", a("server.append_begin").mean_us()),
        ("server.append_chunk_us", a("server.append_chunk").mean_us()),
        (
            "server.append_finish_us",
            a("server.append_finish").mean_us(),
        ),
        ("server.watch_wakeup_us", {
            let w = t.lat.get("watch_wakeup");
            if w.is_empty() {
                0.0
            } else {
                median(w)
            }
        }),
        ("server.admission_shed", c("admission_shed")),
        ("server.admission_admitted", c("admission_admitted")),
        ("viz.render_us", render.mean_us()),
        (
            "viz.svg_bytes",
            ratio(render.bytes as f64, render.count as f64),
        ),
        ("trace.residual_us", ratio(residual_ns as f64 / 1e3, ops)),
        (
            "trace.overhead_pct",
            (ratio(ops_per_s(plain, workload), traced_rate) - 1.0) * 100.0,
        ),
        ("trace.spans_per_op", ratio(t.spans.len() as f64, ops)),
    ]
    .into_iter()
    .collect();
    let pick = |table: &[Layer]| -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit, ..)| Metric {
                name,
                unit,
                value: values[name],
            })
            .collect()
    };
    (pick(&PER_LAYER), pick(&REPORT_ONLY))
}

/// The latency classes each workload reports, by the names changes cite:
/// `(class, metric stem, unit divisor, unit)`.
fn classes(workload: &str) -> &'static [(&'static str, &'static str, f64, &'static str)] {
    match workload {
        "explore" => &[
            ("mine_hit", "mine_hit", 1.0, "us"),
            ("mine_miss", "mine_miss", 1.0, "us"),
            ("render", "render", 1.0, "us"),
        ],
        "live" => &[
            ("append", "append", 1.0, "us"),
            ("fresh", "fresh", 1.0, "us"),
            ("mine_miss", "mine_miss", 1.0, "us"),
            ("render", "render", 1.0, "us"),
        ],
        _ => &[("sweep", "sweep", 1e3, "ms")],
    }
}

/// The name, unit divisor and unit each workload reports its closed-loop
/// operation's latency under.
fn op_class(workload: &str) -> (&'static str, f64, &'static str) {
    match workload {
        "explore" => ("interaction", 1.0, "us"),
        "live" => ("cycle", 1.0, "us"),
        _ => ("sweep_and_view", 1e3, "ms"),
    }
}

/// The report printed before the result line (and saved beside the spans).
pub fn report(
    args: &Args,
    host: &[(&str, String)],
    plain: &Outcome,
    traced: Option<&Outcome>,
    metrics: &[Metric],
    report_only: &[Metric],
    problems: &[String],
) -> String {
    let mut r = String::new();
    let _ = writeln!(
        r,
        "== perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in host {
        let _ = writeln!(r, "{k} = {v}");
    }
    let runs: Vec<(&str, &Outcome)> = std::iter::once(("untraced", plain))
        .chain(traced.map(|t| ("traced", t)))
        .collect();
    for (label, o) in &runs {
        let _ = writeln!(
            r,
            "-- {label} pass: {:.3} s measured, {} set-ups",
            o.measured_s(),
            o.setup_s.len()
        );
        let _ = writeln!(
            r,
            "   {:<22} {:>14} {:>6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        let line = |r: &mut String, name: &str, v: f64, unit: &str, n: usize| {
            let _ = writeln!(r, "   {name:<22} {v:>14.3} {unit:>6} {n:>8}");
        };
        line(
            &mut r,
            "setup_p50_s",
            median(&o.setup_s),
            "s",
            o.setup_s.len(),
        );
        let op = o.op_us();
        line(
            &mut r,
            "ops_per_s",
            ops_per_s(o, &args.workload),
            "1/s",
            op.len(),
        );
        let (attempted, failed) = o.ops.totals(primary_op(&args.workload));
        line(
            &mut r,
            "failed_share",
            per(failed as f64, attempted),
            "ratio",
            attempted as usize,
        );
        let latencies = classes(&args.workload)
            .iter()
            .map(|&(class, stem, div, unit)| (stem, div, unit, o.lat.get(class)))
            .chain(std::iter::once({
                let (stem, div, unit) = op_class(&args.workload);
                (stem, div, unit, op.as_slice())
            }));
        for (stem, div, unit, v) in latencies {
            if v.is_empty() {
                continue;
            }
            let (tail, q) = tail_quantile(v.len());
            line(
                &mut r,
                &format!("{stem}_p50_{unit}"),
                quantile(v, 0.5) / div,
                unit,
                v.len(),
            );
            if tail != "p50" {
                line(
                    &mut r,
                    &format!("{stem}_{tail}_{unit}"),
                    quantile(v, q) / div,
                    unit,
                    v.len(),
                );
            }
        }
        let rates: Vec<f64> = o
            .segments
            .iter()
            .map(|s| s.completed as f64 / s.measured_s.max(1e-9))
            .collect();
        let _ = writeln!(
            r,
            "   segments={} ops_per_s min={:.2} q1={:.2} median={:.2} q3={:.2} max={:.2}",
            rates.len(),
            quantile(&rates, 0.0),
            quantile(&rates, 0.25),
            quantile(&rates, 0.5),
            quantile(&rates, 0.75),
            quantile(&rates, 1.0)
        );
        let spreads: [(&str, Vec<f64>); 3] = [
            (
                "segment op p50 (us)",
                o.segments.iter().map(|s| median(&s.op_us)).collect(),
            ),
            (
                "segment yardstick (us)",
                o.segments
                    .iter()
                    .map(|s| median(&s.yardstick_s) * 1e6)
                    .collect(),
            ),
            ("segment op_p50_ref", segment_ratios(o)),
        ];
        for (label, v) in spreads {
            let _ = writeln!(
                r,
                "   {label}: min={:.3} q1={:.3} median={:.3} q3={:.3} max={:.3}",
                quantile(&v, 0.0),
                quantile(&v, 0.25),
                quantile(&v, 0.5),
                quantile(&v, 0.75),
                quantile(&v, 1.0)
            );
        }
        for (op, (a, s, f)) in &o.ops.map {
            let failures: Vec<String> = f.iter().map(|(st, n)| format!("{st}:{n}")).collect();
            let _ = writeln!(
                r,
                "   ops.{op}: attempted={a} succeeded={s} failed=[{}]",
                failures.join(" ")
            );
        }
    }
    if let Some(t) = traced {
        let _ = writeln!(
            r,
            "-- per-layer metrics (traced pass) and the end-to-end metric each should move"
        );
        let table: BTreeMap<&str, (&str, &str)> = PER_LAYER
            .iter()
            .chain(&REPORT_ONLY)
            .map(|&(n, _, _, m, on)| (n, (m, on)))
            .collect();
        for m in metrics.iter().chain(report_only) {
            let (moves, on) = table.get(m.name).copied().unwrap_or(("", ""));
            let _ = writeln!(
                r,
                "   {:<32} {:>14.3} {:>6}  -> {moves} [{on}]",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            r,
            "-- self time per operation, by span (us; the op.* row is the residual)"
        );
        for (op, names) in breakdown(&t.spans) {
            let total: f64 = names.values().sum();
            let _ = writeln!(r, "   {op}: {total:.1} us per op");
            for (name, us) in names {
                let _ = writeln!(
                    r,
                    "      {name:<30} {us:>12.2} {:>6.1}%",
                    100.0 * us / total.max(1e-9)
                );
            }
        }
        let _ = writeln!(r, "-- spans by name: count, mean us, mean self us");
        for (name, g) in aggregate(&t.spans) {
            let _ = writeln!(
                r,
                "   {name:<30} {:>8} {:>12.2} {:>12.2}",
                g.count,
                g.mean_us(),
                g.mean_self_us()
            );
        }
    } else {
        let _ = writeln!(r, "-- end-to-end metrics");
        for m in metrics {
            let _ = writeln!(r, "   {:<22} {:>14.3} {:>6}", m.name, m.value, m.unit);
        }
    }
    for note in runs.iter().flat_map(|(_, o)| &o.notes) {
        let _ = writeln!(r, "-- note: {note}");
    }
    if problems.is_empty() {
        let _ = writeln!(r, "-- correctness: all checks passed");
    } else {
        for p in problems {
            let _ = writeln!(r, "-- correctness FAILED: {p}");
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = miscela_store::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|n| n.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, ..)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let better: Vec<&str> = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("better").and_then(|b| b.as_str()).unwrap())
            .collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(_, _, b, ..)| b).collect();
        assert_eq!(better, expected);
    }
}
