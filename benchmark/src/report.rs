//! The metric catalogue (names, units, directions, bounds — the same ones
//! `BENCHMARK.json` declares), the values computed from a run, the printed
//! report, the contract's last line, and `compare`.

use crate::harness::{Class, Round, RunResult, TraceResult};
use crate::json::Json;
use crate::stats::{OverRounds, Pick};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Whether the reported value is the best round (timings and rates)
    /// or the median round.
    pub best_round: bool,
}

impl MetricDef {
    fn pick(&self) -> Pick {
        match (self.best_round, self.better) {
            (false, _) => Pick::Median,
            (true, Better::Lower) => Pick::Lowest,
            (true, Better::Higher) => Pick::Highest,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        best_round: false,
    }
}

/// An end-to-end timing: reported from the least disturbed round.
const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        best_round: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off. Bounds are
/// calibrated from repeated runs of unchanged code (see the README).
/// `failed_ops_share` is not among them because its healthy value is 0,
/// which no relative bound can guard; failures are reported as
/// `failed`/`attempted` on the result line and fail the run outright.
pub const END_TO_END: [MetricDef; 8] = [
    timed("setup_s", "s", Lower, 0.25),
    timed("throughput_kops", "kops/s", Higher, 0.2),
    timed("cpu_us_per_op", "us", Lower, 0.2),
    timed("op_p10_us", "us", Lower, 0.1),
    e2e("hit_ratio", "share", Higher, 0.02),
    e2e("server_imbalance", "ratio", Lower, 0.12),
    e2e("allocs_per_op", "count", Lower, 0.02),
    e2e("heap_live_mb", "MB", Lower, 0.02),
];

/// The per-layer metrics, from the traced run. No bounds: they explain
/// an end-to-end movement, they do not gate one.
pub const PER_LAYER: [MetricDef; 64] = [
    layer("proto.parse_get_ns", "ns", Lower),
    layer("proto.parse_reply64_ns", "ns", Lower),
    layer("proto.parse_reply2k_ns", "ns", Lower),
    layer("proto.deparse_get_ns", "ns", Lower),
    layer("proto.deparse_reply64_ns", "ns", Lower),
    layer("proto.deparse_reply2k_ns", "ns", Lower),
    layer("proto.parse_reply64_allocs", "count", Lower),
    layer("proto.parse_reply2k_allocs", "count", Lower),
    layer("proto.trace_us_per_op", "us", Lower),
    layer("sketch.cms_increment_ns", "ns", Lower),
    layer("sketch.bloom_insert_ns", "ns", Lower),
    layer("sketch.sampler_ns", "ns", Lower),
    layer("dataplane.get_hit64_ns", "ns", Lower),
    layer("dataplane.get_hit512_ns", "ns", Lower),
    layer("dataplane.get_hit2k_ns", "ns", Lower),
    layer("dataplane.get_miss_ns", "ns", Lower),
    layer("dataplane.put_cached_ns", "ns", Lower),
    layer("dataplane.put_uncached_ns", "ns", Lower),
    layer("dataplane.cache_update64_ns", "ns", Lower),
    layer("dataplane.reply_forward_ns", "ns", Lower),
    layer("dataplane.frame_get_hit64_ns", "ns", Lower),
    layer("dataplane.get_hit64_allocs", "count", Lower),
    layer("dataplane.get_miss_allocs", "count", Lower),
    layer("dataplane.passes_per_pkt", "count", Lower),
    layer("dataplane.trace_us_per_op", "us", Lower),
    layer("store.get_ns", "ns", Lower),
    layer("store.get_absent_ns", "ns", Lower),
    layer("store.put_ns", "ns", Lower),
    layer("server.get_ns", "ns", Lower),
    layer("server.put_uncached_ns", "ns", Lower),
    layer("server.put_cached_ns", "ns", Lower),
    layer("server.get_allocs", "count", Lower),
    layer("server.put_cached_allocs", "count", Lower),
    layer("server.trace_us_per_op", "us", Lower),
    layer("client.encode_get_ns", "ns", Lower),
    layer("client.decode_reply64_ns", "ns", Lower),
    layer("client.get_hit_p50_us", "us", Lower),
    layer("client.get_miss_p50_us", "us", Lower),
    layer("client.put_p50_us", "us", Lower),
    layer("client.op_p99_us", "us", Lower),
    layer("client.retries_per_kop", "count", Lower),
    layer("client.stale_per_kop", "count", Lower),
    layer("client.abandoned", "count", Lower),
    layer("client.trace_us_per_op", "us", Lower),
    layer("controller.populate_us_per_key", "us", Lower),
    layer("controller.cycle_ms", "ms", Lower),
    layer("controller.inserts_per_cycle", "count", Higher),
    layer("controller.evictions_per_cycle", "count", Lower),
    layer("controller.adapt_chunks", "count", Lower),
    layer("runtime.send_ns_per_dgram", "ns", Lower),
    layer("runtime.recv_ns_per_dgram", "ns", Lower),
    layer("runtime.syscalls_per_pkt", "count", Lower),
    layer("runtime.batch_occupancy_p50", "count", Higher),
    layer("netcache.switch_visits_per_op", "count", Lower),
    layer("netcache.server_visits_per_op", "count", Lower),
    layer("netcache.udp_unattributed_us_per_op", "us", Lower),
    layer("netcache.udp_rack_cpu_ratio", "ratio", Lower),
    layer("netcache.trace_coverage", "share", Higher),
    layer("netcache.trace_overhead_share", "share", Lower),
    layer("netcache.load_s", "s", Lower),
    layer("netcache.populate_s", "s", Lower),
    layer("workload.zipf_sample_ns", "ns", Lower),
    layer("workload.gen_s", "s", Lower),
    layer("sim.wall_s_per_sim_s", "ratio", Lower),
];

/// The end-to-end value of `metric` in one round.
fn round_value(metric: &str, r: &Round) -> f64 {
    match metric {
        "setup_s" => r.setup_s(),
        "throughput_kops" => r.throughput_ops_s / 1e3,
        "cpu_us_per_op" => r.cpu_ns_per_op / 1e3,
        "op_p10_us" => r.op_latency_us,
        "hit_ratio" => r.hit_ratio,
        "server_imbalance" => r.server_imbalance,
        "allocs_per_op" => r.allocs_per_op,
        "heap_live_mb" => r.heap_live_bytes as f64 / 1e6,
        other => unreachable!("undeclared end-to-end metric {other}"),
    }
}

/// Every end-to-end metric of `run` over its rounds, in catalogue order.
pub fn end_to_end(run: &RunResult) -> Vec<(&'static MetricDef, OverRounds)> {
    END_TO_END
        .iter()
        .map(|def| {
            let per_round = run.per_round(|r| round_value(def.name, r));
            (def, OverRounds::of(&per_round, def.pick()))
        })
        .collect()
}

/// Every per-layer metric, in catalogue order, from the traced run's
/// parts: one end-to-end round (`round`), the traced replay (`trace`),
/// the function timings (`timings`) and the generation time.
pub fn per_layer(
    round: &Round,
    trace: &TraceResult,
    timings: &[(&'static str, f64)],
    gen_s: f64,
) -> Vec<(&'static MetricDef, f64)> {
    let kops = round.phase_ops.max(1) as f64 / 1e3;
    let cycles = round.chunk_hit_ratios.len().max(1) as f64;
    let cpu_us = round.cpu_ns_per_op / 1e3;
    let traced: f64 = ["proto", "dataplane", "server", "client"]
        .iter()
        .map(|l| trace.layer(l))
        .sum();
    PER_LAYER
        .iter()
        .map(|def| {
            let value = match def.name {
                "proto.trace_us_per_op" => trace.layer("proto"),
                "dataplane.trace_us_per_op" => trace.layer("dataplane"),
                "server.trace_us_per_op" => trace.layer("server"),
                "client.trace_us_per_op" => trace.layer("client"),
                "dataplane.passes_per_pkt" => trace.passes_per_pkt,
                "client.get_hit_p50_us" => round.class_p50_us(Class::Hit),
                "client.get_miss_p50_us" => round.class_p50_us(Class::Miss),
                "client.put_p50_us" => round.class_p50_us(Class::Put),
                "client.op_p99_us" => round.latency_us(0.99),
                "client.retries_per_kop" => round.phase.retries as f64 / kops,
                "client.stale_per_kop" => round.phase.stale as f64 / kops,
                "client.abandoned" => round.failures.abandoned as f64,
                "controller.populate_us_per_key" => {
                    round.setup.populate_s * 1e6 / round.setup.populated.max(1) as f64
                }
                "controller.cycle_ms" => round.control_step_ms,
                "controller.inserts_per_cycle" => round.phase.insertions as f64 / cycles,
                "controller.evictions_per_cycle" => round.phase.evictions as f64 / cycles,
                "controller.adapt_chunks" => round.adapt_chunks(),
                "runtime.syscalls_per_pkt" => {
                    round.phase.io_syscalls as f64 / round.phase.io_packets.max(1) as f64
                }
                "runtime.batch_occupancy_p50" => round.batch_occupancy_p50,
                "netcache.switch_visits_per_op" => trace.switch_visits_per_op,
                "netcache.server_visits_per_op" => trace.server_visits_per_op,
                "netcache.udp_unattributed_us_per_op" => cpu_us - traced,
                "netcache.udp_rack_cpu_ratio" => cpu_us / trace.rack_cpu_us_per_op,
                "netcache.trace_coverage" => trace.coverage(),
                "netcache.trace_overhead_share" => trace.overhead_share(),
                "netcache.load_s" => round.setup.load_s,
                "netcache.populate_s" => round.setup.populate_s,
                "workload.gen_s" => gen_s,
                timed => timings
                    .iter()
                    .find(|(name, _)| *name == timed)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| unreachable!("no timing for {timed}")),
            };
            (def, value)
        })
        .collect()
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The contract's result line: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static MetricDef, f64)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.map(|(def, v)| (def.name, metric_json(v, def.unit)))),
        ),
    ])
    .render()
}

/// Prints the end-to-end table of one workload run. `gated` is false in
/// `--smoke` mode, whose phases are too short to compare against bounds.
pub fn print_end_to_end(name: &str, run: &RunResult, gated: bool) {
    println!(
        "\n== {name}: end to end, tracing off ({} rounds, {:.1} s measured, backend {}) ==",
        run.rounds.len(),
        run.seconds,
        run.rounds[0].backend
    );
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}  {:<7} {:<6} bound  picked",
        "metric", "value", "median", "min", "max", "unit", "better"
    );
    for (def, v) in end_to_end(run) {
        let bound = if gated {
            format!("{:.2}", def.bound)
        } else {
            "ungated".to_string()
        };
        println!(
            "{:<18} {:>12.4} {:>12.4} {:>12.4} {:>12.4}  {:<7} {:<6} {bound:<6} {}",
            def.name,
            v.value,
            v.median,
            v.min,
            v.max,
            def.unit,
            def.better.as_str(),
            if def.best_round {
                "best round"
            } else {
                "median"
            },
        );
    }
    let f = run.failures();
    let attempted = run.attempted();
    println!(
        "failed_ops_share   {:>12.6}  ({} of {attempted}: {} abandoned, {} wrong value, {} coherence, {} unexpected)",
        f.total() as f64 / attempted.max(1) as f64,
        f.total(),
        f.abandoned,
        f.wrong_value,
        f.coherence,
        f.unexpected
    );
    let per = |f: &dyn Fn(&Round) -> String| run.rounds.iter().map(f).collect::<Vec<_>>().join(" ");
    println!(
        "per round: steal ticks [{}]  window-1 samples [{}]  kops/s [{}]",
        per(&|r| r.steal_ticks.to_string()),
        per(&|r| r.latency_samples().to_string()),
        per(&|r| format!("{:.1}", r.throughput_ops_s / 1e3)),
    );
    if run.rounds[0].control_step_ms > 0.0 {
        let curve: Vec<String> = run.rounds[0]
            .chunk_hit_ratios
            .iter()
            .step_by(4)
            .map(|h| format!("{h:.2}"))
            .collect();
        println!(
            "hit ratio of every 4th chunk: {}  ({} keys cached at the end)",
            curve.join(" "),
            run.rounds[0].cached_keys
        );
    }
}

/// Prints the per-layer table of one traced run.
pub fn print_per_layer(name: &str, values: &[(&'static MetricDef, f64)], backend: &str) {
    println!("\n== {name}: per layer, traced run (runtime.backend {backend}) ==");
    for (def, v) in values {
        println!(
            "{:<38} {:>14.4}  {:<6} {}",
            def.name,
            v,
            def.unit,
            def.better.as_str()
        );
    }
}

/// One workload's section of a full-run result file.
pub fn workload_json(
    run: &RunResult,
    layers: &[(&'static MetricDef, f64)],
    stream_hash: u64,
) -> Json {
    let f = run.failures();
    Json::obj([
        ("stream_hash", Json::Str(format!("{stream_hash:016x}"))),
        ("attempted", Json::Num(run.attempted() as f64)),
        ("failed", Json::Num(f.total() as f64)),
        ("coherence_violations", Json::Num(f.coherence as f64)),
        (
            "steal_ticks",
            Json::Arr(
                run.rounds
                    .iter()
                    .map(|r| Json::Num(r.steal_ticks as f64))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::obj(end_to_end(run).into_iter().map(|(def, v)| {
                (
                    def.name,
                    Json::obj([
                        ("value", Json::Num(v.value)),
                        ("median", Json::Num(v.median)),
                        ("min", Json::Num(v.min)),
                        ("max", Json::Num(v.max)),
                        ("resolution", Json::Num(v.resolution)),
                        ("unit", Json::Str(def.unit.into())),
                        ("better", Json::Str(def.better.as_str().into())),
                        ("bound", Json::Num(def.bound)),
                    ]),
                )
            })),
        ),
        (
            "per_layer",
            Json::obj(
                layers
                    .iter()
                    .map(|(def, v)| (def.name, metric_json(*v, def.unit))),
            ),
        ),
    ])
}

/// Verdict of `compare` on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The rounds of either run pin its value down no better than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

/// Judges `b` against the baseline `a`; `resolution` is the coarser of
/// the two runs' [`OverRounds::resolution`].
pub fn judge(better: Better, bound: f64, a: f64, b: f64, resolution: f64) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let verdict = if resolution > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `compare a.json b.json`: prints the table and returns whether no
/// metric is worse. Refuses result sets that are not comparable.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for key in ["backend", "seed", "nproc", "seconds"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: `{key}` differs ({va:?} vs {vb:?})"
            ));
        }
    }
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .ok_or("no `workloads` section")?
            .members()
            .to_vec())
    };
    let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut all_ok = true;
    println!(
        "{:<15} {:<18} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let b_workloads = workloads(b)?;
    for (name, wa) in workloads(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            return Err(format!("workload {name} missing from the second file"));
        };
        for def in &END_TO_END {
            let at = |w: &Json| w.get("end_to_end").and_then(|e| e.get(def.name)).cloned();
            let (Some(ma), Some(mb)) = (at(&wa), at(wb)) else {
                return Err(format!("{name}: metric {} missing", def.name));
            };
            let (a_med, b_med) = (num(&ma, "value"), num(&mb, "value"));
            let resolution = num(&ma, "resolution").max(num(&mb, "resolution"));
            let (worse_by, verdict) = judge(def.better, def.bound, a_med, b_med, resolution);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<18} {:>12.4} {:>12.4} {:>+8.1}% {:>6.2}  {}",
                name,
                def.name,
                a_med,
                b_med,
                worse_by * 100.0,
                def.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        // Lower is better: 10 -> 11.5 is 15% worse.
        let (by, v) = judge(Lower, 0.1, 10.0, 11.5, 0.02);
        assert!((by - 0.15).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        assert_eq!(judge(Lower, 0.2, 10.0, 11.5, 0.02).1, Verdict::Ok);
        // Higher is better: 100 -> 80 is 20% worse, 100 -> 120 is fine.
        assert_eq!(judge(Higher, 0.1, 100.0, 80.0, 0.0).1, Verdict::Worse);
        assert_eq!(judge(Higher, 0.1, 100.0, 120.0, 0.0).1, Verdict::Ok);
        // Rounds that pin the value down no better than the bound
        // resolve nothing.
        assert_eq!(judge(Lower, 0.1, 10.0, 10.1, 0.3).1, Verdict::Unresolved);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let section = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e = section("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit);
            assert_eq!(text(m, "better"), def.better.as_str());
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = section("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit);
            assert_eq!(text(m, "better"), def.better.as_str());
        }
        let workloads = section("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (m, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(text(m, "name"), w.name);
            assert_eq!(text(m, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
