//! Machine-readable bench output.
//!
//! Every figure binary accepts `--json <path>` and writes its rows as a
//! `netcache-fig/v1` document; `bench_all` drives a common scenario set
//! and writes a `netcache-bench/v2` document (see `DESIGN.md` §9). All
//! serialization goes through [`netcache::json::fmt_f64`], so a NaN or
//! infinite statistic becomes JSON `null` and trips the harness's
//! finite-number check instead of silently round-tripping.

use netcache::json::{escape, fmt_f64};
use netcache_sim::SimReport;

/// Parsed command line shared by the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchCli {
    /// Where to write the machine-readable results (`--json <path>`).
    pub json: Option<String>,
    /// Remaining positional arguments (figure-specific selectors).
    pub positional: Vec<String>,
}

/// Parses the bench command line, exiting with a usage error on anything
/// malformed (same contract as `udp_cluster --loss`).
pub fn parse_cli(bin: &str, extra_usage: &str) -> BenchCli {
    let usage = |problem: &str| -> ! {
        eprintln!("error: {problem}");
        eprintln!("usage: {bin} [--json <path>]{extra_usage}");
        std::process::exit(2);
    };
    let mut cli = BenchCli::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let Some(path) = args.next() else {
                    usage("--json takes a file path");
                };
                if path.is_empty() || path.starts_with('-') {
                    usage(&format!("--json: not a file path: {path:?}"));
                }
                cli.json = Some(path);
            }
            other if other.starts_with('-') => {
                usage(&format!("unknown argument {other:?}"));
            }
            other => cli.positional.push(other.to_string()),
        }
    }
    cli
}

/// Serializes a [`SimReport`] as one JSON object (no name; callers embed
/// it in a row). Latency quantiles come from the report's fixed-memory
/// histogram and are all zero when collection was disabled.
pub fn report_json(report: &SimReport) -> String {
    format!("{{{}}}", report_fields(report))
}

/// Serializes a [`SimReport`] with a leading `name` field, as one row of
/// a `scenarios`/`rows` array.
pub fn named_report_json(name: &str, report: &SimReport) -> String {
    format!("{{\"name\":{},{}}}", escape(name), report_fields(report))
}

/// The key/value body of [`report_json`] (no surrounding braces). Runs
/// with a value-size mixture additionally carry a `size_classes` array
/// breaking goodput and hit ratio down per class.
pub fn report_fields(report: &SimReport) -> String {
    let l = &report.latency;
    let mut fields = format!(
        "\"goodput_qps\":{},\"offered_qps\":{},\"cache_qps\":{},\
         \"server_qps\":{},\"hit_ratio\":{},\"drops\":{},\
         \"load_imbalance\":{},\"latency\":{{\"mean_ns\":{},\"p50_ns\":{},\
         \"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"samples\":{}}}",
        fmt_f64(report.goodput_qps),
        fmt_f64(report.offered_qps),
        fmt_f64(report.cache_qps),
        fmt_f64(report.server_qps),
        fmt_f64(report.hit_ratio),
        report.drops,
        fmt_f64(report.load_imbalance()),
        fmt_f64(l.mean_ns),
        l.p50_ns,
        l.p90_ns,
        l.p99_ns,
        l.p999_ns,
        l.samples,
    );
    if !report.size_classes.is_empty() {
        let rows: Vec<String> = report
            .size_classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"value_len\":{},\"offered\":{},\"delivered\":{},\
                     \"hits\":{},\"goodput_qps\":{},\"hit_ratio\":{}}}",
                    c.value_len,
                    c.offered,
                    c.delivered,
                    c.hits,
                    fmt_f64(c.goodput_qps),
                    fmt_f64(c.hit_ratio),
                )
            })
            .collect();
        fields.push_str(&format!(",\"size_classes\":[{}]", rows.join(",")));
    }
    fields
}

/// Wraps figure rows in the `netcache-fig/v1` envelope. `seed` is the
/// seed the rows were drawn with, `None` (JSON `null`) for a figure no
/// seed moves.
pub fn fig_json(figure: &str, seed: Option<u64>, rows: &[String]) -> String {
    let seed = seed.map_or_else(|| "null".to_string(), |s| s.to_string());
    format!(
        "{{\"schema\":\"netcache-fig/v1\",\"figure\":{},\"seed\":{},\"rows\":[{}]}}",
        escape(figure),
        seed,
        rows.join(",")
    )
}

/// Writes a JSON payload, exiting nonzero on I/O failure (bench binaries
/// must not report success with missing output).
pub fn write_json_file(path: &str, payload: &str) {
    if let Err(e) = std::fs::write(path, payload) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache::Json;

    #[test]
    fn report_json_parses_and_has_required_fields() {
        let report = SimReport {
            goodput_qps: 1000.0,
            offered_qps: 1100.0,
            cache_qps: 400.0,
            server_qps: 600.0,
            hit_ratio: 0.4,
            drops: 3,
            per_server_qps: vec![100.0, 200.0],
            latency: netcache_sim::rack_sim::LatencyStats {
                mean_ns: 5000.0,
                p50_ns: 4000,
                p90_ns: 8000,
                p99_ns: 9000,
                p999_ns: 9500,
                samples: 42,
            },
            latency_hist: netcache::Histogram::new(),
            per_second: Vec::new(),
            faults: netcache::FaultStats::default(),
            size_classes: Vec::new(),
        };
        let doc = Json::parse(&report_json(&report)).expect("valid json");
        doc.get_finite("hit_ratio").expect("finite hit ratio");
        doc.get_finite("load_imbalance").expect("finite imbalance");
        let lat = doc.get("latency").expect("latency section");
        assert_eq!(lat.get_u64("p99_ns").unwrap(), 9000);
        // max/mean of [100, 200] = 200/150.
        let imb = doc.get_finite("load_imbalance").unwrap();
        assert!((imb - 200.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn fig_envelope_parses() {
        let rows = vec![
            "{\"name\":\"a\"}".to_string(),
            "{\"name\":\"b\"}".to_string(),
        ];
        let doc = Json::parse(&fig_json("fig10a", Some(7), &rows)).expect("valid json");
        assert_eq!(doc.get("figure").unwrap().as_str().unwrap(), "fig10a");
        assert!(matches!(doc.get("seed"), Some(Json::Int(7))));
        assert_eq!(doc.get("rows").unwrap().as_array().unwrap().len(), 2);
    }
}
