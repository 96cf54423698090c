//! Command line of the contract benchmark.
//!
//! ```text
//! netcache-benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                        [--trace 0|1] [--smoke] [--out PATH]
//! netcache-benchmark compare A.json B.json
//! ```
//!
//! `run --workload NAME` is what the driver calls: one workload, the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`), and as the last line of standard output one JSON object
//! `{correct, attempted, failed, metrics}`. `run` without `--workload`
//! visits every workload both ways and writes the result file `compare`
//! reads.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use netcache_benchmark::harness::{run_trace, run_workload, RunResult, ROUNDS};
use netcache_benchmark::json::Json;
use netcache_benchmark::report::{self, MetricDef};
use netcache_benchmark::workload::{self, Workload, WORKLOADS};
use netcache_benchmark::{clock, sut};

#[global_allocator]
static ALLOC: netcache_benchmark::alloc::CountingAlloc = netcache_benchmark::alloc::CountingAlloc;

/// Seed of a run when `--seed` is not given.
const DEFAULT_SEED: u64 = 24301;
/// Measured seconds of a run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;
/// Largest share of failed operations a correct run may have.
const MAX_FAILED_SHARE: f64 = 0.001;

const USAGE: &str = "usage:
  netcache-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
  netcache-benchmark compare A.json B.json";

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: out_dir().join("result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.smoke {
        // 0.2 s latency phase, 0.4 s throughput phase, one round.
        parsed.seconds = 0.6;
    }
    Ok(parsed)
}

fn is_correct(run: &RunResult) -> bool {
    let f = run.failures();
    f.coherence == 0 && f.total() as f64 <= MAX_FAILED_SHARE * run.attempted() as f64
}

/// The untraced run of one workload: every end-to-end metric.
fn measure_end_to_end(w: &Workload, stream: &workload::Stream, args: &RunArgs) -> RunResult {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let run = run_workload(w, stream, args.seconds, rounds);
    report::print_end_to_end(w.name, &run, !args.smoke);
    run
}

/// The traced run of one workload: every per-layer metric.
fn measure_layers(
    w: &Workload,
    stream: &workload::Stream,
    args: &RunArgs,
) -> (RunResult, Vec<(&'static MetricDef, f64)>) {
    // A few rounds with the phase lengths of an untraced round; the
    // least disturbed one (highest throughput) supplies the counters and
    // window-1 classes.
    let rounds = if args.smoke { 1 } else { 3 };
    let seconds = if args.smoke {
        args.seconds
    } else {
        args.seconds * rounds as f64 / ROUNDS as f64
    };
    let run = run_workload(w, stream, seconds, rounds);
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
    }
    let trace = run_trace(w, stream, &dir.join(format!("trace-{}.jsonl", w.name)));
    let timings = sut::layer_timings(Duration::from_secs_f64(args.seconds / 600.0));
    let round = run
        .rounds
        .iter()
        .max_by(|a, b| a.throughput_ops_s.total_cmp(&b.throughput_ops_s))
        .expect("at least one round");
    let layers = report::per_layer(round, &trace, &timings, stream.gen_s);
    report::print_per_layer(w.name, &layers, round.backend);
    println!(
        "walker: {} spans, {:.3} us/op without and {:.3} us/op with spans; product client {:.3} us/op",
        trace.spans, trace.walker_us_per_op.0, trace.walker_us_per_op.1, trace.rack_us_per_op
    );
    println!(
        "this round's cpu_us_per_op {:.4} = traced layers + netcache.udp_unattributed_us_per_op",
        round.cpu_ns_per_op / 1e3
    );
    (run, layers)
}

fn run(args: &RunArgs) -> ExitCode {
    let nproc = clock::nproc();
    let core = clock::confine_to_one_core();
    println!(
        "netcache-benchmark: seed {}, {} s measured per run, nproc {nproc}, confined to core {}, one load thread, closed loop (window {} / window 1), loopback{}",
        args.seed,
        args.seconds,
        core.map_or("none (refused)".to_string(), |c| c.to_string()),
        sut::WINDOW,
        if args.smoke { ", SMOKE: metrics ungated" } else { "" }
    );
    if let Some(w) = args.workload {
        let stream = workload::generate(w, args.seed);
        println!(
            "{}: {} ops generated in {:.3} s, stream hash {:016x}",
            w.name,
            stream.ops.len(),
            stream.gen_s,
            workload::stream_hash(&stream.ops)
        );
        let (run, metrics) = if args.trace {
            measure_layers(w, &stream, args)
        } else {
            let run = measure_end_to_end(w, &stream, args);
            let metrics = report::end_to_end(&run)
                .into_iter()
                .map(|(d, v)| (d, v.value))
                .collect();
            (run, metrics)
        };
        let correct = is_correct(&run);
        let line = report::result_line(
            correct,
            run.attempted(),
            run.failures().total(),
            metrics.into_iter(),
        );
        println!("{line}");
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Full run: every workload, untraced then traced, one result file.
    let mut sections = Vec::new();
    let mut all_correct = true;
    let mut backend = "none";
    for w in &WORKLOADS {
        let stream = workload::generate(w, args.seed);
        let run = measure_end_to_end(w, &stream, args);
        let (traced, layers) = measure_layers(w, &stream, args);
        all_correct &= is_correct(&run) && is_correct(&traced);
        if run.rounds[0].backend != "none" {
            backend = run.rounds[0].backend;
        }
        sections.push((
            w.name,
            report::workload_json(&run, &layers, workload::stream_hash(&stream.ops)),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::Str("netcache-benchmark/v1".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("backend", Json::Str(backend.into())),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(sections)),
    ]);
    let written = args
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&args.out, doc.render() + "\n"));
    match written {
        Ok(()) => println!("\nwrote {}", args.out.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a workload failed more than {MAX_FAILED_SHARE} of its operations or saw a coherence violation");
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    report::compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            match compare(&rest[0], &rest[1]) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
