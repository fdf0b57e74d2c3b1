//! `morphbench` — the repository's benchmark.
//!
//! One process runs one workload:
//!
//! ```text
//! morphbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! morphbench --all            # the five workloads in sequence, as child processes
//! morphbench --check-repeat   # every workload twice; fails if they disagree
//! ```
//!
//! It prints every metric by name with its unit, checks every output, ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`) and
//! exits non-zero on any wrong result.  `README.md` next to this package
//! has the metric and workload tables.

mod harness;
mod layers;
mod scan;
mod serve;
mod ssb;
mod stmts;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use harness::{
    highest_supported_percentile, median, mib, per_layer, percentile, Report, RunConfig, END_TO_END,
};

/// The workloads and why each exists (`BENCHMARK.json` carries the same).
const WORKLOADS: [(&str, &str); 5] = [
    (
        "ssb_compressed",
        "13 SSB queries as SQL, serial, cost-chosen formats everywhere: engine.ops and compression do all the work",
    ),
    (
        "ssb_uncompressed",
        "same queries and data uncompressed: the bypass control a compression or cost change must not move",
    ),
    (
        "ssb_parallel",
        "same queries on 2 threads with fusion and morsels: the only workload engine.parallel and fusion scheduling move",
    ),
    (
        "scan_compressed",
        "SUM(Y) WHERE X=c over synthetic columns, fused: select/project/agg and codecs only, encode-heavy streaming scan",
    ),
    (
        "serve_zipf",
        "morph-server, 2 closed-loop clients, Zipf(1.1) over 256 statements, cache smaller than the pool: sql+server+cache paths",
    ),
];

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u64 = 8;

fn run_workload(config: &RunConfig) -> Option<Report> {
    Some(match config.workload.as_str() {
        "ssb_compressed" => ssb::run(ssb::Variant::Compressed, config),
        "ssb_uncompressed" => ssb::run(ssb::Variant::Uncompressed, config),
        "ssb_parallel" => ssb::run(ssb::Variant::Parallel, config),
        "scan_compressed" => scan::run(config),
        "serve_zipf" => serve::run(config),
        _ => return None,
    })
}

/// The metrics one run reports, by name: the end-to-end ones, or with
/// `trace` the per-layer ones.
fn metrics_of(report: &Report, trace: bool) -> Vec<(String, f64, &'static str)> {
    let timed = &report.timed;
    if trace {
        let mut layers = report.layers.clone();
        layers.insert("harness.verify_s".into(), report.verify_s);
        layers.insert("harness.samples".into(), timed.latencies_ms.len() as f64);
        return per_layer()
            .into_iter()
            .map(|def| {
                let value = layers.get(&def.name).copied().unwrap_or(0.0);
                (def.name, value, def.unit)
            })
            .collect();
    }
    let block_s = median(&timed.block_s);
    let failed = timed.failed.min(timed.attempted);
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", median(&report.setup_s)),
        (
            "throughput_qps",
            if block_s > 0.0 {
                report.ops_per_block as f64 / block_s
            } else {
                0.0
            },
        ),
        ("latency_ms_p50", percentile(&timed.latencies_ms, 50.0)),
        ("latency_ms_p90", percentile(&timed.latencies_ms, 90.0)),
        ("footprint_mib", mib(report.footprint_bytes)),
        ("peak_rss_mib", report.peak_rss_mib),
        (
            "ok_share",
            1.0 - failed as f64 / timed.attempted.max(1) as f64,
        ),
    ]);
    END_TO_END
        .iter()
        .map(|def| (def.name.to_string(), values[def.name], def.unit))
        .collect()
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn result_line(report: &Report, metrics: &[(String, f64, &'static str)]) -> String {
    let failed = report.timed.failed.min(report.timed.attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.timed.attempted.max(1),
        body.join(", ")
    )
}

/// `BENCHMARK.json`, generated from the tables in this package (a test
/// keeps the checked-in file equal to it).
fn benchmark_json() -> String {
    let quoted = |s: &str| format!("\"{s}\"");
    let better = |higher| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d.higher_is_better),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d.higher_is_better)
            )
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "morphbench/Cargo.toml",
        "--",
    ]
    .map(quoted)
    .join(", ");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"morphbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

/// Run this executable again with `args`, stderr passed through; returns
/// its standard output and whether it exited with code 0.
fn run_child(args: &[String]) -> (String, bool) {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("the child process starts");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    )
}

/// The `metric <name> <value> <unit>` lines of a child's output.
fn parse_metric_lines(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next()? == "metric").then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first;
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_args(config: &RunConfig, workload: &str) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        config.seed.to_string(),
        "--seconds".to_string(),
        config.seconds.to_string(),
        "--trace".to_string(),
        u8::from(config.trace).to_string(),
    ];
    if config.smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// `--all`: the five workloads in sequence, one child process each.
fn run_all(config: &RunConfig) -> ExitCode {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        println!("== {workload}");
        let (stdout, success) = run_child(&child_args(config, workload));
        print!("{stdout}");
        ok &= success;
    }
    exit_code(ok)
}

/// `--check-repeat`: every workload twice, side by side; fails when a
/// second run is worse than the first by more than the metric's bound.
fn check_repeat(config: &RunConfig) -> ExitCode {
    let config = RunConfig {
        trace: false,
        ..config.clone()
    };
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let args = child_args(&config, workload);
        let (first_out, first_ok) = run_child(&args);
        let (second_out, second_ok) = run_child(&args);
        ok &= first_ok && second_ok;
        let (first, second) = (
            parse_metric_lines(&first_out),
            parse_metric_lines(&second_out),
        );
        println!("== {workload}");
        println!(
            "{:<18} {:>14} {:>14} {:>9} {:>7}",
            "metric", "first", "second", "worse by", "bound"
        );
        for def in END_TO_END {
            let (Some(a), Some(b)) = (first.get(def.name), second.get(def.name)) else {
                println!("{:<18} missing from a run", def.name);
                ok = false;
                continue;
            };
            let worse = worsening(*a, *b, def.higher_is_better);
            let verdict = if worse > def.bound { "  FAIL" } else { "" };
            ok &= worse <= def.bound;
            println!(
                "{:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%{verdict}",
                def.name,
                worse * 100.0,
                def.bound * 100.0
            );
        }
    }
    exit_code(ok)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: morphbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         morphbench --all | --check-repeat [--seed N] [--seconds S] [--smoke]\nworkloads:"
    );
    for (name, why) in WORKLOADS {
        eprintln!("  {name}: {why}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let (mut all, mut repeat) = (false, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut ok = true;
        match arg.as_str() {
            "--workload" => match args.next() {
                Some(name) => config.workload = name,
                None => ok = false,
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => config.seed = seed,
                None => ok = false,
            },
            "--seconds" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(seconds) if seconds > 0.0 => config.seconds = seconds,
                _ => ok = false,
            },
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                config.trace = args.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--smoke" => config.smoke = true,
            "--all" => all = true,
            "--check-repeat" => repeat = true,
            "--emit-benchmark-json" => {
                print!("{}", benchmark_json());
                return ExitCode::SUCCESS;
            }
            _ => ok = false,
        }
        if !ok {
            eprintln!("morphbench: bad argument `{arg}`");
            return usage();
        }
    }
    if repeat {
        return check_repeat(&config);
    }
    if all {
        return run_all(&config);
    }
    let Some(report) = run_workload(&config) else {
        eprintln!("morphbench: unknown workload `{}`", config.workload);
        return usage();
    };

    let samples = report.timed.latencies_ms.len();
    println!(
        "workload {} seed {} cores {} samples {} blocks {} highest-supported-percentile p{}",
        config.workload,
        config.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        report.timed.block_s.len(),
        highest_supported_percentile(samples).unwrap_or(0)
    );
    let metrics = metrics_of(&report, config.trace);
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", result_line(&report, &metrics));
    exit_code(report.timed.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed: 42,
            seconds: 1.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn smoke_path_runs_all_five_workloads_correctly() {
        for (workload, _) in WORKLOADS {
            let report = run_workload(&smoke(workload, false)).expect("a known workload");
            assert_eq!(report.timed.failed, 0, "{workload}");
            assert!(report.timed.attempted > 0, "{workload}");
            for (name, value, _) in metrics_of(&report, false) {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{workload}: {name} = {value}"
                );
            }
        }
    }

    #[test]
    fn traced_smoke_reports_every_layer_and_reconciles_operator_time() {
        for (workload, _) in WORKLOADS {
            let report = run_workload(&smoke(workload, true)).expect("a known workload");
            assert_eq!(report.timed.failed, 0, "{workload}");
            let metrics = metrics_of(&report, true);
            assert_eq!(metrics.len(), per_layer().len());
            let value = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
            assert!(value("telemetry.spans") > 0.0, "{workload}");
            assert!(value("storage.base_bytes") > 0.0, "{workload}");
            if workload == "serve_zipf" {
                assert!(value("server.served") > 0.0);
                assert!(value("cache.hits") + value("cache.misses") > 0.0);
                continue;
            }
            // Σ engine.op.*.busy_s + plan overhead is the execute wall time.
            let ops: f64 = harness::OP_KINDS
                .iter()
                .map(|kind| value(&format!("engine.op.{kind}.busy_s")))
                .sum();
            let execute = value("engine.execute.busy_s");
            assert!(execute > 0.0 && ops > 0.0, "{workload}");
            let reconciled = ops + value("engine.plan_overhead_s");
            assert!((reconciled - execute).abs() <= 0.02 * execute, "{workload}");
        }
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(run_workload(&smoke("no_such_workload", false)).is_none());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let report = Report {
            setup_s: vec![0.5],
            ops_per_block: 2,
            timed: harness::Timed {
                latencies_ms: vec![1.0, 2.0],
                block_s: vec![0.25],
                attempted: 2,
                failed: 0,
            },
            footprint_bytes: 1 << 20,
            peak_rss_mib: 10.0,
            ..Report::default()
        };
        let metrics = metrics_of(&report, false);
        let line = result_line(&report, &metrics);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"throughput_qps\": {\"value\": 8, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"ok_share\": {\"value\": 1, \"unit\": \"share\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn metric_lines_round_trip_and_worsening_is_signed() {
        let parsed = parse_metric_lines("noise\nmetric setup_s 0.5 s\nmetric ok_share 1 share\n{}");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["setup_s"], 0.5);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 1.0, false), 0.0);
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        for (name, why) in WORKLOADS {
            assert!(harness::valid_metric_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
