//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload once and prints every metric with its unit; the last
//! line of standard output is the result as one JSON object. The full
//! result (machine facts, set-up phases, work counts) is written to
//! `<out>/<workload>-seed<n>-trace<t>.json`, and a traced run writes the
//! spans of its count window to `<out>/<workload>-seed<n>.spans.csv`.
//! Exits non-zero when a served answer disagrees with BFS or with its
//! replay.

use std::fmt::Write as _;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, RunConfig, RunReport};
use perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/results");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    let report = run(RunConfig::new(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    ));
    print_report(&report);

    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    if let Err(e) = write_files(&report, &args.out, &stem) {
        eprintln!(
            "perfbench: could not write results to {}: {e}",
            args.out.display()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics `BENCHMARK.json` names, `(name, unit, value)`.
/// Call and update times are on the load thread's CPU clock. Tails are
/// gated at p90: p99 moved by more than the bound between runs of the same
/// code (see the README).
fn end_to_end_metrics(report: &RunReport) -> Vec<(&'static str, &'static str, f64)> {
    let e = &report.e2e;
    vec![
        ("qps", "q/s", e.qps),
        ("call_p50_us", "us", e.call_p50_us),
        ("call_p90_us", "us", e.call_p90_us),
        ("update_p50_us", "us", e.update_p50_us),
        ("update_p90_us", "us", e.update_p90_us),
        ("index_mib", "MiB", e.index_mib),
        ("setup_s", "s", e.setup_s),
    ]
}

/// `qps` and the call and update times on the wall clock.
fn wall_clock_metrics(report: &RunReport) -> Vec<(&'static str, &'static str, f64)> {
    let [qps, call_p50, call_p90, update_p50, update_p90] = report.e2e.wall;
    vec![
        ("wall_qps", "q/s", qps),
        ("wall_call_p50_us", "us", call_p50),
        ("wall_call_p90_us", "us", call_p90),
        ("wall_update_p50_us", "us", update_p50),
        ("wall_update_p90_us", "us", update_p90),
    ]
}

fn print_report(report: &RunReport) {
    let c = &report.config;
    let m = &report.machine;
    println!(
        "perfbench {} seed={} seconds={} trace={} nodes={}",
        c.workload.name(),
        c.seed,
        c.seconds,
        u8::from(c.trace),
        c.nodes
    );
    println!(
        "machine: cores={} llc_kib={} steal_pct={:.3} cpu={:?}",
        m.cores,
        m.llc_kib.map_or("unknown".to_string(), |k| k.to_string()),
        report.steal_pct,
        m.cpu_model
    );
    let label = if c.trace {
        "traced end-to-end"
    } else {
        "end-to-end"
    };
    for (name, unit, value) in end_to_end_metrics(report) {
        println!("{label}: {name} = {value:.3} {unit}");
    }
    for (name, value) in [
        ("call_p99_us", report.e2e.call_p99_us),
        ("update_p99_us", report.e2e.update_p99_us),
    ] {
        println!("{label}: {name} = {value:.3} us (reported, not gated)");
    }
    for (name, unit, value) in wall_clock_metrics(report) {
        println!("{label}: {name} = {value:.3} {unit} (wall clock, steal included; not gated)");
    }
    println!(
        "{label}: failed_pct = {:.3} % ({} of {} attempted; {} calls, {} updates, {} answers checked against BFS)",
        report.e2e.failed_pct, report.failed, report.attempted, report.e2e.calls, report.e2e.updates, report.checked
    );
    for (name, unit, value) in &report.per_layer {
        println!("per-layer: {name} = {value:.3} {unit}");
    }
    if let Some(counts) = &report.counts {
        println!(
            "count window: {} calls, methods {:?}",
            c.count_window, counts.methods
        );
    }
    for mismatch in &report.mismatches {
        println!("MISMATCH: {mismatch}");
    }
}

/// The last stdout line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics = if report.config.trace {
        report.per_layer.clone()
    } else {
        end_to_end_metrics(report)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&metrics)
    )
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push('}');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn string(text: &str) -> String {
    let mut out = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the full result, and the spans of a traced run.
fn write_files(report: &RunReport, dir: &PathBuf, stem: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let c = &report.config;
    let m = &report.machine;
    let e = &report.e2e;
    let s = &report.setup;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": {},", string(c.workload.name()));
    let _ = writeln!(
        json,
        "  \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nodes\": {},",
        c.seed,
        number(c.seconds),
        c.trace,
        c.nodes
    );
    let _ = writeln!(
        json,
        "  \"machine\": {{\"cores\": {}, \"llc_kib\": {}, \"cpu\": {}, \"steal_pct\": {}}},",
        m.cores,
        m.llc_kib.map_or("null".to_string(), |k| k.to_string()),
        string(&m.cpu_model),
        number(report.steal_pct)
    );
    let _ = writeln!(
        json,
        "  \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_pct\": {}, \"checked\": {},",
        report.correct,
        report.attempted,
        report.failed,
        number(e.failed_pct),
        report.checked
    );
    let _ = writeln!(
        json,
        "  \"calls\": {}, \"updates\": {}, \"call_p99_us\": {}, \"update_p99_us\": {},",
        e.calls,
        e.updates,
        number(e.call_p99_us),
        number(e.update_p99_us)
    );
    let _ = writeln!(
        json,
        "  \"setup\": {{\"repeats\": {}, \"build_s\": {}, \"encode_s\": {}, \"decode_s\": {}, \"total_s\": {}, \"snapshot_bytes\": {}}},",
        c.setup_repeats,
        number(s.build_s),
        number(s.encode_s),
        number(s.decode_s),
        number(s.total_s),
        s.snapshot_bytes
    );
    let key = if c.trace {
        "traced_end_to_end"
    } else {
        "end_to_end"
    };
    let _ = writeln!(
        json,
        "  \"{key}\": {},",
        metrics_json(&end_to_end_metrics(report))
    );
    let _ = writeln!(
        json,
        "  \"wall_clock\": {},",
        metrics_json(&wall_clock_metrics(report))
    );
    let _ = writeln!(
        json,
        "  \"per_layer\": {},",
        metrics_json(&report.per_layer)
    );
    let methods: Vec<String> = report
        .counts
        .iter()
        .flat_map(|counts| counts.methods.iter())
        .map(|(name, n)| format!("{}: {n}", string(name)))
        .collect();
    let _ = writeln!(
        json,
        "  \"count_window_methods\": {{{}}},",
        methods.join(", ")
    );
    let mismatches: Vec<String> = report.mismatches.iter().map(|m| string(m)).collect();
    let _ = writeln!(json, "  \"mismatches\": [{}]", mismatches.join(", "));
    json.push_str("}\n");
    fs::write(
        dir.join(format!("{stem}-trace{}.json", u8::from(c.trace))),
        json,
    )?;

    if let Some(tracer) = &report.tracer {
        let file = fs::File::create(dir.join(format!("{stem}.spans.csv")))?;
        tracer.write_csv(c.count_window as u32, &mut BufWriter::new(file))?;
    }
    Ok(())
}
