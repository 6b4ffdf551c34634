//! The repo benchmark. See `README.md` for the metrics, the workloads
//! and the one-line run command.

#[cfg(test)]
mod checks;
mod metrics;
mod seed;
mod stats;
mod sut;
mod trace;
mod workloads;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Fault, RunConfig, Scale, WORKLOADS};

const USAGE: &str = "usage: enclaves-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace [0|1]] [--out <dir>] [--check]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn print_report(report: &Report, traced: bool) {
    println!(
        "== {}: {} rounds, {} ops attempted, {} failed (failed_ratio {}), correct {}",
        report.workload,
        report.rounds,
        report.attempted,
        report.failed,
        report.failed_ratio(),
        report.correct
    );
    println!(
        "   latency_tail_us is {} over {} samples a round; latencies and throughput are the best round's, setup_s the median round's",
        report.tail_label, report.samples_per_round
    );
    // The tail is a per-layer metric (it does not reproduce within any
    // bound on a shared host), but every run prints it.
    let shown = if traced { report.per_layer.len() } else { 1 };
    for m in report.end_to_end.iter().chain(&report.per_layer[..shown]) {
        println!("   {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Runs one workload and prints its report; the result line is last.
fn run_one(name: &str, cfg: &RunConfig) -> Result<bool, String> {
    let mut workload = workloads::make(name, cfg).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let data = workloads::run(workload.as_mut(), cfg)?;
    let report = metrics::report(&data, workload.roster_bound());
    print_report(&report, cfg.trace);
    if cfg.trace {
        println!("   span                                          count        total_ns         self_ns");
        for (label, t) in data.tracer.table() {
            println!(
                "   {label:<40} {:>10} {:>15} {:>15}",
                t.count, t.total_ns, t.self_ns
            );
        }
        let path = cfg.out_dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, data.tracer.to_json(name, cfg.seed))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("   spans written to {}", path.display());
    }
    println!("{}", report.result_line(cfg.trace));
    Ok(report.correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    // `--check`: every workload at smoke size, one untraced and one
    // traced round each, both metric sets printed.
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace || args.check,
        scale: if args.check {
            Scale::Smoke
        } else {
            Scale::Full
        },
        fault: Fault::None,
        out_dir: args.out,
        fixed_rounds: args.check.then_some(2),
    };
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut all_correct = true;
    for name in names {
        match run_one(name, &cfg) {
            Ok(correct) => all_correct &= correct,
            Err(why) => {
                eprintln!("{name}: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
