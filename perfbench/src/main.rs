//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `s` seconds. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it reports the per-layer metrics
//! and writes the span dump and the layer table under `.bench_out`. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! output check passed.

use perfbench::layers::traced;
use perfbench::measure::measure;
use perfbench::report::RunReport;
use perfbench::scratch::ScratchDir;
use perfbench::spans::to_jsonl;
use perfbench::workloads::Kind;
use std::path::Path;
use std::process::ExitCode;

/// Where each invocation makes its own scratch directory for WAL files.
const SCRATCH_BASE: &str = ".bench_scratch";
/// Where the traced run writes its span dump and layer table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| {
                        bad("one of stream-certify, burst-tenants, durable-crash")
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn write_out(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, contents)) {
        eprintln!("writing {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <stream-certify|burst-tenants|durable-crash> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::new(Path::new(SCRATCH_BASE)) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: scratch directory under {SCRATCH_BASE}: {e}");
            return ExitCode::from(2);
        }
    };
    let (kind, size) = (args.kind, args.kind.full_size());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} processes {} instances {} cores {cores}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        size.processes,
        size.instances
    );
    let report = if args.trace {
        let run = traced(kind, args.seed, args.seconds, size, scratch.path());
        let stem = format!("{}-seed{}", kind.name(), args.seed);
        let attempted = run.measured.attempted + run.attempted;
        let failed = run.measured.failed + run.failed;
        let report = RunReport {
            correct: failed == 0,
            attempted,
            failed,
            metrics: run.metrics,
        };
        let out = Path::new(OUT_DIR);
        write_out(out, &format!("spans-{stem}.jsonl"), &to_jsonl(&run.spans));
        write_out(out, &format!("layers-{stem}.txt"), &report.table());
        report
    } else {
        let m = measure(kind, args.seed, args.seconds, size, scratch.path());
        let specific = RunReport {
            correct: m.failed == 0,
            attempted: m.attempted,
            failed: m.failed,
            metrics: m.workload_specific(),
        };
        print!("{}", specific.table());
        RunReport {
            metrics: m.end_to_end(),
            ..specific
        }
    };
    drop(scratch);
    print!("{}", report.table());
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} processes failed a check",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
