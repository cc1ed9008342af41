//! The repository's benchmark: what one more synthesized design costs,
//! `GenRequest` in and `Generated` bytes out, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-tcp|gen-large|diffuse-wide> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run sets up its workload several times (`setup_s` is the median),
//! measures for `--seconds`, then checks every output against direct
//! `SynCircuit::generate_one` on a freshly loaded model, outside the
//! timed window. It prints each metric with its unit and sample count,
//! the machine fingerprint, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A design that differs
//! from direct generation makes the run exit non-zero.
//!
//! `--trace 1` makes the traced run instead: spans and counts recorded
//! around the benchmark's own calls into each layer, written to
//! `perfbench/out/` as JSON lines, with the per-layer metrics in the
//! result and the tracing overhead against untraced calls on the same
//! requests. The workloads and why each exists are described in
//! `tcp.rs` (`serve-tcp`) and `inproc.rs` (`gen-large`, `diffuse-wide`).

mod fleet;
mod inproc;
mod layers;
mod report;
mod stats;
mod tcp;
mod trace;

use report::Fingerprint;
use std::process::ExitCode;
use std::sync::Mutex;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve-tcp|gen-large|diffuse-wide> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The last panic message, kept by the quiet panic hook.
static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

/// Panics are part of what some workloads measure (a failed request),
/// so the hook keeps their messages instead of printing each one.
fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = info.to_string();
        }
    }));
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    install_quiet_panic_hook();
    let fingerprint = Fingerprint::detect();
    let outcome = std::panic::catch_unwind(|| match args.workload.as_str() {
        "serve-tcp" => tcp::run(&args),
        "gen-large" => inproc::run(&inproc::GEN_LARGE, &args),
        "diffuse-wide" => inproc::run(&inproc::DIFFUSE_WIDE, &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    });
    let (report, tracer) = match outcome {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            let last = LAST_PANIC.lock().map(|s| s.clone()).unwrap_or_default();
            eprintln!("perfbench: the benchmark itself panicked: {last}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = tracer {
        let dir = fleet::out_dir();
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"fingerprint\":{}}}",
            args.workload,
            args.seed,
            args.seconds,
            fingerprint.json()
        );
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path, &header)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    report.print(&args.workload, args.seed, &fingerprint);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs differ from direct generation");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "gen-large",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("gen-large", 7, 30.0, true)
        );
        assert!(parse(&["--workload", "gen-large"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
    }
}
