//! The protoquot benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload derive|wire-steady|wire-churn --seed N --seconds S --trace 0|1
//!           [--workdir DIR] [--commit SHA]
//! ```
//!
//! It prints a table, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). It exits 1 when any reply or verdict differs from
//! its oracle. See README.md for the workloads and metrics.

mod calib;
mod churn;
mod derive;
mod pipeline;
mod report;
mod steady;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workdir: std::env::temp_dir(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            "--cold-probe" => {
                // A child of a `derive` run: time one problem in this
                // fresh process and print its wall and CPU seconds and
                // the calibration factor.
                let dir = PathBuf::from(value()?);
                match derive::cold_probe(&dir) {
                    Ok((wall, cpu, factor)) => {
                        println!("{wall} {cpu} {factor}");
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("cold probe: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Settle which CPUs the run splits its threads over before any
    // thread is pinned.
    let _ = util::split_cpus();
    let workdir = args.workdir.join(format!(
        "perfbench-{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "derive" => derive::run(args.seed, args.seconds, args.trace, &workdir),
        "wire-steady" => steady::run(args.seed, args.seconds, args.trace, &workdir),
        "wire-churn" => churn::run(args.seed, args.seconds, args.trace, &workdir),
        other => Err(format!(
            "unknown workload `{other}` (derive, wire-steady, wire-churn)"
        )),
    };
    let code = match result {
        Ok(report) => {
            if let Some(tr) = &report.trace {
                let path = args.workdir.join(format!("spans-{}.jsonl", args.workload));
                match tr.write_jsonl(&path) {
                    Ok(()) => println!("spans: {} written to {}", tr.kept(), path.display()),
                    Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
                }
            }
            let header = format!(
                "perfbench workload={} seed={} seconds={} trace={} commit={} nproc={} cpu=\"{}\"",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                args.commit,
                util::nproc(),
                util::cpu_model()
            );
            if report.print(&header, args.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    };
    let _ = std::fs::remove_dir_all(&workdir);
    code
}
