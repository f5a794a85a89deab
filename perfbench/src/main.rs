//! `perfbench --workload <dense-pr|sparse-sssp|live-serve> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints provenance and every metric by name with
//! its unit, and as the last line one JSON object with the result.
//! Exits non-zero on any correctness failure or error.

use gsd_perfbench::report::{commit, host, Outcome};
use gsd_perfbench::setup::Opts;
use gsd_perfbench::{inputs, jobs, live};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <dense-pr|sparse-sssp|live-serve> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where each run writes its grids, relative to the working directory
/// (the checkout root); removed when the run ends.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The program reads GSD_* variables to switch prefetch,
    // checkpointing and verification; the benchmark pins all three, and
    // refuses to run where the environment could override a default it
    // does not set.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GSD_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (default_seed, run): (u64, fn(&Opts) -> std::io::Result<Outcome>) =
        match args.workload.as_str() {
            "dense-pr" => (inputs::KRON_SIM.default_seed, jobs::dense_pr),
            "sparse-sssp" => (inputs::UK_SIM.default_seed, jobs::sparse_sssp),
            "live-serve" => (inputs::KRON_SIM.default_seed, live::live_serve),
            other => {
                eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
    let opts = Opts {
        seed: args.seed.unwrap_or(default_seed),
        seconds: args.seconds,
        trace: args.trace,
        work: PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id())),
    };
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let (nproc, cpu, kernel) = host();
    let mut provenance = vec![
        ("workload".to_string(), args.workload.clone()),
        (
            "mode".to_string(),
            if args.trace { "traced" } else { "end-to-end" }.to_string(),
        ),
        ("commit".to_string(), commit()),
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), cpu),
        ("kernel".to_string(), kernel),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
    ];
    provenance.append(&mut outcome.provenance);
    outcome.provenance = provenance;
    print!("{}", outcome.render());
    if outcome.checks.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
