//! Driver binary. The contract's entry point is
//! `flor-benchmark --flor <bin> --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` (run through `benchmark/run.sh`, which builds first);
//! `--agree` runs every workload twice and reports run-to-run agreement.

use flor_benchmark::agree::{bounds, compare};
use flor_benchmark::fixture::Flor;
use flor_benchmark::run::{run_end_to_end, run_traced, Config};
use flor_benchmark::workload::{spec, WORKLOADS};
use flor_benchmark::Res;
use std::path::PathBuf;

const USAGE: &str = "\
usage: benchmark/run.sh --workload <cv_outer|cv_inner|ft_chain|serve_mix> --seed <n>
                        [--seconds <s>] [--trace <0|1>]
       benchmark/run.sh --agree [--seed <n>] [--seconds <s>]";

struct Args {
    flor: PathBuf,
    out_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        flor: PathBuf::from("target/release/flor"),
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--agree" {
            args.agree = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--flor" => args.flor = PathBuf::from(&value),
            "--out" => args.out_dir = PathBuf::from(&value),
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Both sets of runs, then the table; `Ok(false)` if any pairing is
/// unresolved or any run incorrect.
fn agree(cfg: &Config) -> Res<bool> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&text)?;
    let mut all_agree = true;
    println!(
        "{:<10} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in &WORKLOADS {
        let first = run_end_to_end(cfg, spec)?;
        let second = run_end_to_end(cfg, spec)?;
        all_agree &= first.correct && second.correct;
        for row in compare(&bounds, &first, &second)? {
            all_agree &= row.agrees();
            println!(
                "{:<10} {:<16} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%  {}",
                spec.name,
                row.metric,
                row.first,
                row.second,
                100.0 * row.difference,
                100.0 * row.bound,
                if row.agrees() { "agree" } else { "unresolved" }
            );
        }
    }
    Ok(all_agree)
}

fn main_inner() -> Res<bool> {
    let args = parse_args()?;
    let cfg = Config {
        flor: Flor::new(args.flor)?,
        out_dir: args.out_dir,
        seed: args.seed,
        seconds: args.seconds,
    };
    if args.agree {
        return agree(&cfg);
    }
    let name = args.workload.ok_or("missing --workload")?;
    let spec = spec(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let result = if args.trace {
        run_traced(&cfg, spec)?
    } else {
        run_end_to_end(&cfg, spec)?
    };
    result.print();
    Ok(result.correct)
}

fn main() {
    match main_inner() {
        Ok(true) => {}
        // The result line is out; a run with any failed or wrong query
        // still exits non-zero.
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("flor-benchmark: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
