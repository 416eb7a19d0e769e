//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures                  # every section: the combined report
//! figures tab01 fig11 …    # the named sections, in the order given
//! figures fig05 [MiB]      # Figure 5 at a payload of MiB (default 16)
//! ```
//!
//! The names are those of [`flor_bench::EXPERIMENTS`]: `tab01`–`tab04`,
//! `fig05`, `fig07`, `fig10`–`fig14`, `ablation_lean`, `ablation_adaptive`.

use flor_bench::{all_experiments, figures, section, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", all_experiments());
        return;
    }
    let mut args = args.iter().peekable();
    while let Some(name) = args.next() {
        let Some((_, title, run)) = EXPERIMENTS.iter().find(|(n, ..)| n == name) else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, ..)| *n).collect();
            eprintln!(
                "figures: unknown section `{name}`; one of: {}",
                names.join(" ")
            );
            std::process::exit(2);
        };
        let mib = args.next_if(|a| name == "fig05" && a.parse::<usize>().is_ok());
        let body = match mib {
            Some(mib) => figures::fig05(mib.parse::<usize>().unwrap() << 20),
            None => run(),
        };
        print!("{}", section(title, &body));
    }
}
