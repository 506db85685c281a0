//! Runs one beyond-the-paper campaign and writes its artifact,
//! `BENCH_<campaign>.json` at the repository root. Every campaign's
//! claims are `assert!`s inside its sweep, so a zero exit *is* the
//! campaign's proof.
//!
//! ```text
//! bench <campaign> [--smoke] [--stdout] [--out <path>] [--seed <u64>] [--cores <list>] [--batch <list>]
//!
//! cargo run -p pf-bench --release --bin bench -- fabric                  # full sweep
//! cargo run -p pf-bench --release --bin bench -- chaos --smoke --stdout  # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench -- mc --cores 1,4 --batch 1,32
//! cargo run -p pf-bench --release --bin bench -- adversary --seed 0xC0FFEE
//! ```

use pf_bench::{campaign, cli};

const USAGE: &str = "usage: bench <campaign> [--smoke] [--stdout] [--out <path>] \
                     [--seed <u64>] [--cores <list>] [--batch <list>]";

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        fail(&format!("{USAGE}\ncampaigns: {}", campaign::names()))
    };
    let flags =
        cli::try_parse(args).unwrap_or_else(|e| fail(&format!("bench {name}: {e}\n{USAGE}")));
    let json = campaign::artifact(&name, &flags).unwrap_or_else(|e| fail(&format!("bench: {e}")));
    match flags.out_path(campaign::default_path(&name)) {
        None => print!("{json}"),
        Some(path) => {
            std::fs::write(&path, &json)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
}
