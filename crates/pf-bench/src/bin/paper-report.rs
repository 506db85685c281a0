//! Regenerates the paper's evaluation section: every table and figure,
//! or only the named sections.
//!
//! ```text
//! paper-report [<section>...]
//!
//! cargo run -p pf-bench --release --bin paper-report                  # everything
//! cargo run -p pf-bench --release --bin paper-report -- table_6_8 figures
//! cargo run -p pf-bench --release --bin paper-report -- break_even > break_even.txt
//! ```
//!
//! Sections: `table_6_1`, `section_6_1`, `table_6_2` … `table_6_10`,
//! `figures`, `break_even`, `ablations`.

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        print!("{}", pf_bench::paper_report());
        return;
    }
    match pf_bench::paper_sections(&names) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("paper-report: {e}");
            eprintln!("usage: paper-report [<section>...]");
            std::process::exit(2);
        }
    }
}
