//! Regenerates every table and figure of the paper's evaluation section.
fn main() {
    print!("{}", pf_bench::paper_report());
}
