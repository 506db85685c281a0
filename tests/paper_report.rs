//! Golden paper report: `pf_bench::paper_report()` must reproduce
//! `docs/paper_report.txt` line for line. Every number in it is simulated
//! time and deterministic, except the ablation table's
//! `engine ladder (real wall clock)` rows, whose timings are masked.

/// Masks the wall-clock cells of the engine-ladder rows: from the row
/// labelled `engine ladder (real wall clock)` through its continuation
/// rows, everything from the first timing cell on is dropped.
fn mask_wall_clock(report: &str) -> Vec<String> {
    let mut in_ladder = false;
    report
        .lines()
        .map(|line| {
            if line.starts_with("engine ladder (real wall clock)") {
                in_ladder = true;
            } else if !line.starts_with(' ') {
                in_ladder = false;
            }
            match line.find("checked ") {
                Some(at) if in_ladder => format!("{}<wall clock>", &line[..at]),
                _ => line.to_string(),
            }
        })
        .collect()
}

#[test]
fn paper_report_matches_the_golden_file() {
    let golden = include_str!("../docs/paper_report.txt");
    let expected = mask_wall_clock(golden);
    let actual = mask_wall_clock(&pf_bench::paper_report());
    let masked = expected.iter().filter(|l| l.ends_with("<wall clock>"));
    assert_eq!(masked.count(), 6, "the six engine-ladder rows are masked");
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "docs/paper_report.txt line {}", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "report length");
}
