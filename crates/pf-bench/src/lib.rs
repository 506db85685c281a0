//! Experiment harness: regenerates every table and figure in §6 of
//! *The Packet Filter: An Efficient Mechanism for User-level Network Code*
//! (SOSP 1987).
//!
//! Each module owns one experiment family and exposes both raw
//! measurement functions (used by the test suite to pin the paper's shape
//! claims) and a `report_*` function that renders a paper-vs-measured
//! table:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`sendcost`] | table 6-1 (send cost, pf vs UDP) |
//! | [`profile61`] | §6.1 (gprof-style kernel per-packet profile) |
//! | [`vmtp_exp`] | tables 6-2, 6-3, 6-4, 6-5 (VMTP comparisons) |
//! | [`streams`] | table 6-6 (BSP vs kernel TCP bulk streams) |
//! | [`telnet_exp`] | table 6-7 (telnet output rates) |
//! | [`recvcost`] | tables 6-8, 6-9, 6-10 (receive-path costs) |
//! | [`figures`] | figures 2-1/2-2, 2-3, 3-4/3-5 (as event counts) |
//! | [`breakeven`] | §6.5 (filter-count break-even sweep) |
//! | [`ablations`] | §3.2/§7 design-choice knobs (adaptive reordering, priority assignment, write batching, engine ladder) |
//!
//! The seven beyond-the-paper campaigns each write one `BENCH_<name>.json`
//! artifact through the one [`json`] writer, driven by the one
//! [`campaign`] table:
//!
//! | module | campaign | artifact |
//! |--------|----------|----------|
//! | [`chaos`] | `chaos` | fault injection over BSP/VMTP, engine agreement, kernel degradation |
//! | [`overload`] | `overload` | offered load to 8× capacity across the overload-armor tiers |
//! | [`mc`] | `mc` | multi-core RSS scaling across cores, batch sizes and engines |
//! | [`demux_json`] | `demux` | demux-engine scaling race, mixed exact/range ladder, churn |
//! | [`adversary`] | `adversary` | hostile traffic families, undefended vs hardened |
//! | [`netbench`] | `net` | routed ring topologies × flow counts × event-queue backends |
//! | [`fabric`] | `fabric` | router kill, link flaps and partitions, undefended vs hardened |
//!
//! [`flowgen`] synthesizes the flow-level workloads (Poisson/Pareto
//! arrivals, elephants and mice, incast, routing churn) that `net` and
//! `fabric` drive, and [`cli`] parses the campaign flags.
//!
//! ```text
//! cargo run -p pf-bench --release --bin paper-report                  # every section
//! cargo run -p pf-bench --release --bin paper-report -- table_6_8 figures
//! cargo run -p pf-bench --release --bin bench -- chaos                # writes BENCH_chaos.json
//! cargo run -p pf-bench --release --bin bench -- mc --smoke --stdout
//! ```

pub mod ablations;
pub mod adversary;
pub mod breakeven;
pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod demux_json;
pub mod fabric;
pub mod figures;
pub mod flowgen;
pub mod json;
pub mod mc;
pub mod netbench;
pub mod overload;
pub mod profile61;
pub mod recvcost;
pub mod report;
pub mod sendcost;
pub mod streams;
pub mod telnet_exp;
pub mod vmtp_exp;

use report::Report;

/// Renders one report of a section.
pub type Render = fn() -> Report;

/// The report's sections in order, by name, each with the reports it
/// prints: `paper-report <name>` prints one section.
pub const SECTIONS: [(&str, &[Render]); 14] = [
    ("table_6_1", &[sendcost::report]),
    ("section_6_1", &[profile61::report_section_6_1]),
    ("table_6_2", &[vmtp_exp::report_table_6_2]),
    ("table_6_3", &[vmtp_exp::report_table_6_3]),
    ("table_6_4", &[vmtp_exp::report_table_6_4]),
    ("table_6_5", &[vmtp_exp::report_table_6_5]),
    ("table_6_6", &[streams::report_table_6_6]),
    ("table_6_7", &[telnet_exp::report_table_6_7]),
    ("table_6_8", &[recvcost::report_table_6_8]),
    ("table_6_9", &[recvcost::report_table_6_9]),
    ("table_6_10", &[recvcost::report_table_6_10]),
    (
        "figures",
        &[
            figures::report_fig_2_1_2_2,
            figures::report_fig_2_3,
            figures::report_fig_3_4_3_5,
        ],
    ),
    ("break_even", &[breakeven::report_break_even]),
    ("ablations", &[ablations::report_ablations]),
];

fn render(reports: &[Render]) -> String {
    reports
        .iter()
        .map(|report| format!("{}\n", report()))
        .collect()
}

/// The named sections, in the order given. An unknown name is an error
/// listing the valid ones.
pub fn paper_sections<S: AsRef<str>>(names: &[S]) -> Result<String, String> {
    let sections = names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            SECTIONS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                let valid: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
                format!("unknown section `{name}` (sections: {})", valid.join(", "))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(sections
        .iter()
        .map(|(_, reports)| render(reports))
        .collect())
}

/// The full reproduction report — every section, under a title — exactly
/// as `paper-report` prints it. `docs/paper_report.txt` is its golden
/// copy.
pub fn paper_report() -> String {
    let mut out = String::from(
        "Reproduction report: The Packet Filter (SOSP 1987)\n\
         ===================================================\n\n",
    );
    for (_, reports) in SECTIONS {
        out += &render(reports);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_sections_list_the_valid_names() {
        let e = super::paper_sections(&["table_6_1", "table_6_11"]).unwrap_err();
        assert!(e.contains("`table_6_11`"), "{e}");
        for (name, _) in super::SECTIONS {
            assert!(e.contains(name), "{e}");
        }
    }
}
