//! Golden campaign artifacts: the `--smoke` artifact of each campaign,
//! rendered through the same entry point as `bench <campaign>`, must
//! reproduce `tests/golden/<campaign>.smoke.json` line for line. Every
//! value is simulated and deterministic except the wall-clock keys
//! below, whose values are masked.
//!
//! A build with pf-ir's template JIT adds it to the engine ladder, so
//! chaos's engine-agreement tally counts more verdicts and has its own
//! golden file; pf-bench's `jit` feature adds a JIT row to the demux
//! race, which has its own golden file too.
//!
//! `net` is left out: its smoke sweep asserts calendar >= heap ops/s at
//! 10k pending, a wall-clock race that an unoptimised build on a loaded
//! host can lose. CI smoke-runs it in release.

use pf_bench::cli::BenchArgs;

/// Keys whose values are wall-clock measurements.
const WALL_CLOCK_KEYS: [&str; 3] = ["wall_ms", "ns_per_packet", "ns_per_update"];

/// Replaces the value of every wall-clock key with `_`.
fn mask_wall_clock(artifact: &str) -> Vec<String> {
    artifact
        .lines()
        .map(|line| {
            let mut out = line.to_string();
            for key in WALL_CLOCK_KEYS {
                let needle = format!("\"{key}\": ");
                let mut from = 0;
                while let Some(at) = out[from..].find(&needle) {
                    let start = from + at + needle.len();
                    let len = out[start..].find([',', '}']).unwrap_or(out.len() - start);
                    out.replace_range(start..start + len, "_");
                    from = start;
                }
            }
            out
        })
        .collect()
}

fn check(campaign: &str, golden: &str) {
    let args = BenchArgs {
        smoke: true,
        ..BenchArgs::default()
    };
    let actual = pf_bench::campaign::artifact(campaign, &args).expect("known campaign");
    let (expected, actual) = (mask_wall_clock(golden), mask_wall_clock(&actual));
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(
            got,
            want,
            "tests/golden/{campaign}.smoke.json line {}",
            i + 1
        );
    }
    assert_eq!(actual.len(), expected.len(), "{campaign} artifact length");
}

#[test]
fn chaos_smoke_artifact_matches_the_golden_file() {
    let golden = if pf_ir::JIT_BUILT {
        include_str!("golden/chaos.jit.smoke.json")
    } else {
        include_str!("golden/chaos.smoke.json")
    };
    check("chaos", golden);
}

#[test]
fn overload_smoke_artifact_matches_the_golden_file() {
    check("overload", include_str!("golden/overload.smoke.json"));
}

#[test]
fn mc_smoke_artifact_matches_the_golden_file() {
    check("mc", include_str!("golden/mc.smoke.json"));
}

#[test]
fn demux_smoke_artifact_matches_the_golden_file() {
    // Four engines race; pf-bench's `jit` feature adds the JIT.
    let golden = if pf_bench::demux_json::ENGINES_RACED > 4 {
        include_str!("golden/demux.jit.smoke.json")
    } else {
        include_str!("golden/demux.smoke.json")
    };
    check("demux", golden);
}

#[test]
fn adversary_smoke_artifact_matches_the_golden_file() {
    check("adversary", include_str!("golden/adversary.smoke.json"));
}

#[test]
fn fabric_smoke_artifact_matches_the_golden_file() {
    check("fabric", include_str!("golden/fabric.smoke.json"));
}

#[test]
fn wall_clock_values_and_only_they_are_masked() {
    let line =
        r#"    {"engine": "geom", "ns_per_packet": 41.25, "population": 16, "wall_ms": 3.5}"#;
    assert_eq!(
        mask_wall_clock(line),
        [r#"    {"engine": "geom", "ns_per_packet": _, "population": 16, "wall_ms": _}"#]
    );
}
