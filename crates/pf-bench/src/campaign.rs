//! The campaign driver behind `bench <campaign>`: one table of the
//! seven beyond-the-paper campaigns, each sweeping and rendering its
//! `BENCH_<name>.json` artifact.

use crate::cli::BenchArgs;
use crate::{adversary, chaos, demux_json, fabric, mc, netbench, overload};
use std::path::PathBuf;

/// Sweeps one campaign under the parsed flags and renders its artifact.
pub type Run = fn(&BenchArgs) -> String;

/// Every campaign, by name, with the function that sweeps it under the
/// parsed flags and renders its artifact. Every sweep asserts its own
/// claims, so a returned artifact is the campaign's proof.
pub const CAMPAIGNS: [(&str, Run); 7] = [
    ("chaos", |a| {
        chaos::artifact(&chaos::sweep(
            a.smoke,
            a.seed.unwrap_or(chaos::DEFAULT_SEED),
        ))
    }),
    ("overload", |a| {
        let seed = a.seed.unwrap_or(overload::DEFAULT_SEED);
        overload::artifact(&overload::sweep(a.smoke, seed))
    }),
    ("mc", |a| {
        let (cores, batch) = (a.cores.as_deref(), a.batch.as_deref());
        mc::artifact(&mc::sweep(a.smoke, cores, batch, a.seed.unwrap_or(0)))
    }),
    ("demux", |a| {
        let points = demux_json::sweep(a.smoke);
        let (ladder, churn) = demux_json::range_sweep(a.smoke);
        demux_json::artifact(&points, &ladder, &churn, a.seed.unwrap_or(0))
    }),
    ("adversary", |a| {
        let seed = a.seed.unwrap_or(adversary::DEFAULT_SEED);
        adversary::artifact(&adversary::sweep(a.smoke, seed))
    }),
    ("net", |a| {
        let seed = a.seed.unwrap_or(netbench::DEFAULT_SEED);
        netbench::artifact(&netbench::sweep(a.smoke, seed))
    }),
    ("fabric", |a| {
        fabric::artifact(&fabric::sweep(
            a.smoke,
            a.seed.unwrap_or(fabric::DEFAULT_SEED),
        ))
    }),
];

/// The campaign names, comma-separated, for error messages.
pub fn names() -> String {
    CAMPAIGNS.map(|(name, _)| name).join(", ")
}

/// Where campaign `name` writes its artifact by default: the repository
/// root's `BENCH_<name>.json`.
pub fn default_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

/// Only `mc` sweeps cores and batch sizes; every other campaign models
/// one core demultiplexing frame by frame, so it accepts `--cores` and
/// `--batch` only as `1` and otherwise points to `bench mc`.
fn check_flags(name: &str, args: &BenchArgs) -> Result<(), String> {
    if name == "mc" {
        return Ok(());
    }
    for (flag, list) in [("--cores", &args.cores), ("--batch", &args.batch)] {
        if let Some(list) = list.as_deref().filter(|l| *l != [1]) {
            return Err(format!(
                "{name} runs one core, frame by frame, so {flag} must be 1 (got {list:?}); \
                 core and batch sweeps live in `bench mc`"
            ));
        }
    }
    Ok(())
}

/// Runs campaign `name` under `args` and returns its artifact: the
/// entry point of `bench <campaign>`.
pub fn artifact(name: &str, args: &BenchArgs) -> Result<String, String> {
    let (_, run) = CAMPAIGNS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown campaign `{name}` (campaigns: {})", names()))?;
    check_flags(name, args)?;
    Ok(run(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(cores: &[usize], batch: &[usize]) -> BenchArgs {
        BenchArgs {
            cores: Some(cores.to_vec()),
            batch: Some(batch.to_vec()),
            ..BenchArgs::default()
        }
    }

    #[test]
    fn only_mc_reads_cores_and_batch() {
        for (name, _) in CAMPAIGNS {
            assert_eq!(check_flags(name, &BenchArgs::default()), Ok(()), "{name}");
            assert_eq!(check_flags(name, &with(&[1], &[1])), Ok(()), "{name}");
            for args in [with(&[4], &[1]), with(&[1], &[8]), with(&[1, 4], &[1])] {
                let got = check_flags(name, &args);
                if name == "mc" {
                    assert_eq!(got, Ok(()));
                } else {
                    let e = got.unwrap_err();
                    assert!(e.contains("bench mc") && e.contains(name), "{e}");
                }
            }
        }
    }

    #[test]
    fn unknown_campaigns_list_the_valid_names() {
        let e = artifact("chas", &BenchArgs::default()).unwrap_err();
        assert!(e.contains("`chas`"), "{e}");
        for (name, _) in CAMPAIGNS {
            assert!(e.contains(name), "{e}");
        }
    }

    #[test]
    fn default_paths_follow_the_name() {
        for (name, _) in CAMPAIGNS {
            assert!(default_path(name).ends_with(format!("BENCH_{name}.json")));
        }
    }
}
