//! Command-line flags of `bench <campaign>`, parsed here once for all
//! seven campaigns:
//!
//! * `--smoke` — the tiny CI sweep instead of the full one;
//! * `--stdout` — print the artifact to stdout instead of writing a file;
//! * `--out <path>` — write the artifact to `<path>` instead of the
//!   campaign's `BENCH_<name>.json`;
//! * `--seed <u64>` — the campaign seed, decimal or `0x`-hex;
//! * `--cores <list>` / `--batch <list>` — comma-separated worker-core
//!   and batch-size sweeps. Only `mc` sweeps them; every other campaign
//!   accepts only `1` and points to `bench mc` (see [`crate::campaign`]).

use std::path::PathBuf;

/// Parsed campaign flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// Run the tiny CI sweep.
    pub smoke: bool,
    /// Print to stdout instead of writing the output file.
    pub stdout: bool,
    /// Explicit output path (overrides the campaign's default).
    pub out: Option<PathBuf>,
    /// Worker-core counts to sweep (`--cores 1,2,4,8`); `None` leaves the
    /// campaign's default sweep in place.
    pub cores: Option<Vec<usize>>,
    /// Batch sizes to sweep (`--batch 1,8,32,128`); `None` leaves the
    /// campaign's default sweep in place.
    pub batch: Option<Vec<usize>>,
    /// Campaign seed (`--seed <u64>`, decimal or `0x`-hex); `None` keeps
    /// the campaign's fixed default. Every campaign records the seed it ran
    /// under in its JSON artifact, so any row is reproducible from the
    /// record alone.
    pub seed: Option<u64>,
}

/// Parses a `--seed` value: decimal, or hex with an `0x`/`0X` prefix.
fn parse_seed(value: &str) -> Result<u64, String> {
    let v = value.trim();
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed must be a u64 (decimal or 0x-hex), got `{value}`"))
}

/// Parses a `--cores`/`--batch` style comma-separated list of positive
/// integers, naming the flag and the valid form in every error.
fn parse_count_list(flag: &str, value: &str) -> Result<Vec<usize>, String> {
    let example = match flag {
        "--cores" => "--cores 1,2,4,8",
        _ => "--batch 1,8,32,128",
    };
    let mut counts = Vec::new();
    for part in value.split(',') {
        let n: usize = part.trim().parse().map_err(|_| {
            format!("{flag} values must be positive integers, got `{part}` (e.g. {example})")
        })?;
        if n == 0 {
            return Err(format!(
                "{flag} values must be at least 1, got `0` (e.g. {example})"
            ));
        }
        counts.push(n);
    }
    if counts.is_empty() {
        return Err(format!("{flag} requires a non-empty list (e.g. {example})"));
    }
    Ok(counts)
}

impl BenchArgs {
    /// The effective output destination: `None` means stdout was
    /// requested, otherwise the explicit `--out` path or `default`.
    pub fn out_path(&self, default: PathBuf) -> Option<PathBuf> {
        if self.stdout {
            None
        } else {
            Some(self.out.clone().unwrap_or(default))
        }
    }
}

/// Parses campaign flags; an unknown flag is an error listing the valid
/// ones.
pub fn try_parse<I>(args: I) -> Result<BenchArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = BenchArgs::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--stdout" => out.stdout = true,
            "--out" => match it.next() {
                Some(p) => out.out = Some(PathBuf::from(p)),
                None => return Err("--out requires a path".into()),
            },
            "--cores" => match it.next() {
                Some(v) => out.cores = Some(parse_count_list("--cores", &v)?),
                None => return Err("--cores requires a list (e.g. --cores 1,2,4,8)".into()),
            },
            "--batch" => match it.next() {
                Some(v) => out.batch = Some(parse_count_list("--batch", &v)?),
                None => return Err("--batch requires a list (e.g. --batch 1,8,32,128)".into()),
            },
            "--seed" => match it.next() {
                Some(v) => out.seed = Some(parse_seed(&v)?),
                None => return Err("--seed requires a value (e.g. --seed 0xC0FFEE)".into()),
            },
            other => {
                return Err(format!(
                    "unknown argument `{other}` (valid flags: --smoke, --stdout, --out <path>, \
                     --cores <list>, --batch <list>, --seed <u64>)"
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_vocabulary() {
        let a = try_parse(args(&["--smoke", "--out", "x.json"])).unwrap();
        assert!(a.smoke);
        assert!(!a.stdout);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
        assert_eq!(a.out_path(PathBuf::from("d.json")), Some("x.json".into()));
    }

    #[test]
    fn defaults_write_to_the_default_path() {
        let a = try_parse(args(&[])).unwrap();
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.out_path(PathBuf::from("d.json")), Some("d.json".into()));
    }

    #[test]
    fn stdout_wins_over_paths() {
        let a = try_parse(args(&["--stdout", "--out", "x.json"])).unwrap();
        assert_eq!(a.out_path(PathBuf::from("d.json")), None);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(try_parse(args(&["--frob"])).is_err());
        assert!(try_parse(args(&["--out"])).is_err(), "missing path");
    }

    #[test]
    fn parses_core_and_batch_sweeps() {
        let a = try_parse(args(&["--cores", "1,2,4,8", "--batch", "1,32"])).unwrap();
        assert_eq!(a.cores, Some(vec![1, 2, 4, 8]));
        assert_eq!(a.batch, Some(vec![1, 32]));
        let a = try_parse(args(&["--cores", "4"])).unwrap();
        assert_eq!(a.cores, Some(vec![4]));
        assert_eq!(a.batch, None);
    }

    #[test]
    fn rejects_zero_and_garbage_core_and_batch_values() {
        // Zero cores/batch is meaningless; the error must say so and show
        // the valid form rather than silently clamping.
        let e = try_parse(args(&["--cores", "0"])).unwrap_err();
        assert!(
            e.contains("at least 1") && e.contains("--cores 1,2,4,8"),
            "{e}"
        );
        let e = try_parse(args(&["--batch", "8,0"])).unwrap_err();
        assert!(
            e.contains("at least 1") && e.contains("--batch 1,8,32,128"),
            "{e}"
        );
        let e = try_parse(args(&["--cores", "two"])).unwrap_err();
        assert!(
            e.contains("positive integers") && e.contains("`two`"),
            "{e}"
        );
        assert!(try_parse(args(&["--cores"])).is_err(), "missing list");
        assert!(try_parse(args(&["--batch", ""])).is_err(), "empty");
    }

    #[test]
    fn parses_seed_in_decimal_and_hex() {
        let a = try_parse(args(&["--seed", "12345"])).unwrap();
        assert_eq!(a.seed, Some(12345));
        let a = try_parse(args(&["--seed", "0xC0FFEE"])).unwrap();
        assert_eq!(a.seed, Some(0xC0FFEE));
        assert_eq!(try_parse(args(&[])).unwrap().seed, None);
        let e = try_parse(args(&["--seed", "lucky"])).unwrap_err();
        assert!(e.contains("--seed") && e.contains("`lucky`"), "{e}");
        assert!(try_parse(args(&["--seed"])).is_err(), "missing value");
    }

    #[test]
    fn unknown_flag_errors_list_the_valid_vocabulary() {
        // A misspelled `--smoke` must fail loudly (not silently run the
        // full campaign) and tell the user what would have worked.
        let e = try_parse(args(&["--smok"])).unwrap_err();
        assert!(e.contains("--smok"), "{e}");
        assert!(
            e.contains("--smoke") && e.contains("--stdout") && e.contains("--out"),
            "{e}"
        );
    }
}
