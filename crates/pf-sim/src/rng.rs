//! A small deterministic PRNG for workload generation and fault injection.
//!
//! SplitMix64: tiny, fast, and — unlike thread-local or OS-seeded
//! generators — exactly reproducible from a seed, which every experiment
//! requires. It is the workspace's only randomness source: the default
//! build is hermetic (no external crates), so workload generation, fault
//! injection, and the property and fuzz suites all seed from here.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform value in `[0, n)`; `n = 0` yields `0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

/// Runs `property` on `cases` independent cases, each drawing from its
/// own generator seeded from `(seed, case)`. Case 0 draws from `seed`
/// itself, so a failing case reruns alone as `check(<case seed>, 1, ..)`:
/// on a panic the case index and its seed are printed before the panic
/// resumes. There is no shrinking.
///
/// Cases must be independent. A stateful process, where each step acts
/// on what the earlier steps built, cannot rerun one step alone; drive
/// it from one [`SplitMix64`] in a plain loop instead.
pub fn check(seed: u64, cases: u32, mut property: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let case_seed = seed ^ u64::from(case).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut SplitMix64::new(case_seed))
        }));
        if let Err(panic) = run {
            eprintln!(
                "check: case {case} of seed {seed:#x} failed; \
                 rerun it alone with check({case_seed:#x}, 1, ..)"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn below_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn check_runs_every_case_on_its_own_seed() {
        let mut firsts = Vec::new();
        check(5, 4, |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts.len(), 4);
        assert_eq!(
            firsts[0],
            SplitMix64::new(5).next_u64(),
            "case 0 is the seed"
        );
        firsts.dedup();
        assert_eq!(firsts.len(), 4, "cases draw distinct streams");
    }

    #[test]
    fn a_failing_case_reruns_alone_from_its_printed_seed() {
        let case_seed = 5 ^ 2u64.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut third = None;
        check(5, 3, |rng| third = Some(rng.next_u64()));
        let mut alone = None;
        check(case_seed, 1, |rng| alone = Some(rng.next_u64()));
        assert_eq!(third, alone);
        let failed = std::panic::catch_unwind(|| check(5, 3, |rng| assert!(rng.below(1) == 1)));
        assert!(failed.is_err(), "a failing property fails the check");
    }

    #[test]
    fn chance_rate_is_roughly_p() {
        let mut r = SplitMix64::new(1234);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }
}
