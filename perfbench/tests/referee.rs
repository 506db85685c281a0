//! The benchmark's own tests: small runs of every workload report every
//! end-to-end metric, repeat their simulated outcome exactly, pass the
//! referee at two seeds, and fail it when a delivery is removed.

use perfbench::trace::{self, Kind};
use perfbench::{end_to_end, result_json, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

const SEED: u64 = 7;
/// A seed used nowhere else in the benchmark's tuning.
const HELD_OUT: u64 = 0x0005_EED0_F0DD;

fn small(w: Workload, seed: u64) -> Outcome {
    w.iteration_with(seed, Scale::Small, false)
}

#[test]
fn every_end_to_end_metric_is_reported_with_its_unit() {
    for w in Workload::ALL {
        let o = small(w, SEED);
        let metrics = end_to_end(std::slice::from_ref(&o), &[o.setup_s]);
        let json = result_json(true, o.attempted, o.failed, &metrics);
        for (name, unit, _) in END_TO_END {
            let (_, v, u) = metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{}: {name} missing", w.name()));
            assert_eq!(*u, unit);
            assert!(*v > 0.0 && v.is_finite(), "{}: {name} = {v}", w.name());
            assert!(json.contains(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn the_simulated_outcome_repeats_exactly() {
    for w in Workload::ALL {
        let a = small(w, SEED);
        let b = small(w, SEED);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.sim_latency_p50_us, b.sim_latency_p50_us, "{}", w.name());
        assert_eq!(a.sim_latency_p99_us, b.sim_latency_p99_us, "{}", w.name());
        assert_eq!(a.sim_goodput_pps, b.sim_goodput_pps, "{}", w.name());
        let exact = |o: &Outcome| -> Vec<(&str, f64)> {
            o.layers
                .iter()
                .filter(|(name, _)| {
                    PER_LAYER
                        .iter()
                        .any(|(n, u)| n == *name && (*u == "count" || *u == "ratio"))
                })
                .map(|(n, v)| (*n, *v))
                .collect()
        };
        assert_eq!(exact(&a), exact(&b), "{}: exact layer counts", w.name());
        let other = small(w, HELD_OUT);
        assert_ne!(
            a.digest,
            other.digest,
            "{}: the seed shapes the inputs",
            w.name()
        );
    }
}

#[test]
fn the_referee_passes_the_default_and_a_held_out_seed() {
    for w in Workload::ALL {
        for seed in [SEED, HELD_OUT] {
            let o = small(w, seed);
            assert!(
                o.violations.is_empty(),
                "{} seed {seed}: {:?}",
                w.name(),
                o.violations
            );
            assert_eq!(o.failed, 0, "{} seed {seed}", w.name());
            assert!(
                o.attempted > 0 && o.completed > 0,
                "{} seed {seed}",
                w.name()
            );
        }
    }
}

#[test]
fn the_referee_catches_a_removed_delivery() {
    for w in Workload::ALL {
        let o = w.iteration_with(SEED, Scale::Small, true);
        assert!(
            !o.violations.is_empty(),
            "{}: tampering went unnoticed",
            w.name()
        );
        assert!(o.failed > 0, "{}: tampering counted no failure", w.name());
    }
}

#[test]
fn inline_self_times_add_up_to_the_busy_time() {
    for w in Workload::ALL {
        trace::install();
        let o = w.iteration_with(SEED, Scale::Small, false);
        let tr = trace::take().expect("installed");
        let step = tr.kind(Kind::Step);
        assert!(step.calls() > 0, "{}", w.name());
        let inline: u64 = [
            Kind::Step,
            Kind::PfRead,
            Kind::Bsp,
            Kind::Vmtp,
            Kind::Monitor,
            Kind::BenchApp,
        ]
        .iter()
        .map(|k| tr.kind(*k).self_ns)
        .sum();
        assert_eq!(inline, step.total_ns(), "{}", w.name());
        for name in o.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} undeclared"
            );
        }
        // `McPipeline` keeps per-core arrival deques, not an `EventQueue`.
        let replayed = o.layers.contains_key("queue.op_ns");
        assert_eq!(replayed, w != Workload::McRss, "{}: queue replay", w.name());
    }
}

#[test]
fn benchmark_json_declares_every_metric() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, _) in END_TO_END {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for (name, unit) in PER_LAYER {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "no metric outside the benchmark's lists"
    );
}
