//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): runs whole iterations of the workload (set-up,
//! run, referee) until `--seconds` have passed, sets up at least
//! [`MIN_SETUPS`] times, and reports every end-to-end metric.
//!
//! Traced (`--trace 1`): runs untraced iterations for a second as the
//! overhead reference, then one traced iteration with its layer replays
//! (plus traced iterations for a second, for the overhead only), writes
//! the first traced iteration's spans to `perfbench/out/`, and reports
//! every per-layer metric.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object. The exit code is non-zero when the referee failed.

use perfbench::stats::median;
use perfbench::trace::{self, Kind};
use perfbench::{
    end_to_end, result_json, warm_rates, Layers, Outcome, Workload, END_TO_END, PER_LAYER,
};
use std::time::{Duration, Instant};

/// Set-ups measured per untraced run, at the least.
const MIN_SETUPS: usize = 5;
/// Host time a traced run spends on each side of the overhead estimate.
const OVERHEAD_WINDOW: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = if args.traced {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Folds the referee results of several iterations of one seed; the
/// simulated outcome must repeat exactly.
fn verdict(outs: &[Outcome]) -> (bool, u64, u64, Vec<String>) {
    let mut violations: Vec<String> = outs.iter().flat_map(|o| o.violations.clone()).collect();
    let first = &outs[0];
    for o in &outs[1..] {
        if o.digest != first.digest
            || o.sim_latency_p99_us != first.sim_latency_p99_us
            || o.sim_goodput_pps != first.sim_goodput_pps
        {
            violations.push(format!(
                "simulated outcome differs between iterations: digest {:016x} vs {:016x}",
                first.digest, o.digest
            ));
        }
    }
    let attempted = outs.iter().map(|o| o.attempted).sum();
    let failed = outs.iter().map(|o| o.failed).sum();
    (
        violations.is_empty() && failed == 0,
        attempted,
        failed,
        violations,
    )
}

fn report_referee(name: &str, seed: u64, outs: &[Outcome], violations: &[String]) {
    println!("workload {name} seed {seed}: {} iteration(s)", outs.len());
    println!("digest {:016x}", outs[0].digest);
    for v in violations {
        println!("REFEREE FAILURE: {v}");
    }
}

fn untraced_run(args: &Args) -> bool {
    let w = args.workload;
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut outs = Vec::new();
    loop {
        outs.push(w.iteration(args.seed));
        if started.elapsed() >= deadline {
            break;
        }
    }
    let mut setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup_only(args.seed));
    }
    let (correct, attempted, failed, violations) = verdict(&outs);
    report_referee(w.name(), args.seed, &outs, &violations);

    let mut rates = warm_rates(&outs);
    rates.sort_by(f64::total_cmp);
    let q = |f: f64| rates[((rates.len() - 1) as f64 * f).round() as usize];
    println!(
        "warm per-iteration packet rate: min {:.0} p10 {:.0} p50 {:.0} p90 {:.0} max {:.0} 1/s",
        q(0.0),
        q(0.1),
        q(0.5),
        q(0.9),
        q(1.0)
    );
    let metrics = end_to_end(&outs, &setups);
    for ((name, v, unit), (_, _, kind)) in metrics.iter().zip(END_TO_END) {
        println!("{name} = {v} {unit} ({kind})");
    }
    println!(
        "failed_frac = {} ratio ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    correct
}

fn traced_run(args: &Args) -> bool {
    let w = args.workload;
    // Overhead: untraced against traced packet rate, each the median of
    // the iterations that fit in OVERHEAD_WINDOW (at least one). Only the
    // first traced iteration's spans are kept.
    let mut reference = Vec::new();
    let started = Instant::now();
    while reference.is_empty() || started.elapsed() < OVERHEAD_WINDOW {
        reference.push(w.iteration(args.seed));
    }
    trace::install();
    let traced = w.iteration(args.seed);
    let tr = trace::take().expect("trace installed");
    let mut extra = Vec::new();
    let started = Instant::now();
    while started.elapsed() < OVERHEAD_WINDOW {
        trace::install();
        extra.push(w.iteration(args.seed));
        trace::take();
    }
    let rate = |outs: &[Outcome]| {
        let rates: Vec<f64> = outs.iter().map(Outcome::pkts_per_s).collect();
        median(&rates)
    };
    extra.push(traced.clone());
    let (reference_rate, traced_rate) = (rate(&reference), rate(&extra));
    let mut all = reference;
    all.extend(extra);
    let (mut correct, attempted, failed, mut violations) = verdict(&all);

    let mut layers: Layers = traced.layers.clone();
    let step = tr.kind(Kind::Step);
    layers.insert("frame.build_ns", tr.kind(Kind::FrameBuild).mean_ns());
    layers.insert("world.inject_ns", tr.kind(Kind::Inject).mean_ns());
    layers.insert("clock.steps", step.calls() as f64);
    layers.insert(
        "clock.steps_per_pkt",
        step.calls() as f64 / traced.completed.max(1) as f64,
    );
    layers.insert("clock.step_ns_p50", step.quantile_ns(0.50));
    layers.insert("clock.step_ns_p99", step.quantile_ns(0.99));
    layers.insert("clock.busy_s", step.total_ns() as f64 / 1e9);
    if w == Workload::McRss {
        layers.insert("mc.step_ns_p50", step.quantile_ns(0.50));
        layers.insert("mc.step_ns_p99", step.quantile_ns(0.99));
    }
    layers.insert(
        "router.update_route_ns",
        tr.kind(Kind::UpdateRoute).mean_ns(),
    );
    layers.insert("port.read_ns", tr.kind(Kind::PfRead).mean_ns());
    layers.insert("bsp.callback_ns", tr.kind(Kind::Bsp).mean_ns());
    layers.insert("vmtp.callback_ns", tr.kind(Kind::Vmtp).mean_ns());
    layers.insert("monitor.callback_ns", tr.kind(Kind::Monitor).mean_ns());

    // Inline layers: every span nested inside a step. Their self times
    // plus the steps' own self time ("other": event dispatch, device,
    // segment and router work not wrapped by a span) make up the busy
    // time exactly.
    let inline = [
        (Kind::Step, "self.other_s"),
        (Kind::PfRead, "self.port_read_s"),
        (Kind::Bsp, "self.bsp_s"),
        (Kind::Vmtp, "self.vmtp_s"),
        (Kind::Monitor, "self.monitor_s"),
        (Kind::BenchApp, "self.bench_app_s"),
    ];
    let mut self_sum = 0u64;
    for (kind, name) in inline {
        let ns = tr.kind(kind).self_ns;
        self_sum += ns;
        layers.insert(name, ns as f64 / 1e9);
    }
    if self_sum != step.total_ns() {
        violations.push(format!(
            "inline self times sum to {self_sum} ns, steps took {} ns",
            step.total_ns()
        ));
        correct = false;
    }
    layers.insert(
        "trace.overhead_frac",
        reference_rate / traced_rate.max(1e-9) - 1.0,
    );
    layers.insert(
        "trace.spans",
        (tr.spans.len() as u64 + tr.spans_dropped) as f64,
    );
    layers.insert("trace.spans_kept", tr.spans.len() as f64);

    let path = std::path::Path::new("perfbench/out").join(format!(
        "{}-seed{}.spans.tsv",
        w.name(),
        args.seed
    ));
    match tr.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
    report_referee(w.name(), args.seed, &all, &violations);
    println!("untraced {reference_rate:.0} pkts/s, traced {traced_rate:.0} pkts/s");
    for note in &traced.notes {
        println!("{note}");
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = layers.get(name).copied().unwrap_or(0.0);
        println!("{name} = {v} {unit}");
        metrics.push((name, v, unit));
    }
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "layer metric {name} is not declared"
        );
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    correct
}
