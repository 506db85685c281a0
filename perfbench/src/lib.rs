//! The repository benchmark: four workloads over the packet-filter
//! simulator, a correctness referee for each, end-to-end metrics from
//! untraced runs and per-layer metrics from a traced run.
//!
//! Two kinds of time appear and every metric says which it is:
//! **host time** is how fast the Rust simulator runs on the machine that
//! runs the benchmark;
//! **simulated time** is the calibrated MicroVAX cost model inside the
//! simulation, deterministic for a seed. See `perfbench/README.md`.

pub mod lan;
pub mod mc;
pub mod routed;
pub mod stats;
pub mod trace;

use pf_sim::queue::{EventQueue, QueueBackend};
use pf_sim::time::SimTime;
use pf_sim::SimClock;
use std::collections::BTreeMap;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// End-to-end metrics `(name, unit, kind of time)`, reported by every
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("sim_pkts_per_s", "1/s", "host time"),
    ("setup_s", "s", "host time"),
    ("peak_rss_mb", "MB", "host memory"),
    ("sim_goodput_pps", "1/s", "simulated time"),
    ("sim_latency_p50_us", "us", "simulated time"),
    ("sim_latency_p99_us", "us", "simulated time"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run (0
/// where the workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("flowgen.generate_ms", "ms"),
    ("topology.build_ms", "ms"),
    ("deploy.ms", "ms"),
    ("frame.build_ns", "ns"),
    ("world.inject_ns", "ns"),
    ("clock.steps", "count"),
    ("clock.steps_per_pkt", "ratio"),
    ("clock.step_ns_p50", "ns"),
    ("clock.step_ns_p99", "ns"),
    ("clock.busy_s", "s"),
    ("queue.op_ns", "ns"),
    ("queue.op_ns_heap", "ns"),
    ("segment.transmits", "count"),
    ("segment.transmit_ns", "ns"),
    ("router.forwards", "count"),
    ("router.forward_ns_p50", "ns"),
    ("router.forward_ns_p99", "ns"),
    ("router.lookup_ns", "ns"),
    ("router.update_route_ns", "ns"),
    ("control.hellos_sent", "count"),
    ("control.control_in", "count"),
    ("control.reconvergences", "count"),
    ("control.route_churn", "count"),
    ("control.failovers", "count"),
    ("control.convergence_ms", "ms"),
    ("control.busy_s", "s"),
    ("admit.ns", "ns"),
    ("admit.shed_frac", "ratio"),
    ("demux.ns_p50", "ns"),
    ("demux.ns_p99", "ns"),
    ("demux.filters_per_pkt", "ratio"),
    ("demux.no_match_frac", "ratio"),
    ("port.read_ns", "ns"),
    ("port.pkts_per_read", "ratio"),
    ("port.drops_queue_full", "count"),
    ("bsp.callback_ns", "ns"),
    ("vmtp.callback_ns", "ns"),
    ("monitor.callback_ns", "ns"),
    ("bsp.retransmits", "count"),
    ("vmtp.retries", "count"),
    ("vmtp.txn_us", "us"),
    ("monitor.captured", "count"),
    ("monitor.decode_ns", "ns"),
    ("mc.step_ns_p50", "ns"),
    ("mc.step_ns_p99", "ns"),
    ("mc.batch_demux_ns", "ns"),
    ("mc.frames_steered", "count"),
    ("mc.queue_steals", "count"),
    ("mc.cross_core_wakeups", "count"),
    ("mc.batches", "count"),
    ("self.other_s", "s"),
    ("self.port_read_s", "s"),
    ("self.bsp_s", "s"),
    ("self.vmtp_s", "s"),
    ("self.monitor_s", "s"),
    ("self.bench_app_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_kept", "count"),
];

/// What one iteration of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host time from the start of set-up to the first `SimClock::step`, s.
    pub setup_s: f64,
    /// Host time of the run phase, s.
    pub run_s: f64,
    /// Workload packets that reached their final named disposition.
    pub completed: u64,
    /// Operations the referee judged.
    pub attempted: u64,
    /// Operations that failed (no named disposition, wrong addressee,
    /// incomplete transfer or transaction).
    pub failed: u64,
    /// Referee findings; any entry fails the run.
    pub violations: Vec<String>,
    /// Digest of the simulated outcome (identical for a seed).
    pub digest: u64,
    /// Simulated time: packets delivered to their addressee per
    /// simulated second.
    pub sim_goodput_pps: f64,
    /// Simulated time: median delivery latency, µs.
    pub sim_latency_p50_us: f64,
    /// Simulated time: 99th-percentile delivery latency, µs.
    pub sim_latency_p99_us: f64,
    /// Exact per-layer counts, plus replay timings in a traced run.
    pub layers: Layers,
    /// Human-readable replay summaries (calls and timing), traced run only.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a referee finding when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Records a replay's per-call figure as the layer metric `name`,
    /// with its call count in the notes.
    pub fn replay(&mut self, name: &'static str, calls: usize, ns: f64) {
        self.layers.insert(name, ns);
        self.notes
            .push(format!("replay {name} = {ns:.1} ns over {calls} calls"));
    }

    /// Packets completed per host-second of the run phase.
    pub fn pkts_per_s(&self) -> f64 {
        self.completed as f64 / self.run_s.max(1e-9)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 256-node routed ring, 100k flows, static routers.
    RoutedRing,
    /// One server host's user-level protocols over the packet filter.
    LanDemux,
    /// 256-node ring under a link-flap train, hardened routers.
    FabricChaos,
    /// Four-core RSS data plane.
    McRss,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RoutedRing,
        Workload::LanDemux,
        Workload::FabricChaos,
        Workload::McRss,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoutedRing => "routed_ring",
            Workload::LanDemux => "lan_demux",
            Workload::FabricChaos => "fabric_chaos",
            Workload::McRss => "mc_rss",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets up and runs one iteration at full size.
    pub fn iteration(self, seed: u64) -> Outcome {
        self.iteration_with(seed, Scale::Full, false)
    }

    /// Sets up and runs one iteration at the given size. With `tamper`,
    /// one delivery is removed from the outcome before the referee sees
    /// it (the benchmark's own tests check that the referee notices).
    pub fn iteration_with(self, seed: u64, scale: Scale, tamper: bool) -> Outcome {
        match self {
            Workload::RoutedRing => routed::routed_ring(seed, scale, tamper),
            Workload::LanDemux => lan::lan_demux(seed, scale, tamper),
            Workload::FabricChaos => routed::fabric_chaos(seed, scale, tamper),
            Workload::McRss => mc::mc_rss(seed, scale, tamper),
        }
    }

    /// Runs only the set-up phase; returns its host time, s.
    pub fn setup_only(self, seed: u64) -> f64 {
        match self {
            Workload::RoutedRing => routed::setup_only(seed, false),
            Workload::FabricChaos => routed::setup_only(seed, true),
            Workload::LanDemux => lan::setup_only(seed),
            Workload::McRss => mc::setup_only(seed),
        }
    }
}

/// Input size: the benchmark's stated size, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes stated in the README.
    Full,
    /// A few percent of that, for the benchmark's own tests.
    Small,
}

/// Drives `clock` until it drains (`until == None`) or its next event
/// lies past `until`, exactly like `SimClock::run`/`run_until`. While a
/// trace is recording, each step is a `clock.step` span (id = the
/// event's simulated time) and each popped event time is appended to
/// `popped` for the event-queue replay.
pub fn drive<C: SimClock>(clock: &mut C, until: Option<SimTime>, popped: &mut Vec<u64>) {
    if !trace::enabled() {
        match until {
            None => {
                clock.run();
            }
            Some(t) => {
                clock.run_until(t);
            }
        }
        return;
    }
    while let Some(t) = clock.next_event_time() {
        if until.is_some_and(|u| t > u) {
            break;
        }
        trace::span(trace::Kind::Step, t.0, || clock.step());
        popped.push(clock.now().0);
    }
}

/// The per-iteration packet rates of a run, without the first
/// (warm-up) iteration when there are more.
pub fn warm_rates(outs: &[Outcome]) -> Vec<f64> {
    let warm = if outs.len() > 1 { &outs[1..] } else { outs };
    warm.iter().map(Outcome::pkts_per_s).collect()
}

/// The end-to-end metrics `(name, value, unit)` of an untraced run.
///
/// `sim_pkts_per_s` is the 10th percentile of the warm per-iteration
/// packet rates — the rate the simulator sustained in nine iterations
/// of ten. On a machine shared with other tenants, phases of memory
/// contention come and go for tens of seconds and speed iterations up
/// or slow them down together; the slow decile is present in every
/// run, the fast phases in only some, so this quantile repeats from
/// run to run where the median does not. `setup_s` is the median of
/// `setups`; the simulated-time metrics are identical across the
/// iterations of one seed.
pub fn end_to_end(outs: &[Outcome], setups: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let first = &outs[0];
    let values = [
        stats::low_decile(&warm_rates(outs)),
        stats::median(setups),
        stats::peak_rss_mb(),
        first.sim_goodput_pps,
        first.sim_latency_p50_us,
        first.sim_latency_p99_us,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| (*name, v, *unit))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric as `{"value": v, "unit": u}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host time of `f`, s, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Replays a run's event-time stream through `EventQueue` on the
/// default (calendar) and the heap backends: `queue.op_ns` and
/// `queue.op_ns_heap`, host ns per schedule or pop.
///
/// `setup` holds the times the benchmark scheduled before the first
/// step, in scheduling order; `popped` the time of every event the run
/// popped. Set-up events are scheduled up front, as in the run; every
/// other popped event was scheduled by an earlier step, at a moment the
/// trace does not see, and is scheduled just before it is popped. The
/// pending population therefore follows the run's own.
pub fn replay_queue(setup: &[u64], popped: &[u64], out: &mut Outcome) {
    let mut sorted = setup.to_vec();
    sorted.sort_unstable();
    let mut j = 0;
    let run_made: Vec<bool> = popped
        .iter()
        .map(|&t| {
            while j < sorted.len() && sorted[j] < t {
                j += 1;
            }
            if j < sorted.len() && sorted[j] == t {
                j += 1;
                false
            } else {
                true
            }
        })
        .collect();
    let ops = setup.len() + popped.len() + run_made.iter().filter(|r| **r).count();
    for (backend, name) in [
        (QueueBackend::default(), "queue.op_ns"),
        (QueueBackend::Heap, "queue.op_ns_heap"),
    ] {
        let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
        let t = std::time::Instant::now();
        for (i, &at) in setup.iter().enumerate() {
            q.schedule(SimTime(at), i as u32);
        }
        for (i, &at) in popped.iter().enumerate() {
            if run_made[i] {
                q.schedule(SimTime(at), i as u32);
            }
            std::hint::black_box(q.pop());
        }
        let ns = t.elapsed().as_nanos() as f64 / ops.max(1) as f64;
        out.replay(name, ops, ns);
    }
}
