//! `mc_rss`: the multi-core receive pipeline of `pf_kernel::mc` — four
//! simulated cores, engine batch 32, keyed multi-queue RSS over the
//! destination-socket word, work stealing on — holding the campaign's
//! population (`pf_bench::mc`: 128 pinned single-socket filters plus a
//! replicated low-priority wildcard).
//!
//! Traffic is offered open loop, Poisson arrivals at a steady rate below
//! the four cores' capacity (not the campaign's saturating burst), 95%
//! to the population's sockets and 5% junk that only the wildcard takes.
//! The pipeline has its own clock and queue; nothing else in the
//! benchmark exercises RSS steering, `demux_batch`, stealing or
//! cross-core handoff.

use crate::stats::{quantile_sorted, Digest};
use crate::trace::{self, Kind};
use crate::{drive, timed, Outcome, Scale};
use pf_bench::mc::{CONSUME, FIRST_SOCK, HASH_WORD, POPULATION};
use pf_filter::samples;
use pf_kernel::device::PfDevice;
use pf_kernel::mc::{McConfig, McPipeline, RssConfig};
use pf_kernel::types::{Fd, ProcId};
use pf_kernel::world::OverloadConfig;
use pf_kernel::DemuxEngine;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use std::time::Instant;

/// Worker cores.
const CORES: usize = 4;
/// Engine batch size.
const BATCH: usize = 32;
/// The demux engine (the campaign's first).
const ENGINE: DemuxEngine = DemuxEngine::Sharded;
/// Offered rate, frames per simulated second.
const OFFERED_PPS: f64 = 3_000.0;
/// The RSS key: a property of the simulated machine, fixed so that the
/// seed varies the traffic, not how the NIC spreads it.
const RSS_KEY: u64 = 0x4B45_5953;
/// Every `JUNK_EVERY`-th frame, on average, is junk.
const JUNK_EVERY: u64 = 20;

/// The offered frames: `(arrival, frame)` in time order.
fn arrivals(seed: u64, n: usize) -> Vec<(SimTime, Vec<u8>)> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 1_000_000.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / OFFERED_PPS * 1e9;
            let frame = if rng.below(JUNK_EVERY) == 0 {
                samples::pup_packet_3mb(2, 0, 40_000 + rng.below(977) as u16, 1)
            } else {
                samples::pup_packet_3mb(
                    2,
                    0,
                    FIRST_SOCK + rng.below(u64::from(POPULATION)) as u16,
                    1,
                )
            };
            (SimTime(t as u64), frame)
        })
        .collect()
}

fn config() -> McConfig {
    let mut cfg = McConfig::single_core(ENGINE);
    cfg.cores = CORES;
    cfg.batch = BATCH;
    cfg.rss = RssConfig::keyed(CORES, vec![HASH_WORD], RSS_KEY);
    cfg.consume = CONSUME;
    cfg.steal = true;
    cfg.armor = Some(OverloadConfig {
        hi_watermark: 16,
        lo_watermark: 4,
        poll_batch: BATCH,
        poll_interval: SimDuration::from_millis(2),
    });
    cfg
}

fn frames(scale: Scale) -> usize {
    match scale {
        Scale::Full => 60_000,
        Scale::Small => 2_000,
    }
}

/// Set-up: arrivals, pipeline, population, schedule.
fn build(seed: u64, scale: Scale) -> (McPipeline, Vec<(SimTime, Vec<u8>)>) {
    let offered = arrivals(seed, frames(scale));
    let mut pl = McPipeline::new(config());
    for i in 0..POPULATION {
        pl.add_filter(samples::pup_socket_filter(10, 0, FIRST_SOCK + i));
    }
    pl.add_filter(samples::accept_all(1));
    for (i, (t, f)) in offered.iter().enumerate() {
        let f = trace::span(Kind::FrameBuild, i as u64, || f.clone());
        trace::span(Kind::Inject, i as u64, || pl.schedule_arrival(*t, f));
    }
    (pl, offered)
}

/// Set-up only, for the set-up-time median.
pub fn setup_only(seed: u64) -> f64 {
    timed(|| build(seed, Scale::Full)).1
}

/// One `mc_rss` iteration.
pub fn mc_rss(seed: u64, scale: Scale, tamper: bool) -> Outcome {
    let started = Instant::now();
    let (mut pl, offered) = build(seed, scale);
    let setup_s = started.elapsed().as_secs_f64();

    let mut popped = Vec::new();
    let run = Instant::now();
    drive(&mut pl, None, &mut popped);
    let run_s = run.elapsed().as_secs_f64();

    let report = pl.report();
    let c = &report.total;
    let mut delivered = c.packets_delivered;
    if tamper {
        delivered -= 1;
    }
    let n = offered.len() as u64;
    let mut out = Outcome {
        setup_s,
        run_s,
        attempted: n,
        ..Outcome::default()
    };
    // Frames are conserved: each offered frame is received by exactly
    // one core and ends in one named disposition there.
    let named = c.drops_interface
        + c.drops_admission
        + c.drops_mimicry_shed
        + c.drops_no_match
        + c.drops_queue_full
        + delivered;
    out.failed = n.abs_diff(named) + n.abs_diff(c.packets_received);
    out.check(c.packets_received == n && named == n, || {
        format!(
            "{n} frames offered, {} received, {named} with a named disposition",
            c.packets_received
        )
    });
    out.check(report.latencies.len() as u64 == c.packets_delivered, || {
        format!(
            "{} latencies for {} deliveries",
            report.latencies.len(),
            c.packets_delivered
        )
    });
    out.completed = named.min(n);
    let mut lat: Vec<u64> = report.latencies.iter().map(|d| d.as_nanos()).collect();
    lat.sort_unstable();
    out.sim_latency_p50_us = quantile_sorted(&lat, 0.50) / 1e3;
    out.sim_latency_p99_us = quantile_sorted(&lat, 0.99) / 1e3;
    let first = offered.first().map_or(0, |a| a.0 .0);
    let span_ns = report.finish.0.saturating_sub(first).max(1);
    out.sim_goodput_pps = c.packets_delivered as f64 / (span_ns as f64 / 1e9);

    let mut g = Digest::default();
    for core in &report.per_core {
        for v in [
            core.packets_received,
            core.packets_delivered,
            core.drops_interface,
            core.drops_no_match,
            core.frames_steered,
            core.queue_steals,
            core.cross_core_wakeups,
            core.batches_executed,
        ] {
            g.word(v);
        }
    }
    g.word(report.finish.0);
    for &l in &lat {
        g.word(l);
    }
    out.digest = g.value();

    let l = &mut out.layers;
    l.insert("mc.frames_steered", c.frames_steered as f64);
    l.insert("mc.queue_steals", c.queue_steals as f64);
    l.insert("mc.cross_core_wakeups", c.cross_core_wakeups as f64);
    l.insert("mc.batches", c.batches_executed as f64);
    if trace::enabled() {
        let (calls, ns) = replay_batch(&offered);
        out.replay("mc.batch_demux_ns", calls, ns);
    }
    out
}

/// `mc.batch_demux_ns`: the offered frames, 32 at a time, through
/// `PfDevice::demux_batch` on a device holding the whole population
/// with the pipeline's engine; returns the calls and host ns per call.
fn replay_batch(offered: &[(SimTime, Vec<u8>)]) -> (usize, f64) {
    let mut dev = PfDevice::new();
    dev.set_engine(ENGINE);
    for i in 0..=POPULATION {
        let p = dev.open((ProcId(0), Fd(usize::from(i))));
        let filter = if i < POPULATION {
            samples::pup_socket_filter(10, 0, FIRST_SOCK + i)
        } else {
            samples::accept_all(1)
        };
        assert!(dev.set_filter(p, filter), "population filters validate");
    }
    let frames: Vec<&[u8]> = offered.iter().map(|a| a.1.as_slice()).collect();
    let chunks: Vec<&[&[u8]]> = frames.chunks(BATCH).collect();
    let ns = crate::stats::batch_ns(chunks.len(), |i| {
        std::hint::black_box(dev.demux_batch(std::hint::black_box(chunks[i])));
    });
    (chunks.len(), ns)
}
