//! Seeded properties of the packet-filter device: the figure 4-1 demux
//! loop is equivalent to the §7 decision-table engine and to every other
//! demux engine on arbitrary filter populations, and queue bounds hold
//! under arbitrary churn.

use pf_filter::dtree::FilterSet;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_kernel::device::{DemuxEngine, PfDevice};
use pf_kernel::types::{Fd, ProcId, RecvPacket};
use pf_sim::rng::{check, SplitMix64};

/// A population of up to nine socket, type, accept-all, reject-all and
/// garbage filters.
fn filters(rng: &mut SplitMix64) -> Vec<FilterProgram> {
    (0..rng.below(10))
        .map(|_| {
            let prio = rng.below(30) as u8;
            match rng.below(5) {
                0 => {
                    samples::pup_socket_filter(prio, rng.below(4) as u16, 20 + rng.below(20) as u16)
                }
                1 => samples::ethertype_filter(prio, rng.below(6) as u16),
                2 => samples::accept_all(prio),
                3 => samples::reject_all(prio),
                _ => {
                    let words = (0..rng.below(12)).map(|_| rng.next_u64() as u16).collect();
                    FilterProgram::from_words(7, words)
                }
            }
        })
        .collect()
}

/// A Pup packet with ethertype in `0..6`, socket in `18..42` and type
/// in `0..120`.
fn pup_packet(rng: &mut SplitMix64) -> Vec<u8> {
    let et = rng.below(6) as u16;
    let sock = 18 + rng.below(24) as u16;
    samples::pup_packet_3mb(et, 0, sock, rng.below(120) as u8)
}

/// The device's first-match demultiplexing agrees with the decision
/// table (modulo adaptive reordering, which is only allowed to permute
/// *equal-priority* filters; it is disabled to pin insertion order).
#[test]
fn demux_agrees_with_decision_table() {
    check(0xde4a_0001, 256, |rng| {
        let fs = filters(rng);
        let mut dev = PfDevice::new();
        dev.set_adaptive_reorder(false);
        let mut set = FilterSet::new();
        for (i, f) in fs.iter().enumerate() {
            let idx = dev.open((ProcId(i), Fd(0)));
            dev.set_filter(idx, f.clone());
            set.insert(i as u32, f.clone());
        }
        let pkt = pup_packet(rng);
        let outcome = dev.demux(&pkt);
        let expected = set.first_match(PacketView::new(&pkt));
        assert_eq!(
            outcome.accepted.first().map(|&i| i as u32),
            expected,
            "device vs decision table"
        );
        // Without deliver-to-lower, at most one port accepts.
        assert!(outcome.accepted.len() <= 1);
    });
}

/// Queue bounds hold under arbitrary enqueue sequences, and the drop
/// count accounts exactly for the overflow.
#[test]
fn queue_bound_and_drop_accounting() {
    check(0xde4a_0002, 256, |rng| {
        let max_queue = 1 + rng.below(19) as usize;
        let arrivals = rng.below(60) as usize;
        let mut dev = PfDevice::new();
        let idx = dev.open((ProcId(0), Fd(0)));
        dev.set_filter(idx, samples::accept_all(10));
        dev.port_mut(idx).config.max_queue = max_queue;
        for i in 0..arrivals {
            let pkt = RecvPacket {
                bytes: vec![i as u8],
                stamp: None,
                dropped_before: dev.port(idx).drops,
            };
            let _ = dev.port_mut(idx).enqueue(pkt);
        }
        let q = dev.port(idx).queue.len();
        let d = dev.port(idx).drops as usize;
        assert!(q <= max_queue);
        assert_eq!(q + d, arrivals);
        // The dropped_before marks are monotone.
        let marks: Vec<u64> = dev
            .port(idx)
            .queue
            .iter()
            .map(|p| p.dropped_before)
            .collect();
        assert!(marks.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// Adaptive reordering never changes *what* is accepted when all
/// filters accept disjoint packet sets (the §3.2 contract: same
/// priority requires disjoint filters).
#[test]
fn adaptive_reordering_preserves_disjoint_semantics() {
    check(0xde4a_0003, 256, |rng| {
        let mut socks: Vec<u16> = (0..1 + rng.below(7))
            .map(|_| 20 + rng.below(40) as u16)
            .collect();
        socks.sort_unstable();
        socks.dedup();
        let build = |adaptive: bool| {
            let mut dev = PfDevice::new();
            dev.set_adaptive_reorder(adaptive);
            for (i, &s) in socks.iter().enumerate() {
                let idx = dev.open((ProcId(i), Fd(0)));
                dev.set_filter(idx, samples::pup_socket_filter(10, 0, s));
            }
            dev
        };
        let mut with = build(true);
        let mut without = build(false);
        for _ in 0..rng.below(400) {
            let pkt = samples::pup_packet_3mb(2, 0, 20 + rng.below(40) as u16, 1);
            let a = with.demux(&pkt).accepted;
            let b = without.demux(&pkt).accepted;
            assert_eq!(a, b, "same destination regardless of ordering");
        }
    });
}

/// Every demux engine — the §7 decision table, the sharded set, the
/// geometric classifier and the JIT set — delivers to exactly the same
/// ports as the figure 4-1 sequential loop, including under the §3.2
/// deliver-to-lower option, on arbitrary filter populations.
#[test]
fn table_engine_equivalent_to_sequential() {
    check(0xde4a_0004, 256, |rng| {
        let fs = filters(rng);
        let copy_all: Vec<bool> = (0..fs.len()).map(|_| rng.chance(0.5)).collect();
        let build = |engine: DemuxEngine| {
            let mut dev = PfDevice::new();
            dev.set_adaptive_reorder(false);
            dev.set_engine(engine);
            for (i, f) in fs.iter().enumerate() {
                let idx = dev.open((ProcId(i), Fd(0)));
                dev.set_filter(idx, f.clone());
                dev.port_mut(idx).config.deliver_to_lower = copy_all[i];
            }
            dev
        };
        let mut seq = build(DemuxEngine::Sequential);
        let mut others = [
            DemuxEngine::DecisionTable,
            DemuxEngine::Sharded,
            DemuxEngine::Geom,
            DemuxEngine::Jit,
        ]
        .map(|engine| (engine, build(engine)));
        for _ in 0..rng.below(60) {
            let pkt = pup_packet(rng);
            let expect = seq.demux(&pkt).accepted;
            for (engine, dev) in &mut others {
                assert_eq!(dev.demux(&pkt).accepted, expect, "{engine:?}");
            }
        }
    });
}
