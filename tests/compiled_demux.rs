//! End-to-end scenarios under every compiled demultiplexing engine: the
//! decision table, sharded and geometric sets and the JIT member list
//! drive the same full-stack conversations as the paper's sequential loop
//! — identical delivery and drops, deterministic runs — while charging
//! their own costs.

use packet_filter::filter::samples;
use packet_filter::kernel::app::App;
use packet_filter::kernel::device::DemuxEngine;
use packet_filter::kernel::types::{Fd, RecvPacket, SockId};
use packet_filter::kernel::world::{ProcCtx, World};
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::FaultModel;
use packet_filter::proto::bsp::BspConfig;
use packet_filter::proto::bsp_app::{BspReceiverApp, BspSenderApp};
use packet_filter::proto::ip::{encode_ip, encode_udp, IpHeader, KernelIp, PROTO_UDP};
use packet_filter::proto::pup::PupAddr;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::counters::Counters;
use packet_filter::sim::time::SimTime;
use packet_filter::SimClock;

/// The compiled engines, each with the profiler label its set work is
/// charged under.
const COMPILED: [(DemuxEngine, &str); 4] = [
    (DemuxEngine::DecisionTable, "pf:dtree"),
    (DemuxEngine::Sharded, "pf:sharded"),
    (DemuxEngine::Geom, "pf:geom"),
    (DemuxEngine::Jit, "pf:jit"),
];

/// What one lossy BSP transfer produced.
#[derive(Debug, PartialEq)]
struct Transfer {
    end: SimTime,
    done: bool,
    bytes: u64,
    receiver: Counters,
    /// Calls charged under the engine's own profiler label on the
    /// receiver.
    engine_charges: u64,
}

impl Transfer {
    /// Delivery and drops at the receiver: completion, bytes, frames
    /// received, and frames dropped unmatched or on a full queue.
    fn delivery(&self) -> (bool, u64, u64, u64, u64) {
        let c = &self.receiver;
        (
            self.done,
            self.bytes,
            c.packets_received,
            c.drops_no_match,
            c.drops_queue_full,
        )
    }
}

/// A wire that loses `loss` and duplicates `duplication` of its frames.
fn lossy(loss: f64, duplication: f64) -> FaultModel {
    FaultModel {
        loss,
        duplication,
        ..FaultModel::default()
    }
}

/// The full user-level BSP stack on the `faults` wire, both hosts
/// demultiplexing with `engine`.
fn lossy_transfer(
    engine: DemuxEngine,
    label: &str,
    seed: u64,
    faults: FaultModel,
    payload: Vec<u8>,
) -> Transfer {
    let mut w = World::new(seed);
    let seg = w.add_segment(Medium::experimental_3mb(), faults);
    let a = w.add_host("alice", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("bob", seg, 0x0B, CostModel::microvax_ii());
    w.set_demux_engine(a, engine);
    w.set_demux_engine(b, engine);
    let src = PupAddr::new(1, 0x0A, 0x300);
    let dst = PupAddr::new(1, 0x0B, 0x400);
    let cfg = BspConfig::default();
    let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
    w.spawn(a, Box::new(BspSenderApp::new(src, dst, payload, cfg)));
    let end = w.run_until(SimTime(600 * 1_000_000_000));
    let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
    Transfer {
        end,
        done: r.is_done(),
        bytes: r.bytes,
        receiver: *w.counters(b),
        engine_charges: w.profiler(b).stats(label).calls,
    }
}

#[test]
fn bsp_transfer_with_loss_under_every_compiled_engine() {
    // The byte stream arrives exactly, with the same frames received and
    // dropped, under every engine. Timing is not compared across engines:
    // each charges its own per-packet cost.
    const TOTAL: usize = 30_000;
    let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 241) as u8).collect();
    let faults = lossy(0.03, 0.01);
    let seq = lossy_transfer(
        DemuxEngine::Sequential,
        "pf:filter",
        42,
        faults,
        payload.clone(),
    );
    assert!(seq.done, "sequential transfer finished despite loss");
    assert_eq!(seq.bytes as usize, TOTAL, "sequential byte stream exact");
    for (engine, label) in COMPILED {
        let run = lossy_transfer(engine, label, 42, faults, payload.clone());
        assert_eq!(run.delivery(), seq.delivery(), "{engine:?}");
        assert!(
            run.engine_charges > 0,
            "{engine:?}: the engine's set work was charged under {label}"
        );
    }
}

#[test]
fn compiled_engine_delivery_matches_sequential_and_is_deterministic() {
    let faults = lossy(0.05, 0.02);
    let seq = lossy_transfer(
        DemuxEngine::Sequential,
        "pf:filter",
        1234,
        faults,
        vec![9; 25_000],
    );
    assert!(seq.done, "sequential transfer finished despite loss");
    assert_eq!(seq.bytes, 25_000, "sequential byte stream exact");
    for (engine, label) in COMPILED {
        let first = lossy_transfer(engine, label, 1234, faults, vec![9; 25_000]);
        let again = lossy_transfer(engine, label, 1234, faults, vec![9; 25_000]);
        assert_eq!(first.delivery(), seq.delivery(), "{engine:?}");
        assert_eq!(first, again, "{engine:?} runs are bit-deterministic");
    }
}

/// A process using both a UDP kernel socket and a packet-filter port
/// (figure 3-3's coexistence scenario).
struct DualStack {
    udp_got: u64,
    pf_got: u64,
}

impl App for DualStack {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip registered");
        k.ksock_request(
            sock,
            packet_filter::proto::ip::ops::UDP_BIND,
            Vec::new(),
            [77, 0, 0, 0],
        );
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(10, 0, 35));
        k.pf_read(fd);
    }
    fn on_socket(&mut self, _s: SockId, op: u32, _d: Vec<u8>, _m: [u64; 4], _k: &mut ProcCtx<'_>) {
        if op == packet_filter::proto::ip::ops::UDP_RECV {
            self.udp_got += 1;
        }
    }
    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.pf_got += packets.len() as u64;
        k.pf_read(fd);
    }
}

/// One UDP datagram for the kernel stack, one Pup for the port and one
/// stray Pup, demultiplexed by `engine`: (UDP received, Pups received,
/// no-match drops).
fn coexistence(engine: DemuxEngine) -> (u64, u64, u64) {
    use packet_filter::net::frame;
    use packet_filter::proto::ip::IP_ETHERTYPE;

    let medium = Medium::experimental_3mb();
    let mut w = World::new(3);
    let seg = w.add_segment(medium, FaultModel::default());
    let h = w.add_host("dual", seg, 0x0B, CostModel::microvax_ii());
    w.set_demux_engine(h, engine);
    w.register_protocol(h, Box::new(KernelIp::new(11)));
    let p = w.spawn(
        h,
        Box::new(DualStack {
            udp_got: 0,
            pf_got: 0,
        }),
    );

    let udp = encode_ip(
        &IpHeader {
            proto: PROTO_UDP,
            ttl: 30,
            src: 10,
            dst: 11,
            total_len: 0,
        },
        &encode_udp(9, 77, b"hello"),
    );
    let udp_frame = frame::build(&medium, 0x0B, 0x0A, IP_ETHERTYPE, &udp).unwrap();
    w.inject_frame(h, udp_frame, SimTime(1_000_000));
    w.inject_frame(h, samples::pup_packet_3mb(2, 0, 35, 1), SimTime(2_000_000));
    w.inject_frame(h, samples::pup_packet_3mb(2, 0, 99, 1), SimTime(3_000_000));
    w.run();

    let app = w.app_ref::<DualStack>(h, p).unwrap();
    (app.udp_got, app.pf_got, w.counters(h).drops_no_match)
}

#[test]
fn every_compiled_engine_coexists_with_kernel_protocols() {
    let seq = coexistence(DemuxEngine::Sequential);
    assert_eq!(
        seq,
        (1, 1, 1),
        "UDP via the kernel, one Pup kept, one dropped"
    );
    for (engine, _) in COMPILED {
        assert_eq!(coexistence(engine), seq, "{engine:?}");
    }
}

#[test]
fn sharded_engine_coexists_with_kernel_protocols() {
    let (udp_got, pf_got, drops_no_match) = coexistence(DemuxEngine::Sharded);
    assert_eq!(udp_got, 1, "UDP went through the kernel stack");
    assert_eq!(pf_got, 1, "the Pup went through the sharded demultiplexer");
    assert_eq!(drops_no_match, 1, "the stray Pup was dropped");
}
