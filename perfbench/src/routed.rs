//! `routed_ring` and `fabric_chaos`: the 256-node ring of
//! `pf_bench::netbench::ring_topology` (64 routers, each with a 3-host
//! LAN) carrying flowgen traffic.
//!
//! * `routed_ring` — static `deploy` routers, 100k flows (Poisson
//!   arrivals, elephants and mice, 20% incast on host 0, two routing
//!   churn flips at router 0). Open loop: the whole schedule is injected
//!   at set-up, then the world drains.
//! * `fabric_chaos` — `deploy_hardened` routers (hello/dead probing,
//!   LSU flooding, reconvergence, backup failover) under a three-cycle
//!   link-flap train on ring link 0, 2,048 two-packet flows spread over
//!   2.2 s, run to a 3 s horizon. An undefended twin of the same
//!   topology, traffic and schedule runs beside it as the referee's
//!   exact-conservation check.
//!
//! Every host carries [`IpSink`], a kernel-resident IP input that
//! records which packet arrived when. It claims the IP Ethernet type,
//! so hosts open no packet-filter ports and the demux path stays idle,
//! and it charges no simulated CPU, so routers and segments behave
//! exactly as without it.

use crate::stats::{batch_ns, quantile_sorted, Digest, Replay};
use crate::trace::{self, Kind};
use crate::{drive, timed, Layers, Outcome, Scale};
use pf_bench::flowgen::{self, Arrival, FlowPacket, FlowSpec, Pattern, SizeMix, Transport};
use pf_bench::netbench::ring_topology;
use pf_kernel::types::{ProcId, SockId};
use pf_kernel::world::KernelCtx;
use pf_kernel::{KernelProtocol, World};
use pf_net::fabric::FabricSchedule;
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::Network;
use pf_net::topology::{Forwarder, NodeKind, Route};
use pf_net::{LinkId, NodeId, Topology};
use pf_proto::ip::{decode_ip, encode_ip, IpHeader, IP_ETHERTYPE};
use pf_proto::router::{deploy, deploy_hardened, DeployedTopology, HelloConfig, IpRouter};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;
use std::collections::HashMap;
use std::time::Instant;

/// Ring size (routers + hosts) at full scale.
const NODES: usize = 256;
/// Ring size for the benchmark's own tests.
const SMALL_NODES: usize = 32;
/// `routed_ring` flows at full scale.
const RING_FLOWS: usize = 100_000;
/// `fabric_chaos` flows per ring node (four times `pf_bench::fabric`'s,
/// so the latency tail has enough samples to be steady across seeds).
const FABRIC_FLOWS_PER_NODE: usize = 32;
/// First link-flap instant.
const T_FAULT: SimTime = SimTime(1_000_000_000);
/// `fabric_chaos` horizon: hardened routers tick forever.
const DRAIN_AT: SimTime = SimTime(3_000_000_000);
/// Packets the path replay walks (the rest add samples, not signal).
const REPLAY_PACKETS: usize = 50_000;

/// Kernel-resident IP input that records `(packet id, arrival ns)`.
#[derive(Default)]
pub struct IpSink {
    /// Every IP frame that reached this host, in arrival order; frames
    /// without a readable id are recorded as `u32::MAX`.
    pub got: Vec<(u32, u64)>,
}

impl KernelProtocol for IpSink {
    fn name(&self) -> &'static str {
        "perfbench-ip-sink"
    }

    fn claims(&self, ethertype: u16) -> bool {
        ethertype == IP_ETHERTYPE
    }

    fn input(&mut self, frame_bytes: Vec<u8>, k: &mut KernelCtx<'_>) {
        let id = frame::payload(&Medium::standard_10mb(), &frame_bytes)
            .ok()
            .and_then(decode_ip)
            .and_then(|(_, body)| body.get(..4))
            .map_or(u32::MAX, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        self.got.push((id, k.now().0));
    }

    fn user_request(
        &mut self,
        _proc: ProcId,
        _sock: SockId,
        _op: u32,
        _data: Vec<u8>,
        _meta: [u64; 4],
        _k: &mut KernelCtx<'_>,
    ) {
    }
}

/// `pf_bench::netbench`'s flagship cell shape.
fn ring_spec(flows: usize) -> FlowSpec {
    FlowSpec {
        flows,
        arrival: Arrival::Poisson {
            rate_fps: flows as f64 * 50.0,
        },
        sizes: SizeMix::ElephantsAndMice {
            mice: 1,
            elephants: 4,
            elephant_fraction: 0.1,
        },
        pattern: Pattern::Incast { fraction: 0.2 },
        transports: vec![Transport::Udp, Transport::Bsp, Transport::Vmtp],
        payload: 64,
        packet_gap_ns: 200_000,
        churn_events: 2,
        start: SimTime(1_000),
    }
}

/// `pf_bench::fabric`'s cell shape: arrivals spread over the whole
/// pre/during/post-fault horizon.
fn fabric_spec(flows: usize) -> FlowSpec {
    FlowSpec {
        flows,
        arrival: Arrival::Poisson {
            rate_fps: flows as f64 / 2.2,
        },
        sizes: SizeMix::Fixed(2),
        pattern: Pattern::Uniform,
        transports: vec![Transport::Udp, Transport::Bsp, Transport::Vmtp],
        payload: 64,
        packet_gap_ns: 200_000,
        churn_events: 0,
        start: SimTime(1_000),
    }
}

fn flap_schedule() -> FabricSchedule {
    let mut s = FabricSchedule::new();
    s.link_flaps(
        LinkId(0),
        T_FAULT,
        SimDuration::from_millis(100),
        SimDuration::from_millis(150),
        3,
    );
    s
}

fn ip_proto(t: Transport) -> u8 {
    match t {
        Transport::Udp => 17,
        Transport::Bsp => 99,
        Transport::Vmtp => 81,
    }
}

/// The generated inputs of one routed workload.
struct Plan {
    topo: Topology,
    routers: Vec<NodeId>,
    hosts: Vec<NodeId>,
    packets: Vec<FlowPacket>,
    churn: Vec<SimTime>,
    ttl: u8,
}

/// The frame host `p.src` hands its NIC for packet `id`: IP over
/// Ethernet to the first hop, the packet id in the first payload bytes.
fn packet_frame(plan: &Plan, id: usize, p: &FlowPacket) -> (NodeId, Vec<u8>) {
    let topo = &plan.topo;
    let src = plan.hosts[p.src];
    let dst_ip = topo.ip(plan.hosts[p.dst]);
    let (iface, next_eth) = topo.first_hop(src, dst_ip).expect("ring is connected");
    let src_if = topo.interfaces(src)[iface];
    let mut body = vec![0xA5u8; p.payload.max(4)];
    body[..4].copy_from_slice(&(id as u32).to_le_bytes());
    let packet = encode_ip(
        &IpHeader {
            proto: ip_proto(p.transport),
            ttl: plan.ttl,
            src: topo.ip(src),
            dst: dst_ip,
            total_len: 0,
        },
        &body,
    );
    let f = frame::build(
        topo.medium(src_if.link),
        next_eth,
        src_if.eth,
        IP_ETHERTYPE,
        &packet,
    )
    .expect("frame fits the medium");
    (src, f)
}

/// A ready-to-run routed world.
struct Built {
    plan: Plan,
    w: World,
    d: DeployedTopology,
    setup: Layers,
}

/// Set-up: workload generation, topology build, deploy, frame encoding
/// and injection — everything before the first `SimClock::step`.
fn build(seed: u64, fabric: bool, hardened: bool, scale: Scale) -> Built {
    let nodes = match scale {
        Scale::Full => NODES,
        Scale::Small => SMALL_NODES,
    };
    let mut setup = Layers::new();
    let ((base, routers, hosts), topo_s) = timed(|| ring_topology(nodes));
    let spec = if fabric {
        fabric_spec(FABRIC_FLOWS_PER_NODE * nodes)
    } else {
        ring_spec(match scale {
            Scale::Full => RING_FLOWS,
            Scale::Small => 2_000,
        })
    };
    let (packets, gen_s) = timed(|| flowgen::generate(&spec, hosts.len(), seed));
    let churn = flowgen::churn_times(&spec, &packets);
    let topo = if fabric {
        base.with_fabric(flap_schedule())
    } else {
        base
    };
    let plan = Plan {
        topo,
        routers,
        hosts,
        packets,
        churn,
        // Fabric detours can double a path mid-flight; with TTL 255 every
        // expiry left is a forwarding loop (as in `pf_bench::fabric`).
        ttl: if fabric { 255 } else { 64 },
    };

    let mut w = World::new(seed);
    let costs = CostModel::microvax_ii();
    let (d, deploy_s) = timed(|| {
        if hardened {
            deploy_hardened(&plan.topo, &mut w, &costs, HelloConfig::default())
        } else {
            deploy(&plan.topo, &mut w, &costs)
        }
    });
    for h in &plan.hosts {
        let id = d.host(*h);
        // The incast victim sees a large standing backlog; a deep ring
        // keeps "no interface drops" a property of routing, not luck.
        w.set_nic_capacity(id, 1 << 20);
        w.register_protocol(id, Box::new(IpSink::default()));
    }
    for (i, p) in plan.packets.iter().enumerate() {
        let (src, f) = trace::span(Kind::FrameBuild, i as u64, || packet_frame(&plan, i, p));
        let host = d.host(src);
        trace::span(Kind::Inject, i as u64, || w.send_frame_at(host, f, p.at));
    }
    setup.insert("topology.build_ms", topo_s * 1e3);
    setup.insert("flowgen.generate_ms", gen_s * 1e3);
    setup.insert("deploy.ms", deploy_s * 1e3);
    Built { plan, w, d, setup }
}

/// Set-up only, for the set-up-time median.
pub fn setup_only(seed: u64, fabric: bool) -> f64 {
    timed(|| build(seed, fabric, fabric, Scale::Full)).1
}

/// Flips router 0's route to the antipodal LAN between the two
/// equal-cost ring directions (both shortest, so delivery stays exact).
fn churn_route(plan: &Plan, k: usize) -> Route {
    let topo = &plan.topo;
    let r_count = plan.routers.len();
    let prefix = topo.subnet(LinkId(r_count + r_count / 2));
    let via = |neighbor: usize, link: usize| -> u32 {
        topo.interfaces(plan.routers[neighbor])
            .iter()
            .find(|i| i.link == LinkId(link))
            .map(|i| i.ip)
            .expect("ring link")
    };
    let (iface, next_hop) = if k.is_multiple_of(2) {
        (0, via(1, 0))
    } else {
        (1, via(r_count - 1, r_count - 1))
    };
    Route {
        prefix,
        len: 24,
        iface,
        next_hop: Some(next_hop),
    }
}

/// Per-packet delivery record gathered from the hosts' sinks.
struct Deliveries {
    /// `(packet id, host index, arrival ns)` in host order.
    rows: Vec<(u32, usize, u64)>,
    /// Deliveries per packet id.
    count: Vec<u32>,
    misdelivered: u64,
    unreadable: u64,
}

fn collect(plan: &Plan, w: &World, d: &DeployedTopology, tamper: bool) -> Deliveries {
    let mut out = Deliveries {
        rows: Vec::new(),
        count: vec![0; plan.packets.len()],
        misdelivered: 0,
        unreadable: 0,
    };
    for (hi, h) in plan.hosts.iter().enumerate() {
        let sink = w.protocol_ref::<IpSink>(d.host(*h)).expect("sink on host");
        for &(id, t) in &sink.got {
            match plan.packets.get(id as usize) {
                None => out.unreadable += 1,
                Some(p) if p.dst != hi => out.misdelivered += 1,
                Some(_) => {
                    out.count[id as usize] += 1;
                    out.rows.push((id, hi, t));
                }
            }
        }
    }
    if tamper {
        if let Some((id, ..)) = out.rows.pop() {
            out.count[id as usize] -= 1;
        }
    }
    out
}

/// Simulated-time end-to-end metrics over the right-host deliveries.
fn sim_metrics(plan: &Plan, del: &Deliveries, out: &mut Outcome) {
    let mut lat: Vec<u64> = del
        .rows
        .iter()
        .map(|&(id, _, t)| t - plan.packets[id as usize].at.0)
        .collect();
    lat.sort_unstable();
    out.sim_latency_p50_us = quantile_sorted(&lat, 0.50) / 1e3;
    out.sim_latency_p99_us = quantile_sorted(&lat, 0.99) / 1e3;
    let first = plan.packets.first().map_or(0, |p| p.at.0);
    let last = del.rows.iter().map(|r| r.2).max().unwrap_or(first);
    out.sim_goodput_pps = del.rows.len() as f64 / ((last - first) as f64 / 1e9).max(1e-9);
}

fn digest(del: &Deliveries, w: &World, extra: &[u64]) -> u64 {
    let mut g = Digest::default();
    for &(id, h, t) in &del.rows {
        g.word(u64::from(id));
        g.word(h as u64);
        g.word(t);
    }
    g.word(w.now().0);
    for &e in extra {
        g.word(e);
    }
    g.value()
}

#[derive(Default)]
struct RouterSums {
    forwarded: u64,
    ttl_expired: u64,
    no_route: u64,
    not_routable: u64,
    hellos_sent: u64,
    control_in: u64,
    reconvergences: u64,
    route_churn: u64,
    failovers: u64,
    last_change_ns: u64,
    dropped_down: u64,
}

impl RouterSums {
    fn of(plan: &Plan, w: &World, d: &DeployedTopology) -> Self {
        let mut s = RouterSums::default();
        for r in &plan.routers {
            let id = d.router(*r);
            let f = w.router_stats(id);
            s.forwarded += f.forwarded;
            s.ttl_expired += f.ttl_expired;
            s.no_route += f.no_route;
            s.not_routable += f.not_routable;
            s.hellos_sent += f.hellos_sent;
            s.control_in += f.control_in;
            s.reconvergences += f.reconvergences;
            s.route_churn += f.route_churn;
            s.failovers += f.failovers;
            s.last_change_ns = s.last_change_ns.max(f.last_route_change_ns);
            s.dropped_down += w.router_counters(id).frames_dropped_down;
        }
        s
    }

    fn words(&self) -> [u64; 11] {
        [
            self.forwarded,
            self.ttl_expired,
            self.no_route,
            self.not_routable,
            self.hellos_sent,
            self.control_in,
            self.reconvergences,
            self.route_churn,
            self.failovers,
            self.last_change_ns,
            self.dropped_down,
        ]
    }
}

fn host_sum(
    plan: &Plan,
    w: &World,
    d: &DeployedTopology,
    f: impl Fn(&pf_sim::Counters) -> u64,
) -> u64 {
    plan.hosts.iter().map(|h| f(w.counters(d.host(*h)))).sum()
}

fn exact_layers(w: &World, d: &DeployedTopology, rs: &RouterSums, out: &mut Outcome) {
    let transmits: u64 = d
        .segments
        .iter()
        .map(|s| w.network().transmitted_on(*s))
        .sum();
    out.layers.insert("segment.transmits", transmits as f64);
    out.layers.insert("router.forwards", rs.forwarded as f64);
    out.layers
        .insert("control.hellos_sent", rs.hellos_sent as f64);
    out.layers
        .insert("control.control_in", rs.control_in as f64);
    out.layers
        .insert("control.reconvergences", rs.reconvergences as f64);
    out.layers
        .insert("control.route_churn", rs.route_churn as f64);
    out.layers.insert("control.failovers", rs.failovers as f64);
    let conv_ns = rs.last_change_ns.saturating_sub(T_FAULT.0);
    let conv_ms = if rs.last_change_ns == 0 {
        0.0
    } else {
        conv_ns as f64 / 1e6
    };
    out.layers.insert("control.convergence_ms", conv_ms);
}

/// One `routed_ring` iteration.
pub fn routed_ring(seed: u64, scale: Scale, tamper: bool) -> Outcome {
    let started = Instant::now();
    let Built {
        plan,
        mut w,
        d,
        setup,
    } = build(seed, false, false, scale);
    let setup_s = started.elapsed().as_secs_f64();

    let mut popped = Vec::new();
    let run = Instant::now();
    for (k, &at) in plan.churn.iter().enumerate() {
        drive(&mut w, Some(at), &mut popped);
        let router = d.router(plan.routers[0]);
        let route = churn_route(&plan, k);
        let ok = trace::span(Kind::UpdateRoute, k as u64, || {
            w.update_route(router, route)
        });
        assert!(ok, "router 0 accepts route updates");
    }
    drive(&mut w, None, &mut popped);
    let run_s = run.elapsed().as_secs_f64();

    let mut out = Outcome {
        setup_s,
        run_s,
        layers: setup,
        ..Outcome::default()
    };
    let del = collect(&plan, &w, &d, tamper);
    let rs = RouterSums::of(&plan, &w, &d);
    let n = plan.packets.len() as u64;
    let once = del.count.iter().filter(|&&c| c == 1).count() as u64;
    let dups: u64 = del
        .count
        .iter()
        .map(|&c| u64::from(c.saturating_sub(1)))
        .sum();
    out.attempted = n;
    out.failed = (n - once) + del.misdelivered + del.unreadable;
    out.completed = once;
    out.check(once == n, || {
        format!("{} of {n} packets not delivered exactly once", n - once)
    });
    out.check(dups == 0, || format!("{dups} duplicate deliveries"));
    out.check(del.misdelivered + del.unreadable == 0, || {
        format!(
            "{} misdelivered, {} unreadable",
            del.misdelivered, del.unreadable
        )
    });
    out.check(rs.no_route + rs.ttl_expired + rs.not_routable == 0, || {
        format!(
            "router drops: no_route {} ttl_expired {} not_routable {}",
            rs.no_route, rs.ttl_expired, rs.not_routable
        )
    });
    let nic = host_sum(&plan, &w, &d, |c| c.drops_interface);
    out.check(nic == 0, || format!("{nic} host NIC drops"));
    sim_metrics(&plan, &del, &mut out);
    out.digest = digest(&del, &w, &rs.words());
    exact_layers(&w, &d, &rs, &mut out);
    if trace::enabled() {
        replay(&plan, seed, &popped, &mut out);
    }
    out
}

/// Runs the undefended twin of a `fabric_chaos` world: returns how many
/// packets its exact conservation (delivered + blackholed == injected)
/// misses, and the host time its steps took.
fn undefended_twin(seed: u64, scale: Scale, tamper: bool) -> (u64, f64) {
    let Built { plan, mut w, d, .. } = build(seed, true, false, scale);
    let mut busy = 0.0;
    while let Some(t) = w.next_event_time() {
        if t > DRAIN_AT {
            break;
        }
        let s = Instant::now();
        w.step();
        busy += s.elapsed().as_secs_f64();
    }
    let del = collect(&plan, &w, &d, tamper);
    let rs = RouterSums::of(&plan, &w, &d);
    let delivered = del.count.iter().filter(|&&c| c == 1).count() as u64;
    let cut = w.segment_faults(d.segments[0]).link_down_drops;
    let n = plan.packets.len() as u64;
    (
        n.abs_diff(delivered + cut + rs.dropped_down) + rs.ttl_expired,
        busy,
    )
}

/// One `fabric_chaos` iteration.
pub fn fabric_chaos(seed: u64, scale: Scale, tamper: bool) -> Outcome {
    let started = Instant::now();
    let Built {
        plan,
        mut w,
        d,
        setup,
    } = build(seed, true, true, scale);
    let setup_s = started.elapsed().as_secs_f64();

    let mut popped = Vec::new();
    let busy_before = trace::step_busy_s();
    let run = Instant::now();
    drive(&mut w, Some(DRAIN_AT), &mut popped);
    let run_s = run.elapsed().as_secs_f64();
    let busy = trace::step_busy_s() - busy_before;

    let mut out = Outcome {
        setup_s,
        run_s,
        layers: setup,
        ..Outcome::default()
    };
    let del = collect(&plan, &w, &d, tamper);
    let rs = RouterSums::of(&plan, &w, &d);
    let n = plan.packets.len() as u64;
    let once = del.count.iter().filter(|&&c| c == 1).count() as u64;
    let dups: u64 = del
        .count
        .iter()
        .map(|&c| u64::from(c.saturating_sub(1)))
        .sum();
    // Every packet that did not arrive must be covered by a named drop:
    // a downed link, a downed router, a missing route or a NIC overrun.
    // In the hardened fabric these counters also count control frames,
    // so coverage is an inequality here; the undefended twin checks it
    // exactly.
    let link_down: u64 = d
        .segments
        .iter()
        .map(|s| w.segment_faults(*s).link_down_drops)
        .sum();
    let nic = host_sum(&plan, &w, &d, |c| c.drops_interface);
    let named = link_down + rs.dropped_down + rs.no_route + nic;
    let missing = n - once;
    let unnamed = missing.saturating_sub(named);
    out.attempted = n;
    out.failed = unnamed + dups + del.misdelivered + del.unreadable;
    out.completed = n - unnamed;
    out.check(unnamed == 0, || {
        format!("{missing} packets missing but only {named} named drops")
    });
    out.check(dups + del.misdelivered + del.unreadable == 0, || {
        format!(
            "{dups} duplicates, {} misdelivered, {} unreadable",
            del.misdelivered, del.unreadable
        )
    });
    out.check(rs.ttl_expired == 0, || {
        format!("{} TTL expiries (a loop)", rs.ttl_expired)
    });
    out.check(rs.not_routable == 0, || {
        format!("{} unroutable frames", rs.not_routable)
    });
    // The fabric must recover: at least 99% of the packets sent after
    // the last flap plus the convergence allowance arrive.
    let r_count = plan.routers.len() as u64;
    let settle = T_FAULT.0 + 600_000_000 + 100_000_000 + 4_000_000 * (r_count / 2).max(1);
    let late: Vec<usize> = (0..plan.packets.len())
        .filter(|&i| plan.packets[i].at.0 >= settle)
        .collect();
    let late_ok = late.iter().filter(|&&i| del.count[i] == 1).count();
    out.check(late_ok * 100 >= late.len() * 99, || {
        format!(
            "only {late_ok} of {} post-settle packets delivered",
            late.len()
        )
    });
    let (twin_unnamed, twin_busy) = undefended_twin(seed, scale, tamper);
    out.failed += twin_unnamed;
    out.check(twin_unnamed == 0, || {
        format!("undefended twin: {twin_unnamed} packets neither delivered nor blackholed")
    });
    sim_metrics(&plan, &del, &mut out);
    out.digest = digest(&del, &w, &rs.words());
    exact_layers(&w, &d, &rs, &mut out);
    if trace::enabled() {
        out.layers.insert("control.busy_s", busy - twin_busy);
        replay(&plan, seed, &popped, &mut out);
    }
    out
}

/// Replays the recorded inputs through the routed layers' public
/// functions, outside the `World`:
///
/// * `queue.op_ns{,_heap}` — the run's popped event-time stream through
///   `EventQueue` on each backend;
/// * `router.forward_ns_*` — each packet's frame through
///   `Forwarder::forward` on `IpRouter::for_node`, hop by hop along the
///   static plan;
/// * `segment.transmit_ns` — every hop's frame through
///   `Network::transmit` on a network built by `Topology::instantiate`;
/// * `router.lookup_ns` — every hop's destination through the hop
///   router's `RouteTable::lookup`.
fn replay(plan: &Plan, seed: u64, popped: &[u64], out: &mut Outcome) {
    let setup_times: Vec<u64> = plan.packets.iter().map(|p| p.at.0).collect();
    crate::replay_queue(&setup_times, popped, out);

    let topo = &plan.topo;
    let mut routers: Vec<Option<IpRouter>> = (0..topo.node_count())
        .map(|n| {
            (topo.kind(NodeId(n)) == NodeKind::Router).then(|| IpRouter::for_node(topo, NodeId(n)))
        })
        .collect();
    let mut by_eth: HashMap<(LinkId, u64), (NodeId, usize)> = HashMap::new();
    for n in 0..topo.node_count() {
        for (k, i) in topo.interfaces(NodeId(n)).iter().enumerate() {
            by_eth.insert((i.link, i.eth), (NodeId(n), k));
        }
    }
    let mut net = Network::new(seed);
    let inst = topo.instantiate(&mut net);
    let mut forward = Replay::default();
    let mut transmit = Replay::default();
    let mut lookups: Vec<(NodeId, u32)> = Vec::new();
    let mut now = 0u64;
    for (id, p) in plan.packets.iter().enumerate().take(REPLAY_PACKETS) {
        let dst = plan.hosts[p.dst];
        let dst_ip = topo.ip(dst);
        let (mut node, mut f) = packet_frame(plan, id, p);
        let (mut iface, _) = topo.first_hop(node, dst_ip).expect("ring is connected");
        loop {
            now += 1_000;
            let station = inst.stations[node.0][iface];
            transmit.time(|| net.transmit(station, &f, SimTime(now)));
            let link = topo.interfaces(node)[iface].link;
            let eth = frame::parse(topo.medium(link), &f)
                .expect("well-formed")
                .dst;
            let (next, in_iface) = by_eth[&(link, eth)];
            if topo.kind(next) == NodeKind::Host {
                assert_eq!(next, dst, "replayed packet reaches its addressee");
                break;
            }
            lookups.push((next, dst_ip));
            let r = routers[next.0].as_mut().expect("router node");
            let out = forward.time(|| r.forward(in_iface, &f));
            let (oi, of) = out.into_iter().next().expect("static plan forwards");
            node = next;
            iface = oi;
            f = of;
        }
    }
    out.replay(
        "router.forward_ns_p50",
        forward.calls(),
        forward.quantile(0.50),
    );
    out.replay(
        "router.forward_ns_p99",
        forward.calls(),
        forward.quantile(0.99),
    );
    out.replay("segment.transmit_ns", transmit.calls(), transmit.mean());
    let lookup_ns = batch_ns(lookups.len(), |i| {
        let (n, ip) = lookups[i];
        std::hint::black_box(topo.route_table(n).lookup(std::hint::black_box(ip)));
    });
    out.replay("router.lookup_ns", lookups.len(), lookup_ns);
}
