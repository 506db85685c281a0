//! Structured fuzzing for the hardened router's control plane, the wire
//! boundary where a corrupt hello or link-state update reaches neighbor
//! liveness and route recomputation. Control frames with random or
//! truncated bodies, out-of-range origins and node ids, wrapped sequence
//! numbers and hostile timestamps are fed to every router of a
//! four-router ring, interleaved with liveness ticks, as one seeded
//! stream of 10,000 frames (each frame lands on the state the earlier
//! ones built, so this is a plain loop, not [`pf_sim::rng::check`]).
//!
//! A control body is `msg (1) | origin (2) | sent_at ns (8)`, and a
//! link-state update (`msg` 2) adds `count (1)` and `count` 11-byte
//! records `origin (2) | seq (4) | a (2) | b (2) | up (1)`.

use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_net::topology::Forwarder;
use pf_net::{NodeId, Topology};
use pf_proto::router::{HelloConfig, IpRouter, CONTROL_ETHERTYPE};
use pf_sim::rng::SplitMix64;
use pf_sim::time::SimTime;

const MSG_HELLO: u8 = 1;
const MSG_LSU: u8 = 2;

/// Four routers in a ring, each with one host LAN.
fn ring4() -> (Topology, Vec<NodeId>) {
    let mut b = Topology::builder();
    let r: Vec<_> = (0..4).map(|i| b.router(format!("r{i}"))).collect();
    let h: Vec<_> = (0..4).map(|i| b.host(format!("h{i}"))).collect();
    for i in 0..4 {
        let m = Medium::standard_10mb();
        b.link(r[i], r[(i + 1) % 4], m, FaultModel::default());
        b.link(h[i], r[i], m, FaultModel::default());
    }
    (b.build(), r)
}

/// A node id: a real router most of the time, else anything.
fn node_id(rng: &mut SplitMix64, routers: &[NodeId]) -> u16 {
    if rng.chance(0.7) {
        routers[rng.below(routers.len() as u64) as usize].0 as u16
    } else {
        rng.next_u64() as u16
    }
}

/// A hostile control body and whether the router can decode it.
fn control_body(rng: &mut SplitMix64, routers: &[NodeId], now: SimTime) -> (Vec<u8>, bool) {
    let msg = match rng.below(10) {
        0..=3 => MSG_HELLO,
        4..=8 => MSG_LSU,
        _ => rng.next_u64() as u8,
    };
    let sent_at = match rng.below(5) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64(),
        _ => now.as_nanos() + rng.below(1 << 20),
    };
    let mut body = vec![msg];
    body.extend_from_slice(&node_id(rng, routers).to_be_bytes());
    body.extend_from_slice(&sent_at.to_be_bytes());
    if msg == MSG_LSU {
        let records = rng.below(9) as u8;
        // Sometimes the count claims records the body does not carry.
        let count = if rng.chance(0.1) {
            rng.next_u64() as u8
        } else {
            records
        };
        body.push(count);
        for _ in 0..records {
            let seq = match rng.below(4) {
                0 => u32::MAX,
                1 => 0,
                _ => rng.below(64) as u32,
            };
            body.extend_from_slice(&node_id(rng, routers).to_be_bytes());
            body.extend_from_slice(&seq.to_be_bytes());
            body.extend_from_slice(&node_id(rng, routers).to_be_bytes());
            body.extend_from_slice(&node_id(rng, routers).to_be_bytes());
            body.push(rng.below(3) as u8);
        }
    }
    if rng.chance(0.2) {
        body.truncate(rng.below(body.len() as u64 + 1) as usize);
    }
    let decodable = match body.len() {
        0..=10 => false,
        _ if body[0] != MSG_LSU => true,
        11 => false,
        n => 12 + 11 * usize::from(body[11]) <= n,
    };
    (body, decodable)
}

/// Every control frame is consumed exactly once, never panics, and is
/// counted `not_routable` exactly when its body cannot be decoded or
/// names no known message type.
#[test]
fn hardened_router_control_plane_is_total() {
    let (topo, routers) = ring4();
    let mut fwds: Vec<IpRouter> = routers
        .iter()
        .map(|&r| IpRouter::for_node_hardened(&topo, r, HelloConfig::default()))
        .collect();
    let mut now = SimTime::ZERO;
    let mut undecodable = 0u64;
    let mut rng = SplitMix64::new(0xc041_7401);
    for step in 0..10_000 {
        if rng.chance(0.2) {
            now = SimTime(now.0 + rng.below(50_000_000));
            for f in &mut fwds {
                f.tick(now);
            }
        }
        let at = rng.below(routers.len() as u64) as usize;
        let ifaces = topo.interfaces(routers[at]);
        let iface = rng.below(ifaces.len() as u64) as usize;
        let (body, decodable) = control_body(&mut rng, &routers, now);
        let medium = topo.medium(ifaces[iface].link);
        let f = frame::build(
            medium,
            ifaces[iface].eth,
            rng.below(1 << 48),
            CONTROL_ETHERTYPE,
            &body,
        )
        .expect("control frames fit the medium");
        let before = fwds[at].stats();
        fwds[at].forward(iface, &f);
        let after = fwds[at].stats();
        assert_eq!(
            after.control_in,
            before.control_in + 1,
            "step {step}: one control_in"
        );
        let known = matches!(body[..].first(), Some(&(MSG_HELLO | MSG_LSU)));
        let rejected = !decodable || !known;
        undecodable += u64::from(!decodable);
        assert_eq!(
            after.not_routable - before.not_routable,
            u64::from(rejected),
            "step {step}: not_routable for a {}-byte body (decodable: {decodable})",
            body.len()
        );
        assert_eq!(
            after.forwarded, before.forwarded,
            "step {step}: control is never forwarded"
        );
    }
    assert!(undecodable > 500, "only {undecodable} undecodable bodies");
    let reconvergences: u64 = fwds.iter().map(|f| f.stats().reconvergences).sum();
    assert!(
        reconvergences > 0,
        "no update ever reached route recomputation"
    );
}

/// Hostile link-state updates cannot grow the database past what the
/// topology can hold: one record per (node pair, origin node). The
/// database is observed through the full sync a revived neighbor
/// receives, which carries every record.
#[test]
#[ignore = "the link-state database keeps out-of-topology node ids (ROADMAP, every-test-live item)"]
fn hostile_lsus_leave_the_link_state_database_bounded() {
    let (topo, routers) = ring4();
    let (r0, r1) = (routers[0], routers[1]);
    let mut router = IpRouter::for_node_hardened(&topo, r0, HelloConfig::default());
    let ifaces = topo.interfaces(r0);
    let to_r1 = ifaces
        .iter()
        .position(|i| topo.members(i.link).contains(&r1))
        .expect("r0 and r1 share a link");
    let medium = topo.medium(ifaces[to_r1].link);
    let send = |router: &mut IpRouter, body: &[u8]| {
        let f = frame::build(medium, ifaces[to_r1].eth, 1, CONTROL_ETHERTYPE, body)
            .expect("control frames fit the medium");
        router.forward(to_r1, &f)
    };
    // 100 full-size updates from a non-neighbor origin, every record
    // fresh and about an adjacency between ids no topology node has.
    for frame_no in 0..100u16 {
        let mut body = vec![MSG_LSU];
        body.extend_from_slice(&5000u16.to_be_bytes());
        body.extend_from_slice(&0u64.to_be_bytes());
        body.push(40);
        for k in 0..40u16 {
            let a = 10_000 + 2 * (frame_no * 40 + k);
            body.extend_from_slice(&5000u16.to_be_bytes());
            body.extend_from_slice(&1u32.to_be_bytes());
            body.extend_from_slice(&a.to_be_bytes());
            body.extend_from_slice(&(a + 1).to_be_bytes());
            body.push(1);
        }
        send(&mut router, &body);
    }
    // Silence past the dead interval kills r1; its next hello revives
    // it and triggers the full sync.
    for ms in (20..=100).step_by(20) {
        router.tick(SimTime(ms * 1_000_000));
    }
    let mut hello = vec![MSG_HELLO];
    hello.extend_from_slice(&(r1.0 as u16).to_be_bytes());
    hello.extend_from_slice(&100_000_000u64.to_be_bytes());
    let synced: usize = send(&mut router, &hello)
        .iter()
        .filter(|(iface, _)| *iface == to_r1)
        .map(|(_, f)| frame::payload(medium, f).expect("own frames parse"))
        .filter(|body| body[0] == MSG_LSU)
        .map(|body| usize::from(body[11]))
        .sum();
    assert!(synced > 0, "the revived neighbor got no full sync");
    let n = topo.node_count();
    let bound = n * (n - 1) / 2 * n;
    assert!(
        synced <= bound,
        "{synced} records synced; the topology holds at most {bound}"
    );
}
