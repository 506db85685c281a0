//! Seeded properties of the simulated data links: wire timing and
//! segment delivery. The frame codec's round trip and totality are
//! pinned by `tests/fuzz.rs`.

use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, Network};
use pf_sim::rng::check;
use pf_sim::time::SimTime;

#[test]
fn transmission_delay_is_monotonic() {
    check(0xde1a_7000, 256, |rng| {
        let (a, b) = (rng.below(2000) as usize, rng.below(2000) as usize);
        for m in [Medium::experimental_3mb(), Medium::standard_10mb()] {
            let (lo, hi) = (a.min(b), a.max(b));
            assert!(m.transmission_delay(lo) <= m.transmission_delay(hi));
        }
        // And the 3 Mb wire is strictly slower for any non-empty frame.
        if a > 0 {
            assert!(
                Medium::experimental_3mb().transmission_delay(a)
                    > Medium::standard_10mb().transmission_delay(a)
            );
        }
    });
}

#[test]
fn unicast_never_leaks_to_third_parties() {
    check(0x1eac_0000, 256, |rng| {
        let n_hosts = 3 + rng.below(5) as usize;
        let dst_idx = 1 + rng.below(n_hosts as u64 - 1) as usize;
        let loss = rng.next_f64() * 0.5;
        let mut net = Network::new(rng.next_u64());
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                loss,
                ..FaultModel::default()
            },
        );
        let stations: Vec<_> = (0..n_hosts)
            .map(|i| net.add_station(seg, i as u64 + 1))
            .collect();
        let m = Medium::experimental_3mb();
        let f = frame::build(&m, dst_idx as u64 + 1, 1, 2, &[0; 10]).unwrap();
        let (_, deliveries) = net.transmit(stations[0], &f, SimTime::ZERO);
        // With loss, 0 or 1 delivery — but never to anyone but the target.
        assert!(deliveries.len() <= 1);
        for d in deliveries {
            assert_eq!(d.station, stations[dst_idx]);
        }
    });
}

#[test]
fn fault_free_broadcast_reaches_everyone_else() {
    check(0xb0ad_ca57, 256, |rng| {
        let n_hosts = 2 + rng.below(8) as usize;
        let mut net = Network::new(rng.next_u64());
        let seg = net.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let stations: Vec<_> = (0..n_hosts)
            .map(|i| net.add_station(seg, i as u64 + 1))
            .collect();
        let m = Medium::experimental_3mb();
        let f = frame::build(&m, m.broadcast, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(stations[0], &f, SimTime::ZERO);
        assert_eq!(deliveries.len(), n_hosts - 1);
    });
}
