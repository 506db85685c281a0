//! Property test: VMTP transactions complete with exact results over an
//! adversarial channel (loss, duplication, reordering drawn from a
//! seeded script), driving the pure machines directly.

use pf_proto::vmtp::{ClientMachine, ServerMachine, VEffect, VmtpPacket, VMTP_RTO_TOKEN};
use pf_sim::rng::check;
use pf_sim::time::SimDuration;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

fn apply_fate(
    pkt: (VmtpPacket, u64),
    queue: &mut VecDeque<(VmtpPacket, u64)>,
    fates: &[Fate],
    idx: &mut usize,
) {
    let f = if *idx < fates.len() {
        let f = fates[*idx];
        *idx += 1;
        f
    } else {
        Fate::Deliver
    };
    match f {
        Fate::Deliver => queue.push_back(pkt),
        Fate::Drop => {}
        Fate::Duplicate => {
            queue.push_back(pkt.clone());
            queue.push_back(pkt);
        }
        Fate::Delay => {
            let last = queue.pop_back();
            queue.push_back(pkt);
            if let Some(last) = last {
                queue.push_back(last);
            }
        }
    }
}

/// Sequential transactions against a file-read server: every one
/// completes with exactly the requested bytes, in order, no matter what
/// the channel does (it turns reliable once the fate script is
/// exhausted, so runs terminate).
#[test]
fn transactions_complete_exactly() {
    check(0x7a7e_0001, 48, |rng| {
        let ops = 1 + rng.below(4) as u32;
        let response_len = rng.below(5000) as usize;
        // Fates weighted 6 : 1 : 1 : 1 toward delivery.
        let fates: Vec<Fate> = (0..rng.below(120))
            .map(|_| match rng.below(9) {
                0 => Fate::Drop,
                1 => Fate::Duplicate,
                2 => Fate::Delay,
                _ => Fate::Deliver,
            })
            .collect();
        let mut client = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut server = ServerMachine::new(2);
        let mut to_server: VecDeque<(VmtpPacket, u64)> = VecDeque::new();
        let mut to_client: VecDeque<(VmtpPacket, u64)> = VecDeque::new();
        let mut fate_idx = 0usize;
        let mut completed = 0u32;
        let response: Vec<u8> = (0..response_len).map(|i| (i % 239) as u8).collect();

        // Kick off the first transaction.
        for e in client.invoke(0, Vec::new()) {
            if let VEffect::Send(p, eth) = e {
                apply_fate((p, eth), &mut to_server, &fates, &mut fate_idx);
            }
        }

        let mut steps = 0u32;
        while completed < ops {
            steps += 1;
            assert!(steps < 100_000, "livelock");

            if let Some((p, _eth)) = to_server.pop_front() {
                let fx = server.on_packet(&p, 0x0A);
                for e in fx {
                    match e {
                        VEffect::Send(p, eth) => {
                            apply_fate((p, eth), &mut to_client, &fates, &mut fate_idx)
                        }
                        VEffect::DeliverRequest {
                            client,
                            client_eth,
                            trans,
                            ..
                        } => {
                            for e in server.respond(client, client_eth, trans, response.clone()) {
                                if let VEffect::Send(p, eth) = e {
                                    apply_fate((p, eth), &mut to_client, &fates, &mut fate_idx);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }

            if let Some((p, _eth)) = to_client.pop_front() {
                for e in client.on_packet(&p) {
                    match e {
                        VEffect::Send(p, eth) => {
                            apply_fate((p, eth), &mut to_server, &fates, &mut fate_idx)
                        }
                        VEffect::Complete { data, .. } => {
                            assert_eq!(&data, &response, "exact response bytes");
                            completed += 1;
                            if completed < ops {
                                for e in client.invoke(0, Vec::new()) {
                                    if let VEffect::Send(p, eth) = e {
                                        apply_fate((p, eth), &mut to_server, &fates, &mut fate_idx);
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }

            // Quiescent but unfinished: fire the client's timer.
            if to_server.is_empty() && to_client.is_empty() && completed < ops {
                for e in client.on_timer(VMTP_RTO_TOKEN) {
                    if let VEffect::Send(p, eth) = e {
                        apply_fate((p, eth), &mut to_server, &fates, &mut fate_idx);
                    }
                }
            }
        }
        assert_eq!(completed, ops);
        assert!(!client.busy());
    });
}
