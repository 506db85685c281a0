//! Seeded properties for every wire format in the protocol suite:
//! encode/decode round trips on arbitrary field values, decoder
//! totality on arbitrary bytes, and checksum error detection.

use pf_net::medium::Medium;
use pf_proto::arp::ArpPacket;
use pf_proto::group::GroupMessage;
use pf_proto::ip::{decode_ip, decode_udp, encode_ip, encode_udp, IpHeader};
use pf_proto::pup::{Pup, PupAddr, PupError, MAX_PUP_DATA};
use pf_proto::tcp::Segment;
use pf_proto::vmtp::{VmtpPacket, VmtpType};
use pf_sim::rng::{check, SplitMix64};

fn medium3() -> Medium {
    Medium::experimental_3mb()
}

fn medium10() -> Medium {
    Medium::standard_10mb()
}

/// Up to `max - 1` random bytes.
fn bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
}

fn any_pup(rng: &mut SplitMix64) -> Pup {
    let ptype = rng.next_u64() as u8;
    let id = rng.next_u64() as u32;
    let dst = PupAddr::new(
        rng.next_u64() as u8,
        rng.next_u64() as u8,
        rng.next_u64() as u32,
    );
    let src = PupAddr::new(
        rng.next_u64() as u8,
        rng.next_u64() as u8,
        rng.next_u64() as u32,
    );
    Pup::new(ptype, id, dst, src, bytes(rng, MAX_PUP_DATA as u64))
}

#[test]
fn pup_round_trips() {
    check(0xc0de_0001, 256, |rng| {
        let p = any_pup(rng);
        let f = p.encode_frame(&medium3(), rng.chance(0.5));
        let q = Pup::decode_frame(&medium3(), &f).expect("own encoding decodes");
        assert_eq!(p, q);
    });
}

#[test]
fn pup_checksum_catches_any_single_bit_flip_in_data() {
    check(0xc0de_0002, 256, |rng| {
        let p = any_pup(rng);
        if p.data.is_empty() {
            return;
        }
        let mut f = p.encode_frame(&medium3(), true);
        // Flip one bit inside the data region (after the 4-byte Ethernet
        // header + 20-byte Pup header, before the 2-byte checksum).
        let (lo, hi) = (24, f.len() - 2);
        let pos = lo + rng.below((hi - lo) as u64) as usize;
        let bit = rng.below(8);
        f[pos] ^= 1 << bit;
        assert!(
            matches!(
                Pup::decode_frame(&medium3(), &f),
                Err(PupError::BadChecksum { .. })
            ),
            "flip at byte {pos} bit {bit} went undetected"
        );
    });
}

#[test]
fn pup_decoder_is_total() {
    check(0xc0de_0003, 256, |rng| {
        let b = bytes(rng, 700);
        let _ = Pup::decode_frame(&medium3(), &b);
        let _ = Pup::decode_body(&b);
    });
}

#[test]
fn vmtp_round_trips() {
    check(0xc0de_0004, 256, |rng| {
        let p = VmtpPacket {
            dst_entity: rng.next_u64() as u32,
            src_entity: rng.next_u64() as u32,
            trans: rng.next_u64() as u32,
            ptype: [
                VmtpType::Request,
                VmtpType::Response,
                VmtpType::Ack,
                VmtpType::Retry,
            ][rng.below(4) as usize],
            index: rng.next_u64() as u8,
            count: rng.next_u64() as u8,
            opcode: rng.next_u64() as u32,
            data: bytes(rng, 1024),
        };
        let f = p.encode_frame(&medium10(), 0x0B, 0x0A);
        let (q, eth_src) = VmtpPacket::decode_frame(&medium10(), &f).expect("decodes");
        assert_eq!(p, q);
        assert_eq!(eth_src, 0x0A);
    });
}

#[test]
fn vmtp_decoder_is_total() {
    check(0xc0de_0005, 256, |rng| {
        let b = bytes(rng, 1514);
        let _ = VmtpPacket::decode_frame(&medium10(), &b);
        let _ = VmtpPacket::decode_body(&b);
    });
}

#[test]
fn tcp_segment_round_trips() {
    check(0xc0de_0006, 256, |rng| {
        let s = Segment {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            flags: rng.next_u64() as u8,
            window: rng.next_u64() as u16,
            data: bytes(rng, 1200),
        };
        assert_eq!(Segment::decode(&s.encode()), Some(s));
    });
}

#[test]
fn tcp_decoder_is_total() {
    check(0xc0de_0007, 256, |rng| {
        let _ = Segment::decode(&bytes(rng, 1500));
    });
}

#[test]
fn ip_udp_round_trips() {
    check(0xc0de_0008, 256, |rng| {
        let (proto, ttl) = (rng.next_u64() as u8, rng.next_u64() as u8);
        let (src, dst) = (rng.next_u64() as u32, rng.next_u64() as u32);
        let (sp, dp) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let data = bytes(rng, 1400);
        let udp = encode_udp(sp, dp, &data);
        let header = IpHeader {
            proto,
            ttl,
            src,
            dst,
            total_len: 0,
        };
        let ip = encode_ip(&header, &udp);
        let (h, body) = decode_ip(&ip).expect("own encoding decodes");
        assert_eq!((h.proto, h.src, h.dst), (proto, src, dst));
        let (s, d, got) = decode_udp(body).expect("udp decodes");
        assert_eq!((s, d), (sp, dp));
        assert_eq!(got, &data[..]);
    });
}

#[test]
fn ip_udp_decoders_are_total() {
    check(0xc0de_0009, 256, |rng| {
        let b = bytes(rng, 1500);
        if let Some((_, body)) = decode_ip(&b) {
            let _ = decode_udp(body);
        }
        let _ = decode_udp(&b);
    });
}

#[test]
fn arp_round_trips() {
    check(0xc0de_000a, 256, |rng| {
        let p = ArpPacket {
            oper: rng.next_u64() as u16,
            sha: rng.below(1 << 48),
            spa: rng.next_u64() as u32,
            tha: rng.below(1 << 48),
            tpa: rng.next_u64() as u32,
        };
        assert_eq!(ArpPacket::decode_body(&p.encode_body()), Some(p));
    });
}

#[test]
fn arp_decoder_is_total() {
    check(0xc0de_000b, 256, |rng| {
        let _ = ArpPacket::decode_body(&bytes(rng, 64));
    });
}

#[test]
fn group_message_round_trips() {
    check(0xc0de_000c, 256, |rng| {
        let m = GroupMessage {
            group: rng.next_u64() as u32,
            seq: rng.next_u64() as u32,
            data: bytes(rng, 1400),
        };
        let f = m.encode_frame(&medium10(), 0x0A);
        assert_eq!(GroupMessage::decode_frame(&medium10(), &f), Some(m));
    });
}

#[test]
fn monitor_decode_is_total() {
    check(0xc0de_000d, 256, |rng| {
        // The monitor's dispatcher must survive anything on the wire.
        let b = bytes(rng, 1514);
        let _ = pf_monitor::decode::decode(&medium3(), &b);
        let _ = pf_monitor::decode::decode(&medium10(), &b);
    });
}
