//! The one generator set behind every filter-engine suite
//! (`differential.rs`, `fuzz.rs`, `properties.rs`): filter programs,
//! interpreter configurations and packets, all drawn from the in-tree
//! [`SplitMix64`] so a failing case reruns from its printed seed.

// Each suite uses a different subset of the generators.
#![allow(dead_code)]

use pf_filter::interp::{Dialect, InterpConfig, ShortCircuitStyle};
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_sim::rng::SplitMix64;

/// Every stack action except `PushWord`, which carries an index.
pub const ACTIONS: [StackAction; 8] = [
    StackAction::NoPush,
    StackAction::PushLit,
    StackAction::PushZero,
    StackAction::PushOne,
    StackAction::PushFFFF,
    StackAction::PushFF00,
    StackAction::Push00FF,
    StackAction::PushInd,
];

/// Every binary operator, classic first, then the short-circuit ones,
/// then the extended-dialect arithmetic.
pub const OPS: [BinaryOp; 21] = [
    BinaryOp::Nop,
    BinaryOp::Eq,
    BinaryOp::Neq,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::Xor,
    BinaryOp::Cor,
    BinaryOp::Cand,
    BinaryOp::Cnor,
    BinaryOp::Cnand,
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
    BinaryOp::Lsh,
    BinaryOp::Rsh,
];

/// Every dialect × short-circuit configuration.
pub const CONFIGS: [InterpConfig; 4] = [
    InterpConfig {
        dialect: Dialect::Classic,
        short_circuit: ShortCircuitStyle::Paper,
    },
    InterpConfig {
        dialect: Dialect::Classic,
        short_circuit: ShortCircuitStyle::Historical,
    },
    InterpConfig {
        dialect: Dialect::Extended,
        short_circuit: ShortCircuitStyle::Paper,
    },
    InterpConfig {
        dialect: Dialect::Extended,
        short_circuit: ShortCircuitStyle::Historical,
    },
];

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// Word soup biased toward decodable instructions, so both the reject
/// path and the deep-execution path see real traffic: a quarter raw
/// words (literals or garbage), the rest any action and operator.
pub fn words(rng: &mut SplitMix64) -> Vec<u16> {
    let len = rng.below(48) as usize;
    (0..len)
        .map(|_| {
            if rng.chance(0.25) {
                rng.next_u64() as u16
            } else {
                // The full 6-bit `PushWord` field (`encode` panics by
                // design above `MAX_PUSHWORD_INDEX`; the raw-word arm
                // covers the reserved encodings).
                let action = if rng.chance(0.3) {
                    StackAction::PushWord(rng.below(48) as u8)
                } else {
                    pick(rng, &ACTIONS)
                };
                Instr::new(action, pick(rng, &OPS)).encode()
            }
        })
        .collect()
}

/// Raw words, not even instruction-shaped.
pub fn garbage(rng: &mut SplitMix64) -> Vec<u16> {
    (0..rng.below(64)).map(|_| rng.next_u64() as u16).collect()
}

/// A stack-balanced program: depth is tracked so pops never outrun
/// pushes, which makes most outputs validate and gives the compiled
/// engines real work. Classic operators dominate; short-circuit and
/// extended operators are mixed in.
pub fn balanced_words(rng: &mut SplitMix64) -> Vec<u16> {
    let n = 1 + rng.below(16);
    let mut depth = 0u64;
    let mut words = Vec::new();
    for _ in 0..n {
        let action = if depth == 0 || rng.chance(0.6) {
            match rng.below(6) {
                0 => StackAction::PushLit,
                1 => StackAction::PushZero,
                2 => StackAction::PushOne,
                3 => StackAction::PushFFFF,
                _ => StackAction::PushWord(rng.below(12) as u8),
            }
        } else {
            StackAction::NoPush
        };
        let mut d = depth + u64::from(action != StackAction::NoPush);
        let op = if d >= 2 && rng.chance(0.7) {
            d -= 1;
            let r = rng.next_f64();
            if r < 0.70 {
                pick(rng, &OPS[1..10])
            } else if r < 0.90 {
                pick(rng, &OPS[10..14])
            } else {
                pick(rng, &OPS[14..])
            }
        } else {
            BinaryOp::Nop
        };
        words.push(Instr::new(action, op).encode());
        if action == StackAction::PushLit {
            words.push(rng.next_u64() as u16);
        }
        depth = d;
    }
    words
}

/// Half balanced programs (mostly validating), half soup (mostly
/// exercising the must-also-reject path).
pub fn program_words(rng: &mut SplitMix64) -> Vec<u16> {
    if rng.chance(0.5) {
        balanced_words(rng)
    } else {
        words(rng)
    }
}

/// Hostile packet shapes: empty, single-byte, odd-length, short and
/// full frames of pure noise.
pub fn packet(rng: &mut SplitMix64) -> Vec<u8> {
    let len = match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => 3,
        3..=5 => rng.below(24) as usize,
        _ => rng.below(160) as usize,
    };
    bytes(rng, len)
}

/// `len` random bytes.
pub fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A figure-3-8-style *range* program: one to three `lo <= packet[w] <=
/// hi` constraints, each ordering compare feeding a `CNOR 0` (reject
/// immediately when false), closed by an equality guard — the shape
/// `samples::socket_range_filter` pins down, with every word, bound and
/// literal random.
pub fn range_program(rng: &mut SplitMix64) -> FilterProgram {
    let mut a = Assembler::new(rng.below(30) as u8);
    for _ in 0..1 + rng.below(3) {
        let w = rng.below(10) as u8;
        let (x, y) = (rng.next_u64() as u16, rng.next_u64() as u16);
        a = a
            .pushword(w)
            .pushlit_op(BinaryOp::Ge, x.min(y))
            .pushzero_op(BinaryOp::Cnor)
            .pushword(w)
            .pushlit_op(BinaryOp::Le, x.max(y))
            .pushzero_op(BinaryOp::Cnor);
    }
    a.pushword(rng.below(10) as u8)
        .pushlit_op(BinaryOp::Eq, rng.next_u64() as u16)
        .finish()
}
