//! Structured fuzzing for the hostile-input surfaces: the word decoder,
//! the validator, every execution engine (including the JIT and its
//! fallback path when the `jit` feature is on), and the geometric
//! classifier's insert/remove churn. Each target runs 10,000 seeded
//! cases, drawing from the shared generators in `common`: independent
//! cases through [`pf_sim::rng::check`], the churn target as one
//! stream of steps on one set.

mod common;

use common::{packet, program_words, words, CONFIGS};
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_ir::engine::singleton_engines;
use pf_ir::GeomSet;
use pf_sim::rng::{check, SplitMix64};

/// Target 1 — decoder totality: `Instr::decode` (and the action/op
/// decoders under it) must accept every possible `u16` without panicking,
/// and every decodable word must be the canonical encoding of its
/// instruction, so decode -> encode gives the word back.
#[test]
fn fuzz_decoder_total_and_roundtrip() {
    // Totality is small enough to prove exhaustively, not just sample.
    for word in 0..=u16::MAX {
        let instr = Instr::decode(word);
        let action = StackAction::decode(word & pf_filter::word::STACK_ACTION_MASK);
        let op = BinaryOp::decode(word >> pf_filter::word::STACK_ACTION_BITS);
        if let Some(i) = instr {
            assert_eq!(i.encode(), word, "{word:#06x} is not canonical");
        }
        // A word decodes as an instruction exactly when both of its
        // fields decode.
        assert_eq!(
            instr.is_some(),
            action.is_some() && op.is_some(),
            "{word:#06x}"
        );
        if let Some(a) = action {
            assert_eq!(StackAction::decode(a.encode()), Some(a), "{word:#06x}");
        }
        if let Some(o) = op {
            assert_eq!(BinaryOp::decode(o.encode()), Some(o), "{word:#06x}");
        }
    }
    // And sampled constructed instructions must encode into their own
    // decode image.
    check(0xF022_DEC0, 10_000, |rng| {
        for w in words(rng) {
            if let Some(i) = Instr::decode(w) {
                assert_eq!(Instr::decode(i.encode()), Some(i));
            }
        }
    });
}

/// Target 2 — validator totality and safety: `ValidatedProgram` must
/// reach a verdict on arbitrary word soup without panicking, in every
/// dialect x short-circuit configuration; and when it says Ok, the fast
/// interpreter must execute the program against hostile packets without
/// panicking and agree with the checked interpreter.
#[test]
fn fuzz_validator_verdicts_are_total_and_accepts_are_safe() {
    let mut accepted = 0u32;
    check(0xF022_7A11, 10_000, |rng| {
        let words = program_words(rng);
        let prio = rng.next_u64() as u8;
        let packets = [packet(rng), packet(rng)];
        for cfg in CONFIGS {
            let prog = FilterProgram::from_words(prio, words.clone());
            let Ok(validated) = ValidatedProgram::with_config(prog.clone(), cfg) else {
                continue;
            };
            accepted += 1;
            let checked = CheckedInterpreter::new(cfg);
            for pkt in &packets {
                let view = PacketView::new(pkt);
                assert_eq!(
                    validated.eval(view),
                    checked.eval(&prog, view),
                    "cfg {cfg:?}"
                );
            }
        }
    });
    assert!(accepted > 2_000, "only {accepted} programs validated");
}

/// Target 3 — engine differential: on arbitrary (program, packet) pairs
/// every execution surface `singleton_engines` yields — with the `jit`
/// feature on, that includes the template JIT and exercises its
/// fall-back-to-interpreter path on programs it declines — must agree
/// with the checked interpreter bit for bit.
#[test]
fn fuzz_engines_agree_with_checked_interpreter() {
    let mut surfaces_run = 0u64;
    check(0xF022_E46E, 10_000, |rng| {
        let prog = FilterProgram::from_words(10, program_words(rng));
        let pkt = packet(rng);
        let cfg = CONFIGS[rng.below(4) as usize];
        let expect = CheckedInterpreter::new(cfg)
            .eval(&prog, PacketView::new(&pkt))
            .then_some(0);
        for engine in &mut singleton_engines(&prog, cfg) {
            assert_eq!(
                engine.matches(&pkt),
                expect,
                "{} vs checked: cfg {cfg:?}",
                engine.name()
            );
            surfaces_run += 1;
        }
    });
    // Every case runs at least the interpreter surfaces; validating
    // programs add the compiled ones.
    assert!(surfaces_run > 10_000, "{surfaces_run} surfaces");
}

/// Target 4 — geometric classifier churn: a seeded insert/remove/eval
/// interleaving (mixed exact and range filters, including nested and
/// mutually shadowing ranges) must keep `GeomSet` equivalent to a
/// priority-ordered sequential walk, through tombstone accumulation and
/// compaction; and turning the candidate cap on must only ever shed
/// matches, never invent them. One stream of 10,000 churn-and-packet
/// steps on the same sets (each step depends on the state the earlier
/// ones built, so this is a plain loop, not `check`).
#[test]
fn fuzz_geom_churn_agrees_with_sequential_walk() {
    let mut rng = SplitMix64::new(0xF022_6E03);
    let checked = CheckedInterpreter::default();
    let mut geom = GeomSet::new();
    let mut capped = GeomSet::new();
    capped.set_candidate_cap(Some(3));
    // Live reference population, insertion order preserved.
    let mut live: Vec<(u32, FilterProgram)> = Vec::new();
    let mut next_id = 0u32;
    for step in 0..10_000 {
        // Churn step: grow toward ~48 live filters, then hover.
        let grow = live.len() < 8 || (live.len() < 48 && rng.chance(0.55));
        if grow {
            let prio = rng.below(32) as u8;
            let f = match rng.below(4) {
                0 => samples::pup_socket_filter(prio, 0, 4000 + rng.below(64) as u16),
                1 => samples::ethertype_filter(prio, rng.below(8) as u16),
                _ => {
                    // Ranges that nest, overlap, and duplicate endpoints.
                    let lo = 4000 + rng.below(48) as u16;
                    let hi = lo + rng.below(48) as u16;
                    samples::socket_range_filter(prio, lo, hi)
                }
            };
            geom.insert(next_id, f.clone());
            capped.insert(next_id, f.clone());
            live.push((next_id, f));
            next_id += 1;
        } else {
            let victim = rng.below(live.len() as u64) as usize;
            let (id, _) = live.swap_remove(victim);
            assert!(geom.remove(id), "step {step}: live id {id} not in set");
            assert!(capped.remove(id), "step {step}: live id {id} not capped");
        }
        // Eval step: a packet aimed into the populated socket band, or
        // hostile noise.
        let pkt = if rng.chance(0.8) {
            samples::pup_packet_3mb(rng.below(8) as u16, 0, 3990 + rng.below(120) as u16, 1)
        } else {
            packet(&mut rng)
        };
        let view = PacketView::new(&pkt);
        // Match order is priority descending, insertion order within a
        // priority; ids are handed out monotonically, so the id is the
        // insertion sequence (`live` itself is scrambled by swap_remove).
        let mut order: Vec<usize> = (0..live.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(live[i].1.priority()), live[i].0));
        let expect: Vec<u32> = order
            .iter()
            .filter(|&&i| checked.eval(&live[i].1, view))
            .map(|&i| live[i].0)
            .collect();
        assert_eq!(geom.matches(view), expect, "step {step}");
        // The cap prunes *candidates* (which include non-matching
        // filters), so it may legitimately shed any match — the invariant
        // is that the survivors are an order-preserving subsequence of
        // the uncapped result, never an invention or a reorder.
        let shed = capped.matches(view);
        let mut tail = expect.iter();
        assert!(
            shed.iter().all(|id| tail.any(|e| e == id)),
            "step {step}: capped result is not a subsequence of uncapped"
        );
    }
    assert!(
        geom.compaction_count() > 0,
        "churn never reached a compaction"
    );
    assert!(
        capped.candidates_capped() > 0,
        "cap never actually pruned a candidate"
    );
}
