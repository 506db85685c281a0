//! Seeded properties of the filter language and its engines that the
//! differential and fuzz suites do not already pin: validation
//! soundness, the predicate builder against a direct reference
//! semantics, the checked interpreter's totality on programs validation
//! rejects, and the geometric classifier on random range programs.
//! Every property runs through [`pf_sim::rng::check`] over the shared
//! generators in `common`.

mod common;

use common::{bytes, garbage, packet, range_program, words};
use pf_filter::builder::{CmpOp, CompileOptions, Expr};
use pf_filter::compile::CompiledFilter;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use pf_filter::RuntimeError;
use pf_ir::{GeomSet, IrFilter};
use pf_sim::rng::{check, SplitMix64};

/// Validation is sound: a validated classic program never reports a
/// static-class runtime error (stack or decode faults) when evaluated;
/// only the dynamic packet-bounds fault may remain.
#[test]
fn validation_soundness() {
    check(0x7a11_d5a0, 256, |rng| {
        let prog = FilterProgram::from_words(10, words(rng));
        let pkt = packet(rng);
        if ValidatedProgram::new(prog.clone()).is_ok() {
            let (_, stats) =
                CheckedInterpreter::default().eval_with_stats(&prog, PacketView::new(&pkt));
            if let Some(e) = stats.error {
                assert!(
                    matches!(e, RuntimeError::OutOfPacket { .. }),
                    "unexpected post-validation fault: {e}"
                );
            }
        }
    });
}

/// A value-producing expression of bounded depth.
fn value_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.below(5) < 2 {
        return if rng.chance(0.5) {
            Expr::Word(rng.below(48) as u16)
        } else {
            Expr::Lit(rng.next_u64() as u16)
        };
    }
    let (a, b) = (value_expr(rng, depth - 1), value_expr(rng, depth - 1));
    match rng.below(3) {
        0 => a.bitand(b),
        1 => a.bitor(b),
        _ => Expr::BitXor(Box::new(a), Box::new(b)),
    }
}

/// A predicate-producing expression of bounded depth.
fn pred_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        let (a, b) = (value_expr(rng, 1), value_expr(rng, 1));
        return match rng.below(6) {
            0 => a.eq(b),
            1 => a.ne(b),
            2 => a.lt(b),
            3 => a.le(b),
            4 => a.gt(b),
            _ => a.ge(b),
        };
    }
    match rng.below(3) {
        0 => pred_expr(rng, depth - 1).and(pred_expr(rng, depth - 1)),
        1 => pred_expr(rng, depth - 1).or(pred_expr(rng, depth - 1)),
        _ => pred_expr(rng, depth - 1).not(),
    }
}

/// Direct evaluation of an expression. No faults are possible: the
/// packet covers every addressable word.
fn eval_value(e: &Expr, pkt: &PacketView<'_>) -> u16 {
    match e {
        Expr::Word(n) => pkt.word(usize::from(*n)).expect("packet long enough"),
        Expr::Lit(v) => *v,
        Expr::BitAnd(a, b) => eval_value(a, pkt) & eval_value(b, pkt),
        Expr::BitOr(a, b) => eval_value(a, pkt) | eval_value(b, pkt),
        Expr::BitXor(a, b) => eval_value(a, pkt) ^ eval_value(b, pkt),
        Expr::Cmp(op, a, b) => {
            let (x, y) = (eval_value(a, pkt), eval_value(b, pkt));
            u16::from(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        Expr::And(a, b) => u16::from(eval_value(a, pkt) != 0 && eval_value(b, pkt) != 0),
        Expr::Or(a, b) => u16::from(eval_value(a, pkt) != 0 || eval_value(b, pkt) != 0),
        Expr::Not(a) => u16::from(eval_value(a, pkt) == 0),
        Expr::WordAt(_) | Expr::Arith(..) => unreachable!("not generated"),
    }
}

/// A random predicate tree, compiled with or without short-circuit
/// operators and run by the checked interpreter, matches the direct
/// reference semantics. Packets are long enough (>= 96 bytes) that no
/// out-of-packet fault can occur.
#[test]
fn compiled_expression_matches_reference() {
    check(0xb01d_e4e5, 256, |rng| {
        let e = pred_expr(rng, 3);
        let len = 96 + rng.below(64) as usize;
        let pkt = bytes(rng, len);
        let opts = CompileOptions {
            no_short_circuit: rng.chance(0.5),
            ..Default::default()
        };
        // Deep random trees can exceed program or stack limits; those
        // outcomes are legitimate errors, not semantic failures.
        let Ok(prog) = e.compile_with(10, &opts) else {
            return;
        };
        let view = PacketView::new(&pkt);
        let expected = eval_value(&e, &view) != 0;
        let got = CheckedInterpreter::default().eval(&prog, view);
        assert_eq!(got, expected, "expr: {e:?}\nprogram:\n{prog}");
    });
}

/// The checked interpreter is total on raw word soup — including every
/// program the validator rejects — in both dialects, and `eval_budgeted`
/// agrees with `eval` whenever the budget covers the whole evaluation.
/// A program validation rejects is refused by the fast engines instead
/// of guessed at: the quarantine contract the kernel's checked-fallback
/// path stands on.
#[test]
fn checked_interpreter_never_panics_on_rejected_programs() {
    check(0x0c0e_5e7d, 512, |rng| {
        let prog = FilterProgram::from_words(10, garbage(rng));
        let len = rng.below(160) as usize;
        let pkt = bytes(rng, len);
        let budget = 1 + rng.below(63) as u32;
        let view = PacketView::new(&pkt);
        CheckedInterpreter::extended().eval(&prog, view);
        let interp = CheckedInterpreter::default();
        let plain = interp.eval(&prog, view);
        let (budgeted, stats) = interp.eval_budgeted(&prog, view, budget);
        if stats.error.is_none() {
            assert_eq!(budgeted, plain);
            assert!(stats.instructions <= budget);
        }
        if ValidatedProgram::new(prog.clone()).is_err() {
            assert!(CompiledFilter::compile(prog).is_err());
        }
    });
}

/// The validator accepts the range-program shape, and the checked
/// interpreter, the threaded code, and the geometric classifier all
/// agree on it — scalar and batched, on arbitrary packets, including
/// short ones that force the classifier's fallback.
#[test]
fn geom_agrees_on_random_range_programs() {
    let checked = CheckedInterpreter::default();
    check(0x9e0_4a5e, 256, |rng| {
        let members: Vec<FilterProgram> =
            (0..1 + rng.below(5)).map(|_| range_program(rng)).collect();
        let pkts: Vec<Vec<u8>> = (0..1 + rng.below(7))
            .map(|_| {
                let len = rng.below(128) as usize;
                bytes(rng, len)
            })
            .collect();
        let mut set = GeomSet::new();
        for (i, f) in members.iter().enumerate() {
            assert!(
                ValidatedProgram::new(f.clone()).is_ok(),
                "range shape validates"
            );
            let ir = IrFilter::compile(f.clone()).expect("validated, so compiles");
            set.insert(i as u32, f.clone());
            for p in &pkts {
                let view = PacketView::new(p);
                assert_eq!(ir.eval(view), checked.eval(f, view), "ir vs checked");
            }
        }
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(members[i].priority()));
        let views: Vec<PacketView<'_>> = pkts.iter().map(|p| PacketView::new(p)).collect();
        let (batch, _) = set.matches_batch_with_stats(&views);
        for (view, batched) in views.iter().zip(batch) {
            let expect: Vec<u32> = order
                .iter()
                .filter(|&&i| checked.eval(&members[i], *view))
                .map(|&i| i as u32)
                .collect();
            assert_eq!(set.matches(*view), expect, "geom scalar");
            assert_eq!(batched, expect, "geom batch");
        }
    });
}
