//! Properties of the simulation substrate: the event queue's ordering
//! and cancellation invariants, and CPU-accounting monotonicity, under
//! arbitrary interleavings.

use pf_sim::cpu::Cpu;
use pf_sim::queue::EventQueue;
use pf_sim::rng::check;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::HashSet;

/// Pops come out in nondecreasing time order; equal times come out in
/// schedule order; cancelled events never come out; every scheduled
/// event is popped exactly once or cancelled exactly once by drain.
#[test]
fn event_queue_invariants() {
    check(0x0e0e_17a5, 256, |rng| {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut handles = Vec::new();
        let mut scheduled_time = Vec::new(); // payload -> requested time
        let mut cancelled = HashSet::new();
        let mut popped = Vec::new();

        for _ in 0..rng.below(200) {
            // Weights 4 : 3 : 1 for schedule, pop, cancel.
            match rng.below(8) {
                0..=3 => {
                    let t = rng.below(10_000);
                    let id = scheduled_time.len();
                    // Requested times in the past are clamped to `now`.
                    let at = SimTime(t).max(q.now());
                    handles.push(q.schedule(SimTime(t), id));
                    scheduled_time.push(at);
                }
                4..=6 => {
                    if let Some((t, id)) = q.pop() {
                        popped.push((t, id));
                    }
                }
                _ => {
                    let i = rng.next_u64() as usize;
                    if !handles.is_empty() {
                        let i = i % handles.len();
                        if q.cancel(handles[i]) {
                            cancelled.insert(i);
                        }
                    }
                }
            }
        }
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
        }

        // Order: times nondecreasing; ties in schedule order.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "tie broken by schedule order");
            }
        }
        // Fire times respect the clamped request time.
        for &(t, id) in &popped {
            assert!(t >= scheduled_time[id]);
        }
        // Exactly-once: popped ∪ cancelled = scheduled, disjoint.
        let popped_ids: HashSet<usize> = popped.iter().map(|p| p.1).collect();
        assert_eq!(popped_ids.len(), popped.len(), "no double pops");
        for id in 0..scheduled_time.len() {
            let p = popped_ids.contains(&id);
            let c = cancelled.contains(&id);
            assert!(p ^ c, "event {id} popped={p} cancelled={c}");
        }
    });
}

/// CPU charges serialize: completion times are nondecreasing and every
/// charge's completion covers its own cost; total busy time is the sum
/// of costs.
#[test]
fn cpu_accounting_is_serial() {
    check(0xc0_5e41, 256, |rng| {
        let mut cpu = Cpu::new();
        let mut last_done = SimTime::ZERO;
        let mut total = 0u64;
        for _ in 0..rng.below(100) {
            let (at, cost_us) = (rng.below(100_000), rng.below(5_000));
            let done = cpu.charge("work", SimTime(at), SimDuration::from_micros(cost_us));
            assert!(done >= last_done, "completions nondecreasing");
            assert!(done.as_nanos() >= at + cost_us * 1_000);
            last_done = done;
            total += cost_us;
        }
        assert_eq!(cpu.busy_time().as_micros(), total);
        assert_eq!(cpu.profiler().stats("work").time.as_micros(), total);
    });
}
