//! Differential test battery: the calendar queue against the ordered-map
//! oracle.
//!
//! [`OracleQueue`] is a plain `BTreeMap<(time, seq), E>` future-event
//! list, kept in-tree precisely so this suite can drive both queues
//! through identical command sequences and demand identical observable
//! behaviour at every step: pop order, peek, ready-set contents, targeted
//! removal, lengths, and final drain.
//!
//! The command generator is weighted to hit the calendar queue's structural
//! edges:
//! * duplicate timestamps (dense low-tick pushes) — FIFO tie-break and
//!   same-instant ready sets;
//! * multi-day spreads — bucket-ring rotation and refill-day scanning;
//! * far-future inserts near `u64::MAX` — the overflow spill and the
//!   jump-to-minimum refill path;
//! * interleaved pops/removals/clears — front-cursor maintenance, ring
//!   growth and shrink mid-sequence.

use lems_sim::queue::{EventQueue, EventSeq, OracleQueue};
use lems_sim::time::SimTime;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Cmd {
    /// Schedule the next payload at this tick.
    Push(u64),
    /// Pop the earliest event; both queues must agree on time and payload.
    Pop,
    /// Pop with the sequence number exposed.
    PopWithSeq,
    /// Remove a previously pushed (time, seq) entry, selected by index into
    /// the push history (possibly already popped/removed — both queues
    /// must then agree it is gone).
    Remove(usize),
    /// Snapshot the full same-instant ready set.
    Ready,
    /// Peek the head firing time.
    Peek,
    /// Drop everything (sequence numbering continues).
    Clear,
}

/// Decodes one raw generated tuple into a command. The opcode space is
/// weighted: half the opcodes push (split across tick regimes), the rest
/// split between pops, removals, read-only probes, and a rare clear.
fn decode(op: u32, raw: u64, idx: usize) -> Cmd {
    match op {
        // Duplicate-heavy low ticks: FIFO tie-breaks, wide ready sets.
        0..=3 => Cmd::Push(raw % 2_000),
        // Multi-day spread: ring rotation across ~50 initial-width days.
        4..=6 => Cmd::Push(raw % 50_000_000),
        // Far future: overflow spill and saturating day arithmetic.
        7 => Cmd::Push(u64::MAX - raw % 1_000),
        8 | 9 => Cmd::Pop,
        10 => Cmd::PopWithSeq,
        11 | 12 => Cmd::Remove(idx),
        13 => Cmd::Ready,
        14 => Cmd::Peek,
        // Clears derange the whole structure; keep them rare.
        _ => {
            if raw.is_multiple_of(4) {
                Cmd::Clear
            } else {
                Cmd::Pop
            }
        }
    }
}

/// Runs one command sequence through both queues, asserting equal
/// observables after every command, then drains both to empty.
fn run_differential(cmds: &[Cmd]) {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut base: OracleQueue<u64> = OracleQueue::new();
    let mut payload: u64 = 0;
    let mut history: Vec<(SimTime, EventSeq)> = Vec::new();

    for c in cmds {
        match c {
            Cmd::Push(t) => {
                let at = SimTime::from_ticks(*t);
                let s1 = cal.push(at, payload);
                let s2 = base.push(at, payload);
                assert_eq!(s1, s2, "seq assignment must match");
                history.push((at, s1));
                payload += 1;
            }
            Cmd::Pop => {
                assert_eq!(cal.pop(), base.pop());
            }
            Cmd::PopWithSeq => {
                assert_eq!(cal.pop_with_seq(), base.pop_with_seq());
            }
            Cmd::Remove(i) => {
                if !history.is_empty() {
                    let (at, seq) = history[i % history.len()];
                    assert_eq!(cal.remove(at, seq), base.remove(at, seq));
                }
            }
            Cmd::Ready => {
                let r1: Vec<(SimTime, u64, u64)> =
                    cal.ready().map(|(at, s, e)| (at, s.0, *e)).collect();
                let r2: Vec<(SimTime, u64, u64)> =
                    base.ready().map(|(at, s, e)| (at, s.0, *e)).collect();
                assert_eq!(r1, r2, "ready sets must match");
            }
            Cmd::Peek => {
                assert_eq!(cal.peek_time(), base.peek_time());
            }
            Cmd::Clear => {
                cal.clear();
                base.clear();
            }
        }
        assert_eq!(cal.len(), base.len());
        assert_eq!(cal.is_empty(), base.is_empty());
        assert_eq!(cal.peek_time(), base.peek_time());
        assert_eq!(cal.scheduled_total(), base.scheduled_total());
    }

    // Final drain: the complete remaining order must agree.
    loop {
        let a = cal.pop_with_seq();
        let b = base.pop_with_seq();
        assert_eq!(a, b);
        if b.is_none() {
            break;
        }
    }
}

proptest! {
    /// Random command sequences: every observable identical on both
    /// queues, step by step.
    #[test]
    fn calendar_matches_oracle(
        raw in proptest::collection::vec((0u32..16, 0u64..=u64::MAX, 0usize..1_000_000), 1..400),
    ) {
        let cmds: Vec<Cmd> = raw.into_iter().map(|(op, r, i)| decode(op, r, i)).collect();
        run_differential(&cmds);
    }

    /// Duplicate-timestamp stress: many events collapsed onto few distinct
    /// instants, so FIFO tie-breaks and wide ready sets carry the ordering.
    #[test]
    fn duplicate_instants_match(
        raw in proptest::collection::vec((0u64..8, 0u32..4), 1..300),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(t, op)| match op {
                0 | 1 => Cmd::Push(t * 250_000),
                2 => Cmd::Pop,
                _ => Cmd::Ready,
            })
            .collect();
        run_differential(&cmds);
    }

    /// Bucket-rotation stress: ticks quantized to whole calendar days over
    /// a span far wider than the initial ring, interleaved with pops, so
    /// the ring wraps repeatedly while occupied.
    #[test]
    fn day_boundary_rotation_matches(
        raw in proptest::collection::vec((0u64..512, 0u32..2), 1..300),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(day, op)| {
                if op == 0 {
                    // Exactly on a day boundary of the initial width (2^20).
                    Cmd::Push(day << 20)
                } else {
                    Cmd::Pop
                }
            })
            .collect();
        run_differential(&cmds);
    }

    /// Far-future stress: every push lands near the top of the tick range,
    /// exercising overflow spill, saturating day arithmetic, and the
    /// jump-to-minimum refill.
    #[test]
    fn far_future_inserts_match(
        raw in proptest::collection::vec(((u64::MAX - 50)..=u64::MAX, 0u32..3), 1..200),
    ) {
        let cmds: Vec<Cmd> = raw
            .into_iter()
            .map(|(t, op)| match op {
                0 => Cmd::Push(t),
                1 => Cmd::Pop,
                _ => Cmd::Peek,
            })
            .collect();
        run_differential(&cmds);
    }
}
