//! Model-checking the coherence directory against a naive per-item oracle.
//!
//! The interval-based [`hetero_runtime::CoherenceDir`] must behave exactly
//! like the obvious (but slow) model that tracks, for every single item of
//! every buffer, the set of memory spaces holding a valid copy. Random
//! operation sequences over two buffers of different item sizes are
//! replayed against both and every observable compared: validity queries,
//! missing-byte estimates, and the exact transfers a read or a flush
//! returns (source order, spans, bytes), with device drops in between.

use hetero_platform::MemSpaceId;
use hetero_runtime::{BufferDesc, BufferId, CoherenceDir, Interval, Transfer};
use proptest::prelude::*;

/// Items per buffer.
const ITEMS: [u64; 2] = [64, 40];
/// Bytes per item per buffer.
const ITEM_BYTES: [u64; 2] = [4, 12];
const SPACES: usize = 3;

/// Maximal runs of consecutive items of `[s, e)` on which `pick` holds.
fn runs(s: u64, e: u64, pick: impl Fn(usize) -> bool) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    for i in (s..e).filter(|&i| pick(i as usize)) {
        match out.last_mut() {
            Some(iv) if iv.end == i => iv.end += 1,
            _ => out.push(Interval::new(i, i + 1)),
        }
    }
    out
}

/// The per-item oracle.
struct Oracle {
    /// valid[buffer][space][item]
    valid: Vec<Vec<Vec<bool>>>,
}

impl Oracle {
    fn new() -> Self {
        let valid = ITEMS
            .iter()
            .map(|&n| (0..SPACES).map(|sp| vec![sp == 0; n as usize]).collect())
            .collect();
        Oracle { valid }
    }

    fn transfer(buf: usize, span: Interval, from: usize, to: usize) -> Transfer {
        Transfer {
            buffer: BufferId(buf),
            span,
            from: MemSpaceId(from),
            to: MemSpaceId(to),
            bytes: span.len() * ITEM_BYTES[buf],
        }
    }

    /// The transfers a read of `[s, e)` in `target` needs, then mark them
    /// valid there: the host is tried first, then the other spaces in
    /// ascending order, each giving one transfer per maximal run of items
    /// still missing that it holds.
    fn acquire_for_read(&mut self, buf: usize, s: u64, e: u64, target: usize) -> Vec<Transfer> {
        let valid = &mut self.valid[buf];
        let mut missing: Vec<bool> = valid[target].iter().map(|v| !v).collect();
        let mut transfers = Vec::new();
        for src in (0..SPACES).filter(|&src| src != target) {
            for span in runs(s, e, |i| missing[i] && valid[src][i]) {
                transfers.push(Self::transfer(buf, span, src, target));
                for i in span.start..span.end {
                    missing[i as usize] = false;
                }
            }
        }
        for i in s..e {
            valid[target][i as usize] = true;
        }
        transfers
    }

    fn record_write(&mut self, buf: usize, s: u64, e: u64, space: usize) {
        for (sp, items) in self.valid[buf].iter_mut().enumerate() {
            for i in s..e {
                items[i as usize] = sp == space;
            }
        }
    }

    /// Per buffer and device space, ascending: one transfer home per
    /// maximal run valid on the device but not on the host. Then every
    /// device copy is invalidated.
    fn flush(&mut self) -> Vec<Transfer> {
        let mut transfers = Vec::new();
        for (buf, valid) in self.valid.iter_mut().enumerate() {
            let n = ITEMS[buf];
            for src in 1..SPACES {
                for span in runs(0, n, |i| valid[src][i] && !valid[0][i]) {
                    transfers.push(Self::transfer(buf, span, src, 0));
                    for i in span.start..span.end {
                        valid[0][i as usize] = true;
                    }
                }
            }
            for items in &mut valid[1..] {
                items.fill(false);
            }
        }
        transfers
    }

    /// Device `space` is lost: items it alone held become valid on the
    /// host again (the epoch checkpoint).
    fn drop_space(&mut self, space: usize) {
        for valid in &mut self.valid {
            for i in 0..valid[space].len() {
                if valid[space][i] && (0..SPACES).all(|sp| sp == space || !valid[sp][i]) {
                    valid[0][i] = true;
                }
                valid[space][i] = false;
            }
        }
    }

    fn covers(&self, buf: usize, s: u64, e: u64, space: usize) -> bool {
        (s..e).all(|i| self.valid[buf][space][i as usize])
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read {
        buf: usize,
        s: u64,
        len: u64,
        space: usize,
    },
    Write {
        buf: usize,
        s: u64,
        len: u64,
        space: usize,
    },
    Flush,
    Drop(usize),
    Check {
        buf: usize,
        s: u64,
        len: u64,
        space: usize,
    },
}

/// `(buffer, start, len, space)` of an access.
fn arb_access() -> impl Strategy<Value = (usize, u64, u64, usize)> {
    (0..ITEMS.len(), 0..ITEMS[0], 1..24u64, 0..SPACES)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_access().prop_map(|(buf, s, len, space)| Op::Read { buf, s, len, space }),
        arb_access().prop_map(|(buf, s, len, space)| Op::Write { buf, s, len, space }),
        Just(Op::Flush),
        (1..SPACES).prop_map(Op::Drop),
        arb_access().prop_map(|(buf, s, len, space)| Op::Check { buf, s, len, space }),
    ]
}

/// `[s, s + len)` folded into buffer `buf`.
fn span(buf: usize, s: u64, len: u64) -> (u64, u64) {
    let s = s % ITEMS[buf];
    (s, (s + len).min(ITEMS[buf]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coherence_matches_per_item_oracle(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let buffers: Vec<BufferDesc> = ITEMS
            .iter()
            .zip(ITEM_BYTES)
            .enumerate()
            .map(|(i, (&items, item_bytes))| BufferDesc {
                name: format!("b{i}"),
                items,
                item_bytes,
            })
            .collect();
        let mut dir = CoherenceDir::new(SPACES, &buffers);
        let mut oracle = Oracle::new();

        for op in ops {
            match op {
                Op::Read { buf, s, len, space } => {
                    let (s, e) = span(buf, s, len);
                    let got = dir.acquire_for_read(BufferId(buf), Interval::new(s, e), MemSpaceId(space));
                    let want = oracle.acquire_for_read(buf, s, e, space);
                    prop_assert_eq!(got, want, "read b{} [{}, {}) on space {}", buf, s, e, space);
                }
                Op::Write { buf, s, len, space } => {
                    let (s, e) = span(buf, s, len);
                    dir.record_write(BufferId(buf), Interval::new(s, e), MemSpaceId(space));
                    oracle.record_write(buf, s, e, space);
                }
                Op::Flush => {
                    prop_assert_eq!(dir.flush_and_invalidate(), oracle.flush(), "flush");
                }
                Op::Drop(space) => {
                    dir.drop_space(MemSpaceId(space));
                    oracle.drop_space(space);
                }
                Op::Check { buf, s, len, space } => {
                    let (s, e) = span(buf, s, len);
                    let iv = Interval::new(s, e);
                    prop_assert_eq!(
                        dir.is_valid(BufferId(buf), iv, MemSpaceId(space)),
                        oracle.covers(buf, s, e, space),
                        "validity of b{} [{}, {}) in space {}", buf, s, e, space
                    );
                    let missing = dir.missing_read_bytes(BufferId(buf), iv, MemSpaceId(space));
                    let oracle_missing = (s..e)
                        .filter(|&i| !oracle.valid[buf][space][i as usize])
                        .count() as u64
                        * ITEM_BYTES[buf];
                    prop_assert_eq!(missing, oracle_missing);
                }
            }
        }
    }
}
