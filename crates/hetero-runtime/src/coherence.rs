//! Multi-memory-space coherence directory.
//!
//! The OmpSs memory model lets task data live in several memory spaces; the
//! runtime keeps copies consistent by analysing the declared accesses and
//! inserting transfers. This module tracks, per buffer item, which spaces
//! hold a valid copy:
//!
//! * reading on a device copies missing items from a valid holder (host
//!   preferred) — *the source keeps its copy*;
//! * writing on a device makes that device's space the sole valid holder;
//! * `taskwait` flushes device-only data back to the host **and invalidates
//!   device copies** (the flush-to-host semantics described in §II-B of the
//!   paper; invalidation is what makes SP-Varied and per-iteration
//!   synchronisation pay repeated transfers, exactly the behaviour the
//!   paper reports).

use crate::data::{BufferDesc, BufferId};
use crate::interval::{Interval, IntervalSet};
use hetero_platform::MemSpaceId;

/// One required data movement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Buffer being moved.
    pub buffer: BufferId,
    /// Item interval being moved.
    pub span: Interval,
    /// Source memory space.
    pub from: MemSpaceId,
    /// Destination memory space.
    pub to: MemSpaceId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Validity directory: `valid[space][buffer]` = items with a valid copy.
pub struct CoherenceDir {
    valid: Vec<Vec<IntervalSet>>,
    item_bytes: Vec<u64>,
}

impl CoherenceDir {
    /// Create a directory for `n_spaces` memory spaces over the given
    /// buffers. All data starts valid on the host (space 0) only.
    pub fn new(n_spaces: usize, buffers: &[BufferDesc]) -> Self {
        assert!(n_spaces >= 1);
        let mut valid = vec![vec![IntervalSet::new(); buffers.len()]; n_spaces];
        for (i, b) in buffers.iter().enumerate() {
            valid[0][i] = IntervalSet::of(b.full());
        }
        CoherenceDir {
            valid,
            item_bytes: buffers.iter().map(|b| b.item_bytes).collect(),
        }
    }

    fn bytes(&self, buffer: BufferId, span: Interval) -> u64 {
        span.len() * self.item_bytes[buffer.0]
    }

    /// Make `span` of `buffer` readable in `target`: returns the transfers
    /// required (empty if already valid) and marks the copies valid.
    pub fn acquire_for_read(
        &mut self,
        buffer: BufferId,
        span: Interval,
        target: MemSpaceId,
    ) -> Vec<Transfer> {
        let mut transfers = Vec::new();
        let mut missing = self.valid[target.0][buffer.0].gaps_within(span);
        if missing.is_empty() {
            return transfers;
        }
        // Fill from the host first, then from any other space.
        let mut source_order: Vec<usize> = vec![0];
        source_order.extend((0..self.valid.len()).filter(|&s| s != 0 && s != target.0));
        for src in source_order {
            if src == target.0 || missing.is_empty() {
                continue;
            }
            let mut still_missing = Vec::new();
            for gap in missing {
                for part in self.valid[src][buffer.0].intersection_with(gap) {
                    transfers.push(Transfer {
                        buffer,
                        span: part,
                        from: MemSpaceId(src),
                        to: target,
                        bytes: self.bytes(buffer, part),
                    });
                }
                // What `src` couldn't provide remains missing.
                still_missing.extend(self.valid[src][buffer.0].gaps_within(gap));
            }
            missing = still_missing;
        }
        assert!(
            missing.is_empty(),
            "coherence: no valid copy anywhere for {buffer:?} {missing:?}"
        );
        for t in &transfers {
            self.valid[target.0][buffer.0].insert(t.span);
        }
        transfers
    }

    /// Record that `span` of `buffer` was written in `target`: `target`
    /// becomes the sole valid holder of those items.
    pub fn record_write(&mut self, buffer: BufferId, span: Interval, target: MemSpaceId) {
        for (s, spaces) in self.valid.iter_mut().enumerate() {
            if s != target.0 {
                spaces[buffer.0].remove(span);
            }
        }
        self.valid[target.0][buffer.0].insert(span);
    }

    /// `taskwait` semantics: copy every item whose only valid copies live in
    /// device spaces back to the host, then invalidate all device copies.
    /// Returns the device→host transfers required.
    pub fn flush_and_invalidate(&mut self) -> Vec<Transfer> {
        let mut transfers = Vec::new();
        let n_buffers = self.item_bytes.len();
        for buf in 0..n_buffers {
            for src in 1..self.valid.len() {
                // Parts valid on this device but stale/absent on the host.
                let dev_valid: Vec<Interval> = self.valid[src][buf].iter().collect();
                for iv in dev_valid {
                    for gap in self.valid[0][buf].gaps_within(iv) {
                        transfers.push(Transfer {
                            buffer: BufferId(buf),
                            span: gap,
                            from: MemSpaceId(src),
                            to: MemSpaceId::HOST,
                            bytes: self.bytes(BufferId(buf), gap),
                        });
                        self.valid[0][buf].insert(gap);
                    }
                }
            }
            // Invalidate all device copies.
            for src in 1..self.valid.len() {
                self.valid[src][buf] = IntervalSet::new();
            }
        }
        transfers
    }

    /// A memory space was lost (device dropout): discard every copy it
    /// held. Items whose *only* valid copy lived there are restored from
    /// the host's epoch checkpoint — the host held every item at the last
    /// taskwait flush, and the resilient executor re-executes the
    /// uncommitted tasks that had overwritten them — so the directory never
    /// ends up with data that is valid nowhere.
    pub fn drop_space(&mut self, space: MemSpaceId) {
        assert!(!space.is_host(), "cannot drop the host memory space");
        let n_buffers = self.item_bytes.len();
        for buf in 0..n_buffers {
            let lost: Vec<Interval> = self.valid[space.0][buf].iter().collect();
            self.valid[space.0][buf] = IntervalSet::new();
            for iv in lost {
                // Union of what the surviving spaces still cover within iv.
                let mut survivors = IntervalSet::new();
                for (s, spaces) in self.valid.iter().enumerate() {
                    if s == space.0 {
                        continue;
                    }
                    for part in spaces[buf].intersection_with(iv) {
                        survivors.insert(part);
                    }
                }
                // Nowhere else valid: recover from the host checkpoint.
                for gap in survivors.gaps_within(iv) {
                    self.valid[0][buf].insert(gap);
                }
            }
        }
    }

    /// `true` if `span` of `buffer` is valid in `space` (tests/diagnostics).
    pub fn is_valid(&self, buffer: BufferId, span: Interval, space: MemSpaceId) -> bool {
        self.valid[space.0][buffer.0].covers(span)
    }

    /// Bytes of `span` that a reader in `space` would have to transfer in —
    /// a *non-mutating* query used by locality-aware schedulers to estimate
    /// the data-movement cost of a placement.
    pub fn missing_read_bytes(&self, buffer: BufferId, span: Interval, space: MemSpaceId) -> u64 {
        let missing = span.len() - self.valid[space.0][buffer.0].covered_len(span);
        missing * self.item_bytes[buffer.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffers() -> Vec<BufferDesc> {
        vec![BufferDesc {
            name: "x".into(),
            items: 100,
            item_bytes: 4,
        }]
    }

    const B: BufferId = BufferId(0);
    const HOST: MemSpaceId = MemSpaceId(0);
    const GPU: MemSpaceId = MemSpaceId(1);

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn initial_data_is_host_valid() {
        let dir = CoherenceDir::new(2, &buffers());
        assert!(dir.is_valid(B, iv(0, 100), HOST));
        assert!(!dir.is_valid(B, iv(0, 1), GPU));
    }

    #[test]
    fn read_on_device_copies_from_host_once() {
        let mut dir = CoherenceDir::new(2, &buffers());
        let t = dir.acquire_for_read(B, iv(0, 50), GPU);
        assert_eq!(
            t,
            vec![Transfer {
                buffer: B,
                span: iv(0, 50),
                from: HOST,
                to: GPU,
                bytes: 200
            }]
        );
        // Second read: already valid, no transfer.
        assert!(dir.acquire_for_read(B, iv(10, 40), GPU).is_empty());
        // Host copy still valid (copies, not moves).
        assert!(dir.is_valid(B, iv(0, 100), HOST));
    }

    #[test]
    fn partial_overlap_transfers_only_gaps() {
        let mut dir = CoherenceDir::new(2, &buffers());
        dir.acquire_for_read(B, iv(0, 30), GPU);
        let t = dir.acquire_for_read(B, iv(20, 60), GPU);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].span, iv(30, 60));
    }

    #[test]
    fn write_invalidates_other_spaces() {
        let mut dir = CoherenceDir::new(2, &buffers());
        dir.record_write(B, iv(0, 50), GPU);
        assert!(!dir.is_valid(B, iv(0, 1), HOST));
        assert!(dir.is_valid(B, iv(50, 100), HOST));
        assert!(dir.is_valid(B, iv(0, 50), GPU));
        // Host read of written part now needs a transfer back.
        let t = dir.acquire_for_read(B, iv(0, 60), HOST);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, GPU);
        assert_eq!(t[0].span, iv(0, 50));
    }

    #[test]
    fn flush_moves_device_only_data_home_and_invalidates() {
        let mut dir = CoherenceDir::new(2, &buffers());
        dir.record_write(B, iv(0, 50), GPU);
        let t = dir.flush_and_invalidate();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].span, iv(0, 50));
        assert_eq!(t[0].from, GPU);
        assert_eq!(t[0].to, HOST);
        assert!(dir.is_valid(B, iv(0, 100), HOST));
        assert!(!dir.is_valid(B, iv(0, 1), GPU));
        // A second flush transfers nothing.
        assert!(dir.flush_and_invalidate().is_empty());
    }

    #[test]
    fn flush_skips_clean_device_copies() {
        let mut dir = CoherenceDir::new(2, &buffers());
        dir.acquire_for_read(B, iv(0, 100), GPU); // clean copy
        let t = dir.flush_and_invalidate();
        assert!(t.is_empty());
        assert!(!dir.is_valid(B, iv(0, 1), GPU)); // still invalidated
    }

    #[test]
    fn three_space_read_prefers_host_source() {
        let mut dir = CoherenceDir::new(3, &buffers());
        let gpu2 = MemSpaceId(2);
        dir.acquire_for_read(B, iv(0, 100), GPU);
        let t = dir.acquire_for_read(B, iv(0, 100), gpu2);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, HOST);
    }

    #[test]
    fn drop_space_recovers_sole_copies_from_host_checkpoint() {
        let mut dir = CoherenceDir::new(2, &buffers());
        // GPU wrote [0, 50): it is the sole holder; host holds [50, 100).
        dir.record_write(B, iv(0, 50), GPU);
        dir.drop_space(GPU);
        // The GPU's copies are gone; the lost region is restored on the
        // host (checkpoint state), so everything is readable again.
        assert!(!dir.is_valid(B, iv(0, 1), GPU));
        assert!(dir.is_valid(B, iv(0, 100), HOST));
        assert!(dir.acquire_for_read(B, iv(0, 100), HOST).is_empty());
    }

    #[test]
    fn drop_space_keeps_surviving_copies_authoritative() {
        let mut dir = CoherenceDir::new(3, &buffers());
        let gpu2 = MemSpaceId(2);
        // gpu2 wrote [0, 40); GPU also has a copy of [0, 40).
        dir.record_write(B, iv(0, 40), gpu2);
        dir.acquire_for_read(B, iv(0, 40), GPU);
        dir.drop_space(GPU);
        // gpu2 still holds the data: no phantom host restore of [0, 40).
        assert!(!dir.is_valid(B, iv(0, 1), HOST));
        assert!(dir.is_valid(B, iv(0, 40), gpu2));
        let t = dir.acquire_for_read(B, iv(0, 40), HOST);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, gpu2);
    }

    #[test]
    fn device_to_device_via_peer_when_host_stale() {
        let mut dir = CoherenceDir::new(3, &buffers());
        let gpu2 = MemSpaceId(2);
        dir.record_write(B, iv(0, 50), GPU);
        let t = dir.acquire_for_read(B, iv(0, 50), gpu2);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].from, GPU);
    }
}
