//! The sharded batch queue behind the runner.
//!
//! Work is a contiguous range of run indices `[0, runs)`, pre-split into
//! *batches* (sub-ranges). Each worker owns one shard — a mutex-protected
//! deque of batches — and drains it front-to-back, so a worker processes its
//! own work in ascending index order (which keeps the reduction's reorder
//! buffer small). A worker whose shard runs dry *steals* from the back of
//! the currently fullest shard: the back holds the victim's furthest-future
//! indices, the work it would otherwise reach last. When the victim's deque
//! is deep (≥ `DEEP_SHARD` batches), the thief takes the whole back
//! *half* in one lock acquisition instead of a single batch — a skewed
//! shard then rebalances in O(log batches) steals rather than one steal
//! per batch, and the stolen run of consecutive batches keeps the thief
//! advancing through the index space in order.
//!
//! Mutex-sharded deques (rather than lock-free Chase–Lev deques) are a
//! deliberate simplicity/portability trade-off: by default a range is cut
//! into about eight batches per worker, so each worker takes a handful of
//! locks per call and queue operations stay far off the critical path.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How the initial batches are dealt across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Placement {
    /// Deal batches round-robin (batch `j` to shard `j mod shards`), so
    /// workers draining their shards front-to-back advance through the
    /// index space roughly in lockstep. This keeps the reducer's reorder
    /// buffer near O(threads · batch): a contiguous block-per-worker split
    /// would make index order wait on worker 0's whole block while the
    /// other workers' results pile up. The default.
    #[default]
    Interleaved,
    /// Give *all* batches to shard 0. Every other worker can only make
    /// progress by stealing — a scheduling stress mode used to exercise
    /// steal interleavings in tests.
    Packed,
}

/// A victim deque at least this deep surrenders its back half to a thief
/// instead of a single batch.
const DEEP_SHARD: usize = 4;

/// Per-worker scheduling counters, snapshotted by
/// [`BatchQueue::worker_stats`]. All counts cover one queue lifetime (one
/// parallel phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerQueueStats {
    /// Successful steals performed *by* this worker.
    pub steals: u64,
    /// Steal scans that found nothing to take (every shard looked empty
    /// while work was still in flight, or the victim drained between the
    /// scan and the lock).
    pub fail_scans: u64,
    /// High-water batch depth of this worker's own shard (initial deal and
    /// stolen half-deques included).
    pub queue_depth_hw: u64,
}

/// A sharded queue of index-range batches with steal-on-empty (single batch
/// from shallow victims, half the deque from deep ones).
pub struct BatchQueue {
    shards: Vec<Mutex<VecDeque<Range<u64>>>>,
    steals: AtomicU64,
    /// Per-worker telemetry: successful steals, failed steal scans, own
    /// shard depth high-water. Indexed like `shards`.
    worker_steals: Vec<AtomicU64>,
    worker_fail_scans: Vec<AtomicU64>,
    depth_hw: Vec<AtomicU64>,
    /// Batches still queued somewhere (decremented when a batch is
    /// *returned* from [`pop`](Self::pop), not when it merely moves between
    /// shards). A multi-shard emptiness scan is not atomic — it can race
    /// with a half-deque move and see every shard empty while work is in
    /// transit — so `pop` returns `None` only once this counter agrees,
    /// keeping "None is final" true for exiting workers.
    remaining: AtomicU64,
}

impl BatchQueue {
    /// Split `work` into batches of `batch` indices (the last one may be
    /// short) and deal them across `shards` shards.
    pub fn new(work: Range<u64>, batch: u64, shards: usize, placement: Placement) -> Self {
        assert!(batch > 0, "batch size must be positive");
        assert!(shards > 0, "need at least one shard");
        let mut batches = Vec::new();
        let mut start = work.start;
        while start < work.end {
            let end = work.end.min(start + batch);
            batches.push(start..end);
            start = end;
        }
        let mut queues: Vec<VecDeque<Range<u64>>> = (0..shards).map(|_| VecDeque::new()).collect();
        let total = batches.len() as u64;
        match placement {
            Placement::Interleaved => {
                for (j, b) in batches.into_iter().enumerate() {
                    queues[j % shards].push_back(b);
                }
            }
            Placement::Packed => queues[0].extend(batches),
        }
        let depth_hw = queues
            .iter()
            .map(|q| AtomicU64::new(q.len() as u64))
            .collect();
        BatchQueue {
            shards: queues.into_iter().map(Mutex::new).collect(),
            steals: AtomicU64::new(0),
            worker_steals: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            worker_fail_scans: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            depth_hw,
            remaining: AtomicU64::new(total),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Pop the next batch for worker `me`: the front of its own shard, or —
    /// when that is empty — stolen from the back of the fullest other
    /// shard: one batch if the victim is shallow, the whole back half if it
    /// is deep (≥ `DEEP_SHARD` batches; the surplus lands in `me`'s own
    /// shard, in index order). `None` means no work is left anywhere
    /// (workers then exit; batches are never re-queued, so a `None` is
    /// final).
    pub fn pop(&self, me: usize) -> Option<Range<u64>> {
        if let Some(b) = self.shards[me].lock().unwrap().pop_front() {
            self.remaining.fetch_sub(1, Ordering::Release);
            return Some(b);
        }
        // Steal from the shard with the most remaining batches.
        loop {
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != me)
                .map(|(i, s)| (s.lock().unwrap().len(), i))
                .max()?;
            let (len, idx) = victim;
            if len == 0 {
                // The scan saw every shard empty, but it is not atomic: a
                // half-deque move may have work in transit between shards.
                // Only the queued-batch counter makes `None` final; while
                // it disagrees, rescan (the move completes under its locks,
                // so the next scan sees the batches).
                if self.remaining.load(Ordering::Acquire) == 0 {
                    return None;
                }
                self.worker_fail_scans[me].fetch_add(1, Ordering::Relaxed);
                if let Some(b) = self.shards[me].lock().unwrap().pop_front() {
                    self.remaining.fetch_sub(1, Ordering::Release);
                    return Some(b);
                }
                std::hint::spin_loop();
                continue;
            }
            // Lock the victim and our own shard together, in index order
            // (the only two-lock site, so the ordering rules out deadlock);
            // the stolen half moves atomically with respect to both shards,
            // and the `remaining` counter covers the scan race above.
            let (lo, hi) = (idx.min(me), idx.max(me));
            let mut lo_q = self.shards[lo].lock().unwrap();
            let mut hi_q = self.shards[hi].lock().unwrap();
            let (victim_q, my_q) = if lo == idx {
                (&mut lo_q, &mut hi_q)
            } else {
                (&mut hi_q, &mut lo_q)
            };
            if victim_q.len() >= DEEP_SHARD {
                // Deep victim: take the back half in one go. The stolen
                // batches are consecutive future work in ascending order;
                // the thief runs the first one now and keeps the rest in
                // its own shard (empty — only its owner ever pushes to it).
                let keep = victim_q.len() - victim_q.len() / 2;
                let mut stolen = victim_q.split_off(keep);
                let first = stolen.pop_front().expect("back half is non-empty");
                my_q.append(&mut stolen);
                self.depth_hw[me].fetch_max(my_q.len() as u64, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.worker_steals[me].fetch_add(1, Ordering::Relaxed);
                self.remaining.fetch_sub(1, Ordering::Release);
                return Some(first);
            }
            if let Some(b) = victim_q.pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                self.worker_steals[me].fetch_add(1, Ordering::Relaxed);
                self.remaining.fetch_sub(1, Ordering::Release);
                return Some(b);
            }
            // The victim drained between the scan and the lock; rescan.
            self.worker_fail_scans[me].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Snapshot the per-worker scheduling counters (one entry per shard).
    pub fn worker_stats(&self) -> Vec<WorkerQueueStats> {
        (0..self.shards.len())
            .map(|i| WorkerQueueStats {
                steals: self.worker_steals[i].load(Ordering::Relaxed),
                fail_scans: self.worker_fail_scans[i].load(Ordering::Relaxed),
                queue_depth_hw: self.depth_hw[i].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &BatchQueue, me: usize) -> Vec<Range<u64>> {
        std::iter::from_fn(|| q.pop(me)).collect()
    }

    #[test]
    fn splits_range_into_batches() {
        let q = BatchQueue::new(0..10, 4, 1, Placement::Interleaved);
        assert_eq!(drain_all(&q, 0), vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn interleaved_placement_keeps_workers_in_lockstep() {
        let q = BatchQueue::new(0..8, 2, 2, Placement::Interleaved);
        // Batches alternate across shards, so front-of-queue indices are
        // adjacent — the property that bounds the reorder buffer.
        assert_eq!(q.pop(0), Some(0..2));
        assert_eq!(q.pop(1), Some(2..4));
        assert_eq!(q.pop(0), Some(4..6));
        assert_eq!(q.pop(1), Some(6..8));
    }

    #[test]
    fn shallow_steal_takes_one_batch_from_the_back() {
        // 3 batches < DEEP_SHARD: the thief takes exactly the last batch.
        let q = BatchQueue::new(0..6, 2, 3, Placement::Packed);
        assert_eq!(q.pop(2), Some(4..6));
        assert_eq!(q.steals(), 1);
        // Owner still drains front-to-back.
        assert_eq!(q.pop(0), Some(0..2));
    }

    #[test]
    fn deep_victim_surrenders_half_its_deque() {
        // Shard 0 holds 6 batches (≥ DEEP_SHARD): worker 2's steal moves
        // the whole back half {6..8, 8..10, 10..12} in one lock — it runs
        // 6..8 now and keeps the rest queued locally, in index order.
        let q = BatchQueue::new(0..12, 2, 3, Placement::Packed);
        assert_eq!(q.pop(2), Some(6..8));
        assert_eq!(q.steals(), 1);
        assert_eq!(q.pop(2), Some(8..10));
        assert_eq!(q.pop(2), Some(10..12));
        // Draining its own (stolen) shard costs no further steals.
        assert_eq!(q.steals(), 1);
        // The victim keeps its front half untouched.
        assert_eq!(q.pop(0), Some(0..2));
        assert_eq!(q.pop(0), Some(2..4));
        assert_eq!(q.pop(0), Some(4..6));
        // Worker 2's next pop steals again (from whoever still has work).
        assert_eq!(q.pop(2), None);
    }

    #[test]
    fn skewed_workload_rebalances_in_logarithmically_many_steals() {
        // All 64 batches packed on shard 0 (maximal skew): a lone thief
        // draining the queue alternately with the owner needs far fewer
        // steals than batches, because each steal moves half the remainder.
        let q = BatchQueue::new(0..64, 1, 2, Placement::Packed);
        let mut seen = Vec::new();
        let mut turn = 0;
        loop {
            let me = turn % 2;
            turn += 1;
            match q.pop(me) {
                Some(b) => seen.push(b.start),
                None => break,
            }
        }
        // Every batch ran exactly once…
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        // …with halving steals, not one per batch.
        assert!(
            q.steals() <= 10,
            "expected O(log) steals, got {}",
            q.steals()
        );
        assert!(q.steals() >= 2);
    }

    #[test]
    fn exhaustion_returns_none_for_everyone() {
        let q = BatchQueue::new(0..3, 1, 2, Placement::Interleaved);
        let mut got = Vec::new();
        for me in [0, 1, 0, 1, 0, 1] {
            if let Some(b) = q.pop(me) {
                got.push(b);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn empty_range_yields_no_batches() {
        let q = BatchQueue::new(5..5, 3, 2, Placement::Interleaved);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.steals(), 0);
    }
}
