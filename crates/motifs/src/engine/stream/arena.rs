//! Reusable SoA arena scratch for the stream engine's per-center pass.
//!
//! The per-center DP runs over each center's *time-sorted incident
//! event list* and advances in whole timestamp groups. [`DpArena`] is
//! the one allocation it writes into:
//!
//! * `times` — the merged timestamps, dense and ascending, so window
//!   expiry probes one flat `i64` array (see [`expiry_cut`]);
//! * `aux` — a parallel `u32` payload (packed `nbr << 1 | dir`, whose
//!   neighbor ids do not fit a byte);
//! * `bounds` — the timestamp-group boundary array, computed **once**
//!   per list by [`DpArena::seal_groups`] and reused by every sweep
//!   over it, replacing per-event group scans.
//!
//! The contract: the pass clears the arena, appends a center's list
//! (times plus `aux`), calls `seal_groups` when the log has ties, and
//! runs its sweeps over `(times, aux, bounds)` slices. One arena is
//! created per [`super::StreamEngine::spectrum`] call, so a spectrum
//! performs O(1) scratch allocations instead of one per center. The
//! triangle pass needs no arena: it reads its runs straight from the
//! window index.

use tnm_graph::Time;

/// The shared scratch. See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub(crate) struct DpArena {
    /// Merged event timestamps, ascending.
    pub times: Vec<Time>,
    /// `u32` payload parallel to `times` (per center: `nbr << 1 | dir`).
    pub aux: Vec<u32>,
    /// Group boundaries: `bounds[g]..bounds[g + 1]` is timestamp group
    /// `g`; the last entry is `times.len()`. `bounds.len() - 1` groups.
    pub bounds: Vec<u32>,
}

impl DpArena {
    /// Empties the merged list (capacity is retained).
    #[inline]
    pub fn clear(&mut self) {
        self.times.clear();
        self.aux.clear();
    }

    /// Recomputes `bounds` from `times` in one linear pass. Equal
    /// timestamps form one group — the unit every DP pushes, pops, and
    /// closes by, enforcing the ties-never-co-occur rule.
    pub fn seal_groups(&mut self) {
        self.bounds.clear();
        let times = &self.times;
        let mut i = 0usize;
        while i < times.len() {
            self.bounds.push(i as u32);
            let t = times[i];
            i += 1;
            while i < times.len() && times[i] == t {
                i += 1;
            }
        }
        self.bounds.push(times.len() as u32);
    }
}

/// Maps timestamp-group indices to event offsets. The sweeps are
/// generic over this so one source compiles to two shapes: the
/// tie-handling one reading the sealed boundary array, and the
/// tie-free one ([`DenseGroups`]) where `start(g) == g` folds every
/// per-group inner loop into a single-event body with no boundary
/// loads at all.
pub(crate) trait GroupMap {
    /// First event offset of group `g`; `start(num_groups())` is the
    /// total event count.
    fn start(&self, g: usize) -> usize;
    /// Number of timestamp groups.
    fn num_groups(&self) -> usize;
}

/// Tie-free list: every event is its own group.
pub(crate) struct DenseGroups(pub usize);

impl GroupMap for DenseGroups {
    #[inline]
    fn start(&self, g: usize) -> usize {
        g
    }

    #[inline]
    fn num_groups(&self) -> usize {
        self.0
    }
}

/// A sealed boundary array from [`DpArena::seal_groups`].
pub(crate) struct SealedGroups<'a>(pub &'a [u32]);

impl GroupMap for SealedGroups<'_> {
    #[inline]
    fn start(&self, g: usize) -> usize {
        self.0[g] as usize
    }

    #[inline]
    fn num_groups(&self) -> usize {
        self.0.len() - 1
    }
}

/// Finds the first group index in `front..upto` whose events survive
/// the window starting at `wstart` (i.e. whose shared timestamp is
/// `>= wstart`). One dense-column read per probe — a group's first
/// event speaks for the whole group because ties share one timestamp.
/// Callers feed each returned cut back in as the next `front`, so the
/// walk is amortized O(1) per group across a sweep; their pop loops
/// traverse the expired prefix anyway, which is why this beats a
/// per-group binary search.
#[inline]
pub(crate) fn expiry_cut<B: GroupMap>(
    times: &[Time],
    groups: &B,
    front: usize,
    upto: usize,
    wstart: Time,
) -> usize {
    let mut g = front;
    while g < upto && times[groups.start(g)] < wstart {
        g += 1;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_groups_boundaries() {
        let mut a = DpArena::default();
        a.times.extend_from_slice(&[1, 1, 3, 5, 5, 5, 9]);
        a.seal_groups();
        assert_eq!(a.bounds, vec![0, 2, 3, 6, 7]);
    }

    #[test]
    fn seal_groups_empty() {
        let mut a = DpArena::default();
        a.seal_groups();
        assert_eq!(a.bounds, vec![0]);
    }

    #[test]
    fn clear_keeps_capacity_resets_lists() {
        let mut a = DpArena::default();
        a.times.extend_from_slice(&[1, 2]);
        a.aux.extend_from_slice(&[7, 9]);
        a.seal_groups();
        a.clear();
        assert!(a.times.is_empty() && a.aux.is_empty());
    }

    #[test]
    fn expiry_cut_lands_on_group_boundaries() {
        let mut a = DpArena::default();
        a.times.extend_from_slice(&[1, 1, 3, 5, 5, 9]);
        a.seal_groups(); // bounds = [0, 2, 3, 5, 6]
        let g = SealedGroups(&a.bounds);
        // Window start 3: group 0 (t=1) expires, cut at group 1.
        assert_eq!(expiry_cut(&a.times, &g, 0, 3, 3), 1);
        // Window start 4: groups 0..2 expire (t=1, t=3).
        assert_eq!(expiry_cut(&a.times, &g, 0, 3, 4), 2);
        // Nothing expires.
        assert_eq!(expiry_cut(&a.times, &g, 0, 3, 0), 0);
        // Monotone fronts: starting from group 1.
        assert_eq!(expiry_cut(&a.times, &g, 1, 3, 6), 3);
    }

    #[test]
    fn dense_groups_are_the_identity_map() {
        let times = [2i64, 4, 9, 11];
        let d = DenseGroups(times.len());
        assert_eq!(d.num_groups(), 4);
        assert_eq!(d.start(2), 2);
        assert_eq!(expiry_cut(&times, &d, 0, 3, 5), 2);
        // Matches the sealed map over the same (tie-free) list.
        let mut a = DpArena::default();
        a.times.extend_from_slice(&times);
        a.seal_groups();
        assert_eq!(expiry_cut(&times, &SealedGroups(&a.bounds), 0, 3, 5), 2);
    }
}
