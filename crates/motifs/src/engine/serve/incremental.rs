//! Incremental Paranjape-shape counting under event appends.
//!
//! A serve-side subscription keeps a stream-eligible configuration's
//! counts live as events arrive, paying **O(window occupancy + batch)**
//! per append instead of recounting the grown graph. The algorithm is a
//! window-suffix identity over the [`StreamEngine`] spectrum:
//!
//! > counts(G ∪ B) = counts(G) + counts(S ∪ B) − counts(S)
//!
//! where `B` is the appended batch, `t₀ = min` batch time, and
//! `S = { e ∈ G : e.time ≥ t₀ − ΔW }` is the ΔW-suffix of the old
//! events. The identity holds because (a) every *new* instance contains
//! at least one batch event and spans at most ΔW, so all of its events
//! have time `≥ t₀ − ΔW` and the instance lies wholly inside `S ∪ B`;
//! (b) every *old* instance lies either wholly inside `S` (counted in
//! both suffix terms, cancelling) or outside `S ∪ B`'s new instances
//! (already in `counts(G)`); and (c) Paranjape counting is non-induced,
//! so an instance's membership depends only on the events it contains —
//! counting a sub-multiset never changes existing instances' verdicts.
//! The retained state is therefore just the accumulated spectrum plus
//! the ΔW tail of the event log — no per-center tables or window
//! index survive between appends, yet the result is **bit-identical**
//! to a from-scratch [`StreamEngine`] recount (pinned by the randomized
//! sweep below and by `tests/serve_loop.rs`).
//!
//! Appends must be time-monotone: each batch is sorted and starts at or
//! after the previous last event time. That is exactly what a live
//! stream delivers, and what makes the ΔW tail a sufficient retained
//! suffix.

use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::engine::stream::StreamEngine;
use std::fmt;
use tnm_graph::{Event, TemporalGraph, Time};

/// Live, incrementally-maintained counts for one stream-eligible
/// configuration (a serve-side *subscription*).
#[derive(Debug, Clone)]
pub struct IncrementalStream {
    cfg: EnumConfig,
    delta: Time,
    wants: (bool, bool, bool),
    /// Accumulated class spectrum (overshoots the config's node bounds
    /// and signature target exactly like a batch pass; projected on
    /// read).
    spectrum: MotifCounts,
    /// Every event with `time ≥ last_time − ΔW`, sorted — the sufficient
    /// suffix for the next append's before/after recount.
    tail: Vec<Event>,
    /// Node-id space covering every event seen so far.
    num_nodes: u32,
    /// Time of the last event seen (`None` while empty).
    last_time: Option<Time>,
    /// Total events folded in (initial graph + appends), for stats.
    events_seen: u64,
}

/// An append the subscription cannot fold in without breaking the
/// suffix identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The batch is not sorted by `(time, src, dst, duration)`.
    Unsorted,
    /// The batch starts before the last event already counted.
    Regressing {
        /// First batch event time.
        batch_start: Time,
        /// Last counted event time.
        last_time: Time,
    },
    /// The batch contains a self-loop, which no motif model admits.
    SelfLoop,
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::Unsorted => write!(f, "append batch is not time-sorted"),
            AppendError::Regressing { batch_start, last_time } => write!(
                f,
                "append batch starts at t={batch_start}, before the last counted event \
                 (t={last_time}); live appends must be time-monotone"
            ),
            AppendError::SelfLoop => write!(f, "append batch contains a self-loop event"),
        }
    }
}

impl std::error::Error for AppendError {}

/// Validates a batch's shape for [`IncrementalStream::append`] (and the
/// serve registry, which enforces the same rule before touching any
/// subscription): sorted, self-loop-free, and starting no earlier than
/// `last_time`.
pub(crate) fn check_batch(batch: &[Event], last_time: Option<Time>) -> Result<(), AppendError> {
    if batch.windows(2).any(|w| w[0] > w[1]) {
        return Err(AppendError::Unsorted);
    }
    if batch.iter().any(Event::is_self_loop) {
        return Err(AppendError::SelfLoop);
    }
    if let (Some(first), Some(last)) = (batch.first(), last_time) {
        if first.time < last {
            return Err(AppendError::Regressing { batch_start: first.time, last_time: last });
        }
    }
    Ok(())
}

impl IncrementalStream {
    /// Starts a subscription from a graph's current contents. Fails
    /// with the configuration's ineligibility reason when `cfg` is not
    /// in [`StreamEngine::eligible`] shape — only Paranjape δ-window
    /// jobs stream incrementally.
    pub fn new(graph: &TemporalGraph, cfg: &EnumConfig) -> Result<Self, String> {
        if !StreamEngine::eligible(cfg) {
            return Err(format!(
                "config is not stream-eligible (need ΔW only, non-induced, no restrictions, \
                 ≤ 3 events on ≤ 3 nodes): {cfg:?}"
            ));
        }
        let delta = cfg.timing.delta_w.expect("eligible config has ΔW");
        let wants = StreamEngine::class_wants(cfg);
        let spectrum = StreamEngine::spectrum(graph, delta, cfg.num_events, wants);
        let last_time = graph.last_time();
        let tail = match last_time {
            Some(last) => {
                let cutoff = last.saturating_sub(delta);
                let events = graph.events();
                let idx = events.partition_point(|e| e.time < cutoff);
                events[idx..].to_vec()
            }
            None => Vec::new(),
        };
        Ok(IncrementalStream {
            cfg: cfg.clone(),
            delta,
            wants,
            spectrum,
            tail,
            num_nodes: graph.num_nodes(),
            last_time,
            events_seen: graph.num_events() as u64,
        })
    }

    /// The subscription's configuration.
    pub fn config(&self) -> &EnumConfig {
        &self.cfg
    }

    /// Total events folded in so far (initial graph + appends).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Current counts — bit-identical to a from-scratch
    /// [`StreamEngine`] recount of all events folded in so far.
    pub fn counts(&self) -> MotifCounts {
        StreamEngine::project(&self.spectrum, &self.cfg)
    }

    /// Folds a time-monotone batch into the live counts in
    /// O(window occupancy + batch) via the suffix identity (module
    /// docs): recount the ΔW suffix with and without the batch and add
    /// the per-signature difference to the accumulated spectrum. The
    /// suffix graph grows into the spliced one by
    /// [`TemporalGraph::append`], the same splice the daemon's graph
    /// takes.
    pub fn append(&mut self, batch: &[Event]) -> Result<(), AppendError> {
        check_batch(batch, self.last_time)?;
        let Some(first) = batch.first() else { return Ok(()) };
        let cutoff = first.time.saturating_sub(self.delta);
        let idx = self.tail.partition_point(|e| e.time < cutoff);

        let before = TemporalGraph::from_sorted_events(self.tail[idx..].to_vec(), self.num_nodes);
        let old = StreamEngine::spectrum(&before, self.delta, self.cfg.num_events, self.wants);
        let after = before.append(batch);
        let new = StreamEngine::spectrum(&after, self.delta, self.cfg.num_events, self.wants);
        for (sig, n) in new.iter() {
            let prior = old.get(sig);
            debug_assert!(n >= prior, "non-induced counting is monotone under appends");
            self.spectrum.add(sig, n - prior);
        }

        let merged = after.events();
        let new_last = merged.last().expect("batch is non-empty").time;
        let keep_from = new_last.saturating_sub(self.delta);
        self.tail = merged[merged.partition_point(|e| e.time < keep_from)..].to_vec();
        self.num_nodes = after.num_nodes();
        self.last_time = Some(new_last);
        self.events_seen += batch.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::CountEngine;
    use crate::notation::sig;

    /// Deterministic LCG event stream with heavy timestamp ties (every
    /// time appears ~twice) on `nodes` nodes.
    fn lcg_events(seed: u64, nodes: u32, n: usize) -> Vec<Event> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % nodes as u64) as u32;
            let v = (u + 1 + ((x >> 13) % (nodes as u64 - 2)) as u32) % nodes;
            out.push(Event::new(u, v, (i as i64) / 2));
        }
        out.sort_unstable();
        out
    }

    fn graph_of(events: &[Event], nodes: u32) -> TemporalGraph {
        TemporalGraph::from_sorted_events(events.to_vec(), nodes)
    }

    fn sweep_cfgs() -> Vec<EnumConfig> {
        vec![
            EnumConfig::new(3, 3).with_timing(Timing::only_w(40)),
            EnumConfig::new(3, 3).with_timing(Timing::only_w(0)),
            EnumConfig::new(3, 2).with_timing(Timing::only_w(25)),
            EnumConfig::new(2, 3).with_timing(Timing::only_w(12)),
            EnumConfig::new(1, 3).with_timing(Timing::only_w(7)),
            EnumConfig::for_signature(sig("010102")).with_timing(Timing::only_w(30)),
            EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(30)),
            EnumConfig::new(3, 3).exact_nodes(3).with_timing(Timing::only_w(18)),
        ]
    }

    /// The acceptance-criteria pin: after *any* sequence of appends
    /// (odd batch sizes, boundary timestamp ties included), counts are
    /// bit-identical to a from-scratch [`StreamEngine`] recount of the
    /// grown graph — across window widths, node bounds, and signature
    /// targets.
    #[test]
    fn appends_match_from_scratch_recount() {
        let nodes = 14u32;
        let events = lcg_events(0x5EED, nodes, 700);
        for cfg in sweep_cfgs() {
            for split in [0usize, 1, 350, 699] {
                let mut inc =
                    IncrementalStream::new(&graph_of(&events[..split], nodes), &cfg).unwrap();
                let mut at = split;
                for batch in [1usize, 7, 64, 3, 200, 1000] {
                    let hi = (at + batch).min(events.len());
                    inc.append(&events[at..hi]).unwrap();
                    at = hi;
                    let expect = StreamEngine.count(&graph_of(&events[..at], nodes), &cfg);
                    assert_eq!(
                        inc.counts(),
                        expect,
                        "cfg={cfg:?} split={split} grown to {at} events"
                    );
                    if at == events.len() {
                        break;
                    }
                }
                assert_eq!(inc.events_seen(), at as u64);
            }
        }
    }

    /// Appending from an empty graph is the pure-stream case; node ids
    /// unseen at subscription time must grow the id space.
    #[test]
    fn streams_from_empty_and_grows_node_space() {
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(50));
        let empty = TemporalGraph::from_sorted_events(Vec::new(), 0);
        let mut inc = IncrementalStream::new(&empty, &cfg).unwrap();
        inc.append(&[]).unwrap();
        assert!(inc.counts().is_empty());
        let events = lcg_events(9, 30, 300);
        for chunk in events.chunks(37) {
            inc.append(chunk).unwrap();
        }
        let expect = StreamEngine.count(&graph_of(&events, 30), &cfg);
        assert_eq!(inc.counts(), expect);
    }

    #[test]
    fn rejects_ineligible_configs_and_bad_batches() {
        let g = graph_of(&lcg_events(3, 8, 50), 8);
        let induced =
            EnumConfig::new(3, 3).with_timing(Timing::only_w(10)).with_static_induced(true);
        assert!(IncrementalStream::new(&g, &induced).is_err());
        let dc = EnumConfig::new(3, 3).with_timing(Timing::both(5, 10));
        assert!(IncrementalStream::new(&g, &dc).is_err());

        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(10));
        let mut inc = IncrementalStream::new(&g, &cfg).unwrap();
        let last = g.last_time().unwrap();
        assert_eq!(
            inc.append(&[Event::new(0, 1, last - 1)]),
            Err(AppendError::Regressing { batch_start: last - 1, last_time: last })
        );
        assert_eq!(
            inc.append(&[Event::new(0, 1, last + 5), Event::new(0, 1, last + 2)]),
            Err(AppendError::Unsorted)
        );
        assert_eq!(inc.append(&[Event::new(2, 2, last + 1)]), Err(AppendError::SelfLoop));
        // A batch starting exactly at the last time is fine (ties are
        // merged in (src, dst) order at the boundary).
        inc.append(&[Event::new(0, 1, last)]).unwrap();
    }
}
