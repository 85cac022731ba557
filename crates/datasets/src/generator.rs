//! The seeded temporal-network generator.
//!
//! An activity-driven process with behavioural continuations: every tick
//! draws a heavy-tailed inter-event gap (log-normal, calibrated to the
//! spec's median), then either continues recent activity — reply,
//! repetition, out-burst, forward, pile-on — or emits a fresh event from
//! the activity/preferential-attachment baseline. Email-like specs also
//! spawn same-timestamp carbon-copy bursts, which reproduce the paper's
//! timestamp-collision statistics (`|Eu|/|E|` in Table 2).
//!
//! The generator is fully deterministic given `(spec, seed)`.

use crate::activity::ZipfSampler;
use crate::memory::RecentMemory;
use crate::spec::DatasetSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use tnm_graph::{Event, TemporalGraph, TemporalGraphBuilder, Time};

/// Capacity of the recent-event memory behind behavioural continuations.
const MEMORY_CAP: usize = 160;
/// Geometric recency bias of memory sampling.
const MEMORY_RECENCY: f64 = 0.35;
/// Probability that a *background* repetition is habitual (re-contacting
/// a partner after tens of minutes) rather than memory-recent. Rapid
/// conversational repetitions come from continuation runs, so background
/// repeats are mostly habitual; their long gap tail is what lets ΔC prune
/// repetition pairs harder than convey pairs (paper Figure 3).
const REPEAT_DELAYED_PROB: f64 = 0.85;
/// Habitual re-contact delay range in seconds (~15 min to 1 h).
const HABITUAL_GAP_MIN: Time = 900;
/// Upper end of the habitual re-contact delay range.
const HABITUAL_GAP_MAX: Time = 3600;
/// Probability that a conversational repetition is a *stalled nudge*
/// (double-texting after no reply, at a human timescale of tens of
/// minutes) rather than a rapid double-text. Ping-pongs and bursts stay
/// fast; this is why ΔC prunes repetition pairs harder than the other
/// types (paper Figure 3) while rapid double-texts still pin the second
/// event of `010102` near the first (paper Figure 4).
const NUDGE_PROB: f64 = 0.66;
/// Median of the nudge delay distribution (seconds; log-normal).
const NUDGE_MEDIAN: f64 = 2000.0;
/// Log-normal sigma of the nudge delay distribution.
const NUDGE_SIGMA: f64 = 0.8;
/// Probability that a finished conversation is followed by a *session
/// switch*: the same person starts a new interaction with someone else
/// after a nudge-scale delay. Session switches are what place a later
/// out-burst event far from a tight repetition pair — the source of the
/// near-zero peak in the paper's Figure 4 that ΔC then regularizes away.
const SESSION_SWITCH_PROB: f64 = 0.22;
/// Retry budget for constraint-respecting node resampling.
const MAX_TRIES: usize = 32;

/// Generates a temporal network from a dataset spec. The `seed` is mixed
/// with the spec's `base_seed`, so different specs disagree even for the
/// same caller seed.
pub fn generate(spec: &DatasetSpec, seed: u64) -> TemporalGraph {
    let mut gen = Generator::new(spec, seed);
    gen.run()
}

/// Convenience: generates with the default experiment seed used across
/// the repo's tables and figures.
pub fn generate_default(spec: &DatasetSpec) -> TemporalGraph {
    generate(spec, 0x0DA7_A5E7)
}

/// Which gap distribution the next continuation event uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapKind {
    /// Conversation-turn pace.
    Short,
    /// Seconds-scale double-text.
    Rapid,
    /// Tens-of-minutes stalled nudge (dead end).
    Nudge,
}

struct Generator<'s> {
    spec: &'s DatasetSpec,
    rng: StdRng,
    activity: ZipfSampler,
    memory: RecentMemory,
    events: Vec<Event>,
    used_edges: HashSet<(u32, u32)>,
    clock: Time,
    /// When set, the next event continues this one after a short gap
    /// (a conversation run in progress) or switches session.
    pending: Option<(Event, Pending)>,
}

/// What the pending event is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Continue the conversation (behaviour-mix continuation).
    Conversation,
    /// Same source starts a new interaction elsewhere after a delay.
    SessionSwitch,
}

impl<'s> Generator<'s> {
    fn new(spec: &'s DatasetSpec, seed: u64) -> Self {
        assert!(spec.num_nodes >= 4, "need at least 4 nodes");
        assert!(spec.num_events > 0, "need at least one event");
        assert!(spec.behavior.total() < 1.0, "behaviour probabilities must leave fresh mass");
        let mixed = seed ^ spec.base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Generator {
            spec,
            rng: StdRng::seed_from_u64(mixed),
            activity: ZipfSampler::new(spec.num_nodes, spec.activity_exponent),
            memory: RecentMemory::new(MEMORY_CAP, MEMORY_RECENCY),
            events: Vec::with_capacity(spec.num_events),
            used_edges: HashSet::new(),
            clock: 0,
            pending: None,
        }
    }

    fn run(&mut self) -> TemporalGraph {
        while self.events.len() < self.spec.num_events {
            let mut dead_end = false;
            let pair = match self.pending.take() {
                Some((prev, Pending::Conversation)) => {
                    let (pair, kind) = self.continuation_pair(prev);
                    match kind {
                        GapKind::Nudge => {
                            // A stalled nudge is a dead end: the partner
                            // never replied, so no conversation follows.
                            self.advance_clock_nudge();
                            dead_end = true;
                        }
                        GapKind::Rapid => self.advance_clock_rapid(),
                        GapKind::Short => self.advance_clock_short(),
                    }
                    pair
                }
                Some((prev, Pending::SessionSwitch)) => {
                    self.advance_clock_nudge();
                    let u = prev.src.0;
                    self.other_node(u, prev.dst.0)
                        .map(|w| (u, w))
                        .unwrap_or_else(|| self.fresh_pair())
                }
                None => {
                    self.advance_clock();
                    self.next_pair()
                }
            };
            let (src, dst) = self.enforce_unique(pair);
            self.emit(src, dst);
            // Conversation runs: geometric continuation after every event;
            // finished conversations may spawn a delayed session switch.
            let last = self.events.last().copied().expect("just emitted");
            if !dead_end && self.rng.gen_bool(self.spec.continuation.clamp(0.0, 0.99)) {
                self.pending = Some((last, Pending::Conversation));
            } else if self.rng.gen_bool(SESSION_SWITCH_PROB) {
                self.pending = Some((last, Pending::SessionSwitch));
            }
            self.maybe_cc_burst(src, dst);
        }
        self.events.truncate(self.spec.num_events);
        TemporalGraphBuilder::from_events(std::mem::take(&mut self.events))
            .build()
            .expect("generator emits valid events")
    }

    /// Log-normal gap with the spec's median; rounding to whole seconds
    /// naturally produces timestamp ties for sub-second medians.
    fn advance_clock(&mut self) {
        let z = standard_normal(&mut self.rng);
        let gap = (self.spec.median_gap.max(0.5)).ln() + self.spec.gap_sigma * z;
        let gap = gap.exp().round().max(0.0) as Time;
        self.clock += gap;
    }

    /// Conversation-scale gap: shorter median, lighter tail than the
    /// background process.
    fn advance_clock_short(&mut self) {
        let z = standard_normal(&mut self.rng);
        let median = (self.spec.median_gap * 0.6).max(0.5);
        let gap = median.ln() + 1.0 * z;
        let gap = gap.exp().round().max(0.0) as Time;
        self.clock += gap;
    }

    /// Rapid double-text gap: seconds-scale ("sent too soon" follow-ups),
    /// much faster than a conversation turn.
    fn advance_clock_rapid(&mut self) {
        let z = standard_normal(&mut self.rng);
        let median = (self.spec.median_gap * 0.15).max(0.5);
        let gap = (median.ln() + 0.8 * z).exp().round().max(0.0) as Time;
        self.clock += gap;
    }

    /// Stalled-nudge gap: human-timescale delay before double-texting.
    fn advance_clock_nudge(&mut self) {
        let z = standard_normal(&mut self.rng);
        let gap = (NUDGE_MEDIAN.ln() + NUDGE_SIGMA * z).exp().round().max(1.0) as Time;
        self.clock += gap;
    }

    /// A continuation of `prev`: the behaviour mix renormalized over the
    /// five continuation types (falling back to a repetition when a third
    /// node cannot be found). Repetitions are bimodal: rapid double-texts
    /// (seconds) or stalled nudges (tens of minutes); everything else
    /// moves at conversation pace.
    fn continuation_pair(&mut self, prev: Event) -> ((u32, u32), GapKind) {
        let b = self.spec.behavior;
        let (u, v) = (prev.src.0, prev.dst.0);
        let total = b.total();
        if total <= 0.0 {
            return ((u, v), GapKind::Rapid);
        }
        let roll: f64 = self.rng.gen_range(0.0..total);
        let mut acc = b.reply;
        if roll < acc {
            return ((v, u), GapKind::Short); // ping-pong
        }
        acc += b.repeat;
        if roll < acc {
            let kind = if self.rng.gen_bool(NUDGE_PROB) { GapKind::Nudge } else { GapKind::Rapid };
            return ((u, v), kind);
        }
        acc += b.continue_burst;
        if roll < acc {
            return (self.other_node(u, v).map(|w| (u, w)).unwrap_or((u, v)), GapKind::Short);
        }
        acc += b.forward;
        if roll < acc {
            // Conveys are prompt relays ("FYI" forwards): information
            // moves on quickly, which is why ΔC affects them least
            // (paper Table 5).
            return (self.other_node(v, u).map(|w| (v, w)).unwrap_or((u, v)), GapKind::Rapid);
        }
        (self.other_node(v, u).map(|w| (w, v)).unwrap_or((u, v)), GapKind::Short)
    }

    /// Chooses the next event's endpoints by behaviour roll.
    fn next_pair(&mut self) -> (u32, u32) {
        let b = self.spec.behavior;
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let thresholds = [b.reply, b.repeat, b.continue_burst, b.forward, b.group_in];
        let mut behavior = None;
        let mut acc = 0.0;
        for (i, p) in thresholds.iter().enumerate() {
            acc += p;
            if roll < acc {
                behavior = Some(i);
                break;
            }
        }
        let pair = behavior.and_then(|i| {
            // Repetitions mix rapid conversational recall with delayed
            // habitual recall; everything else is tightly recent.
            let recalled = if i == 1 && self.rng.gen_bool(REPEAT_DELAYED_PROB) {
                self.habitual_recall().or_else(|| self.memory.sample(&mut self.rng))
            } else {
                self.memory.sample(&mut self.rng)
            }?;
            let (u, v) = (recalled.src.0, recalled.dst.0);
            match i {
                0 => Some((v, u)),                          // ping-pong
                1 => Some((u, v)),                          // repetition
                2 => self.other_node(u, v).map(|w| (u, w)), // out-burst
                3 => self.other_node(v, u).map(|w| (v, w)), // convey
                _ => self.other_node(v, u).map(|w| (w, v)), // in-burst
            }
        });
        pair.unwrap_or_else(|| self.fresh_pair())
    }

    /// For unique-edge datasets, resamples until the pair is unused.
    fn enforce_unique(&mut self, mut pair: (u32, u32)) -> (u32, u32) {
        if !self.spec.unique_edges {
            return pair;
        }
        let mut tries = 0;
        while self.used_edges.contains(&pair) && tries < MAX_TRIES {
            pair = self.fresh_pair();
            tries += 1;
        }
        if self.used_edges.contains(&pair) {
            // Extremely dense corner: scan for any unused pair.
            pair = self.any_unused_pair().unwrap_or(pair);
        }
        pair
    }

    /// Habitual re-contact: re-emit the edge active `g` seconds ago, with
    /// `g` uniform in `[HABITUAL_GAP_MIN, HABITUAL_GAP_MAX]`. Returns
    /// `None` when history does not reach back that far.
    fn habitual_recall(&mut self) -> Option<Event> {
        let g = self.rng.gen_range(HABITUAL_GAP_MIN..=HABITUAL_GAP_MAX);
        let target = self.clock - g;
        if self.events.first().is_none_or(|e| e.time > target) {
            return None;
        }
        // Events are emitted in time order: binary search the nearest one.
        let idx = self.events.partition_point(|e| e.time < target);
        self.events.get(idx.min(self.events.len() - 1)).copied()
    }

    /// Fresh event: activity-driven source, preferential target (random
    /// endpoint of a random past event — the classic O(1) Barabási trick),
    /// uniform fallback.
    fn fresh_pair(&mut self) -> (u32, u32) {
        let src = self.activity.sample(&mut self.rng);
        for _ in 0..MAX_TRIES {
            let dst = if !self.events.is_empty() && self.rng.gen_bool(0.5) {
                let e = &self.events[self.rng.gen_range(0..self.events.len())];
                if self.rng.gen_bool(0.5) {
                    e.src.0
                } else {
                    e.dst.0
                }
            } else {
                self.rng.gen_range(0..self.spec.num_nodes)
            };
            if dst != src {
                return (src, dst);
            }
        }
        ((src + 1) % self.spec.num_nodes, src)
    }

    /// A node different from both `a` and `b` (uniform), or `None` when
    /// the graph is too small.
    fn other_node(&mut self, a: u32, b: u32) -> Option<u32> {
        if self.spec.num_nodes < 3 {
            return None;
        }
        for _ in 0..MAX_TRIES {
            let w = self.rng.gen_range(0..self.spec.num_nodes);
            if w != a && w != b {
                return Some(w);
            }
        }
        None
    }

    fn any_unused_pair(&mut self) -> Option<(u32, u32)> {
        let n = self.spec.num_nodes;
        let start = self.rng.gen_range(0..n);
        for i in 0..n {
            let u = (start + i) % n;
            for v in 0..n {
                if u != v && !self.used_edges.contains(&(u, v)) {
                    return Some((u, v));
                }
            }
        }
        None
    }

    fn emit(&mut self, src: u32, dst: u32) {
        debug_assert_ne!(src, dst);
        let e = Event::new(src, dst, self.clock);
        if self.spec.unique_edges {
            self.used_edges.insert((src, dst));
        }
        self.memory.push(e);
        self.events.push(e);
    }

    /// Same-timestamp multi-recipient burst (email cc).
    fn maybe_cc_burst(&mut self, src: u32, first_dst: u32) {
        if self.spec.simultaneous_burst <= 0.0 || self.events.len() >= self.spec.num_events {
            return;
        }
        if !self.rng.gen_bool(self.spec.simultaneous_burst.min(1.0)) {
            return;
        }
        let extra = self.rng.gen_range(1..=self.spec.simultaneous_burst_max.max(1));
        let mut sent = vec![first_dst];
        for _ in 0..extra {
            if self.events.len() >= self.spec.num_events {
                break;
            }
            let mut dst = None;
            for _ in 0..MAX_TRIES {
                let w = self.rng.gen_range(0..self.spec.num_nodes);
                if w != src && !sent.contains(&w) {
                    dst = Some(w);
                    break;
                }
            }
            if let Some(w) = dst {
                if self.spec.unique_edges && self.used_edges.contains(&(src, w)) {
                    continue;
                }
                sent.push(w);
                self.emit(src, w);
            }
        }
    }
}

/// Standard normal via Box–Muller (keeps us off rand_distr).
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use tnm_graph::stats::GraphStats;

    #[test]
    fn deterministic_given_seed() {
        let spec = DatasetSpec::calls_copenhagen();
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(a.events(), b.events());
        let c = generate(&spec, 8);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn respects_event_budget_and_node_range() {
        for spec in [DatasetSpec::calls_copenhagen(), DatasetSpec::sms_copenhagen()] {
            let g = generate(&spec, 1);
            assert_eq!(g.num_events(), spec.num_events);
            assert!(g.num_nodes() <= spec.num_nodes);
        }
    }

    #[test]
    fn bitcoin_has_no_repeated_edges() {
        let spec = DatasetSpec::bitcoin_otc();
        let g = generate(&spec, 3);
        assert_eq!(g.num_static_edges(), g.num_events(), "every edge must be unique");
    }

    #[test]
    fn median_gap_roughly_calibrated() {
        let spec = DatasetSpec::calls_copenhagen();
        let g = generate(&spec, 2);
        let s = GraphStats::compute(&g);
        let target = spec.median_gap;
        assert!(
            s.median_inter_event_time > target * 0.4 && s.median_inter_event_time < target * 2.5,
            "median gap {} far from target {target}",
            s.median_inter_event_time
        );
    }

    #[test]
    fn email_has_many_timestamp_collisions() {
        let email = generate(&DatasetSpec::email(), 4);
        let calls = generate(&DatasetSpec::calls_copenhagen(), 4);
        let se = GraphStats::compute(&email);
        let sc = GraphStats::compute(&calls);
        assert!(
            se.unique_timestamp_fraction < sc.unique_timestamp_fraction,
            "email {} should collide more than calls {}",
            se.unique_timestamp_fraction,
            sc.unique_timestamp_fraction
        );
        assert!(se.unique_timestamp_fraction < 0.85);
    }

    /// Fraction of directed static edges whose reverse edge also exists,
    /// read off the graph's edge index.
    fn reciprocity(g: &TemporalGraph) -> f64 {
        let reciprocated = g.static_edges().filter(|e| g.has_edge(e.reversed())).count();
        reciprocated as f64 / g.num_static_edges() as f64
    }

    #[test]
    fn reciprocity_ratio() {
        // Edges 0->1 (twice), 1->0, 1->2, 2->0: 0->1 and 1->0 are
        // reciprocated, 2 of 4.
        let sample = TemporalGraphBuilder::new()
            .event(0, 1, 1)
            .event(0, 1, 5)
            .event(1, 0, 7)
            .event(1, 2, 9)
            .event(2, 0, 11)
            .build()
            .unwrap();
        assert_eq!(reciprocity(&sample), 0.5);
    }

    #[test]
    fn message_networks_are_reciprocal() {
        let sms = generate(&DatasetSpec::sms_copenhagen(), 5);
        let so = generate(&DatasetSpec::stack_overflow(), 5);
        let (r_sms, r_so) = (reciprocity(&sms), reciprocity(&so));
        assert!(r_sms > r_so, "SMS reciprocity {r_sms} should beat StackOverflow {r_so}");
    }

    #[test]
    fn timestamps_are_nondecreasing_and_start_nonnegative() {
        let g = generate(&DatasetSpec::college_msg(), 6);
        assert!(g.first_time().unwrap() >= 0);
        assert!(g.events().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
