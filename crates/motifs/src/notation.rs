//! The paper's digit-pair motif notation (Section 5, Figure 2).
//!
//! A temporal motif with `n` events is written as `2n` digits; each digit
//! pair is one event, source digit first. Nodes are numbered by first
//! appearance in chronological order, so the first pair is always `01`.
//! For example `011202` is the triangle whose events are `0→1`, `1→2`,
//! `0→2` in time order.
//!
//! [`MotifSignature`] is the canonical, hashable representation of a motif
//! *type*. [`MotifSignature::from_events`] canonicalizes a concrete
//! time-ordered event sequence into its type.

use crate::event_pair::EventPairType;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use tnm_graph::wire::{Wire, WireError, WireReader, WireWriter};

/// Maximum number of events a signature can carry. The paper explores
/// 3- and 4-event motifs; 8 leaves room for extensions.
pub const MAX_EVENTS: usize = 8;

/// A canonical temporal-motif type in the paper's digit-pair notation.
///
/// Invariants (checked on construction):
/// * 1 ..= [`MAX_EVENTS`] events;
/// * no self-pairs (`aa`);
/// * the first pair is `01`;
/// * node digits appear in chronological first-appearance order (digit `d`
///   only occurs after `d - 1` has occurred).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MotifSignature {
    len: u8,
    pairs: [(u8, u8); MAX_EVENTS],
}

/// Errors from parsing or constructing a [`MotifSignature`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotationError {
    /// Empty input or zero events.
    Empty,
    /// More than [`MAX_EVENTS`] events.
    TooLong,
    /// The string length is odd or contains a non-digit.
    Malformed,
    /// An event pair has identical source and target.
    SelfPair,
    /// The first pair is not `01`, or digits skip ahead of appearance order.
    NotCanonical,
}

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotationError::Empty => write!(f, "signature has no events"),
            NotationError::TooLong => write!(f, "signature exceeds {MAX_EVENTS} events"),
            NotationError::Malformed => write!(f, "signature must be an even number of digits"),
            NotationError::SelfPair => write!(f, "signature contains a self-loop pair"),
            NotationError::NotCanonical => {
                write!(f, "digits must follow chronological first-appearance order")
            }
        }
    }
}

impl std::error::Error for NotationError {}

impl MotifSignature {
    /// Builds a signature from digit pairs, validating canonical form.
    pub fn from_pairs(pairs: &[(u8, u8)]) -> Result<Self, NotationError> {
        if pairs.is_empty() {
            return Err(NotationError::Empty);
        }
        if pairs.len() > MAX_EVENTS {
            return Err(NotationError::TooLong);
        }
        let mut next_fresh = 0u8;
        for &(a, b) in pairs {
            if a == b {
                return Err(NotationError::SelfPair);
            }
            for d in [a, b] {
                if d > next_fresh {
                    return Err(NotationError::NotCanonical);
                }
                if d == next_fresh {
                    next_fresh += 1;
                }
            }
        }
        if pairs[0] != (0, 1) {
            return Err(NotationError::NotCanonical);
        }
        let mut arr = [(0u8, 0u8); MAX_EVENTS];
        arr[..pairs.len()].copy_from_slice(pairs);
        Ok(MotifSignature { len: pairs.len() as u8, pairs: arr })
    }

    /// Canonicalizes a concrete sequence of `(src, dst)` node pairs,
    /// assumed already in chronological order, by renaming nodes in
    /// first-appearance order.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, longer than [`MAX_EVENTS`], or
    /// contains a self-loop — callers (the enumeration engine) guarantee
    /// none of these occur.
    pub fn canonicalize<N: Copy + Eq>(pairs: &[(N, N)]) -> Self {
        assert!(!pairs.is_empty() && pairs.len() <= MAX_EVENTS, "bad motif size");
        let mut names: [Option<N>; 2 * MAX_EVENTS] = [None; 2 * MAX_EVENTS];
        let mut n_names = 0usize;
        let digit = |v: N, names: &mut [Option<N>; 2 * MAX_EVENTS], n: &mut usize| -> u8 {
            for (i, slot) in names[..*n].iter().enumerate() {
                if *slot == Some(v) {
                    return i as u8;
                }
            }
            names[*n] = Some(v);
            *n += 1;
            (*n - 1) as u8
        };
        let mut arr = [(0u8, 0u8); MAX_EVENTS];
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let a = digit(s, &mut names, &mut n_names);
            let b = digit(d, &mut names, &mut n_names);
            assert!(a != b, "self-loop event in motif");
            arr[i] = (a, b);
        }
        MotifSignature { len: pairs.len() as u8, pairs: arr }
    }

    /// Canonicalizes a time-ordered slice of graph events.
    pub fn from_events(events: &[tnm_graph::Event]) -> Self {
        let pairs: Vec<(u32, u32)> = events.iter().map(|e| (e.src.0, e.dst.0)).collect();
        Self::canonicalize(&pairs)
    }

    /// Number of events (`e` in the paper's `XnYe` class names).
    #[inline]
    pub fn num_events(&self) -> usize {
        self.len as usize
    }

    /// Number of distinct nodes (`n` in `XnYe`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.pairs().iter().map(|&(a, b)| a.max(b)).max().map_or(0, |m| m as usize + 1)
    }

    /// The digit pairs, one per event.
    #[inline]
    pub fn pairs(&self) -> &[(u8, u8)] {
        &self.pairs[..self.len as usize]
    }

    /// Class label in the paper's style, e.g. `3n3e`.
    pub fn class_name(&self) -> String {
        format!("{}n{}e", self.num_nodes(), self.num_events())
    }

    /// True if the motif grows as a single component when its events are
    /// added one at a time (the only motifs the paper considers): every
    /// event after the first shares a node with an earlier event.
    pub fn is_single_component_growth(&self) -> bool {
        let pairs = self.pairs();
        let mut seen = 0u16; // bitset over digits
        seen |= 1 << pairs[0].0;
        seen |= 1 << pairs[0].1;
        for &(a, b) in &pairs[1..] {
            if seen & ((1 << a) | (1 << b)) == 0 {
                return false;
            }
            seen |= (1 << a) | (1 << b);
        }
        true
    }

    /// The event-pair sequence (Figure 2, right): one entry per pair of
    /// consecutive events; `None` when the two events share no node (can
    /// only happen for ≥ 4 nodes, which is why the paper calls the 4n4e
    /// descriptions "broad").
    pub fn event_pair_sequence(&self) -> Vec<Option<EventPairType>> {
        self.pairs().windows(2).map(|w| EventPairType::classify(w[0], w[1])).collect()
    }

    /// True if the last event is the reverse of the first (the "ask-reply"
    /// shape that the consecutive events restriction amplifies, Sec 5.1.1).
    pub fn first_last_reciprocal(&self) -> bool {
        let p = self.pairs();
        let first = p[0];
        let last = p[p.len() - 1];
        last == (first.1, first.0)
    }
}

impl MotifSignature {
    /// The hash key: every pair packed into one byte (`src << 4 | dst`;
    /// canonical digits stay below 16), the bytes in event order, and the
    /// length. Unused pairs are `(0, 0)`, so two signatures are equal
    /// exactly when their keys are.
    #[inline]
    fn hash_key(&self) -> (u64, u8) {
        const _: () = assert!(MAX_EVENTS <= 8, "one packed byte per pair must fit a u64");
        let packed = self
            .pairs
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &(a, b))| acc | (u64::from(a << 4 | b) << (8 * i)));
        (packed, self.len)
    }
}

/// Hashes the packed key in two writes: counting hashes a signature for
/// every emitted instance.
impl Hash for MotifSignature {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (packed, len) = self.hash_key();
        state.write_u64(packed);
        state.write_u8(len);
    }
}

impl fmt::Display for MotifSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(a, b) in self.pairs() {
            write!(f, "{a}{b}")?;
        }
        Ok(())
    }
}

/// A `u8` length, then one packed byte per event (`src_digit << 4 |
/// dst_digit`; canonical digits stay below 16). Decoding re-validates
/// canonical form through [`MotifSignature::from_pairs`], so a corrupt
/// peer cannot smuggle a non-canonical signature into a count table.
impl Wire for MotifSignature {
    fn put(&self, w: &mut WireWriter) {
        self.len.put(w);
        for &(a, b) in self.pairs() {
            ((a << 4) | b).put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u8::get(r)?;
        let mut pairs = Vec::new();
        for _ in 0..len {
            let byte = u8::get(r)?;
            pairs.push((byte >> 4, byte & 0x0F));
        }
        MotifSignature::from_pairs(&pairs)
            .map_err(|e| WireError::Malformed(format!("non-canonical signature: {e}")))
    }
}

impl fmt::Debug for MotifSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MotifSignature({self})")
    }
}

impl FromStr for MotifSignature {
    type Err = NotationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(NotationError::Empty);
        }
        let digits: Vec<u8> = s
            .chars()
            .map(|c| c.to_digit(10).map(|d| d as u8).ok_or(NotationError::Malformed))
            .collect::<Result<_, _>>()?;
        if !digits.len().is_multiple_of(2) {
            return Err(NotationError::Malformed);
        }
        let pairs: Vec<(u8, u8)> = digits.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        Self::from_pairs(&pairs)
    }
}

/// Parses a signature, panicking on invalid input. Intended for literals
/// in tests, examples, and experiment definitions.
pub fn sig(s: &str) -> MotifSignature {
    s.parse().unwrap_or_else(|e| panic!("invalid motif signature `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_pair::EventPairType::*;
    use tnm_graph::Event;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["01", "0110", "011202", "010210", "01023132", "01212303"] {
            assert_eq!(sig(s).to_string(), s);
        }
    }

    #[test]
    fn class_names() {
        assert_eq!(sig("010101").class_name(), "2n3e");
        assert_eq!(sig("011202").class_name(), "3n3e");
        assert_eq!(sig("01023132").class_name(), "4n4e");
        assert_eq!(sig("01").class_name(), "2n1e");
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!("".parse::<MotifSignature>(), Err(NotationError::Empty));
        assert_eq!("0".parse::<MotifSignature>(), Err(NotationError::Malformed));
        assert_eq!("0a".parse::<MotifSignature>(), Err(NotationError::Malformed));
        assert_eq!("00".parse::<MotifSignature>(), Err(NotationError::SelfPair));
        assert_eq!("10".parse::<MotifSignature>(), Err(NotationError::NotCanonical));
        assert_eq!("0102".parse::<MotifSignature>().unwrap(), sig("0102"));
        // Digit 3 before 2 has appeared:
        assert_eq!("0113".parse::<MotifSignature>(), Err(NotationError::NotCanonical));
        let long = "01".repeat(MAX_EVENTS + 1);
        assert_eq!(long.parse::<MotifSignature>(), Err(NotationError::TooLong));
    }

    #[test]
    fn canonicalize_relabels_by_appearance() {
        // Nodes 9 -> 4 -> 7, then 9 -> 7: becomes 01, 12, 02.
        let s = MotifSignature::canonicalize(&[(9u32, 4), (4, 7), (9, 7)]);
        assert_eq!(s, sig("011202"));
    }

    #[test]
    fn canonicalize_from_events() {
        let events =
            [Event::new(5u32, 3u32, 10), Event::new(3u32, 5u32, 12), Event::new(5u32, 3u32, 19)];
        assert_eq!(MotifSignature::from_events(&events), sig("011001"));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn canonicalize_rejects_self_loop() {
        MotifSignature::canonicalize(&[(1u32, 1)]);
    }

    #[test]
    fn single_component_growth() {
        assert!(sig("011202").is_single_component_growth());
        assert!(sig("01023132").is_single_component_growth());
        // 0->1 then 2->3 is disconnected growth.
        assert!(!sig("0123").is_single_component_growth());
        assert!(!sig("01232031").is_single_component_growth());
    }

    #[test]
    fn event_pair_sequences_match_figure2() {
        // Figure 2 bottom-left: 011202 = repetition? No: 01,12 share node 1
        // => convey; 12,02 share node 2 => in-burst.
        assert_eq!(sig("011202").event_pair_sequence(), vec![Some(Convey), Some(InBurst)]);
        // Figure 2: "Repetition, Out-burst" example 010102:
        assert_eq!(sig("010102").event_pair_sequence(), vec![Some(Repetition), Some(OutBurst)]);
        // Figure 2: "Repetition, Convey, Ping-pong" example 01011221:
        assert_eq!(
            sig("01011221").event_pair_sequence(),
            vec![Some(Repetition), Some(Convey), Some(PingPong)]
        );
        // Disjoint consecutive pair in a 4-node motif:
        assert_eq!(sig("01232031").event_pair_sequence()[0], None);
    }

    #[test]
    fn ask_reply_detection() {
        for s in ["010210", "011210", "012010", "012110"] {
            assert!(sig(s).first_last_reciprocal(), "{s} should be ask-reply");
        }
        assert!(!sig("010102").first_last_reciprocal());
        assert!(!sig("011202").first_last_reciprocal());
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut v = [sig("011202"), sig("010102"), sig("0110")];
        v.sort();
        assert_eq!(v[0], sig("0110"));
    }

    /// The packed hash key tells every catalog signature apart, reaches
    /// the last digit of a maximal signature, and equal signatures built
    /// separately hash equally under std's keyed hasher.
    #[test]
    fn packed_hash_key_is_injective() {
        use crate::catalog::{all_3e, all_4e, all_4n4e};
        use std::collections::{BTreeSet, HashSet};
        use std::hash::BuildHasher;
        let widest: Vec<(u8, u8)> = (0..MAX_EVENTS as u8).map(|i| (2 * i, 2 * i + 1)).collect();
        let widest = MotifSignature::from_pairs(&widest).unwrap();
        assert_eq!(widest.pairs().last(), Some(&(14, 15)));
        let mut sigs: BTreeSet<MotifSignature> = all_3e().into_iter().collect();
        sigs.extend(all_4e());
        sigs.extend(all_4n4e());
        sigs.insert(widest);
        // A prefix shares every leading byte with the widest signature.
        sigs.insert(MotifSignature::from_pairs(&widest.pairs()[..MAX_EVENTS - 1]).unwrap());
        let keys: HashSet<(u64, u8)> = sigs.iter().map(MotifSignature::hash_key).collect();
        assert_eq!(keys.len(), sigs.len());
        let state = std::collections::hash_map::RandomState::new();
        for s in &sigs {
            let rebuilt = MotifSignature::from_pairs(s.pairs()).unwrap();
            assert_eq!(state.hash_one(s), state.hash_one(rebuilt), "{s}");
        }
    }
}
