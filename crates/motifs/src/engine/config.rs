//! Engine-neutral run configuration and the motif-instance callback type.
//!
//! [`EnumConfig`] describes *what* to enumerate (size/node bounds, ΔC/ΔW
//! timing, per-model restrictions, optional signature targeting) and is
//! shared verbatim by every [`CountEngine`](crate::engine::CountEngine)
//! implementation — engines differ only in *how* they drive the walk, so
//! identical configs must yield identical [`MotifCounts`]
//! (enforced by `tests/engine_equivalence.rs`).

use crate::constraints::Timing;
use crate::models::MotifModel;
use crate::notation::{MotifSignature, MAX_EVENTS};
use std::fmt;
use tnm_graph::wire::{Wire, WireError, WireReader, WireWriter};
use tnm_graph::{EventIdx, TemporalGraph, Time};

/// A structurally invalid [`EnumConfig`], reported by
/// [`EnumConfig::validate`]/[`EnumConfig::build`].
///
/// Historically these combinations were caught ad hoc in CLI argument
/// parsing (or by `assert!`s in [`EnumConfig::new`]); the typed error
/// gives the CLI, the [`Query`](crate::engine::Query) API, and the
/// `tnm serve` protocol one shared validation path with stable,
/// test-pinned messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_events` is zero — a motif needs at least one event.
    ZeroEvents,
    /// `num_events` exceeds [`MAX_EVENTS`], the longest motif the
    /// digit-pair notation can name.
    TooManyEvents {
        /// The offending size.
        num_events: usize,
    },
    /// `max_nodes` is below two — a (self-loop-free) event already
    /// touches two nodes.
    NodeBudget {
        /// The offending bound.
        max_nodes: usize,
    },
    /// `min_nodes` falls outside `2..=max_nodes`.
    MinNodes {
        /// The offending lower bound.
        min_nodes: usize,
        /// The upper bound it must not exceed.
        max_nodes: usize,
    },
    /// A ΔC or ΔW bound is negative.
    NegativeTiming {
        /// `"dc"` or `"dw"`.
        which: &'static str,
        /// The offending bound.
        value: Time,
    },
    /// The signature filter's shape conflicts with the size/node bounds.
    SignatureShape {
        /// The targeted signature.
        signature: MotifSignature,
        /// Events the signature implies.
        implied_events: usize,
        /// Nodes the signature implies.
        implied_nodes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroEvents => write!(f, "num_events must be at least 1"),
            ConfigError::TooManyEvents { num_events } => {
                write!(f, "num_events must be at most {MAX_EVENTS} (got {num_events})")
            }
            ConfigError::NodeBudget { max_nodes } => {
                write!(f, "max_nodes must be at least 2 (got {max_nodes})")
            }
            ConfigError::MinNodes { min_nodes, max_nodes } => {
                write!(f, "min-nodes={min_nodes} outside 2..={max_nodes}")
            }
            ConfigError::NegativeTiming { which, value } => {
                write!(f, "--{which} must be non-negative (got {value})")
            }
            ConfigError::SignatureShape { signature, implied_events, implied_nodes } => {
                write!(f, "sig={signature} implies events={implied_events} nodes={implied_nodes}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration for one enumeration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumConfig {
    /// Exact number of events per motif (`e` in `XnYe`).
    pub num_events: usize,
    /// Maximum number of distinct nodes.
    pub max_nodes: usize,
    /// Minimum number of distinct nodes (filter at emission).
    pub min_nodes: usize,
    /// ΔC / ΔW configuration.
    pub timing: Timing,
    /// Apply Kovanen's consecutive events restriction.
    pub consecutive_events: bool,
    /// Apply static-projection inducedness.
    pub static_induced: bool,
    /// Apply the constrained dynamic graphlet restriction.
    pub constrained_dynamic: bool,
    /// Measure ΔC gaps from the previous event's end time.
    pub duration_aware: bool,
    /// Only enumerate instances of this exact signature (prefix-pruned,
    /// so targeted runs are much faster than full spectra).
    pub signature_filter: Option<MotifSignature>,
}

impl EnumConfig {
    /// A permissive configuration: `num_events` events on at most
    /// `max_nodes` nodes, unbounded timing, no restrictions.
    pub fn new(num_events: usize, max_nodes: usize) -> Self {
        assert!(num_events >= 1, "motifs need at least one event");
        assert!(max_nodes >= 2, "motifs need at least two nodes");
        EnumConfig {
            num_events,
            max_nodes,
            min_nodes: 2,
            timing: Timing::UNBOUNDED,
            consecutive_events: false,
            static_induced: false,
            constrained_dynamic: false,
            duration_aware: false,
            signature_filter: None,
        }
    }

    /// Non-panicking [`EnumConfig::new`]: rejects out-of-range size
    /// bounds with a [`ConfigError`] instead of asserting. Entry point
    /// for configurations built from untrusted input (CLI arguments,
    /// wire requests).
    pub fn try_new(num_events: usize, max_nodes: usize) -> Result<Self, ConfigError> {
        if num_events < 1 {
            return Err(ConfigError::ZeroEvents);
        }
        if num_events > MAX_EVENTS {
            return Err(ConfigError::TooManyEvents { num_events });
        }
        if max_nodes < 2 {
            return Err(ConfigError::NodeBudget { max_nodes });
        }
        Ok(EnumConfig::new(num_events, max_nodes))
    }

    /// Checks the configuration's internal consistency: size/node
    /// bounds in range, `min_nodes` within `2..=max_nodes`, timing
    /// bounds non-negative, and any signature filter shape-compatible
    /// with the bounds. The signature check runs before the `min_nodes`
    /// range check so a conflicting target reports the implied shape
    /// rather than the derived-range symptom.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_events < 1 {
            return Err(ConfigError::ZeroEvents);
        }
        if self.num_events > MAX_EVENTS {
            return Err(ConfigError::TooManyEvents { num_events: self.num_events });
        }
        if self.max_nodes < 2 {
            return Err(ConfigError::NodeBudget { max_nodes: self.max_nodes });
        }
        if let Some(c) = self.timing.delta_c {
            if c < 0 {
                return Err(ConfigError::NegativeTiming { which: "dc", value: c });
            }
        }
        if let Some(w) = self.timing.delta_w {
            if w < 0 {
                return Err(ConfigError::NegativeTiming { which: "dw", value: w });
            }
        }
        if let Some(sig) = &self.signature_filter {
            let (e, n) = (sig.num_events(), sig.num_nodes());
            if e != self.num_events || n > self.max_nodes || n < self.min_nodes {
                return Err(ConfigError::SignatureShape {
                    signature: *sig,
                    implied_events: e,
                    implied_nodes: n,
                });
            }
        }
        if self.min_nodes < 2 || self.min_nodes > self.max_nodes {
            return Err(ConfigError::MinNodes {
                min_nodes: self.min_nodes,
                max_nodes: self.max_nodes,
            });
        }
        Ok(())
    }

    /// Terminal builder step: [`EnumConfig::validate`] by value, so a
    /// builder chain ends in `….build()?`.
    pub fn build(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self)
    }

    /// Derives the engine configuration from a [`MotifModel`].
    pub fn for_model(model: &MotifModel, num_events: usize, max_nodes: usize) -> Self {
        EnumConfig {
            timing: model.timing,
            consecutive_events: model.consecutive_events,
            static_induced: model.static_induced,
            constrained_dynamic: model.constrained_dynamic,
            duration_aware: model.duration_aware,
            ..EnumConfig::new(num_events, max_nodes)
        }
    }

    /// Targets a single signature: size/node bounds are derived from it.
    pub fn for_signature(sig: MotifSignature) -> Self {
        EnumConfig {
            min_nodes: sig.num_nodes(),
            max_nodes: sig.num_nodes(),
            signature_filter: Some(sig),
            ..EnumConfig::new(sig.num_events(), sig.num_nodes().max(2))
        }
    }

    /// Sets the timing configuration (chainable).
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Requires exactly `n` nodes (chainable), e.g. 3 for the 3n3e tables.
    pub fn exact_nodes(mut self, n: usize) -> Self {
        self.min_nodes = n;
        self.max_nodes = n;
        self
    }

    /// Toggles the consecutive events restriction (chainable).
    pub fn with_consecutive(mut self, yes: bool) -> Self {
        self.consecutive_events = yes;
        self
    }

    /// Toggles the constrained dynamic graphlet restriction (chainable).
    pub fn with_constrained(mut self, yes: bool) -> Self {
        self.constrained_dynamic = yes;
        self
    }

    /// Toggles static inducedness (chainable).
    pub fn with_static_induced(mut self, yes: bool) -> Self {
        self.static_induced = yes;
        self
    }

    /// The largest first-to-last timespan an admissible instance can
    /// have, judging from the configuration alone:
    /// `min(ΔC·(num_events−1), ΔW)` over whichever bounds are present;
    /// `None` when nothing bounds the span. Used by
    /// [`auto_select`](crate::engine::auto_select)'s window-occupancy
    /// heuristic and the sampling engine's window sizing.
    ///
    /// A **duration-aware** ΔC measures each gap from the previous
    /// event's *end*, so ΔC alone no longer bounds the span (event
    /// durations are a property of the graph, not the configuration);
    /// only a ΔW bound survives in that case. The sampling engine
    /// tightens this with the graph's actual maximum duration — see
    /// [`SamplingEngine::window_len_for`](crate::engine::SamplingEngine::window_len_for).
    pub fn max_admissible_span(&self) -> Option<Time> {
        let steps = self.num_events.saturating_sub(1).max(1) as Time;
        let c_span = match self.timing.delta_c {
            Some(c) if !self.duration_aware => Some(c.saturating_mul(steps)),
            _ => None,
        };
        match (c_span, self.timing.delta_w) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(w)) => Some(w),
            (Some(c), Some(w)) => Some(c.min(w)),
        }
    }

    /// The largest first-to-last timespan an admissible instance can
    /// have **on this graph**: [`EnumConfig::max_admissible_span`]
    /// tightened for duration-aware ΔC, whose per-step gap runs from the
    /// previous event's *end* and is therefore bounded by
    /// `(ΔC + max event duration)·(num_events−1)` — a property of the
    /// graph, not the configuration alone. `None` means nothing bounds
    /// the span.
    ///
    /// This is the halo reach of the sharded engine (every event a walk
    /// starting at time `t` can touch lies in `[t, t + reach]`) and, at
    /// twice its value, the sampling engine's auto window length.
    pub fn admissible_reach(&self, graph: &TemporalGraph) -> Option<Time> {
        let steps = self.num_events.saturating_sub(1).max(1) as Time;
        let c_span = self.timing.delta_c.map(|c| {
            let max_dur = if self.duration_aware {
                graph.events().iter().map(|e| e.duration as Time).max().unwrap_or(0)
            } else {
                0
            };
            c.saturating_add(max_dur).saturating_mul(steps)
        });
        match (c_span, self.timing.delta_w) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(w)) => Some(w),
            (Some(c), Some(w)) => Some(c.min(w)),
        }
    }
}

/// The three size bounds as `u32`s, the four restriction flags packed
/// into one byte, both timing bounds as presence-tagged `i64`s, then the
/// optional signature target. Decoding rejects out-of-range size bounds,
/// unknown flag bits, and negative timing bounds.
impl Wire for EnumConfig {
    fn put(&self, w: &mut WireWriter) {
        (self.num_events as u32).put(w);
        (self.max_nodes as u32).put(w);
        (self.min_nodes as u32).put(w);
        let flags = (self.consecutive_events as u8)
            | ((self.static_induced as u8) << 1)
            | ((self.constrained_dynamic as u8) << 2)
            | ((self.duration_aware as u8) << 3);
        flags.put(w);
        self.timing.delta_c.put(w);
        self.timing.delta_w.put(w);
        self.signature_filter.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let num_events = u32::get(r)? as usize;
        let max_nodes = u32::get(r)? as usize;
        let min_nodes = u32::get(r)? as usize;
        if num_events < 1 || max_nodes < 2 {
            return Err(WireError::Malformed(format!(
                "config bounds out of range: {num_events} events on {max_nodes} nodes"
            )));
        }
        let flags = u8::get(r)?;
        if flags & !0x0F != 0 {
            return Err(WireError::Malformed(format!("unknown config flag bits {flags:#x}")));
        }
        let timing = Timing { delta_c: Wire::get(r)?, delta_w: Wire::get(r)? };
        if timing.delta_c.is_some_and(|c| c < 0) || timing.delta_w.is_some_and(|w| w < 0) {
            return Err(WireError::Malformed("negative timing bound".into()));
        }
        Ok(EnumConfig {
            min_nodes,
            timing,
            consecutive_events: flags & 1 != 0,
            static_induced: flags & 2 != 0,
            constrained_dynamic: flags & 4 != 0,
            duration_aware: flags & 8 != 0,
            signature_filter: Wire::get(r)?,
            ..EnumConfig::new(num_events, max_nodes)
        })
    }
}

/// A concrete motif occurrence handed to enumeration callbacks.
#[derive(Debug, Clone, Copy)]
pub struct MotifInstance<'a> {
    /// Time-ordered event indices into the graph.
    pub events: &'a [EventIdx],
    /// The instance's canonical signature.
    pub signature: MotifSignature,
}

impl MotifInstance<'_> {
    /// Timestamps of the instance's events, in order.
    pub fn times(&self, graph: &TemporalGraph) -> Vec<Time> {
        self.events.iter().map(|&i| graph.event(i).time).collect()
    }

    /// `t_last − t_first` for this instance.
    pub fn timespan(&self, graph: &TemporalGraph) -> Time {
        let first = graph.event(self.events[0]).time;
        let last = graph.event(*self.events.last().expect("non-empty motif")).time;
        last - first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notation::sig;

    #[test]
    fn try_new_rejects_what_new_asserts() {
        assert_eq!(EnumConfig::try_new(0, 3), Err(ConfigError::ZeroEvents));
        assert_eq!(EnumConfig::try_new(3, 1), Err(ConfigError::NodeBudget { max_nodes: 1 }));
        assert_eq!(EnumConfig::try_new(3, 3).unwrap(), EnumConfig::new(3, 3));
    }

    #[test]
    fn validate_accepts_every_builder_product() {
        for cfg in [
            EnumConfig::new(1, 2),
            EnumConfig::new(3, 3).with_timing(Timing::both(10, 30)),
            EnumConfig::for_signature(sig("011202")),
            EnumConfig::new(4, 4).exact_nodes(3).with_consecutive(true),
        ] {
            cfg.validate().unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        }
    }

    #[test]
    fn validate_catches_inconsistent_bounds() {
        let mut cfg = EnumConfig::new(3, 3);
        cfg.min_nodes = 5;
        assert_eq!(cfg.validate(), Err(ConfigError::MinNodes { min_nodes: 5, max_nodes: 3 }));
        assert_eq!(format!("{}", cfg.validate().unwrap_err()), "min-nodes=5 outside 2..=3");

        // Nine events cannot be named in digit-pair notation: a typed
        // error, not a panic at the first emitted instance.
        let too_long = ConfigError::TooManyEvents { num_events: 9 };
        assert_eq!(EnumConfig::new(9, 3).validate(), Err(too_long.clone()));
        assert_eq!(EnumConfig::try_new(9, 3), Err(too_long.clone()));
        assert_eq!(too_long.to_string(), "num_events must be at most 8 (got 9)");
        EnumConfig::new(8, 9).validate().unwrap();

        let mut cfg = EnumConfig::new(2, 3);
        cfg.timing = Timing { delta_c: Some(-5), delta_w: None };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NegativeTiming { which: "dc", value: -5 })
        ));
    }

    /// A signature filter whose shape conflicts with the bounds reports
    /// the implied shape — and does so even when the node bounds are
    /// *also* internally inconsistent as a knock-on effect, so the user
    /// sees the cause, not the symptom.
    #[test]
    fn validate_catches_signature_shape_conflicts() {
        let mut cfg = EnumConfig::for_signature(sig("010102"));
        cfg.num_events = 2;
        let err = cfg.build().unwrap_err();
        assert!(format!("{err}").contains("implies events=3"), "{err}");

        let mut cfg = EnumConfig::for_signature(sig("010102"));
        cfg.max_nodes = 2; // min_nodes stays 3: shape error wins over range
        assert!(matches!(cfg.validate(), Err(ConfigError::SignatureShape { .. })));
    }
}
