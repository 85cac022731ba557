//! Message schemas of the coordinator ↔ worker protocol.
//!
//! Every message travels as one [`tnm_graph::wire`] frame whose kind
//! byte is the `wire_enum!` tag of a [`WorkerMsg`] (coordinator →
//! worker) or a [`ReplyFrame`] (worker → coordinator); those two
//! `wire_enum!` lists define the kinds, and this table mirrors them:
//!
//! | kind | message | payload |
//! |---|---|---|
//! | 1 | `WorkerMsg::Job` | [`WorkerJob`]: shard id, shard-file path, node-id space, owned start range, full [`EnumConfig`], trace context |
//! | 2 | `ReplyFrame::Counts` | shard id + per-signature counts + [`ReplyMetrics`] |
//! | 3 | `ReplyFrame::Induced` | an [`InducedChunk`]: shard id + a `last` marker + a batch of [`InducedGroup`]s — instances aggregated by (signature, node set, covered edges) for the coordinator's inducedness recheck — and, on the last chunk only, [`ReplyMetrics`]; large replies span several frames, reassembled by [`read_reply`] |
//! | 4 | `WorkerMsg::Shutdown` | empty: drain and exit cleanly |
//!
//! Induced replies carry groups, not instances (see the
//! `engine::sharded` module docs on the recheck), and are **chunked**
//! so that no shard can outgrow the frame-payload ceiling: at most
//! [`INDUCED_GROUP_BATCH`] groups per frame, the final frame marked
//! `last`, and [`read_reply`] reassembles the sequence (rejecting mixed
//! shard ids).
//!
//! Configurations, signatures, and count tables travel through the
//! `Wire` impls next to those types, shared with the serve protocol.

use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::notation::MotifSignature;
use tnm_graph::wire::{self, get_short, put_short, Wire, WireError, WireReader, WireWriter};
use tnm_graph::{wire_enum, wire_struct};

/// Maximum [`InducedGroup`]s per induced frame. A group
/// encodes to well under 256 bytes (≤ 8 events ⇒ ≤ 16 nodes and ≤ 8
/// covered edges), so a full batch stays far below
/// [`MAX_FRAME_PAYLOAD`](tnm_graph::wire::MAX_FRAME_PAYLOAD); a shard
/// with more groups simply spans more frames.
pub(crate) const INDUCED_GROUP_BATCH: usize = 200_000;

/// One shard's worth of work, shipped to a worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerJob {
    /// Plan-wide shard id; echoed in the reply.
    pub shard_id: u32,
    /// Path of the shard file
    /// ([`io::write_events_raw`](tnm_graph::io::write_events_raw) block).
    pub shard_path: String,
    /// The parent graph's node-id space (shard events keep parent ids).
    pub num_nodes: u32,
    /// Shard-local range of owned start events (walks launch only from
    /// these — what makes per-shard instance sets disjoint).
    pub own_lo: u64,
    /// Exclusive end of the owned range.
    pub own_hi: u64,
    /// Worker-side thread budget for the within-shard work-stealing
    /// walk (1 = serial).
    pub threads: u32,
    /// True when the coordinator needs induced groups back instead of
    /// finished counts (the static-inducedness recheck happens against
    /// the parent graph, which only the coordinator holds).
    pub want_induced: bool,
    /// The full enumeration configuration, shipped verbatim; the worker
    /// strips `static_induced` itself.
    pub cfg: EnumConfig,
    /// Request-scoped trace to run the job under, if the coordinator's
    /// query is being traced. Always encoded as `trace_id ‖ parent_span`;
    /// trace id 0 means untraced.
    pub trace: Option<tnm_obs::TraceCtx>,
}

/// Fields in declaration order, the trace as `trace_id ‖ parent_span`
/// (`0 ‖ 0` when untraced). Decoding rejects an inverted owned range and
/// a parent span under trace id 0.
impl Wire for WorkerJob {
    fn put(&self, w: &mut WireWriter) {
        self.shard_id.put(w);
        self.shard_path.put(w);
        self.num_nodes.put(w);
        self.own_lo.put(w);
        self.own_hi.put(w);
        self.threads.put(w);
        self.want_induced.put(w);
        self.cfg.put(w);
        self.trace.map_or((0, 0), |c| (c.trace_id, c.parent_span)).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (shard_id, shard_path, num_nodes) = (u32::get(r)?, String::get(r)?, u32::get(r)?);
        let (own_lo, own_hi) = <(u64, u64)>::get(r)?;
        if own_lo > own_hi {
            return Err(WireError::Malformed(format!(
                "owned range {own_lo}..{own_hi} is inverted"
            )));
        }
        let (threads, want_induced, cfg) = (u32::get(r)?, bool::get(r)?, EnumConfig::get(r)?);
        let trace = match <(u64, u64)>::get(r)? {
            (0, 0) => None,
            (0, _) => return Err(WireError::Malformed("parent span under trace id 0".into())),
            (trace_id, parent_span) => Some(tnm_obs::TraceCtx { trace_id, parent_span }),
        };
        Ok(WorkerJob {
            shard_id,
            shard_path,
            num_nodes,
            own_lo,
            own_hi,
            threads,
            want_induced,
            cfg,
            trace,
        })
    }
}

/// A coordinator → worker frame.
#[derive(Debug)]
pub(crate) enum WorkerMsg {
    /// Run one shard job and reply.
    Job(WorkerJob),
    /// Drain and exit cleanly.
    Shutdown,
}
wire_enum!(WorkerMsg { 1 => Job(job), 4 => Shutdown });

/// One aggregated induced-recheck unit: every owned instance of
/// `signature` whose node set is `nodes` and whose events cover exactly
/// the directed edges in `covered` (all in parent node-id space, since
/// shards keep parent ids). The coordinator's verdict is per group, not
/// per instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct InducedGroup {
    /// Canonical signature of the grouped instances.
    pub signature: MotifSignature,
    /// Sorted distinct node ids the instances touch.
    pub nodes: Vec<u32>,
    /// Sorted distinct `(src, dst)` edges the instances' events cover.
    pub covered: Vec<(u32, u32)>,
    /// Instances in the group.
    pub count: u64,
}

/// The signature, nodes and covered edges behind `u8` counts (a motif
/// has at most 16 nodes and 8 edges), then the instance count.
impl Wire for InducedGroup {
    fn put(&self, w: &mut WireWriter) {
        self.signature.put(w);
        put_short(w, &self.nodes);
        put_short(w, &self.covered);
        self.count.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(InducedGroup {
            signature: Wire::get(r)?,
            nodes: get_short(r)?,
            covered: get_short(r)?,
            count: Wire::get(r)?,
        })
    }
}

/// A worker's answer to one [`WorkerJob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerReply {
    /// Finished counts for the shard's owned instances.
    Counts {
        /// Echo of [`WorkerJob::shard_id`].
        shard_id: u32,
        /// Per-signature counts.
        counts: MotifCounts,
    },
    /// Owned instances aggregated by inducedness-relevant structure,
    /// for jobs whose final filter must run on the coordinator.
    Induced {
        /// Echo of [`WorkerJob::shard_id`].
        shard_id: u32,
        /// The groups, in sorted deterministic order.
        groups: Vec<InducedGroup>,
    },
}

impl WorkerReply {
    /// The shard this reply answers for.
    pub fn shard_id(&self) -> u32 {
        match self {
            WorkerReply::Counts { shard_id, .. } | WorkerReply::Induced { shard_id, .. } => {
                *shard_id
            }
        }
    }
}

/// Worker-side execution report riding on every reply: the job's wall
/// time (always measured — one clock read per shard) plus the worker's
/// obs metrics snapshot for that job (empty unless the worker runs with
/// observability enabled, i.e. was spawned with `TNM_OBS=1`). It travels
/// after the reply body on the counts frame and on the *last* frame of
/// an induced chunk sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ReplyMetrics {
    /// Wall-clock nanoseconds the worker spent serving the job.
    pub wall_ns: u64,
    /// The worker's per-job metrics delta.
    pub obs: tnm_obs::Snapshot,
    /// The worker's side of the request trace (normalized: dense span
    /// ids, start times zero-based at job start); empty unless the job
    /// carried a [`WorkerJob::trace`].
    pub spans: Vec<tnm_obs::SpanRecord>,
}
wire_struct!(ReplyMetrics { wall_ns, obs, spans });

/// One frame of an induced reply: the metrics ride on the last chunk
/// only, so `metrics.is_some()` is the `last` marker.
#[derive(Debug)]
pub(crate) struct InducedChunk {
    /// Echo of [`WorkerJob::shard_id`].
    pub shard_id: u32,
    /// This chunk's groups.
    pub groups: Vec<InducedGroup>,
    /// The job's metrics, on the final chunk.
    pub metrics: Option<ReplyMetrics>,
}

/// `shard_id ‖ last ‖ groups ‖ metrics (last chunk only)`.
impl Wire for InducedChunk {
    fn put(&self, w: &mut WireWriter) {
        (self.shard_id, self.metrics.is_some()).put(w);
        self.groups.put(w);
        if let Some(m) = &self.metrics {
            m.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (shard_id, last) = Wire::get(r)?;
        let groups = Wire::get(r)?;
        let metrics = if last { Some(Wire::get(r)?) } else { None };
        Ok(InducedChunk { shard_id, groups, metrics })
    }
}

/// A worker → coordinator frame.
#[derive(Debug)]
pub(crate) enum ReplyFrame {
    /// A whole counts reply.
    Counts { shard_id: u32, counts: MotifCounts, metrics: ReplyMetrics },
    /// One chunk of an induced reply.
    Induced(InducedChunk),
}
wire_enum!(ReplyFrame { 2 => Counts { shard_id, counts, metrics }, 3 => Induced(chunk) });

/// Splits a [`WorkerReply`] into frames. Count tables travel in sorted
/// row order, so identical replies are byte-identical; induced replies
/// are split into `batch`-sized chunks with the final one marked `last`
/// (production uses [`INDUCED_GROUP_BATCH`]), so no shard can produce a
/// frame over the payload ceiling. `metrics` ride on the final frame.
pub(crate) fn reply_frames(
    reply: WorkerReply,
    metrics: ReplyMetrics,
    batch: usize,
) -> Vec<ReplyFrame> {
    let (shard_id, mut groups) = match reply {
        WorkerReply::Counts { shard_id, counts } => {
            return vec![ReplyFrame::Counts { shard_id, counts, metrics }]
        }
        WorkerReply::Induced { shard_id, groups } => (shard_id, groups),
    };
    let mut frames = Vec::new();
    while groups.len() > batch.max(1) {
        let rest = groups.split_off(batch.max(1));
        frames.push(ReplyFrame::Induced(InducedChunk { shard_id, groups, metrics: None }));
        groups = rest;
    }
    frames.push(ReplyFrame::Induced(InducedChunk { shard_id, groups, metrics: Some(metrics) }));
    frames
}

/// Reads one **complete** reply from the stream, reassembling chunked
/// induced frames until the `last` marker. `Ok(None)` means a clean EOF
/// before any frame; EOF mid-sequence, a kind switch, or a shard-id
/// change between chunks is an error. The reply's [`ReplyMetrics`] come
/// from the final frame of the sequence.
pub(crate) fn read_reply<R: std::io::Read>(
    mut r: R,
    max_payload: usize,
) -> Result<Option<(WorkerReply, ReplyMetrics)>, WireError> {
    let mut chunk = match wire::read_msg(&mut r, max_payload)? {
        None => return Ok(None),
        Some(ReplyFrame::Counts { shard_id, counts, metrics }) => {
            return Ok(Some((WorkerReply::Counts { shard_id, counts }, metrics)))
        }
        Some(ReplyFrame::Induced(chunk)) => chunk,
    };
    while chunk.metrics.is_none() {
        match wire::read_msg(&mut r, max_payload)? {
            Some(ReplyFrame::Induced(next)) if next.shard_id == chunk.shard_id => {
                chunk.groups.extend(next.groups);
                chunk.metrics = next.metrics;
            }
            Some(_) => {
                return Err(WireError::Malformed(
                    "reply chunk sequence switched kind or shard".into(),
                ))
            }
            None => return Err(WireError::Truncated { needed: 1, available: 0 }),
        }
    }
    let InducedChunk { shard_id, groups, metrics } = chunk;
    Ok(Some((WorkerReply::Induced { shard_id, groups }, metrics.expect("last chunk"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::constraints::Timing;
    use crate::engine::wire_suite::assert_prefixes_rejected;
    use crate::notation::sig;
    use tnm_graph::wire::{decode, encode, write_msg};

    fn sample_configs() -> Vec<EnumConfig> {
        let mut cfgs = vec![
            EnumConfig::new(3, 3),
            EnumConfig::new(2, 4).with_timing(Timing::only_w(3_000)),
            EnumConfig::new(4, 4).with_timing(Timing::both(20, 45)).with_consecutive(true),
            EnumConfig::new(3, 3).with_timing(Timing::only_c(1_500)).with_static_induced(true),
            EnumConfig::new(3, 3).with_timing(Timing::only_w(60)).with_constrained(true),
            EnumConfig::for_signature(sig("011202")).with_timing(Timing::only_w(10)),
            EnumConfig::new(3, 3).exact_nodes(3),
        ];
        let mut aware = EnumConfig::new(2, 2).with_timing(Timing::only_c(5));
        aware.duration_aware = true;
        cfgs.push(aware);
        cfgs
    }

    #[test]
    fn job_roundtrip_is_exhaustive_over_config_fields() {
        for (i, cfg) in sample_configs().into_iter().enumerate() {
            let trace = (i % 2 == 0).then_some(tnm_obs::TraceCtx {
                trace_id: 0xFACE + i as u64,
                parent_span: i as u64,
            });
            let job = WorkerJob {
                shard_id: i as u32,
                shard_path: format!("/tmp/spill/shard_{i}.events"),
                num_nodes: 40 + i as u32,
                own_lo: i as u64,
                own_hi: 100 + i as u64,
                threads: 1 + i as u32,
                want_induced: cfg.static_induced,
                cfg,
                trace,
            };
            let payload = encode(&job);
            assert_eq!(decode::<WorkerJob>(&payload).unwrap(), job, "config {i}");
        }
    }

    /// Every catalog signature — all 36 three-event motifs plus the
    /// 2-event and 1-event shapes — must survive the packed encoding.
    #[test]
    fn signature_roundtrip_over_the_catalog() {
        let mut sigs = catalog::all_3e();
        sigs.extend(catalog::all_motifs(2, 3));
        sigs.push(sig("01"));
        sigs.push(sig("01023132"));
        for s in sigs {
            let bytes = encode(&s);
            assert_eq!(bytes.len(), 1 + s.num_events(), "one packed byte per event");
            assert_eq!(decode::<MotifSignature>(&bytes).unwrap(), s);
        }
    }

    /// A populated metrics section — the snapshot shapes the obs codec
    /// can produce.
    fn sample_metrics() -> ReplyMetrics {
        let reg = tnm_obs::Registry::default();
        reg.counter("engine.events_scanned").add(41);
        reg.gauge("shard.resident_events").set(7);
        reg.histogram("cache.index.verify_ns").record(1500);
        ReplyMetrics { wall_ns: 987_654_321, obs: reg.snapshot(), spans: Vec::new() }
    }

    fn sample_traced_metrics() -> ReplyMetrics {
        let spans = vec![
            tnm_obs::SpanRecord {
                name: "walk.shard4".to_string(),
                args: vec![("shard".to_string(), "4".to_string())],
                start_ns: 0,
                dur_ns: 9_000,
                tid: 1,
                depth: 0,
                trace_id: 0xFACE,
                span_id: 1,
                parent_id: 0,
            },
            tnm_obs::SpanRecord {
                name: "walk.worker0".to_string(),
                args: vec![],
                start_ns: 100,
                dur_ns: 7_000,
                tid: 1,
                depth: 1,
                trace_id: 0xFACE,
                span_id: 2,
                parent_id: 1,
            },
        ];
        ReplyMetrics { spans, ..sample_metrics() }
    }

    #[test]
    fn reply_roundtrips() {
        let metrics = sample_traced_metrics();
        let mut counts = MotifCounts::new();
        counts.add(sig("010102"), 7);
        counts.add(sig("011202"), 123_456_789);
        let reply = WorkerReply::Counts { shard_id: 5, counts };
        let frames = reply_frames(reply.clone(), metrics.clone(), INDUCED_GROUP_BATCH);
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0], ReplyFrame::Counts { .. }));
        assert_eq!(roundtrip(&frames).unwrap(), (reply.clone(), metrics.clone()));
        assert_eq!(reply.shard_id(), 5);

        let reply = sample_induced_reply(9, 5);
        let frames = reply_frames(reply.clone(), metrics.clone(), INDUCED_GROUP_BATCH);
        assert_eq!(frames.len(), 1, "5 groups fit one production batch");
        assert!(matches!(frames[0], ReplyFrame::Induced(_)));
        assert_eq!(roundtrip(&frames).unwrap(), (reply.clone(), metrics.clone()));
        assert_eq!(reply.shard_id(), 9);
        // Empty induced replies still produce one (last) frame, and
        // empty metrics decode back to empty.
        let empty = WorkerReply::Induced { shard_id: 3, groups: Vec::new() };
        let wall_only = ReplyMetrics { wall_ns: 5, obs: Default::default(), spans: Vec::new() };
        let frames = reply_frames(empty.clone(), wall_only.clone(), INDUCED_GROUP_BATCH);
        assert_eq!(roundtrip(&frames).unwrap(), (empty, wall_only));
    }

    /// Writes the frames to a byte stream and reads them back through
    /// the reassembling reader.
    fn roundtrip(frames: &[ReplyFrame]) -> Result<(WorkerReply, ReplyMetrics), WireError> {
        let mut stream = Vec::new();
        for frame in frames {
            write_msg(&mut stream, frame).unwrap();
        }
        Ok(read_reply(stream.as_slice(), 1 << 20)?.expect("one reply"))
    }

    fn sample_induced_reply(shard_id: u32, n: usize) -> WorkerReply {
        let groups = (0..n)
            .map(|i| InducedGroup {
                signature: sig("011202"),
                nodes: vec![i as u32, i as u32 + 1, i as u32 + 2],
                covered: vec![(i as u32, i as u32 + 1), (i as u32 + 1, i as u32 + 2)],
                count: 1 + i as u64,
            })
            .collect();
        WorkerReply::Induced { shard_id, groups }
    }

    /// Chunking: a small batch size splits an induced reply over
    /// several frames, only the final one marked last, and the reader
    /// reassembles them into the identical reply — while a chunk
    /// sequence that switches shard mid-stream, or ends before its
    /// last marker, is rejected.
    #[test]
    fn induced_replies_chunk_and_reassemble() {
        let metrics = sample_traced_metrics();
        let reply = sample_induced_reply(4, 5);
        let frames = reply_frames(reply.clone(), metrics.clone(), 2);
        assert_eq!(frames.len(), 3, "5 groups at batch 2 = 3 frames");
        assert!(frames.iter().all(|f| matches!(f, ReplyFrame::Induced(_))));
        // The metrics (spans included) ride only on the last frame of
        // the sequence and survive reassembly.
        assert_eq!(roundtrip(&frames).unwrap(), (reply, metrics.clone()));

        // Truncated sequence: the last frame never arrives.
        let mut stream = Vec::new();
        for frame in &frames[..2] {
            write_msg(&mut stream, frame).unwrap();
        }
        assert!(matches!(read_reply(stream.as_slice(), 1 << 20), Err(WireError::Truncated { .. })));

        // A chunk for a different shard cannot splice in.
        let alien = reply_frames(sample_induced_reply(8, 3), metrics, 100);
        let mut stream = Vec::new();
        write_msg(&mut stream, &frames[0]).unwrap();
        write_msg(&mut stream, &alien[0]).unwrap();
        assert!(matches!(read_reply(stream.as_slice(), 1 << 20), Err(WireError::Malformed(_))));
    }

    #[test]
    fn counts_encoding_is_deterministic() {
        // Same logical table built in different insertion orders must
        // serialize identically (sorted rows, not hash order).
        let mut a = MotifCounts::new();
        a.add(sig("010102"), 1);
        a.add(sig("011202"), 2);
        a.add(sig("010101"), 3);
        let mut b = MotifCounts::new();
        b.add(sig("011202"), 2);
        b.add(sig("010101"), 3);
        b.add(sig("010102"), 1);
        let m = ReplyMetrics::default();
        let frames =
            |counts| reply_frames(WorkerReply::Counts { shard_id: 0, counts }, m.clone(), 1);
        assert_eq!(encode(&frames(a)[0]), encode(&frames(b)[0]));
    }

    #[test]
    fn decoders_reject_corruption() {
        let job = WorkerJob {
            shard_id: 1,
            shard_path: "x".into(),
            num_nodes: 4,
            own_lo: 0,
            own_hi: 5,
            threads: 2,
            want_induced: false,
            cfg: EnumConfig::new(3, 3).with_timing(Timing::only_w(10)),
            trace: None,
        };
        let traced = WorkerJob {
            trace: Some(tnm_obs::TraceCtx { trace_id: 0xDEAD_BEEF, parent_span: 42 }),
            ..job.clone()
        };
        for j in [&job, &traced] {
            let payload = encode(j);
            // Truncation at every prefix length must error, never panic.
            assert_prefixes_rejected::<WorkerJob>(&payload);
            let mut padded = payload;
            padded.push(0);
            assert!(matches!(decode::<WorkerJob>(&padded), Err(WireError::TrailingBytes { .. })));
        }
        // A parent span under trace id 0 (untraced) is a forged context.
        let mut forged = encode(&job);
        let n = forged.len();
        forged[n - 8..].copy_from_slice(&5u64.to_le_bytes());
        assert!(matches!(decode::<WorkerJob>(&forged), Err(WireError::Malformed(_))));
        // An inverted owned range is structural nonsense.
        let bad = WorkerJob { own_lo: 9, own_hi: 3, ..job.clone() };
        assert!(matches!(decode::<WorkerJob>(&encode(&bad)), Err(WireError::Malformed(_))));
        // A non-canonical signature byte cannot decode.
        let mut w = WireWriter::new();
        1u8.put(&mut w);
        0x23u8.put(&mut w); // pair (2,3): first pair must be (0,1)
        let bytes = w.into_bytes();
        assert!(matches!(decode::<MotifSignature>(&bytes), Err(WireError::Malformed(_))));
        // Unknown reply kinds are refused.
        assert!(matches!(decode::<ReplyFrame>(&[77]), Err(WireError::Malformed(_))));
        // Reply frames truncate-safely too, including mid-metrics and
        // mid-spans, for count and induced replies alike.
        let mut counts = MotifCounts::new();
        counts.add(sig("0102"), 3);
        let replies = [WorkerReply::Counts { shard_id: 2, counts }, sample_induced_reply(6, 2)];
        for reply in &replies {
            for metrics in [sample_metrics(), sample_traced_metrics()] {
                let frames = reply_frames(reply.clone(), metrics, INDUCED_GROUP_BATCH);
                assert_prefixes_rejected::<ReplyFrame>(&encode(&frames[0]));
            }
        }
    }
}
