//! Message schemas of the coordinator ↔ worker protocol.
//!
//! Every message travels as one [`tnm_graph::wire`] frame whose `kind`
//! byte selects the schema. The framing layer (magic, version, length
//! validation) lives in `tnm-graph`; this module only defines the
//! payloads, which are built from the wire primitives:
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | [`KIND_JOB`] | coordinator → worker | [`WorkerJob`]: shard id, shard-file path, node-id space, owned start range, full [`EnumConfig`] |
//! | [`KIND_COUNTS`] | worker → coordinator | shard id + per-signature counts |
//! | [`KIND_INDUCED`] | worker → coordinator | shard id + a `last` marker + a batch of [`InducedGroup`]s — instances aggregated by (signature, node set, covered edges) for the coordinator's inducedness recheck; large replies span several frames, reassembled by [`read_reply`] |
//! | [`KIND_SHUTDOWN`] | coordinator → worker | empty: drain and exit cleanly |
//!
//! Induced replies deliberately do **not** ship one record per
//! instance: the static-inducedness verdict depends only on the
//! instance's node set and covered-edge set
//! ([`induced_cover_ok`](crate::induced::induced_cover_ok)), so the
//! worker folds its instances into per-`(signature, nodes, covered)`
//! groups with a count. Reply size is bounded by the number of
//! *distinct groups* — typically orders of magnitude below the
//! instance count — and, so that no shard can ever outgrow the
//! frame-payload ceiling, induced replies are **chunked**: at most
//! [`INDUCED_GROUP_BATCH`] groups per frame, the final frame marked
//! `last`, and [`read_reply`] reassembles the sequence (rejecting
//! mixed shard ids). The coordinator evaluates each group's verdict
//! exactly once.
//!
//! Signatures are packed one byte per event (`src_digit << 4 \|
//! dst_digit` — digits never exceed 9), and decoding re-validates
//! canonical form through [`MotifSignature::from_pairs`], so a corrupt
//! peer cannot smuggle a non-canonical signature into a count table.
//! Every decoder finishes with [`WireReader::finish`], making trailing
//! bytes an error rather than slack.

use crate::constraints::Timing;
use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::notation::MotifSignature;
use tnm_graph::wire::{WireError, WireReader, WireWriter};

/// Frame kind: a shard job descriptor.
pub(crate) const KIND_JOB: u8 = 1;
/// Frame kind: a per-signature count reply.
pub(crate) const KIND_COUNTS: u8 = 2;
/// Frame kind: an aggregated induced-group reply (static-induced jobs).
pub(crate) const KIND_INDUCED: u8 = 3;
/// Frame kind: orderly worker shutdown.
pub(crate) const KIND_SHUTDOWN: u8 = 4;

/// Maximum [`InducedGroup`]s per [`KIND_INDUCED`] frame. A group
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
/// observability enabled, i.e. was spawned with `TNM_OBS=1`). Encoded
/// after the reply body on the [`KIND_COUNTS`] frame and on the *last*
/// [`KIND_INDUCED`] frame of a chunk sequence.
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

pub(crate) fn put_signature(w: &mut WireWriter, sig: &MotifSignature) {
    let pairs = sig.pairs();
    w.put_u8(pairs.len() as u8);
    for &(a, b) in pairs {
        w.put_u8((a << 4) | b);
    }
}

pub(crate) fn get_signature(r: &mut WireReader<'_>) -> Result<MotifSignature, WireError> {
    let len = r.u8()? as usize;
    let mut pairs = Vec::with_capacity(len);
    for _ in 0..len {
        let byte = r.u8()?;
        pairs.push((byte >> 4, byte & 0x0F));
    }
    MotifSignature::from_pairs(&pairs)
        .map_err(|e| WireError::Malformed(format!("non-canonical signature: {e}")))
}

/// Writes a count table as `u32` row count plus `(signature, u64)` rows
/// in sorted signature order, so identical tables are byte-identical
/// regardless of hash-map iteration order. Both protocols use it.
pub(crate) fn put_counts(w: &mut WireWriter, counts: &MotifCounts) {
    let mut rows: Vec<_> = counts.iter().collect();
    rows.sort_unstable();
    w.put_u32(rows.len() as u32);
    for (sig, n) in rows {
        put_signature(w, &sig);
        w.put_u64(n);
    }
}

/// Reads a count table written by [`put_counts`].
pub(crate) fn get_counts(r: &mut WireReader<'_>) -> Result<MotifCounts, WireError> {
    let rows = r.u32()?;
    let mut counts = MotifCounts::new();
    for _ in 0..rows {
        let sig = get_signature(r)?;
        counts.add(sig, r.u64()?);
    }
    Ok(counts)
}

pub(crate) fn put_config(w: &mut WireWriter, cfg: &EnumConfig) {
    w.put_u32(cfg.num_events as u32);
    w.put_u32(cfg.max_nodes as u32);
    w.put_u32(cfg.min_nodes as u32);
    let flags = (cfg.consecutive_events as u8)
        | ((cfg.static_induced as u8) << 1)
        | ((cfg.constrained_dynamic as u8) << 2)
        | ((cfg.duration_aware as u8) << 3);
    w.put_u8(flags);
    w.put_opt_i64(cfg.timing.delta_c);
    w.put_opt_i64(cfg.timing.delta_w);
    match &cfg.signature_filter {
        Some(sig) => {
            w.put_bool(true);
            put_signature(w, sig);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_config(r: &mut WireReader<'_>) -> Result<EnumConfig, WireError> {
    let num_events = r.u32()? as usize;
    let max_nodes = r.u32()? as usize;
    let min_nodes = r.u32()? as usize;
    if num_events < 1 || max_nodes < 2 {
        return Err(WireError::Malformed(format!(
            "config bounds out of range: {num_events} events on {max_nodes} nodes"
        )));
    }
    let flags = r.u8()?;
    if flags & !0x0F != 0 {
        return Err(WireError::Malformed(format!("unknown config flag bits {flags:#x}")));
    }
    let delta_c = r.opt_i64()?;
    let delta_w = r.opt_i64()?;
    if delta_c.is_some_and(|c| c < 0) || delta_w.is_some_and(|w| w < 0) {
        return Err(WireError::Malformed("negative timing bound".into()));
    }
    let signature_filter = if r.bool()? { Some(get_signature(r)?) } else { None };
    let mut cfg = EnumConfig::new(num_events, max_nodes);
    cfg.min_nodes = min_nodes;
    cfg.timing = Timing { delta_c, delta_w };
    cfg.consecutive_events = flags & 1 != 0;
    cfg.static_induced = flags & 2 != 0;
    cfg.constrained_dynamic = flags & 4 != 0;
    cfg.duration_aware = flags & 8 != 0;
    cfg.signature_filter = signature_filter;
    Ok(cfg)
}

/// Encodes a [`KIND_JOB`] payload.
pub(crate) fn encode_job(job: &WorkerJob) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(job.shard_id);
    w.put_str(&job.shard_path);
    w.put_u32(job.num_nodes);
    w.put_u64(job.own_lo);
    w.put_u64(job.own_hi);
    w.put_u32(job.threads);
    w.put_bool(job.want_induced);
    put_config(&mut w, &job.cfg);
    let (trace_id, parent_span) = job.trace.map_or((0, 0), |c| (c.trace_id, c.parent_span));
    w.put_u64(trace_id);
    w.put_u64(parent_span);
    w.into_bytes()
}

/// Decodes a [`KIND_JOB`] payload.
pub(crate) fn decode_job(payload: &[u8]) -> Result<WorkerJob, WireError> {
    let mut r = WireReader::new(payload);
    let shard_id = r.u32()?;
    let shard_path = r.str()?.to_string();
    let num_nodes = r.u32()?;
    let own_lo = r.u64()?;
    let own_hi = r.u64()?;
    if own_lo > own_hi {
        return Err(WireError::Malformed(format!("owned range {own_lo}..{own_hi} is inverted")));
    }
    let threads = r.u32()?;
    let want_induced = r.bool()?;
    let cfg = get_config(&mut r)?;
    let trace_id = r.u64()?;
    let parent_span = r.u64()?;
    let trace = match (trace_id, parent_span) {
        (0, 0) => None,
        (0, _) => return Err(WireError::Malformed("parent span under trace id 0".into())),
        _ => Some(tnm_obs::TraceCtx { trace_id, parent_span }),
    };
    r.finish()?;
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

/// Encodes a [`WorkerReply`] as one or more frames. Count tables go
/// through [`put_counts`], so identical replies are byte-identical; induced
/// replies are split into [`INDUCED_GROUP_BATCH`]-sized frames with the
/// final one marked `last`, so no shard can produce a frame over the
/// payload ceiling. `metrics` rides after the body of the final frame.
pub(crate) fn encode_reply(reply: &WorkerReply, metrics: &ReplyMetrics) -> Vec<(u8, Vec<u8>)> {
    encode_reply_batched(reply, metrics, INDUCED_GROUP_BATCH)
}

/// [`encode_reply`] with an explicit batch size (unit tests exercise
/// chunking without building 200k groups).
pub(crate) fn encode_reply_batched(
    reply: &WorkerReply,
    metrics: &ReplyMetrics,
    batch: usize,
) -> Vec<(u8, Vec<u8>)> {
    let put_metrics = |w: &mut WireWriter| {
        w.put_u64(metrics.wall_ns);
        tnm_graph::wire::put_obs_snapshot(w, &metrics.obs);
        tnm_graph::wire::put_span_records(w, &metrics.spans);
    };
    match reply {
        WorkerReply::Counts { shard_id, counts } => {
            let mut w = WireWriter::new();
            w.put_u32(*shard_id);
            put_counts(&mut w, counts);
            put_metrics(&mut w);
            vec![(KIND_COUNTS, w.into_bytes())]
        }
        WorkerReply::Induced { shard_id, groups } => {
            let batch = batch.max(1);
            let chunks: Vec<&[InducedGroup]> =
                if groups.is_empty() { vec![&[]] } else { groups.chunks(batch).collect() };
            let n_chunks = chunks.len();
            chunks
                .into_iter()
                .enumerate()
                .map(|(i, chunk)| {
                    let mut w = WireWriter::new();
                    w.put_u32(*shard_id);
                    let last = i + 1 == n_chunks;
                    w.put_bool(last);
                    w.put_u32(chunk.len() as u32);
                    for g in chunk {
                        put_signature(&mut w, &g.signature);
                        w.put_u8(g.nodes.len() as u8);
                        for &n in &g.nodes {
                            w.put_u32(n);
                        }
                        w.put_u8(g.covered.len() as u8);
                        for &(a, b) in &g.covered {
                            w.put_u32(a);
                            w.put_u32(b);
                        }
                        w.put_u64(g.count);
                    }
                    if last {
                        put_metrics(&mut w);
                    }
                    (KIND_INDUCED, w.into_bytes())
                })
                .collect()
        }
    }
}

/// Decodes one reply frame. The second tuple element is the frame's
/// `last` marker (count replies are always final); the third carries
/// the [`ReplyMetrics`] section, present only on final frames
/// (defaulted on non-final induced chunks).
fn decode_reply_frame(
    kind: u8,
    payload: &[u8],
) -> Result<(WorkerReply, bool, ReplyMetrics), WireError> {
    let mut r = WireReader::new(payload);
    let get_metrics = |r: &mut WireReader<'_>| -> Result<ReplyMetrics, WireError> {
        let wall_ns = r.u64()?;
        let obs = tnm_graph::wire::get_obs_snapshot(r)?;
        let spans = tnm_graph::wire::get_span_records(r)?;
        Ok(ReplyMetrics { wall_ns, obs, spans })
    };
    let out = match kind {
        KIND_COUNTS => {
            let shard_id = r.u32()?;
            let counts = get_counts(&mut r)?;
            let metrics = get_metrics(&mut r)?;
            (WorkerReply::Counts { shard_id, counts }, true, metrics)
        }
        KIND_INDUCED => {
            let shard_id = r.u32()?;
            let last = r.bool()?;
            let n = r.u32()?;
            let mut groups = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                let signature = get_signature(&mut r)?;
                let k = r.u8()? as usize;
                let mut nodes = Vec::with_capacity(k);
                for _ in 0..k {
                    nodes.push(r.u32()?);
                }
                let k = r.u8()? as usize;
                let mut covered = Vec::with_capacity(k);
                for _ in 0..k {
                    let a = r.u32()?;
                    let b = r.u32()?;
                    covered.push((a, b));
                }
                groups.push(InducedGroup { signature, nodes, covered, count: r.u64()? });
            }
            let metrics = if last { get_metrics(&mut r)? } else { ReplyMetrics::default() };
            (WorkerReply::Induced { shard_id, groups }, last, metrics)
        }
        other => return Err(WireError::Malformed(format!("unexpected reply frame kind {other}"))),
    };
    r.finish()?;
    Ok(out)
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
    let Some((kind, payload)) = tnm_graph::wire::read_frame(&mut r, max_payload)? else {
        return Ok(None);
    };
    let (mut reply, mut last, mut metrics) = decode_reply_frame(kind, &payload)?;
    while !last {
        let Some((kind, payload)) = tnm_graph::wire::read_frame(&mut r, max_payload)? else {
            return Err(WireError::Truncated { needed: 1, available: 0 });
        };
        let (next, next_last, next_metrics) = decode_reply_frame(kind, &payload)?;
        match (&mut reply, next) {
            (
                WorkerReply::Induced { shard_id, groups },
                WorkerReply::Induced { shard_id: next_id, groups: more },
            ) if *shard_id == next_id => groups.extend(more),
            _ => {
                return Err(WireError::Malformed(
                    "reply chunk sequence switched kind or shard".into(),
                ))
            }
        }
        last = next_last;
        metrics = next_metrics;
    }
    Ok(Some((reply, metrics)))
}

/// Test helper for both protocols: every strict prefix of a message
/// must fail to decode, since with all fields required no legal short
/// form exists, while the full payload decodes.
#[cfg(test)]
pub(crate) fn assert_prefixes_rejected<T>(
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) {
    for cut in 0..payload.len() {
        assert!(decode(&payload[..cut]).is_err(), "prefix {cut} accepted");
    }
    assert!(decode(payload).is_ok(), "full payload rejected");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::notation::sig;

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
            let payload = encode_job(&job);
            assert_eq!(decode_job(&payload).unwrap(), job, "config {i}");
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
            let mut w = WireWriter::new();
            put_signature(&mut w, &s);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            assert_eq!(get_signature(&mut r).unwrap(), s);
            r.finish().unwrap();
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
        let frames = encode_reply(&reply, &metrics);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].0, KIND_COUNTS);
        assert_eq!(roundtrip(&frames).unwrap(), (reply.clone(), metrics.clone()));
        assert_eq!(reply.shard_id(), 5);

        let reply = sample_induced_reply(9, 5);
        let frames = encode_reply(&reply, &metrics);
        assert_eq!(frames.len(), 1, "5 groups fit one production batch");
        assert_eq!(frames[0].0, KIND_INDUCED);
        assert_eq!(roundtrip(&frames).unwrap(), (reply.clone(), metrics.clone()));
        assert_eq!(reply.shard_id(), 9);
        // Empty induced replies still produce one (last) frame, and
        // empty metrics decode back to empty.
        let empty = WorkerReply::Induced { shard_id: 3, groups: Vec::new() };
        let wall_only = ReplyMetrics { wall_ns: 5, obs: Default::default(), spans: Vec::new() };
        assert_eq!(roundtrip(&encode_reply(&empty, &wall_only)).unwrap(), (empty, wall_only));
    }

    /// Writes the frames to a byte stream and reads them back through
    /// the reassembling reader.
    fn roundtrip(frames: &[(u8, Vec<u8>)]) -> Result<(WorkerReply, ReplyMetrics), WireError> {
        let mut stream = Vec::new();
        for (kind, payload) in frames {
            tnm_graph::wire::write_frame(&mut stream, *kind, payload).unwrap();
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
        let frames = encode_reply_batched(&reply, &metrics, 2);
        assert_eq!(frames.len(), 3, "5 groups at batch 2 = 3 frames");
        assert!(frames.iter().all(|(k, _)| *k == KIND_INDUCED));
        // The metrics (spans included) ride only on the last frame of
        // the sequence and survive reassembly.
        assert_eq!(roundtrip(&frames).unwrap(), (reply, metrics.clone()));

        // Truncated sequence: the last frame never arrives.
        let mut stream = Vec::new();
        for (kind, payload) in &frames[..2] {
            tnm_graph::wire::write_frame(&mut stream, *kind, payload).unwrap();
        }
        assert!(matches!(read_reply(stream.as_slice(), 1 << 20), Err(WireError::Truncated { .. })));

        // A chunk for a different shard cannot splice in.
        let alien = encode_reply_batched(&sample_induced_reply(8, 3), &metrics, 100);
        let mut stream = Vec::new();
        tnm_graph::wire::write_frame(&mut stream, frames[0].0, &frames[0].1).unwrap();
        tnm_graph::wire::write_frame(&mut stream, alien[0].0, &alien[0].1).unwrap();
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
        let pa = encode_reply(&WorkerReply::Counts { shard_id: 0, counts: a }, &m);
        let pb = encode_reply(&WorkerReply::Counts { shard_id: 0, counts: b }, &m);
        assert_eq!(pa, pb);
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
            let payload = encode_job(j);
            // Truncation at every prefix length must error, never panic.
            assert_prefixes_rejected(&payload, decode_job);
            let mut padded = payload;
            padded.push(0);
            assert!(matches!(decode_job(&padded), Err(WireError::TrailingBytes { .. })));
        }
        // A parent span under trace id 0 (untraced) is a forged context.
        let mut forged = encode_job(&job);
        let n = forged.len();
        forged[n - 8..].copy_from_slice(&5u64.to_le_bytes());
        assert!(matches!(decode_job(&forged), Err(WireError::Malformed(_))));
        // An inverted owned range is structural nonsense.
        let bad = WorkerJob { own_lo: 9, own_hi: 3, ..job.clone() };
        assert!(matches!(decode_job(&encode_job(&bad)), Err(WireError::Malformed(_))));
        // A non-canonical signature byte cannot decode.
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(0x23); // pair (2,3): first pair must be (0,1)
        let bytes = w.into_bytes();
        assert!(matches!(
            get_signature(&mut WireReader::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
        // Unknown reply kinds are refused.
        assert!(matches!(decode_reply_frame(77, &[]), Err(WireError::Malformed(_))));
        // Reply frames truncate-safely too, including mid-metrics and
        // mid-spans, for count and induced replies alike.
        let mut counts = MotifCounts::new();
        counts.add(sig("0102"), 3);
        let replies = [WorkerReply::Counts { shard_id: 2, counts }, sample_induced_reply(6, 2)];
        for reply in &replies {
            for metrics in [sample_metrics(), sample_traced_metrics()] {
                let (kind, payload) = &encode_reply(reply, &metrics)[0];
                assert_prefixes_rejected(payload, |p| decode_reply_frame(*kind, p));
            }
        }
    }
}
