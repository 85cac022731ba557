//! The worker loop of the worker-process transport (the hidden
//! `tnm worker` subcommand; see the `engine::sharded` module docs).

use super::driver::ShardWalk;
use super::protocol::{
    reply_frames, ReplyMetrics, WorkerJob, WorkerMsg, WorkerReply, INDUCED_GROUP_BATCH,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use tnm_graph::wire::{self, WireError};
use tnm_graph::TemporalGraph;

/// Runs the worker loop until a shutdown frame or a clean EOF on
/// `input`. `exit_after` is fault injection for the crash-rescheduling
/// tests: after serving that many jobs the loop returns early, which
/// closes the process's streams and looks to the coordinator exactly
/// like a mid-run crash (the CLI wires it to the
/// `TNM_WORKER_EXIT_AFTER` environment variable).
///
/// Errors are returned, not swallowed: a worker that cannot decode a
/// job or read its shard file exits non-zero, and the coordinator
/// treats the dead worker like any other crash.
pub fn run_worker<R: Read, W: Write>(
    mut input: R,
    mut output: W,
    exit_after: Option<usize>,
) -> Result<(), WireError> {
    let mut served = 0usize;
    loop {
        let job = match wire::read_msg(&mut input, wire::MAX_FRAME_PAYLOAD)? {
            // Coordinator closed the stream between jobs, or asked to stop.
            None | Some(WorkerMsg::Shutdown) => return Ok(()),
            Some(WorkerMsg::Job(job)) => job,
        };
        let t0 = std::time::Instant::now();
        // A traced job installs its context for the duration of
        // the walk: every span the walk opens (on this thread or
        // the work-stealing threads it spawns) carries the trace
        // id and ships back for the coordinator to stitch.
        tnm_obs::set_trace(job.trace);
        let reply = {
            let _span = tnm_obs::span!("walk.shard", shard = job.shard_id);
            serve_job(&job)?
        };
        tnm_obs::set_trace(None);
        let spans = job
            .trace
            .map_or_else(Vec::new, |ctx| normalize_spans(tnm_obs::take_trace_spans(ctx.trace_id)));
        let metrics = ReplyMetrics {
            wall_ns: t0.elapsed().as_nanos() as u64,
            // Per-job delta: snapshot the worker's registry and
            // clear it so the next job starts from zero. The
            // coordinator re-enables obs in spawned workers via
            // `TNM_OBS=1` (wired by the CLI's worker entry).
            obs: if tnm_obs::enabled() {
                let snap = tnm_obs::global().snapshot();
                tnm_obs::global().reset();
                snap
            } else {
                Default::default()
            },
            spans,
        };
        for frame in reply_frames(reply, metrics, INDUCED_GROUP_BATCH) {
            wire::write_msg(&mut output, &frame)?;
        }
        output.flush()?;
        served += 1;
        if exit_after.is_some_and(|n| served >= n) {
            return Ok(()); // injected fault: vanish mid-run
        }
    }
}

/// Prepares captured trace spans for shipping: span ids become dense
/// and 1-based (internal parent links follow; links to spans outside
/// the capture drop to 0, for the coordinator to re-attach under the
/// job's parent), and start times rebase to the earliest span so the
/// coordinator can shift them into its own clock via the reply's wall
/// time.
fn normalize_spans(mut spans: Vec<tnm_obs::SpanRecord>) -> Vec<tnm_obs::SpanRecord> {
    let Some(base) = spans.iter().map(|s| s.start_ns).min() else {
        return spans;
    };
    let ids: HashMap<u64, u64> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i as u64 + 1)).collect();
    for s in &mut spans {
        s.span_id = ids[&s.span_id];
        s.parent_id = ids.get(&s.parent_id).copied().unwrap_or(0);
        s.start_ns -= base;
    }
    spans
}

/// Loads and validates the job's shard file, then walks its owned
/// starts into a counts or induced-groups reply.
fn serve_job(job: &WorkerJob) -> Result<WorkerReply, WireError> {
    let file = std::fs::File::open(&job.shard_path)?;
    let events = tnm_graph::io::read_events_raw(file).map_err(|e| match e {
        tnm_graph::GraphError::Decode(w) => w,
        tnm_graph::GraphError::Io(io) => WireError::Io(io),
        other => WireError::Malformed(format!("shard file rejected: {other}")),
    })?;
    // One validation pass: node ids inside the declared space and no
    // self-loops (the walker's digit resolution assumes both; a corrupt
    // record must fail loudly, never count wrongly). Time-sortedness is
    // asserted — in release builds too — by `from_sorted_events`, so it
    // is deliberately not re-scanned here.
    if let Some(bad) = events
        .iter()
        .find(|e| e.src.0 >= job.num_nodes || e.dst.0 >= job.num_nodes || e.is_self_loop())
    {
        return Err(WireError::Malformed(format!(
            "shard event {bad} is a self-loop or outside the declared node space {}",
            job.num_nodes
        )));
    }
    let own = job.own_lo as usize..job.own_hi as usize;
    if own.end > events.len() {
        return Err(WireError::Malformed(format!(
            "owned range {own:?} exceeds the shard's {} events",
            events.len()
        )));
    }
    let graph = TemporalGraph::from_sorted_events(events, job.num_nodes);
    let walk = ShardWalk::new(&graph, None, own, &job.cfg);
    let threads = (job.threads as usize).max(1);
    let shard_id = job.shard_id;
    Ok(if job.want_induced {
        WorkerReply::Induced { shard_id, groups: walk.induced_groups(threads) }
    } else {
        WorkerReply::Counts { shard_id, counts: walk.count(threads) }
    })
}

#[cfg(test)]
mod tests {
    use super::super::protocol::read_reply;
    use super::*;
    use crate::constraints::Timing;
    use crate::engine::{CountEngine, EnumConfig, WindowedEngine};
    use tnm_graph::TemporalGraphBuilder;

    fn graph() -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..60u32 {
            b.push(tnm_graph::Event::new(i % 7, (i % 7 + 1 + i % 3) % 8, (i / 2) as i64));
        }
        b.build().unwrap()
    }

    fn spill(graph: &TemporalGraph, dir: &std::path::Path) -> String {
        let path = dir.join("whole.events");
        let file = std::fs::File::create(&path).unwrap();
        tnm_graph::io::write_events_raw(graph.events(), file).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Drives the loop in-process over byte buffers: one whole-graph
    /// "shard" must reproduce the windowed engine's counts exactly, and
    /// the loop must honor shutdown framing.
    #[test]
    fn worker_loop_counts_and_shuts_down() {
        let g = graph();
        let dir = std::env::temp_dir().join(format!("tnm-worker-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(4, 9));
        let job = WorkerJob {
            shard_id: 3,
            shard_path: spill(&g, &dir),
            num_nodes: g.num_nodes(),
            own_lo: 0,
            own_hi: g.num_events() as u64,
            threads: 1,
            want_induced: false,
            cfg: cfg.clone(),
            trace: None,
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(job.clone())).unwrap();
        wire::write_msg(&mut input, &WorkerMsg::Shutdown).unwrap();
        let mut output = Vec::new();
        run_worker(input.as_slice(), &mut output, None).unwrap();
        let mut cursor = output.as_slice();
        let (reply, metrics) =
            read_reply(&mut cursor, wire::MAX_FRAME_PAYLOAD).unwrap().expect("one reply");
        match reply {
            WorkerReply::Counts { shard_id, counts } => {
                assert_eq!(shard_id, 3);
                assert_eq!(counts, WindowedEngine.count(&g, &cfg));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(metrics.wall_ns > 0, "wall time is always measured");
        assert!(metrics.obs.is_empty(), "no obs snapshot unless enabled");
        assert!(metrics.spans.is_empty(), "no spans unless the job is traced");
        assert!(read_reply(&mut cursor, wire::MAX_FRAME_PAYLOAD).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A traced job collects the walk's spans (even with global obs
    /// off), normalizes them for shipping — dense 1-based ids,
    /// zero-based start times, roots with parent 0 — and clears the
    /// trace before the next job.
    #[test]
    fn traced_jobs_ship_normalized_spans() {
        let g = graph();
        let dir = std::env::temp_dir().join(format!("tnm-worker-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::both(4, 9));
        let ctx = tnm_obs::TraceCtx { trace_id: 0xFACE, parent_span: 7 };
        let job = WorkerJob {
            shard_id: 5,
            shard_path: spill(&g, &dir),
            num_nodes: g.num_nodes(),
            own_lo: 0,
            own_hi: g.num_events() as u64,
            threads: 2,
            want_induced: false,
            cfg,
            trace: Some(ctx),
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(job.clone())).unwrap();
        let mut output = Vec::new();
        run_worker(input.as_slice(), &mut output, None).unwrap();
        let (_, metrics) =
            read_reply(output.as_slice(), wire::MAX_FRAME_PAYLOAD).unwrap().expect("one reply");
        let spans = &metrics.spans;
        assert!(!spans.is_empty(), "the traced walk records spans with obs off");
        assert!(spans.iter().all(|s| s.trace_id == ctx.trace_id));
        assert!(spans.iter().any(|s| s.name == "walk.shard"));
        assert_eq!(spans.iter().map(|s| s.start_ns).min(), Some(0), "times are rebased");
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=spans.len() as u64).collect::<Vec<_>>(), "dense 1-based ids");
        for s in spans {
            assert!(
                s.parent_id == 0 || ids.binary_search(&s.parent_id).is_ok(),
                "parents resolve within the shipped set or drop to 0"
            );
        }
        assert!(tnm_obs::current_trace().is_none(), "the trace is cleared after the job");
        assert!(
            tnm_obs::take_trace_spans(ctx.trace_id).is_empty(),
            "shipped spans leave the collector"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Induced jobs return raw instances with inducedness stripped —
    /// exactly the non-induced instance stream, for the coordinator to
    /// filter against the parent.
    #[test]
    fn induced_jobs_return_raw_instances() {
        let g = graph();
        let dir = std::env::temp_dir().join(format!("tnm-worker-inst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(8)).with_static_induced(true);
        let job = WorkerJob {
            shard_id: 0,
            shard_path: spill(&g, &dir),
            num_nodes: g.num_nodes(),
            own_lo: 0,
            own_hi: g.num_events() as u64,
            threads: 2,
            want_induced: true,
            cfg: cfg.clone(),
            trace: None,
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(job.clone())).unwrap();
        let mut output = Vec::new();
        run_worker(input.as_slice(), &mut output, None).unwrap();
        let (reply, _) = read_reply(output.as_slice(), wire::MAX_FRAME_PAYLOAD).unwrap().unwrap();
        let mut stripped = cfg.clone();
        stripped.static_induced = false;
        match reply {
            WorkerReply::Induced { groups, .. } => {
                // Group counts sum to the non-induced instance total
                // (aggregation loses nothing), each group is internally
                // consistent, and the order is deterministic.
                let total: u64 = groups.iter().map(|g| g.count).sum();
                assert_eq!(total, WindowedEngine.count(&g, &stripped).total());
                for gr in &groups {
                    assert!(gr.nodes.windows(2).all(|w| w[0] < w[1]), "nodes sorted+deduped");
                    assert!(gr.covered.windows(2).all(|w| w[0] < w[1]), "covered sorted+deduped");
                    assert!(gr.count > 0);
                    for &(a, b) in &gr.covered {
                        assert!(gr.nodes.contains(&a) && gr.nodes.contains(&b));
                    }
                }
                assert!(groups.windows(2).all(|w| (w[0].signature, &w[0].nodes, &w[0].covered)
                    < (w[1].signature, &w[1].nodes, &w[1].covered)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Fault injection: with `exit_after = 1` the loop serves exactly
    /// one job and returns, leaving the second job unanswered — the
    /// crash shape the coordinator's rescheduler is tested against.
    #[test]
    fn exit_after_drops_the_stream_mid_run() {
        let g = graph();
        let dir = std::env::temp_dir().join(format!("tnm-worker-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EnumConfig::new(2, 2).with_timing(Timing::only_w(5));
        let job = WorkerJob {
            shard_id: 0,
            shard_path: spill(&g, &dir),
            num_nodes: g.num_nodes(),
            own_lo: 0,
            own_hi: 4,
            threads: 1,
            want_induced: false,
            cfg,
            trace: None,
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(job.clone())).unwrap();
        wire::write_msg(&mut input, &WorkerMsg::Job(job.clone())).unwrap();
        let mut output = Vec::new();
        run_worker(input.as_slice(), &mut output, Some(1)).unwrap();
        let mut cursor = output.as_slice();
        assert!(read_reply(&mut cursor, wire::MAX_FRAME_PAYLOAD).unwrap().is_some());
        assert!(
            read_reply(&mut cursor, wire::MAX_FRAME_PAYLOAD).unwrap().is_none(),
            "the second job must never be answered"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bad jobs fail loudly: missing shard file, out-of-range owned
    /// range, and unknown frame kinds all error instead of replying.
    #[test]
    fn malformed_jobs_error() {
        let g = graph();
        let dir = std::env::temp_dir().join(format!("tnm-worker-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = EnumConfig::new(2, 2).with_timing(Timing::only_w(5));
        let missing = WorkerJob {
            shard_id: 0,
            shard_path: dir.join("nope.events").to_string_lossy().into_owned(),
            num_nodes: g.num_nodes(),
            own_lo: 0,
            own_hi: 1,
            threads: 1,
            want_induced: false,
            cfg: cfg.clone(),
            trace: None,
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(missing.clone())).unwrap();
        assert!(run_worker(input.as_slice(), &mut Vec::new(), None).is_err());

        let oversized = WorkerJob {
            shard_path: spill(&g, &dir),
            own_hi: g.num_events() as u64 + 7,
            ..missing.clone()
        };
        let mut input = Vec::new();
        wire::write_msg(&mut input, &WorkerMsg::Job(oversized.clone())).unwrap();
        assert!(run_worker(input.as_slice(), &mut Vec::new(), None).is_err());

        let mut input = Vec::new();
        wire::write_frame(&mut input, 99, &[]).unwrap();
        assert!(matches!(
            run_worker(input.as_slice(), &mut Vec::new(), None),
            Err(WireError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
