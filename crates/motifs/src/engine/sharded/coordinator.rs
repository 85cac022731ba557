//! The coordinator of the worker-process transport: shard files, the
//! work queue, crash rescheduling and the per-group static-inducedness
//! recheck (see the `engine::sharded` module docs).

use super::protocol::{self, WorkerJob, WorkerMsg, WorkerReply};
use super::ShardedEngine;
use crate::count::MotifCounts;
use crate::engine::config::EnumConfig;
use crate::induced::induced_cover_ok;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tnm_graph::shard::ShardPlan;
use tnm_graph::wire::{self, WireError};
use tnm_graph::TemporalGraph;
use tnm_graph::{Edge, NodeId};

/// One temporary directory holding a run's shard files, removed when
/// the guard drops — after a normal run, and on the unwind of a run
/// that panics because every worker died.
struct ShardFiles {
    dir: PathBuf,
}

impl ShardFiles {
    /// Writes every shard's event slice as `shard_<id>.events` under a
    /// fresh directory in the system temp dir.
    fn write(graph: &TemporalGraph, plan: &ShardPlan) -> tnm_graph::Result<ShardFiles> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tnm-shards-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        // Guard first: a write failing partway still removes the dir.
        let files = ShardFiles { dir };
        for spec in &plan.shards {
            let file = std::fs::File::create(files.path(spec.id))?;
            tnm_graph::io::write_events_raw(&graph.events()[spec.range.clone()], file)?;
        }
        Ok(files)
    }

    fn path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("shard_{id}.events"))
    }
}

impl Drop for ShardFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Counts `plan`'s shards (more than one) on `engine.workers` worker
/// processes spawned from `bin`, each walking with `engine.threads`
/// threads. Returns the merged counts and the number of workers that
/// spawned. Panics when every worker died with shards outstanding.
pub(super) fn count_on_workers(
    engine: &ShardedEngine,
    bin: &Path,
    graph: &TemporalGraph,
    cfg: &EnumConfig,
    plan: &ShardPlan,
) -> (MotifCounts, usize) {
    let shards = plan.len();
    // The files are the workers' inputs; the guard lives until the end
    // of the run. The span names the directory so a trace shows where
    // the run's files went.
    let files = {
        let span = tnm_obs::span!("distributed.spill", shards = shards);
        let files =
            ShardFiles::write(graph, plan).expect("sharded engine: writing shard files failed");
        let _span = span.arg("dir", files.dir.display());
        files
    };
    // The caller's request trace (if any) is installed on every
    // dispatch thread and rides along in every job frame; workers
    // collect their spans under it and ship them back for stitching.
    let trace = tnm_obs::current_trace();
    let jobs: VecDeque<QueuedJob> = plan
        .shards
        .iter()
        .map(|spec| WorkerJob {
            shard_id: spec.id as u32,
            shard_path: files.path(spec.id).to_string_lossy().into_owned(),
            num_nodes: graph.num_nodes(),
            own_lo: spec.own_local().start as u64,
            own_hi: spec.own_local().end as u64,
            threads: engine.threads as u32,
            want_induced: cfg.static_induced,
            cfg: cfg.clone(),
            trace,
        })
        .map(|job| QueuedJob { job, attempts: 0, last_error: None })
        .collect();
    let n_workers = engine.workers.min(shards).max(1);

    let queue = Mutex::new(jobs);
    let merged = Mutex::new(MotifCounts::new());
    let pending = AtomicUsize::new(shards);
    let spawned = AtomicUsize::new(0);
    // Fault injection is deterministic: the faulted worker is handed
    // its first `jobs + 1` jobs — the last is the one it vanishes on —
    // before the queue opens to the others, so no other worker can
    // drain the queue first and leave the fault unfired.
    let fault_after = engine.fault_after.filter(|&(w, _)| w < n_workers);
    let reserved = AtomicUsize::new(fault_after.map_or(0, |(_, jobs)| jobs + 1));
    std::thread::scope(|scope| {
        for w in 0..n_workers {
            let queue = &queue;
            let merged = &merged;
            let pending = &pending;
            let spawned = &spawned;
            let reserved = &reserved;
            let fault = fault_after.filter(|&(idx, _)| idx == w);
            scope.spawn(move || {
                tnm_obs::set_trace(trace);
                // However the faulted worker's thread ends, the queue
                // opens to the others.
                let _gate = fault.map(|_| OpenGate(reserved));
                let mut child = {
                    let _span = tnm_obs::span!("distributed.spawn", worker = w);
                    match spawn_worker(bin, fault.map(|(_, jobs)| jobs)) {
                        Ok(c) => c,
                        Err(_) => {
                            tnm_obs::counter_add("distributed.workers_lost", 1);
                            return;
                        }
                    }
                };
                spawned.fetch_add(1, Ordering::Relaxed);
                let mut stdin = child.stdin.take().expect("piped stdin");
                let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
                loop {
                    let open = fault.is_some() || reserved.load(Ordering::Acquire) == 0;
                    let queued = if open {
                        queue.lock().expect("job queue poisoned").pop_front()
                    } else {
                        None
                    };
                    if fault.is_some() {
                        // Only this thread writes the reservation: each
                        // job it takes uses up one slot, and an empty
                        // queue opens it at once.
                        let left = match queued {
                            Some(_) => reserved.load(Ordering::Acquire).saturating_sub(1),
                            None => 0,
                        };
                        reserved.store(left, Ordering::Release);
                    }
                    let Some(mut queued) = queued else {
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Another worker is mid-shard; if it dies,
                        // its job comes back to the queue. Stay
                        // alive to pick it up.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    };
                    match dispatch(&mut stdin, &mut stdout, &queued.job) {
                        Ok((reply, metrics)) => {
                            let shard_id = reply.shard_id();
                            if tnm_obs::enabled() {
                                // Fold the worker's per-job metrics
                                // into the coordinator's registry
                                // and re-emit its wall time as a
                                // synthetic walk span, so one trace
                                // shows the whole run.
                                tnm_obs::global().apply(&metrics.obs);
                                tnm_obs::histogram_record_ns(
                                    "distributed.shard_wall_ns",
                                    metrics.wall_ns,
                                );
                            }
                            if tnm_obs::enabled() || trace.is_some() {
                                tnm_obs::record_span(
                                    "distributed.walk",
                                    metrics.wall_ns,
                                    &[("shard", shard_id.to_string())],
                                );
                            }
                            if let Some(ctx) = trace {
                                // Stitch the worker's shipped spans
                                // into this process's trace: re-mint
                                // ids, attach their roots under the
                                // request's parent span, and shift
                                // their zero-based clocks to "the
                                // walk started wall_ns ago".
                                tnm_obs::inject_spans(
                                    metrics.spans,
                                    ctx.parent_span,
                                    tnm_obs::now_ns().saturating_sub(metrics.wall_ns),
                                );
                            }
                            let _merge = tnm_obs::span!("distributed.merge", shard = shard_id);
                            apply_reply(graph, reply, merged);
                            pending.fetch_sub(1, Ordering::Release);
                        }
                        Err(e) => {
                            // Crash detected: hand the shard to the
                            // survivors — with its failure history,
                            // so a *poisoned* shard that keeps
                            // killing workers is diagnosable from
                            // the final error — and retire this
                            // worker.
                            queued.attempts += 1;
                            queued.last_error = Some(e.to_string());
                            queue.lock().expect("job queue poisoned").push_back(queued);
                            tnm_obs::counter_add("distributed.workers_lost", 1);
                            tnm_obs::counter_add("distributed.jobs_rescheduled", 1);
                            let _ = child.kill();
                            let _ = child.wait();
                            return;
                        }
                    }
                }
                let _ = wire::write_msg(&mut stdin, &WorkerMsg::Shutdown);
                let _ = stdin.flush();
                drop(stdin);
                let _ = child.wait();
            });
        }
    });
    let outstanding = pending.load(Ordering::Acquire);
    if outstanding > 0 {
        // Name the shards and their failure history: "one poisoned
        // shard job killed each worker in turn" reads very
        // differently from "the cluster went down", and the
        // operator needs to know which.
        let leftovers: Vec<String> = queue
            .lock()
            .expect("job queue poisoned")
            .iter()
            .map(|q| match (&q.last_error, q.attempts) {
                (Some(err), n) => {
                    format!("shard {} ({n} failed attempts; last: {err})", q.job.shard_id)
                }
                (None, _) => format!("shard {} (never attempted)", q.job.shard_id),
            })
            .collect();
        panic!(
            "sharded engine: every worker died with {outstanding} shard(s) uncounted: {}",
            leftovers.join("; ")
        );
    }
    let counts = merged.into_inner().expect("merged counts poisoned");
    (counts, spawned.load(Ordering::Relaxed))
}

/// Opens the fault-injection reservation (sets it to zero) when
/// dropped.
struct OpenGate<'a>(&'a AtomicUsize);

impl Drop for OpenGate<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

/// One work-queue entry: the job plus its failure history, so the
/// run's final diagnostics can tell a poisoned shard (same job killing
/// worker after worker) from a cluster that went down.
struct QueuedJob {
    job: WorkerJob,
    attempts: usize,
    last_error: Option<String>,
}

fn spawn_worker(bin: &Path, exit_after: Option<usize>) -> std::io::Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("worker").stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    if let Some(jobs) = exit_after {
        cmd.env("TNM_WORKER_EXIT_AFTER", jobs.to_string());
    }
    if tnm_obs::enabled() {
        // Workers inherit the coordinator's observability switch and
        // ship their per-job metrics back in the reply frames.
        cmd.env("TNM_OBS", "1");
    }
    cmd.spawn()
}

/// Sends one job and reads its reply. Any failure — broken pipe,
/// truncated frame, undecodable or mismatched reply — means the worker
/// is unusable, and the caller requeues the job.
fn dispatch(
    stdin: &mut std::process::ChildStdin,
    stdout: &mut BufReader<std::process::ChildStdout>,
    job: &WorkerJob,
) -> Result<(WorkerReply, protocol::ReplyMetrics), WireError> {
    wire::write_msg(&mut *stdin, &WorkerMsg::Job(job.clone()))?;
    stdin.flush()?;
    match protocol::read_reply(&mut *stdout, wire::MAX_FRAME_PAYLOAD)? {
        Some((reply, metrics)) => {
            if reply.shard_id() != job.shard_id {
                return Err(WireError::Malformed(format!(
                    "reply for shard {} to a job for shard {}",
                    reply.shard_id(),
                    job.shard_id
                )));
            }
            // The reply kind must match what the job asked for: a
            // counts reply to an induced job would merge unfiltered
            // counts (silent overcount), the reverse would filter a
            // non-induced job by inducedness (silent undercount).
            // Either means the peer does
            // not speak this job's contract — a worker failure, not a
            // panic.
            let induced_reply = matches!(reply, WorkerReply::Induced { .. });
            if induced_reply != job.want_induced {
                return Err(WireError::Malformed(format!(
                    "reply kind mismatch for shard {}: induced={induced_reply}, job wanted \
                     induced={}",
                    job.shard_id, job.want_induced
                )));
            }
            Ok((reply, metrics))
        }
        None => Err(WireError::Truncated { needed: 1, available: 0 }),
    }
}

/// Folds one verified reply into the merged totals. Count replies
/// merge directly; induced groups pass the coordinator's
/// static-inducedness verdict — one [`induced_cover_ok`] evaluation per
/// group against the parent graph's edge index — before tallying.
fn apply_reply(graph: &TemporalGraph, reply: WorkerReply, merged: &Mutex<MotifCounts>) {
    match reply {
        WorkerReply::Counts { counts, .. } => {
            merged.lock().expect("merged counts poisoned").merge(&counts);
        }
        WorkerReply::Induced { groups, .. } => {
            let mut counts = MotifCounts::new();
            let mut nodes: Vec<NodeId> = Vec::new();
            let mut covered: Vec<Edge> = Vec::new();
            for g in groups {
                nodes.clear();
                nodes.extend(g.nodes.iter().map(|&n| NodeId(n)));
                covered.clear();
                covered.extend(g.covered.iter().map(|&(a, b)| Edge::new(a, b)));
                if induced_cover_ok(&nodes, &covered, |edge| graph.has_edge(edge)) {
                    counts.add(g.signature, g.count);
                }
            }
            merged.lock().expect("merged counts poisoned").merge(&counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::constraints::Timing;
    use crate::engine::{CountEngine, EnumConfig, ShardedEngine, WindowedEngine};
    use tnm_graph::{TemporalGraph, TemporalGraphBuilder};

    fn graph(events: usize) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..events {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 11) as u32;
            let v = (u + 1 + ((x >> 13) % 9) as u32) % 11;
            b.push(tnm_graph::Event::new(u, v, (i / 2) as i64));
        }
        b.build().unwrap()
    }

    #[test]
    fn degenerate_plans_stay_in_process() {
        let g = graph(120);
        // Unbounded timing: one shard, no processes.
        let unbounded = EnumConfig::new(3, 3);
        let (counts, stats) =
            ShardedEngine::new(16).with_workers(4).count_with_stats(&g, &unbounded);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.workers_spawned, 0);
        assert_eq!(counts, WindowedEngine.count(&g, &unbounded));
        // Shard target at the graph size: same degeneration.
        let bounded = EnumConfig::new(3, 3).with_timing(Timing::only_w(10));
        let (counts, stats) = ShardedEngine::new(crate::engine::DEFAULT_SHARD_EVENTS)
            .with_workers(2)
            .count_with_stats(&g, &bounded);
        assert_eq!(stats.shards, 1);
        assert_eq!(counts, WindowedEngine.count(&g, &bounded));
    }

    #[test]
    fn bogus_worker_binary_panics_rather_than_undercounts() {
        let g = graph(200);
        let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(8));
        let engine = ShardedEngine::new(25)
            .with_workers(2)
            .with_worker_bin("/nonexistent/definitely-not-tnm");
        // An explicit-but-bogus binary is a spawn failure per worker,
        // not a quiet fallback: every worker is lost, and a run with
        // shards outstanding must panic, never return partial counts.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.count(&g, &cfg)));
        assert!(outcome.is_err(), "all workers failing to spawn cannot silently undercount");
    }

    #[test]
    fn engine_name_and_caps() {
        let e = ShardedEngine::new(100).with_workers(4);
        assert_eq!(e.name(), "sharded");
        assert_eq!(e.workers, 4);
        assert_eq!(e.shard_events, 100);
        assert_eq!(ShardedEngine::new(100).with_workers(0).workers, 0);
    }
}
