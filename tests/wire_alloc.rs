//! Forged counts must not make a decoder reserve memory.
//!
//! A wire count is a claim about the bytes that follow, so a decoder
//! may only allocate for elements it has actually read. This binary
//! installs a counting global allocator (the library crates forbid
//! `unsafe`, so it lives in its own test target) and sends tiny frames
//! whose element counts claim `u32::MAX` entries. Each must be refused
//! without any single allocation of 1 MiB or more:
//!
//! * a 15-byte Batch query request to an in-process `MotifServer`;
//! * a 14-byte Instances query reply and a 20-byte Stats reply to a
//!   `ServeClient`, from a fake server;
//! * a 9-byte induced reply to the sharded engine's coordinator, from a
//!   fake worker process.
//!
//! The edge-list parser sizes its tables from the input's line count,
//! never from the values on a line. A file of 10⁶ blank and comment
//! lines, and a single line of maximal ids, time and duration, must
//! each parse without any single allocation above 10 × the input bytes
//! + 64 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use temporal_motifs::prelude::*;
use tnm_graph::wire::{read_frame, write_frame, MAX_FRAME_PAYLOAD};
use tnm_motifs::engine::{ClientError, CountEngine, MotifServer, ServeClient, ShardedEngine};

/// Records the largest single allocation (or reallocation) request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording the size is one atomic
// operation, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One measured case at a time: the counter is process-wide.
static CASE: Mutex<()> = Mutex::new(());

const LIMIT: usize = 1 << 20;

/// Runs `f` and returns its result with the largest allocation made
/// (by any thread) while it ran.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::SeqCst);
    let out = f();
    (out, LARGEST.load(Ordering::SeqCst))
}

/// Serve request kind 18 (Query): graph `g`, Batch (tag 4) on the
/// backtrack engine (tag 0), one thread, and a config count of
/// `u32::MAX` with no configs behind it.
fn forged_batch_request() -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&1u32.to_le_bytes());
    p.push(b'g');
    p.extend_from_slice(&[4, 0]);
    p.extend_from_slice(&1u32.to_le_bytes());
    p.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(p.len(), 15);
    p
}

#[test]
fn server_refuses_a_forged_batch_count_without_reserving() {
    let _case = CASE.lock().unwrap_or_else(|e| e.into_inner());
    let server = MotifServer::bind("127.0.0.1:0").unwrap().spawn();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let ((kind, reason), largest) = measured(|| {
        write_frame(&mut s, 18, &forged_batch_request()).unwrap();
        s.flush().unwrap();
        let (kind, payload) = read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().expect("a reply");
        (kind, String::from_utf8_lossy(&payload).into_owned())
    });
    assert_eq!(kind, 63, "an error response: {reason}");
    assert!(reason.contains("truncated"), "{reason}");
    assert!(largest < LIMIT, "decoding the forged request allocated {largest} bytes at once");
    drop(s);
    ServeClient::connect(server.addr()).unwrap().shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn client_refuses_forged_reply_counts_without_reserving() {
    let _case = CASE.lock().unwrap_or_else(|e| e.into_inner());
    // Response kind 34 (Query) holding Instances (tag 3): total,
    // truncated flag, and an instance count of u32::MAX.
    let mut instances = vec![3];
    instances.extend_from_slice(&9u64.to_le_bytes());
    instances.push(0);
    instances.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(instances.len(), 14);
    // Response kind 36 (Stats): two counters, then a graph count of
    // u32::MAX.
    let mut stats = Vec::new();
    stats.extend_from_slice(&1u64.to_le_bytes());
    stats.extend_from_slice(&2u64.to_le_bytes());
    stats.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(stats.len(), 20);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        for (kind, payload) in [(34, instances), (36, stats)] {
            read_frame(&mut conn, MAX_FRAME_PAYLOAD).unwrap().expect("a request");
            write_frame(&mut conn, kind, &payload).unwrap();
            conn.flush().unwrap();
        }
    });
    let mut client = ServeClient::connect(addr).unwrap();
    let q = Query::Count { cfg: EnumConfig::new(3, 3), engine: EngineKind::Windowed, threads: 1 };
    let (reply, largest) = measured(|| client.query("g", &q));
    assert!(matches!(reply, Err(ClientError::Wire(_))), "{reply:?}");
    assert!(largest < LIMIT, "decoding the forged query reply allocated {largest} bytes at once");
    let (reply, largest) = measured(|| client.stats());
    assert!(matches!(reply, Err(ClientError::Wire(_))), "{reply:?}");
    assert!(largest < LIMIT, "decoding the forged stats reply allocated {largest} bytes at once");
    fake.join().unwrap();
}

/// A fake `tnm worker` answers its first job with an induced chunk
/// (kind 3: shard 0, `last`, then a group count of `u32::MAX`). The
/// coordinator must treat the undecodable reply as a dead worker — and,
/// with no worker left, refuse to undercount — without reserving room
/// for the claimed groups.
#[cfg(unix)]
#[test]
fn coordinator_refuses_a_forged_induced_count_without_reserving() {
    use std::os::unix::fs::PermissionsExt;
    let _case = CASE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tnm-wire-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut payload = 0u32.to_le_bytes().to_vec();
    payload.push(1);
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(payload.len(), 9);
    let mut frame = Vec::new();
    write_frame(&mut frame, 3, &payload).unwrap();
    let octal: String = frame.iter().map(|b| format!("\\{b:03o}")).collect();
    // Print the forged reply, then hold stdin open until killed.
    let script = dir.join("fake-worker.sh");
    std::fs::write(&script, format!("#!/bin/sh\nprintf '{octal}'\nexec cat > /dev/null\n"))
        .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    let mut b = TemporalGraphBuilder::new();
    for i in 0..60u32 {
        b.push(Event::new(i % 7, (i % 7 + 1 + i % 3) % 8, i as i64));
    }
    let graph = b.build().unwrap();
    let cfg = EnumConfig::new(3, 3).with_timing(Timing::only_w(5));
    let engine = ShardedEngine::new(10).with_workers(1).with_worker_bin(&script);
    let (outcome, largest) = measured(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.count(&graph, &cfg)))
    });
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(outcome.is_err(), "a run whose only worker failed must not return counts");
    assert!(largest < LIMIT, "decoding the forged induced reply allocated {largest} bytes at once");
}

/// The parser's bound: 10 × the input bytes + 64 KiB.
fn parse_limit(input: &[u8]) -> usize {
    10 * input.len() + (64 << 10)
}

#[test]
fn parser_allocates_in_proportion_to_its_input() {
    let _case = CASE.lock().unwrap_or_else(|e| e.into_inner());
    let blank = "\n".repeat(1_000_000);
    let comments = ["# comment\n", "%\n", " \t\n"].concat().repeat(1_000_000 / 3);
    for (what, input) in [("blank lines", &blank), ("comment lines", &comments)] {
        let (result, largest) = measured(|| tnm_graph::io::parse_edge_list(input.as_bytes()));
        assert!(matches!(result, Err(tnm_graph::GraphError::Empty)), "{what}: {result:?}");
        let limit = parse_limit(input.as_bytes());
        assert!(largest <= limit, "{what}: one allocation of {largest} bytes (limit {limit})");
    }
    for line in [
        "18446744073709551615 18446744073709551614 9223372036854775807 4294967295\n",
        "1099511627776 1 -9223372036854775808.5 7",
    ] {
        let (graph, largest) = measured(|| tnm_graph::io::parse_edge_list(line.as_bytes()));
        assert_eq!(graph.expect("a valid line").num_events(), 1);
        let limit = parse_limit(line.as_bytes());
        assert!(largest <= limit, "{line:?}: one allocation of {largest} bytes (limit {limit})");
    }
}
