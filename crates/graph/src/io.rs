//! Edge-list I/O in the SNAP text format used by the paper's datasets.
//!
//! Each line is `src dst time [duration]`, whitespace-separated; lines
//! beginning with `#` or `%` are comments. Node ids may be arbitrary u64
//! values; they are compacted to dense ids on load (first-appearance
//! order), matching how SNAP datasets are normally preprocessed.

use crate::builder::{compact_node_ids, TemporalGraphBuilder};
use crate::error::{GraphError, Result};
use crate::graph::TemporalGraph;
use crate::ids::Time;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses a SNAP-style edge list from any reader.
///
/// Self-loops are skipped (real SNAP dumps contain a few), node ids are
/// compacted, events are sorted by time.
pub fn read_edge_list<R: Read>(reader: R) -> Result<TemporalGraph> {
    let buf = BufReader::new(reader);
    let mut raw: Vec<(u64, u64, Time)> = Vec::new();
    let mut durations: Vec<u32> = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src = parse_field::<u64>(it.next(), lineno + 1, "source node")?;
        let dst = parse_field::<u64>(it.next(), lineno + 1, "target node")?;
        let time = parse_time(it.next(), lineno + 1)?;
        let duration = match it.next() {
            Some(tok) => tok.parse::<u32>().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("invalid duration `{tok}`"),
            })?,
            None => 0,
        };
        raw.push((src, dst, time));
        durations.push(duration);
    }
    if raw.is_empty() {
        return Err(GraphError::Empty);
    }
    let (mut events, _names) = compact_node_ids(&raw);
    for (ev, d) in events.iter_mut().zip(durations) {
        ev.duration = d;
    }
    TemporalGraphBuilder::from_events(events).skip_self_loops(true).build()
}

/// Loads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<TemporalGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Parses an edge list from an in-memory string (handy in tests/examples).
pub fn read_edge_list_str(s: &str) -> Result<TemporalGraph> {
    read_edge_list(s.as_bytes())
}

/// Writes the graph in the same text format (durations included only when
/// non-zero). The output round-trips through [`read_edge_list`].
pub fn write_edge_list<W: Write>(graph: &TemporalGraph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# temporal edge list: src dst time [duration]")?;
    for e in graph.events() {
        if e.duration == 0 {
            writeln!(out, "{} {} {}", e.src, e.dst, e.time)?;
        } else {
            writeln!(out, "{} {} {} {}", e.src, e.dst, e.time, e.duration)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Writes the graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &TemporalGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Writes an event slice as a self-describing **binary block**
/// ([`wire::encode_events`](crate::wire::encode_events)): a magic +
/// version + record-count header followed by fixed-width records, node
/// ids taken **literally**.
///
/// Unlike the [`write_edge_list`] / [`read_edge_list`] pair — which
/// compacts node ids on load and re-sorts events — the
/// [`read_events_raw`] round-trip preserves node ids, event order, and
/// durations exactly. That exactness is the contract the sharded
/// engine's worker processes rely on when a shard file crosses a
/// process boundary: a worker's shard-local event indices and node ids
/// mean exactly what they meant in the parent's slice.
pub fn write_events_raw<W: Write>(events: &[crate::event::Event], writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    out.write_all(&crate::wire::encode_events(events))?;
    out.flush()?;
    Ok(())
}

/// Reads a block written by [`write_events_raw`]: node ids are literal
/// `u32` values (no compaction), records are kept in file order (no
/// sort). An empty block is not an error — emptiness is the caller's
/// policy here.
///
/// The block's record-count header is **validated against the bytes
/// actually present before any allocation**
/// ([`wire::decode_events`](crate::wire::decode_events)): a truncated
/// or corrupt shard file — now also arriving from other processes —
/// fails with [`GraphError::Decode`] instead of attempting an
/// OOM-sized `Vec` or returning silently short data.
pub fn read_events_raw<R: Read>(reader: R) -> Result<Vec<crate::event::Event>> {
    let mut buf = Vec::new();
    BufReader::new(reader).read_to_end(&mut buf)?;
    Ok(crate::wire::decode_events(&buf)?)
}

fn parse_field<T: std::str::FromStr>(tok: Option<&str>, line: usize, what: &str) -> Result<T> {
    match tok {
        None => Err(GraphError::Parse { line, message: format!("missing {what}") }),
        Some(tok) => tok
            .parse::<T>()
            .map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{tok}`") }),
    }
}

/// Timestamps may appear as integers or floats (Copenhagen dumps use
/// floats); floats are truncated to whole seconds.
fn parse_time(tok: Option<&str>, line: usize) -> Result<Time> {
    let tok = tok.ok_or_else(|| GraphError::Parse { line, message: "missing timestamp".into() })?;
    if let Ok(t) = tok.parse::<i64>() {
        return Ok(t);
    }
    match tok.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(f.trunc() as Time),
        _ => Err(GraphError::Parse { line, message: format!("invalid timestamp `{tok}`") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn parse_basic_edge_list() {
        let g = read_edge_list_str(
            "# comment\n\
             % another comment\n\
             100 200 10\n\
             200 100 15\n\
             \n\
             300 100 12\n",
        )
        .unwrap();
        assert_eq!(g.num_events(), 3);
        assert_eq!(g.num_nodes(), 3);
        // Sorted by time: 10, 12, 15.
        let times: Vec<_> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 12, 15]);
    }

    #[test]
    fn parse_durations() {
        let g = read_edge_list_str("1 2 10 30\n2 1 50\n").unwrap();
        assert_eq!(g.events()[0].duration, 30);
        assert_eq!(g.events()[1].duration, 0);
    }

    #[test]
    fn parse_float_timestamps() {
        let g = read_edge_list_str("1 2 10.75\n2 3 11.2\n").unwrap();
        assert_eq!(g.events()[0].time, 10);
        assert_eq!(g.events()[1].time, 11);
    }

    #[test]
    fn self_loops_skipped() {
        let g = read_edge_list_str("1 1 5\n1 2 6\n").unwrap();
        assert_eq!(g.num_events(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_edge_list_str("1 2 10\nxyz 2 11\n").unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("source node"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list_str("1 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(read_edge_list_str("# only comments\n"), Err(GraphError::Empty)));
    }

    #[test]
    fn roundtrip() {
        let g = read_edge_list_str("5 6 100 7\n6 5 120\n9 5 130\n").unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_events(), g2.num_events());
        assert_eq!(g.num_nodes(), g2.num_nodes());
        for (a, b) in g.events().iter().zip(g2.events()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.duration, b.duration);
        }
    }

    #[test]
    fn raw_roundtrip_preserves_ids_and_order() {
        use crate::event::Event;
        // Ties on time with descending node ids: a compacting reader
        // would relabel and a sorting reader would permute these.
        let events = vec![
            Event::new(9u32, 2u32, 5),
            Event::new(3u32, 9u32, 5),
            Event::with_duration(2u32, 3u32, 7, 11),
        ];
        let mut buf = Vec::new();
        write_events_raw(&events, &mut buf).unwrap();
        let back = read_events_raw(buf.as_slice()).unwrap();
        assert_eq!(back, events);
        let mut empty = Vec::new();
        write_events_raw(&[], &mut empty).unwrap();
        assert!(read_events_raw(empty.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn raw_rejects_truncated_and_corrupt_blocks() {
        use crate::event::Event;
        let events = vec![Event::new(1u32, 2u32, 5), Event::new(2u32, 1u32, 6)];
        let mut buf = Vec::new();
        write_events_raw(&events, &mut buf).unwrap();
        // Cut mid-record: the count header claims more than is present,
        // and the reader must say so instead of under-reading.
        assert!(matches!(
            read_events_raw(&buf[..buf.len() - 3]),
            Err(GraphError::Decode(crate::wire::WireError::Truncated { .. }))
        ));
        // An inflated count header fails validation before allocation.
        let mut bomb = buf.clone();
        bomb[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_events_raw(bomb.as_slice()), Err(GraphError::Decode(_))));
        // Trailing bytes after the declared records are garbage.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(matches!(
            read_events_raw(padded.as_slice()),
            Err(GraphError::Decode(crate::wire::WireError::TrailingBytes { .. }))
        ));
        // The old text format is no longer a valid block.
        assert!(matches!(read_events_raw("1 2 5\n".as_bytes()), Err(GraphError::Decode(_))));
    }

    #[test]
    fn node_compaction_on_load() {
        let g = read_edge_list_str("1000000 2000000 1\n2000000 1000000 2\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.events()[0].src, NodeId(0));
    }
}
