//! Edge-list I/O in the SNAP text format used by the paper's datasets.
//!
//! Each line is `src dst time [duration]`, whitespace-separated; lines
//! beginning with `#` or `%` are comments. Node ids may be arbitrary u64
//! values; they are compacted to dense ids on load (first-appearance
//! order), matching how SNAP datasets are normally preprocessed.
//!
//! ## Accepted tokens
//!
//! A line is trimmed of Unicode whitespace and split on it. Blank lines
//! and lines starting with `#` or `%` are skipped. Node ids parse as
//! `u64` and durations as `u32` (Rust's `FromStr`: decimal, an optional
//! leading `+`). A timestamp parses as `i64`, or else as a finite `f64`
//! truncated to whole seconds (Copenhagen dumps use floats; `1e3`,
//! `-5.5` and out-of-range integers, which saturate, are accepted too).
//! Columns after the fourth are ignored. The input must be UTF-8: the
//! lines before the first invalid one are parsed, and that line fails
//! with an `InvalidData` I/O error, as a line reader would report it.
//! Errors carry 1-based line numbers.
//!
//! ## Fast path and fallback
//!
//! [`parse_edge_list`] validates UTF-8 once and walks the bytes line by
//! line. A *plain* line — three or four runs of 1–19 ASCII digits
//! separated by ASCII whitespace, with a time that fits `i64` and a
//! duration that fits `u32` — is parsed by a digit loop, with no `String`
//! and no `str::parse`. Every other line (blank, comment, signs, floats,
//! extra columns, non-ASCII whitespace, longer tokens, malformed input)
//! goes to the general grammar above for that line only, so accepted
//! inputs, errors and line numbers do not depend on which path ran.
//!
//! ## Node-id compaction
//!
//! Ids are compacted inline as lines are read, with no staged copy of the
//! parsed lines. An id below `2 × lines` (the most ids a file of that
//! many lines can name) looks up a flat `u32` table; a larger id goes
//! through std's keyed `HashMap`, so adversarial ids cost what hashing
//! every id would. Self-loops are dropped after compaction, so a node
//! seen only in self-loops still takes an id.
//!
//! ## Cost
//!
//! On the 90k-event, 1.6 MB SMS-A ×3 edge list (a 2-vCPU Xeon host),
//! [`read_edge_list_file`] takes 11–12 ms: about 5 ms to parse and
//! compact, under 1 ms in the builder (self-loop filter, tie-run sort),
//! and 4.5–5 ms in [`TemporalGraph::from_sorted_events`]. The line
//! reader this replaced took 29–34 ms on the same host, most of it in
//! `lines()` and `str::parse` (about 16 ms), a SipHash lookup per
//! endpoint (5.5 ms) and a full re-sort (5.5 ms). The `ingest` bench
//! group times the same text with dense and with sparse ids.

use crate::builder::{NodeCompactor, TemporalGraphBuilder};
use crate::error::{GraphError, Result};
use crate::event::Event;
use crate::graph::TemporalGraph;
use crate::ids::Time;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

#[cfg(test)]
mod differential;

/// Parses a SNAP-style edge list from any reader.
///
/// Self-loops are skipped (real SNAP dumps contain a few), node ids are
/// compacted, events are sorted by time. The reader is read to its end
/// before parsing starts, so a read error wins over any parse error.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<TemporalGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_edge_list(&bytes)
}

/// Loads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<TemporalGraph> {
    parse_edge_list(&std::fs::read(path)?)
}

/// Parses an edge list from an in-memory string (handy in tests/examples).
pub fn read_edge_list_str(s: &str) -> Result<TemporalGraph> {
    parse_edge_list(s.as_bytes())
}

/// Parses an edge list held in memory; every reader above ends here.
/// See the [module docs](self) for the grammar and the fast path. One
/// `ingest.parse{bytes, events}` span covers the whole call, the graph
/// build included.
pub fn parse_edge_list(bytes: &[u8]) -> Result<TemporalGraph> {
    let span = tnm_obs::span!("ingest.parse", bytes = bytes.len());
    // A line reader fails on the first line that is not UTF-8, after
    // parsing the lines before it: parse those lines, then fail the same way.
    let (text, invalid_utf8) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, false),
        Err(e) => {
            let valid = std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default();
            (&valid[..valid.rfind('\n').map_or(0, |i| i + 1)], true)
        }
    };
    let bytes = text.as_bytes();
    let lines = count_newlines(bytes) + 1;
    let mut ids = NodeCompactor::new(2 * lines);
    // The shortest event line is `1 2 3\n`, so a file of blank or
    // comment lines reserves no more than its own size.
    let mut events = Vec::with_capacity(lines.min((bytes.len() + 1) / 6));
    let (mut start, mut lineno) = (0, 0);
    while start < bytes.len() {
        lineno += 1;
        let (raw, end) = match plain_line(bytes, start) {
            Some((raw, end)) => (Some(raw), end),
            None => {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| start + i);
                (parse_line(&text[start..end], lineno)?, end)
            }
        };
        start = end + 1;
        let Some(raw) = raw else { continue };
        let src = ids.id(raw.src);
        let dst = ids.id(raw.dst);
        events.push(Event::with_duration(src, dst, raw.time, raw.duration));
    }
    if invalid_utf8 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
        .into());
    }
    if events.is_empty() {
        return Err(GraphError::Empty);
    }
    let _span = span.arg("events", events.len());
    TemporalGraphBuilder::from_events(events).skip_self_loops(true).build()
}

/// One parsed line, node ids not yet compacted.
struct RawEvent {
    src: u64,
    dst: u64,
    time: Time,
    duration: u32,
}

/// The longest digit run the fast path takes: every 19-digit number
/// fits in a `u64`.
const MAX_DIGITS: usize = 19;

/// The fast path, for the line starting at `bytes[start]`: three or
/// four runs of 1–[`MAX_DIGITS`] ASCII digits separated by ASCII
/// whitespace, whose time fits `i64` and duration `u32`. Returns the
/// event and the index of the line's `\n` (or `bytes.len()`), or `None`
/// for every other line, blank and comment lines included;
/// [`parse_line`] then decides.
#[inline]
fn plain_line(bytes: &[u8], start: usize) -> Option<(RawEvent, usize)> {
    // The ASCII characters `char::is_whitespace` accepts, minus `\n`.
    let is_space = |b: u8| matches!(b, b' ' | b'\t' | b'\r' | 0x0B | 0x0C);
    let mut fields = [0u64; 4];
    let mut n = 0;
    let mut i = start;
    loop {
        while i < bytes.len() && is_space(bytes[i]) {
            i += 1;
        }
        if i == bytes.len() || bytes[i] == b'\n' {
            break;
        }
        if n == fields.len() {
            return None;
        }
        let token = i;
        let mut value = 0u64;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            if i - token == MAX_DIGITS {
                return None;
            }
            value = value * 10 + u64::from(bytes[i] - b'0');
            i += 1;
        }
        if i == token || (i < bytes.len() && !is_space(bytes[i]) && bytes[i] != b'\n') {
            return None;
        }
        fields[n] = value;
        n += 1;
    }
    if n < 3 {
        return None;
    }
    let raw = RawEvent {
        src: fields[0],
        dst: fields[1],
        time: Time::try_from(fields[2]).ok()?,
        duration: u32::try_from(fields[3]).ok()?,
    };
    Some((raw, i))
}

/// The number of `\n` bytes, counted a 64-byte block at a time so the
/// compiler can vectorise the loop.
fn count_newlines(bytes: &[u8]) -> usize {
    let newline = |b: &u8| u8::from(*b == b'\n');
    let blocks = bytes.chunks_exact(64);
    let tail = blocks.remainder().iter().map(newline).map(usize::from).sum::<usize>();
    blocks.map(|block| usize::from(block.iter().map(newline).sum::<u8>())).sum::<usize>() + tail
}

/// The general grammar of the [module docs](self) for one line: `None`
/// for a blank or comment line.
fn parse_line(line: &str, lineno: usize) -> Result<Option<RawEvent>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let src = parse_field::<u64>(it.next(), lineno, "source node")?;
    let dst = parse_field::<u64>(it.next(), lineno, "target node")?;
    let time = parse_time(it.next(), lineno)?;
    let duration = match it.next() {
        Some(tok) => tok.parse::<u32>().map_err(|_| GraphError::Parse {
            line: lineno,
            message: format!("invalid duration `{tok}`"),
        })?,
        None => 0,
    };
    Ok(Some(RawEvent { src, dst, time, duration }))
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
