//! Differential and fuzz tests for the edge-list parser.
//!
//! [`reference`] keeps the line reader that [`parse_edge_list`] replaced,
//! verbatim: a `String` per line through `BufRead::lines`, `str::parse`
//! per token, and a `HashMap` per endpoint. A seeded generator writes
//! mixed inputs (CRLF, tabs, comments, floats, signs, huge ids, 20-digit
//! tokens, non-ASCII whitespace, invalid UTF-8, malformed lines), and a
//! byte-mutation fuzzer perturbs them. On every case:
//!
//! * neither parser panics;
//! * both return the same graph (`events()`, `num_nodes()`) or the same
//!   error (for a parse error, the same line and message);
//! * an accepted input written back with [`write_edge_list`] parses to
//!   the same events, up to the renaming that compaction of the written
//!   order applies.
//!
//! Tier-1 runs a slice of a few thousand cases; the `#[ignore]`d full
//! run (10⁵ cases each) is CI's parser fuzz step:
//! `cargo test --offline --release -p tnm-graph --lib edge_list_fuzz_full -- --ignored`.

use super::*;
use crate::ids::NodeId;

/// The seed's edge-list reader, kept as the oracle.
mod reference {
    use crate::builder::TemporalGraphBuilder;
    use crate::error::{GraphError, Result};
    use crate::event::Event;
    use crate::graph::TemporalGraph;
    use crate::ids::Time;
    use crate::io::{parse_field, parse_time};
    use std::io::{BufRead, BufReader, Read};

    pub(super) fn read_edge_list<R: Read>(reader: R) -> Result<TemporalGraph> {
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

    /// The seed's compaction, so the oracle shares no code with the
    /// compactor under test.
    fn compact_node_ids(raw: &[(u64, u64, Time)]) -> (Vec<Event>, Vec<u64>) {
        let mut map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut names: Vec<u64> = Vec::new();
        let mut dense = |v: u64, map: &mut std::collections::HashMap<u64, u32>| -> u32 {
            *map.entry(v).or_insert_with(|| {
                names.push(v);
                (names.len() - 1) as u32
            })
        };
        let mut events = Vec::with_capacity(raw.len());
        for &(u, v, t) in raw {
            let su = dense(u, &mut map);
            let sv = dense(v, &mut map);
            events.push(Event::new(su, sv, t));
        }
        (events, names)
    }
}

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// A node id: mostly small (dense side of the compactor), sometimes
/// beyond any `2 × lines` table, up to `u64::MAX`.
fn node(rng: &mut Rng) -> String {
    match rng.below(10) {
        0 => (1_000_000 + rng.below(5)).to_string(),
        1 => ((1 + rng.below(3) as u64) << 40).to_string(),
        2 => rng.pick(&["18446744073709551615", "9999999999999999999", "0"]).to_string(),
        _ => rng.below(12).to_string(),
    }
}

/// A timestamp token: non-decreasing integers with ties, and every form
/// the general grammar accepts or rejects.
fn time(rng: &mut Rng, clock: &mut i64) -> String {
    *clock += rng.below(3) as i64;
    match rng.below(14) {
        0 => format!("{clock}.{}", rng.below(100)),
        1 => format!("+{clock}"),
        2 => format!("-{clock}"),
        3 => format!("{clock}e0"),
        4 => rng
            .pick(&["9223372036854775807", "9223372036854775808", "99999999999999999999"])
            .to_string(),
        5 => (*clock - 5).to_string(),
        _ => clock.to_string(),
    }
}

/// A separator between tokens.
fn sep(rng: &mut Rng) -> &'static str {
    match rng.below(12) {
        0 => "\t",
        1 => "  ",
        2 => " \t ",
        3 => "\u{3000}",
        4 => "\u{85}",
        5 => "\x0b",
        _ => " ",
    }
}

/// One line of a generated input, without its terminator. `clean`
/// lines are ones both readers accept.
fn line(rng: &mut Rng, clock: &mut i64, clean: bool) -> String {
    let kind = rng.below(if clean { 12 } else { 20 });
    let mut out = String::new();
    if rng.below(8) == 0 {
        out.push_str(rng.pick(&[" ", "\t", "  ", "\u{3000}"]));
    }
    match kind {
        0 => out.push_str(rng.pick(&["# comment 1 2 3", "% header", "#", "%1 2 3"])),
        1 => out.push_str(rng.pick(&["", " ", "\t", "\r"])),
        2 => {
            let v = node(rng);
            out.push_str(&format!("{v}{}{v}{}{}", sep(rng), sep(rng), time(rng, clock)));
        }
        3 => {
            let (s, d, t) = (node(rng), node(rng), time(rng, clock));
            let extra = rng.pick(&["7", "junk", "1 2 3", "-1"]);
            out.push_str(&format!("{s} {d} {t} {} {extra}", rng.below(100)));
        }
        4..=11 => {
            let (s, d) = (node(rng), node(rng));
            let (a, b) = (sep(rng), sep(rng));
            out.push_str(&format!("{s}{a}{d}{b}{}", time(rng, clock)));
            match rng.below(4) {
                0 => out.push_str(&format!("{}{}", sep(rng), rng.below(1000))),
                1 => out.push_str(&format!(" {}", rng.pick(&["4294967295", "0", "+3"]))),
                _ => {}
            }
        }
        12 => out.push_str(rng.pick(&["1 2", "1", "x 2 3", "1 y 3", "1 2 z"])),
        13 => out.push_str(rng.pick(&["1 2 3 -4", "1 2 3 4294967296", "1 2 3 1.5"])),
        14 => out.push_str(rng.pick(&["1 2 NaN", "1 2 inf", "1 2 1e400", "-1 2 3"])),
        15 => out.push_str(rng.pick(&["18446744073709551616 1 2", "1 2 3\u{a0}4", "1\u{2028}2 3"])),
        16 => out.push_str(rng.pick(&["1,2,3", "1 2 3\0", "０ 1 2", "1 2 ３"])),
        _ => {
            let (s, d) = (node(rng), node(rng));
            out.push_str(&format!("{s} {d} {}", time(rng, clock)));
        }
    }
    out
}

/// A generated input: 0–40 lines with mixed terminators, mostly clean,
/// sometimes with a malformed line or an invalid UTF-8 byte.
fn generate(rng: &mut Rng) -> Vec<u8> {
    let clean = rng.below(3) > 0;
    let mut clock = rng.below(50) as i64;
    let mut out = Vec::new();
    for i in 0..rng.below(41) {
        if i > 0 {
            out.extend_from_slice(if rng.below(6) == 0 { b"\r\n" } else { b"\n" });
        }
        out.extend_from_slice(line(rng, &mut clock, clean).as_bytes());
    }
    if rng.below(3) > 0 {
        out.push(b'\n');
    }
    if !clean && rng.below(4) == 0 {
        let at = rng.below(out.len() + 1);
        out.insert(at, [0xFF, 0xC3, 0x80][rng.below(3)]);
    }
    out
}

/// One byte-level mutation round of a generated input: bit flips,
/// truncation, inserted or overwritten bytes (often the grammar's own
/// delimiters), a duplicated span, or a splice with another input.
fn mutate(rng: &mut Rng, seeds: &[Vec<u8>]) -> Vec<u8> {
    const BYTES: &[u8] = b"\n\r\t 0123456789#%+-.eE\x0b\xff\xe3\x80\xc2\x85";
    let mut bytes = seeds[rng.below(seeds.len())].clone();
    for _ in 0..1 + rng.below(3) {
        let len = bytes.len();
        match rng.below(6) {
            0 if len > 0 => {
                let i = rng.below(len);
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(len + 1)),
            2 => bytes.insert(rng.below(len + 1), BYTES[rng.below(BYTES.len())]),
            3 if len > 0 => {
                let i = rng.below(len);
                bytes[i] = if rng.below(2) == 0 {
                    BYTES[rng.below(BYTES.len())]
                } else {
                    rng.next() as u8
                };
            }
            4 if len > 0 => {
                let a = rng.below(len);
                let b = (a + 1 + rng.below(16)).min(len);
                let span = bytes[a..b].to_vec();
                let at = rng.below(len + 1);
                bytes.splice(at..at, span);
            }
            _ => {
                let other = &seeds[rng.below(seeds.len())];
                bytes.truncate(rng.below(len + 1));
                bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
            }
        }
    }
    bytes
}

/// An error as a comparable string: the variant, and for parse errors
/// the line and message.
fn error_key(e: &GraphError) -> String {
    match e {
        GraphError::Parse { line, message } => format!("parse line {line}: {message}"),
        GraphError::Io(io) => format!("io {:?}: {io}", io.kind()),
        other => format!("{other:?}"),
    }
}

/// `events` renamed in the order their ids first appear, then sorted:
/// what writing `events` in order and parsing the text back must give.
fn renamed_by_appearance(events: &[Event]) -> Vec<Event> {
    let mut names: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
    let mut rename = |v: NodeId| {
        let next = names.len() as u32;
        NodeId(*names.entry(v).or_insert(next))
    };
    let mut out: Vec<Event> = events
        .iter()
        .map(|e| {
            let src = rename(e.src);
            Event { src, dst: rename(e.dst), ..*e }
        })
        .collect();
    out.sort_unstable();
    out
}

/// Escapes an input for a failure message.
fn shown(input: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(input))
}

/// Runs one input through both parsers and the round trip; returns
/// whether the input was accepted.
fn check(what: &str, case: usize, input: &[u8]) -> bool {
    let fast = std::panic::catch_unwind(|| parse_edge_list(input))
        .unwrap_or_else(|_| panic!("{what} {case}: parser panicked on {}", shown(input)));
    let slow = reference::read_edge_list(input)
        .map_err(|e| error_key(&e))
        .map(|g| (g.events().to_vec(), g.num_nodes()));
    let ctx = || format!("{what} {case}: {}", shown(input));
    match (fast, slow) {
        (Ok(g), Ok((events, nodes))) => {
            assert_eq!(g.events(), &events[..], "events differ on {}", ctx());
            assert_eq!(g.num_nodes(), nodes, "node counts differ on {}", ctx());
            let mut text = Vec::new();
            write_edge_list(&g, &mut text).unwrap();
            let back =
                parse_edge_list(&text).unwrap_or_else(|e| panic!("{e} re-reading {}", ctx()));
            assert_eq!(
                back.events(),
                &renamed_by_appearance(g.events())[..],
                "round trip {}",
                ctx()
            );
            true
        }
        (Err(e), Err(key)) => {
            assert_eq!(error_key(&e), key, "errors differ on {}", ctx());
            false
        }
        (Ok(_), Err(key)) => panic!("only the reference failed ({key}) on {}", ctx()),
        (Err(e), Ok(_)) => panic!("only the new parser failed ({e}) on {}", ctx()),
    }
}

/// `cases` generated inputs, then `cases` mutations of them.
fn fuzz(cases: usize, seed: u64) {
    let mut rng = Rng(seed);
    let mut seeds = Vec::with_capacity(cases);
    let mut accepted = 0;
    for case in 0..cases {
        let input = generate(&mut rng);
        accepted += usize::from(check("generated", case, &input));
        seeds.push(input);
    }
    // Both the accept and the error side must have had work to do.
    assert!(accepted > cases / 10 && accepted < cases, "{accepted} of {cases} generated accepted");
    for case in 0..cases {
        check("mutated", case, &mutate(&mut rng, &seeds));
    }
}

#[test]
fn edge_list_fuzz_slice() {
    fuzz(5_000, 1);
}

#[test]
#[ignore = "10^5 generated and 10^5 mutated inputs; run in release (CI's parser fuzz step)"]
fn edge_list_fuzz_full() {
    fuzz(100_000, 2);
}

/// Each kind of line the fast path hands back to the general grammar,
/// pinned against the reference one at a time.
#[test]
fn fallback_lines_match_the_reference() {
    let lines = [
        "+1 2 3",
        "1 2 -3",
        "1 2 3.9",
        "1 2 9223372036854775808",
        "1 2 3 4294967296",
        "18446744073709551615 1 2",
        "18446744073709551616 1 2",
        "1\u{3000}2\u{85}3",
        "1 2 3 4 5",
        "1 2",
        "",
        "# 1 2 3",
        " % 1 2 3",
        "1 2 3\r",
        "1 2 3 \u{a0}",
    ];
    for (i, l) in lines.iter().enumerate() {
        check("line", i, format!("5 6 1\n{l}\n").as_bytes());
    }
}

/// Invalid UTF-8 fails on its own line, after earlier lines parsed, the
/// way a line reader fails.
#[test]
fn invalid_utf8_errors_in_line_order() {
    for input in [&b"1 2 3\n\xff 2 4\n"[..], b"1 2 3\nx 2 4\n\xff\n", b"\xff", b"# ok\n1 2\xc3"] {
        assert!(!check("utf8", 0, input));
    }
    let err = parse_edge_list(b"1 2 3\n\xff 2 4\n").unwrap_err();
    assert!(matches!(err, GraphError::Io(ref e) if e.kind() == std::io::ErrorKind::InvalidData));
}

/// Ids on both sides of the dense table's bound, in one file.
#[test]
fn dense_and_hashed_ids_share_one_numbering() {
    let g = read_edge_list_str("3 1099511627776 1\n1099511627776 5 2\n5 3 3\n").unwrap();
    assert_eq!(g.num_nodes(), 3);
    let pairs: Vec<_> = g.events().iter().map(|e| (e.src.0, e.dst.0)).collect();
    assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 0)]);
}
