//! Framed, versioned binary wire encoding for crossing process
//! boundaries.
//!
//! The sharded counting engine ships shard jobs to worker processes
//! over pipes and reads count replies back; the shard files they name
//! cross the same boundary on disk. There is no serde backend in this
//! offline workspace, so this module defines the encoding from scratch,
//! in three layers:
//!
//! * **Primitives** — [`WireWriter`] / [`WireReader`]: little-endian
//!   fixed-width integers, booleans, optional values, and
//!   length-prefixed byte strings over a plain byte buffer. Every read
//!   is bounds-checked and returns [`WireError::Truncated`] instead of
//!   panicking; [`WireReader::finish`] rejects trailing bytes so a
//!   decoder cannot silently ignore garbage.
//! * **Frames** — [`write_frame`] / [`read_frame`]: a stream of
//!   self-delimiting messages, each `magic(4) ‖ version(2) ‖ kind(1) ‖
//!   payload_len(4) ‖ payload`. The length header is validated against
//!   an explicit limit **before** any allocation, so a corrupt or
//!   malicious peer cannot trigger an OOM-sized buffer; a clean EOF at
//!   a frame boundary decodes as `None`, an EOF anywhere else is
//!   [`WireError::Truncated`].
//! * **Event blocks** — [`encode_events`] / [`decode_events`]: the
//!   on-disk format of shard files
//!   ([`io::write_events_raw`](crate::io::write_events_raw)), `magic ‖
//!   version ‖ count(8)` followed by fixed 20-byte records. The count
//!   header is validated against the remaining input before the event
//!   vector is allocated, and the record area must divide exactly —
//!   truncated and padded files both fail loudly.
//!
//! ## Invariants
//!
//! * Every message starts with a magic and a version; decoders reject
//!   unknown values of either, so a protocol revision can never be
//!   misread as the current one.
//! * Length headers are *claims to be verified*, never trusted:
//!   [`read_frame`] checks the payload length against its limit before
//!   allocating, [`decode_events`] checks the record count against the
//!   bytes actually present.
//! * Decoding consumes the input exactly: trailing bytes after a
//!   well-formed message are an error, not slack.
//!
//! Message *schemas* (job descriptors, count replies) live with the
//! types they serialize, in `tnm-motifs`' sharded engine and serve
//! daemon — this module deliberately knows nothing about motifs.
//!
//! ## Versioning
//!
//! Both ends of every protocol are one build: a sharded engine's worker
//! process is the coordinator's own `tnm` binary, and `tnm serve` has no clients
//! outside this workspace. Every field of every message is therefore
//! required — there are no optional trailing sections and no legacy
//! layouts to keep readable — and any layout change bumps
//! [`WIRE_VERSION`], so a peer from another build is refused with
//! [`WireError::BadVersion`] instead of being misread.

use crate::event::Event;
use crate::ids::Time;
use std::fmt;
use std::io::{Read, Write};

/// Magic bytes opening every wire frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TNMW";

/// Magic bytes opening every serialized event block.
pub const EVENT_BLOCK_MAGIC: [u8; 4] = *b"TNME";

/// Current protocol version, embedded in every frame and event block.
pub const WIRE_VERSION: u16 = 3;

/// Ceiling on a single frame's payload (64 MiB). [`read_frame`] rejects
/// larger length headers before allocating anything.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Bytes per serialized event record: `src(4) ‖ dst(4) ‖ time(8) ‖
/// duration(4)`, little-endian.
pub const EVENT_RECORD_BYTES: usize = 20;

/// Bytes of the event-block header: magic, version, record count.
const EVENT_BLOCK_HEADER_BYTES: usize = 4 + 2 + 8;

/// Bytes of a frame header: magic, version, kind, payload length.
const FRAME_HEADER_BYTES: usize = 4 + 2 + 1 + 4;

/// Decode/transport failures of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// Input ended before a declared structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The magic bytes did not match any known block type.
    BadMagic {
        /// The four bytes found.
        got: [u8; 4],
    },
    /// The version field named a protocol this build does not speak.
    BadVersion {
        /// The version found.
        got: u16,
    },
    /// A length header claimed more than the decoder's limit allows.
    Oversized {
        /// Claimed length in bytes (or records, for event blocks).
        len: u64,
        /// The limit it exceeded.
        limit: u64,
    },
    /// Well-formed content followed by unconsumed bytes.
    TrailingBytes {
        /// Number of leftover bytes.
        extra: usize,
    },
    /// Structurally invalid content (bad tag, bad UTF-8, out-of-range
    /// field).
    Malformed(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, {available} available")
            }
            WireError::BadMagic { got } => write!(f, "bad magic bytes {got:?}"),
            WireError::BadVersion { got } => {
                write!(f, "unsupported wire version {got} (this build speaks {WIRE_VERSION})")
            }
            WireError::Oversized { len, limit } => {
                write!(f, "length header claims {len}, over the limit {limit}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            WireError::Io(e) => write!(f, "i/o error on the wire: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Builds a message payload out of primitive fields.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends an optional `i64` as a presence byte plus the value.
    pub fn put_opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_i64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over an encoded payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a boolean byte, rejecting anything but `0` / `1`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("boolean byte {other}"))),
        }
    }

    /// Reads an optional `i64` written by [`WireWriter::put_opt_i64`].
    pub fn opt_i64(&mut self) -> Result<Option<i64>, WireError> {
        Ok(if self.bool()? { Some(self.i64()?) } else { None })
    }

    /// Reads a `u32`-length-prefixed byte string. The length is checked
    /// against the bytes actually remaining before anything is sliced.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| WireError::Malformed(format!("non-UTF-8 string: {e}")))
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }
}

/// Writes one frame: header (magic, version, kind, payload length) plus
/// payload. The caller flushes the underlying writer when the message
/// must become visible to the peer.
///
/// Payloads above [`MAX_FRAME_PAYLOAD`] are rejected **on the writing
/// side**: the peer's [`read_frame`] would refuse them anyway, and a
/// local [`WireError::Oversized`] is diagnosable where an apparent
/// remote crash is not (it also rules out the `u32` length field ever
/// wrapping and desyncing the stream).
pub fn write_frame<W: Write>(mut w: W, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
            limit: MAX_FRAME_PAYLOAD as u64,
        });
    }
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6] = kind;
    header[7..11].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame, returning `(kind, payload)`.
///
/// `Ok(None)` means the stream ended cleanly **at a frame boundary**
/// (the peer closed after its last message); EOF anywhere inside a
/// frame is [`WireError::Truncated`]. The payload length header is
/// validated against `max_payload` before the buffer is allocated.
pub fn read_frame<R: Read>(
    mut r: R,
    max_payload: usize,
) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0usize;
    while filled < header.len() {
        // EINTR is a retry, not a failure — a stray signal must never
        // make a healthy peer look crashed (read_exact does the same,
        // but cannot distinguish clean EOF from truncation).
        let n = match r.read(&mut header[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(WireError::Truncated { needed: header.len(), available: filled });
        }
        filled += n;
    }
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic { got: header[..4].try_into().expect("4 bytes") });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let kind = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized { len: len as u64, limit: max_payload as u64 });
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        let n = match r.read(&mut payload[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            return Err(WireError::Truncated { needed: len, available: filled });
        }
        filled += n;
    }
    Ok(Some((kind, payload)))
}

/// Serializes an event slice as a self-describing binary block: header
/// (magic, version, record count) plus fixed-width records. Node ids,
/// order, and durations are preserved exactly — the contract the shard
/// store and the distributed workers rely on.
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(EVENT_BLOCK_HEADER_BYTES + events.len() * EVENT_RECORD_BYTES);
    buf.extend_from_slice(&EVENT_BLOCK_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        buf.extend_from_slice(&e.src.0.to_le_bytes());
        buf.extend_from_slice(&e.dst.0.to_le_bytes());
        buf.extend_from_slice(&e.time.to_le_bytes());
        buf.extend_from_slice(&e.duration.to_le_bytes());
    }
    buf
}

/// Decodes a block written by [`encode_events`].
///
/// The count header is validated against the bytes actually present
/// **before** the event vector is allocated: a truncated file fails
/// with [`WireError::Truncated`] and a padded one with
/// [`WireError::TrailingBytes`], never with an OOM-sized allocation or
/// a silently short read.
pub fn decode_events(buf: &[u8]) -> Result<Vec<Event>, WireError> {
    if buf.len() < EVENT_BLOCK_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: EVENT_BLOCK_HEADER_BYTES,
            available: buf.len(),
        });
    }
    if buf[..4] != EVENT_BLOCK_MAGIC {
        return Err(WireError::BadMagic { got: buf[..4].try_into().expect("4 bytes") });
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let count = u64::from_le_bytes(buf[6..14].try_into().expect("8 bytes"));
    let body = &buf[EVENT_BLOCK_HEADER_BYTES..];
    let available = (body.len() / EVENT_RECORD_BYTES) as u64;
    if count > available {
        // The length header claims more records than the input holds:
        // reject before allocating `count` events.
        return Err(WireError::Truncated {
            needed: (count as usize).saturating_mul(EVENT_RECORD_BYTES),
            available: body.len(),
        });
    }
    if count < available || !body.len().is_multiple_of(EVENT_RECORD_BYTES) {
        return Err(WireError::TrailingBytes {
            extra: body.len() - count as usize * EVENT_RECORD_BYTES,
        });
    }
    let mut events = Vec::with_capacity(count as usize);
    for rec in body.chunks_exact(EVENT_RECORD_BYTES) {
        let src = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let time = Time::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let duration = u32::from_le_bytes(rec[16..20].try_into().expect("4 bytes"));
        events.push(Event::with_duration(src, dst, time, duration));
    }
    Ok(events)
}

/// Appends a [`tnm_obs::Snapshot`] to a payload: three `u32`-counted
/// sections (counters, gauges, histograms), entries name-ascending —
/// snapshots iterate sorted maps, so the encoding is deterministic.
/// Both wire protocols reuse this: worker replies carry per-shard
/// metrics back to the distributed coordinator, and the serve
/// protocol's Metrics response ships the daemon's registry.
pub fn put_obs_snapshot(w: &mut WireWriter, snap: &tnm_obs::Snapshot) {
    w.put_u32(snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(snap.gauges.len() as u32);
    for (name, g) in &snap.gauges {
        w.put_str(name);
        w.put_u64(g.value);
        w.put_u64(g.peak);
    }
    w.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u32(h.buckets.len() as u32);
        for &(i, n) in &h.buckets {
            w.put_u8(i);
            w.put_u64(n);
        }
    }
}

/// Reads a snapshot written by [`put_obs_snapshot`]. Maps are built
/// incrementally (a corrupt count header runs out of input, never
/// pre-allocates), histogram bucket indices must be strictly ascending
/// and within [`tnm_obs::HISTOGRAM_BUCKETS`], and duplicate names are
/// rejected — the canonical form is the only decodable one.
pub fn get_obs_snapshot(r: &mut WireReader<'_>) -> Result<tnm_obs::Snapshot, WireError> {
    let mut snap = tnm_obs::Snapshot::default();
    for _ in 0..r.u32()? {
        let name = r.str()?.to_string();
        let v = r.u64()?;
        if snap.counters.insert(name, v).is_some() {
            return Err(WireError::Malformed("duplicate counter name".into()));
        }
    }
    for _ in 0..r.u32()? {
        let name = r.str()?.to_string();
        let g = tnm_obs::GaugeSnapshot { value: r.u64()?, peak: r.u64()? };
        if snap.gauges.insert(name, g).is_some() {
            return Err(WireError::Malformed("duplicate gauge name".into()));
        }
    }
    for _ in 0..r.u32()? {
        let name = r.str()?.to_string();
        let count = r.u64()?;
        let sum = r.u64()?;
        let num_buckets = r.u32()?;
        let mut buckets = Vec::new();
        let mut last: Option<u8> = None;
        for _ in 0..num_buckets {
            let i = r.u8()?;
            let n = r.u64()?;
            if i as usize >= tnm_obs::HISTOGRAM_BUCKETS {
                return Err(WireError::Malformed(format!("histogram bucket index {i}")));
            }
            if last.is_some_and(|p| p >= i) {
                return Err(WireError::Malformed("histogram buckets not ascending".into()));
            }
            last = Some(i);
            buckets.push((i, n));
        }
        let h = tnm_obs::HistogramSnapshot { count, sum, buckets };
        if snap.histograms.insert(name, h).is_some() {
            return Err(WireError::Malformed("duplicate histogram name".into()));
        }
    }
    Ok(snap)
}

/// Appends a list of [`tnm_obs::SpanRecord`]s: a `u32` count, then per
/// record `name ‖ args ‖ start_ns ‖ dur_ns ‖ tid ‖ depth ‖ trace_id ‖
/// span_id ‖ parent_id`. This is how distributed workers ship their
/// side of a request trace back to the coordinator, and how the serve
/// daemon returns a stitched span tree to `tnm client --trace`.
pub fn put_span_records(w: &mut WireWriter, spans: &[tnm_obs::SpanRecord]) {
    w.put_u32(spans.len() as u32);
    for s in spans {
        w.put_str(&s.name);
        w.put_u32(s.args.len() as u32);
        for (k, v) in &s.args {
            w.put_str(k);
            w.put_str(v);
        }
        w.put_u64(s.start_ns);
        w.put_u64(s.dur_ns);
        w.put_u64(s.tid);
        w.put_u32(s.depth);
        w.put_u64(s.trace_id);
        w.put_u64(s.span_id);
        w.put_u64(s.parent_id);
    }
}

/// Reads span records written by [`put_span_records`]. The vector is
/// built incrementally, so a forged count header runs out of input
/// instead of pre-allocating; a recorded span id of 0 is rejected (it
/// is the "no parent" sentinel and can never be a real span).
pub fn get_span_records(r: &mut WireReader<'_>) -> Result<Vec<tnm_obs::SpanRecord>, WireError> {
    let count = r.u32()?;
    let mut spans = Vec::new();
    for _ in 0..count {
        let name = r.str()?.to_string();
        let num_args = r.u32()?;
        let mut args = Vec::new();
        for _ in 0..num_args {
            args.push((r.str()?.to_string(), r.str()?.to_string()));
        }
        let span = tnm_obs::SpanRecord {
            name,
            args,
            start_ns: r.u64()?,
            dur_ns: r.u64()?,
            tid: r.u64()?,
            depth: r.u32()?,
            trace_id: r.u64()?,
            span_id: r.u64()?,
            parent_id: r.u64()?,
        };
        if span.span_id == 0 {
            return Err(WireError::Malformed("span id 0 is reserved".into()));
        }
        spans.push(span);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_opt_i64(Some(-9));
        w.put_opt_i64(None);
        w.put_str("shard_3.events");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_i64().unwrap(), Some(-9));
        assert_eq!(r.opt_i64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "shard_3.events");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { needed: 4, available: 2 })));
        // A byte-string length claiming past the end must not slice.
        let mut w = WireWriter::new();
        w.put_u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::Truncated { .. })));
        // finish() flags leftovers.
        let mut r = WireReader::new(&[0, 1, 2]);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes { extra: 2 })));
        // Booleans reject non-0/1 bytes.
        assert!(matches!(WireReader::new(&[9]).bool(), Err(WireError::Malformed(_))));
        // Strings reject invalid UTF-8.
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(WireReader::new(&bytes).str(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn oversized_payload_rejected_on_write() {
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, 1, &big),
            Err(WireError::Oversized { limit, .. }) if limit == MAX_FRAME_PAYLOAD as u64
        ));
        assert!(out.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 3, b"hello").unwrap();
        write_frame(&mut stream, 4, b"").unwrap();
        let mut cursor = stream.as_slice();
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some((3, b"hello".to_vec())));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some((4, Vec::new())));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn frame_rejects_corruption() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 1, b"payload").unwrap();
        // Truncated header.
        assert!(matches!(
            read_frame(&stream[..5], 1024),
            Err(WireError::Truncated { available: 5, .. })
        ));
        // Truncated payload.
        let cut = stream.len() - 2;
        assert!(matches!(read_frame(&stream[..cut], 1024), Err(WireError::Truncated { .. })));
        // Bad magic.
        let mut bad = stream.clone();
        bad[0] = b'X';
        assert!(matches!(read_frame(bad.as_slice(), 1024), Err(WireError::BadMagic { .. })));
        // Future version.
        let mut bad = stream.clone();
        bad[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(read_frame(bad.as_slice(), 1024), Err(WireError::BadVersion { got: 99 })));
        // Oversized length header: rejected before allocation.
        let mut bad = stream.clone();
        bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(bad.as_slice(), 1024), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn event_block_roundtrip() {
        let events = vec![
            Event::new(9u32, 2u32, 5),
            Event::new(3u32, 9u32, 5),
            Event::with_duration(2u32, 3u32, -7, 11),
        ];
        let block = encode_events(&events);
        assert_eq!(block.len(), EVENT_BLOCK_HEADER_BYTES + 3 * EVENT_RECORD_BYTES);
        assert_eq!(decode_events(&block).unwrap(), events);
        assert!(decode_events(&encode_events(&[])).unwrap().is_empty());
    }

    #[test]
    fn event_block_rejects_corruption() {
        let events = vec![Event::new(1u32, 2u32, 10), Event::new(2u32, 1u32, 12)];
        let block = encode_events(&events);
        // Truncated header and truncated records.
        assert!(matches!(decode_events(&block[..6]), Err(WireError::Truncated { .. })));
        // Cut mid-record: fewer whole records than the header claims.
        assert!(matches!(
            decode_events(&block[..block.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        // Count header claims more records than are present.
        assert!(matches!(
            decode_events(&block[..block.len() - EVENT_RECORD_BYTES]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing bytes after the declared records.
        let mut padded = block.clone();
        padded.extend_from_slice(&[0u8; EVENT_RECORD_BYTES]);
        assert!(matches!(decode_events(&padded), Err(WireError::TrailingBytes { .. })));
        // Bad magic / version.
        let mut bad = block.clone();
        bad[0] = b'x';
        assert!(matches!(decode_events(&bad), Err(WireError::BadMagic { .. })));
        let mut bad = block.clone();
        bad[4..6].copy_from_slice(&7u16.to_le_bytes());
        assert!(matches!(decode_events(&bad), Err(WireError::BadVersion { got: 7 })));
        // An OOM-sized count header must fail by validation, not by
        // allocation: claim u64::MAX records over a 2-record body.
        let mut bomb = block;
        bomb[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_events(&bomb), Err(WireError::Truncated { .. })));
    }

    fn sample_snapshot() -> tnm_obs::Snapshot {
        let r = tnm_obs::Registry::new();
        r.counter("engine.events_scanned").add(41);
        r.counter("shard.loads").add(3);
        r.gauge("shard.resident_events").set(512);
        let h = r.histogram("distributed.shard_wall_ns");
        h.record(0);
        h.record(900);
        h.record(u64::MAX);
        r.snapshot()
    }

    #[test]
    fn obs_snapshot_roundtrips_exactly() {
        let snap = sample_snapshot();
        let mut w = WireWriter::new();
        put_obs_snapshot(&mut w, &snap);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let decoded = get_obs_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, snap);
        // Deterministic: re-encoding the decoded snapshot is bit-identical.
        let mut w2 = WireWriter::new();
        put_obs_snapshot(&mut w2, &decoded);
        assert_eq!(w2.into_bytes(), bytes);
        // Empty snapshots work too.
        let mut w = WireWriter::new();
        put_obs_snapshot(&mut w, &tnm_obs::Snapshot::default());
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(get_obs_snapshot(&mut r).unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn obs_snapshot_rejects_corruption() {
        let mut w = WireWriter::new();
        put_obs_snapshot(&mut w, &sample_snapshot());
        let bytes = w.into_bytes();
        // Truncation at every prefix fails loudly (never panics, never
        // silently succeeds on a strict prefix).
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let result = get_obs_snapshot(&mut r).and_then(|_| r.finish());
            assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
        // A count header claiming entries past the input must not
        // pre-allocate or succeed.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let bomb = w.into_bytes();
        let mut r = WireReader::new(&bomb);
        assert!(matches!(get_obs_snapshot(&mut r), Err(WireError::Truncated { .. })));
        // Out-of-range and non-ascending bucket indices are malformed.
        let mut w = WireWriter::new();
        let mut bad = tnm_obs::Snapshot::default();
        bad.histograms.insert(
            "h".into(),
            tnm_obs::HistogramSnapshot { count: 1, sum: 1, buckets: vec![(65, 1)] },
        );
        put_obs_snapshot(&mut w, &bad);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(get_obs_snapshot(&mut r), Err(WireError::Malformed(_))));
        let mut w = WireWriter::new();
        let mut bad = tnm_obs::Snapshot::default();
        bad.histograms.insert(
            "h".into(),
            tnm_obs::HistogramSnapshot { count: 2, sum: 2, buckets: vec![(5, 1), (5, 1)] },
        );
        put_obs_snapshot(&mut w, &bad);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(get_obs_snapshot(&mut r), Err(WireError::Malformed(_))));
    }

    fn sample_spans() -> Vec<tnm_obs::SpanRecord> {
        vec![
            tnm_obs::SpanRecord {
                name: "walk.shard0".to_string(),
                args: vec![("shard".to_string(), "0".to_string())],
                start_ns: 0,
                dur_ns: 1_000,
                tid: 1,
                depth: 0,
                trace_id: 0xABCD,
                span_id: 1,
                parent_id: 0,
            },
            tnm_obs::SpanRecord {
                name: "walk.worker1".to_string(),
                args: vec![],
                start_ns: 10,
                dur_ns: 500,
                tid: 2,
                depth: 1,
                trace_id: 0xABCD,
                span_id: 2,
                parent_id: 1,
            },
        ]
    }

    #[test]
    fn span_records_roundtrip_exactly() {
        let spans = sample_spans();
        let mut w = WireWriter::new();
        put_span_records(&mut w, &spans);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let decoded = get_span_records(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, spans);
        // Empty lists work.
        let mut w = WireWriter::new();
        put_span_records(&mut w, &[]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(get_span_records(&mut r).unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn span_records_reject_corruption() {
        let mut w = WireWriter::new();
        put_span_records(&mut w, &sample_spans());
        let bytes = w.into_bytes();
        // Every strict prefix fails loudly.
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let result = get_span_records(&mut r).and_then(|_| r.finish());
            assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
        // A forged count header must not pre-allocate or succeed.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let bomb = w.into_bytes();
        let mut r = WireReader::new(&bomb);
        assert!(matches!(get_span_records(&mut r), Err(WireError::Truncated { .. })));
        // Span id 0 is the "no parent" sentinel — never a real record.
        let mut bad = sample_spans();
        bad[0].span_id = 0;
        let mut w = WireWriter::new();
        put_span_records(&mut w, &bad);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(get_span_records(&mut r), Err(WireError::Malformed(_))));
    }

    #[test]
    fn errors_display() {
        assert!(WireError::Truncated { needed: 4, available: 1 }.to_string().contains("truncated"));
        assert!(WireError::BadVersion { got: 9 }.to_string().contains("version 9"));
        assert!(WireError::Oversized { len: 10, limit: 5 }.to_string().contains("limit"));
        assert!(WireError::from(std::io::Error::other("x")).to_string().contains("i/o"));
    }
}
