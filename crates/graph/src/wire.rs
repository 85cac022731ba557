//! Framed, versioned binary wire encoding for crossing process
//! boundaries.
//!
//! The sharded counting engine ships shard jobs to worker processes
//! over pipes and reads count replies back; the shard files they name
//! cross the same boundary on disk, and `tnm serve` speaks the same
//! frames over TCP. There is no serde backend in this offline
//! workspace, so this module defines the encoding from scratch, in four
//! layers:
//!
//! * **Primitives** — [`WireWriter`] / [`WireReader`]: a plain byte
//!   buffer and a bounds-checked cursor over one. Every read returns
//!   [`WireError::Truncated`] instead of panicking; [`WireReader::finish`]
//!   rejects trailing bytes so a decoder cannot silently ignore garbage.
//! * **Layouts** — the [`Wire`] trait: one `put` and one `get` per type.
//!   It is implemented here for little-endian integers, `f64` (as its
//!   bits), `bool` (`0` / `1` only), `String` (`u32` length ‖ UTF-8),
//!   `Option<T>` (presence byte ‖ value), pairs, `Vec<T>` (`u32` count ‖
//!   elements), event blocks, and the obs snapshot, span and time-point
//!   types the protocols ship. Message types derive theirs with
//!   [`wire_struct!`](crate::wire_struct) (fields in wire order) and
//!   [`wire_enum!`](crate::wire_enum) (a one-byte tag per variant, then
//!   its fields); [`encode`] / [`decode`] run a layout over a whole
//!   buffer.
//! * **Frames** — [`write_frame`] / [`read_frame`]: a stream of
//!   self-delimiting messages, each `magic(4) ‖ version(2) ‖ kind(1) ‖
//!   payload_len(4) ‖ payload`. The length header is validated against
//!   an explicit limit **before** any allocation, so a corrupt or
//!   malicious peer cannot trigger an OOM-sized buffer; a clean EOF at
//!   a frame boundary decodes as `None`, an EOF anywhere else is
//!   [`WireError::Truncated`]. A [`Message`] (any `wire_enum!` type)
//!   travels as one frame whose kind byte is its tag: [`write_msg`] /
//!   [`read_msg`].
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
//! * **One layout per type.** Each type's bytes are written once, in its
//!   `Wire` impl or its `wire_struct!` / `wire_enum!` entry; decoding is
//!   the same list read back. Hand-written impls exist only where a
//!   layout packs bits or checks a value, and every one of them is
//!   canonical: a value that decodes re-encodes to exactly the bytes it
//!   came from.
//! * **No count-driven reservation.** Length and count headers are
//!   *claims to be verified*, never trusted: [`read_frame`] checks the
//!   payload length against its limit before allocating, byte strings
//!   and event blocks check their length against the bytes actually
//!   present, and a `Vec<T>` grows one decoded element at a time, so a
//!   forged count runs out of input instead of reserving memory.
//! * Every message starts with a magic and a version; decoders reject
//!   unknown values of either, so a protocol revision can never be
//!   misread as the current one.
//! * Decoding consumes the input exactly: trailing bytes after a
//!   well-formed message are an error, not slack.
//!
//! Message *schemas* (job descriptors, count replies, serve requests)
//! live with the types they serialize, in `tnm-motifs` — this module
//! deliberately knows nothing about motifs.
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
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use tnm_obs::TimePoint;

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

/// Builds a message payload; [`Wire::put`] appends to it.
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

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        (v.len() as u32).put(self);
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked reader over an encoded payload; [`Wire::get`] reads
/// from it.
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

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(WireError::Truncated { needed: n, available });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u32`-length-prefixed byte string. The length is checked
    /// against the bytes actually remaining before anything is sliced.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        match self.rest().len() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

/// A type with exactly one wire layout: `put` appends it, `get` reads
/// it back. Decoders never reserve memory from a count they have not
/// checked, and a value that decodes re-encodes to the bytes it came
/// from.
///
/// `get` is an associated function, so a type with an inherent `get`
/// method (`MotifCounts::get`) is decoded as `<T as Wire>::get(r)`.
pub trait Wire: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut WireWriter);
    /// Reads one value written by [`put`](Wire::put).
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// A [`wire_enum!`](crate::wire_enum) type: its encoding opens with a
/// one-byte tag, which travels as the frame's kind byte ([`write_msg`] /
/// [`read_msg`]).
pub trait Message: Wire {
    /// The variant's tag.
    fn kind(&self) -> u8;
}

/// Encodes one value into a fresh buffer.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

/// Decodes one value that must consume `buf` exactly.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut WireWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, i64);

impl Wire for f64 {
    fn put(&self, w: &mut WireWriter) {
        self.to_bits().put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut WireWriter) {
        (*self as u8).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("boolean byte {other}"))),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        std::str::from_utf8(r.bytes()?)
            .map(str::to_string)
            .map_err(|e| WireError::Malformed(format!("non-UTF-8 string: {e}")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        (self.len() as u32).put(w);
        for v in self {
            v.put(w);
        }
    }
    /// Grows one decoded element at a time: a forged count runs out of
    /// input instead of reserving memory.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// Appends a list behind a `u8` count, for motif-sized lists (the event
/// indices of one instance, the nodes of one group).
pub fn put_short<T: Wire>(w: &mut WireWriter, items: &[T]) {
    u8::try_from(items.len()).expect("a short list holds at most 255 items").put(w);
    for v in items {
        v.put(w);
    }
}

/// Reads a list written by [`put_short`].
pub fn get_short<T: Wire>(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
    let n = u8::get(r)?;
    (0..n).map(|_| T::get(r)).collect()
}

/// An event batch, as a length-prefixed event block (see
/// [`encode_events`]). Encoding borrows the batch, so a request can ship
/// a slice of the caller's events without copying them first.
impl Wire for Cow<'_, [Event]> {
    fn put(&self, w: &mut WireWriter) {
        ((EVENT_BLOCK_HEADER_BYTES + self.len() * EVENT_RECORD_BYTES) as u32).put(w);
        put_event_block(&mut w.buf, self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Cow::Owned(decode_events(r.bytes()?)?))
    }
}

/// Derives [`Wire`] for a struct from its field list, in wire order:
/// `wire_struct!(Job { name, limit, threads as u32 })`. A field written
/// `field as u32` (here a `usize`) travels as that integer type and is
/// cast back on decode.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident $(as $ty:ident)?),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::__wire_field!(put w, &self.$field $(, $ty)?);)*
            }
            fn get(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: $crate::__wire_field!(get r $(, $ty)?),)* })
            }
        }
    };
}

/// Derives [`Wire`] and [`Message`] for an enum: each variant is a tag
/// byte followed by its fields in wire order. Struct variants list their
/// fields (with `as` as in [`wire_struct!`](crate::wire_struct)), tuple
/// variants name one binding per field, unit variants carry nothing:
/// `wire_enum!(Msg<'a> { 1 => Load { name, events }, 2 => Error(text),
/// 3 => Bye })`. An unknown tag decodes to [`WireError::Malformed`].
#[macro_export]
macro_rules! wire_enum {
    (
        $name:ident $(<$lt:lifetime>)? {
            $($tag:literal => $var:ident $({ $($named:tt)* })? $(( $($tuple:tt)* ))?),* $(,)?
        }
    ) => {
        $crate::__wire_enum!(
            $name [$($lt)?] $($tag $var [$({ $($named)* })? $(( $($tuple)* ))?])*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_enum {
    ($name:ident [$($lt:lifetime)?] $($tag:literal $var:ident $body:tt)*) => {
        impl$(<$lt>)? $crate::wire::Wire for $name$(<$lt>)? {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $($crate::__wire_variant!(pat $name $var $body) => {
                        <u8 as $crate::wire::Wire>::put(&$tag, w);
                        $crate::__wire_variant!(put w $body);
                    })*
                }
            }
            fn get(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => $crate::__wire_variant!(get r $name $var $body),)*
                    other => {
                        return Err($crate::wire::WireError::Malformed(format!(
                            concat!("unknown ", stringify!($name), " tag {}"),
                            other
                        )))
                    }
                })
            }
        }
        impl$(<$lt>)? $crate::wire::Message for $name$(<$lt>)? {
            fn kind(&self) -> u8 {
                match self {
                    $($crate::__wire_variant!(any $name $var $body) => $tag,)*
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (put $w:ident, $v:expr) => {
        $crate::wire::Wire::put($v, $w)
    };
    (put $w:ident, $v:expr, $ty:ident) => {
        $crate::wire::Wire::put(&(*$v as $ty), $w)
    };
    (get $r:ident) => {
        $crate::wire::Wire::get($r)?
    };
    (get $r:ident, $ty:ident) => {
        <$ty as $crate::wire::Wire>::get($r)? as _
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_variant {
    (pat $n:ident $v:ident [{ $($f:ident $(as $ty:ident)?),* $(,)? }]) => { $n::$v { $($f),* } };
    (pat $n:ident $v:ident [( $($f:ident),* $(,)? )]) => { $n::$v($($f),*) };
    (pat $n:ident $v:ident []) => { $n::$v };
    (any $n:ident $v:ident [{ $($t:tt)* }]) => { $n::$v { .. } };
    (any $n:ident $v:ident [( $($t:tt)* )]) => { $n::$v(..) };
    (any $n:ident $v:ident []) => { $n::$v };
    (put $w:ident [{ $($f:ident $(as $ty:ident)?),* $(,)? }]) => {
        $($crate::__wire_field!(put $w, $f $(, $ty)?);)*
    };
    (put $w:ident [( $($f:ident),* $(,)? )]) => { $($crate::wire::Wire::put($f, $w);)* };
    (put $w:ident []) => {};
    (get $r:ident $n:ident $v:ident [{ $($f:ident $(as $ty:ident)?),* $(,)? }]) => {
        $n::$v { $($f: $crate::__wire_field!(get $r $(, $ty)?),)* }
    };
    (get $r:ident $n:ident $v:ident [( $($f:ident),* $(,)? )]) => {
        $n::$v($({ let _ = stringify!($f); $crate::__wire_field!(get $r) }),*)
    };
    (get $r:ident $n:ident $v:ident []) => { $n::$v };
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

/// Writes a [`Message`] as one frame: its tag is the kind byte, the rest
/// of its encoding the payload.
pub fn write_msg<W: Write, M: Message>(w: W, msg: &M) -> Result<(), WireError> {
    let bytes = encode(msg);
    write_frame(w, bytes[0], &bytes[1..])
}

/// Reads one frame, returning `(kind, payload)`.
///
/// `Ok(None)` means the stream ended cleanly **at a frame boundary**
/// (the peer closed after its last message); EOF anywhere inside a
/// frame is [`WireError::Truncated`]. The payload length header is
/// validated against `max_payload` before the buffer is allocated.
pub fn read_frame<R: Read>(r: R, max_payload: usize) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    Ok(read_raw_msg(r, max_payload)?.map(|mut buf| (buf.remove(0), buf)))
}

/// [`read_frame`] returning `kind ‖ payload` as one buffer — the
/// encoding of a [`Message`], ready for [`decode`]. Frame errors and
/// decode errors stay apart: a peer that sent a well-framed but
/// undecodable message can be answered, one that broke the framing
/// cannot.
pub fn read_raw_msg<R: Read>(mut r: R, max_payload: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match fill(&mut r, &mut header)? {
        0 => return Ok(None), // clean EOF between frames
        n if n < header.len() => {
            return Err(WireError::Truncated { needed: header.len(), available: n })
        }
        _ => {}
    }
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic { got: header[..4].try_into().expect("4 bytes") });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized { len: len as u64, limit: max_payload as u64 });
    }
    let mut buf = vec![0u8; 1 + len];
    buf[0] = header[6];
    let filled = fill(&mut r, &mut buf[1..])?;
    if filled < len {
        return Err(WireError::Truncated { needed: len, available: filled });
    }
    Ok(Some(buf))
}

/// Reads one frame and decodes it as a [`Message`]; `Ok(None)` is a
/// clean EOF between frames.
pub fn read_msg<R: Read, M: Message>(r: R, max_payload: usize) -> Result<Option<M>, WireError> {
    read_raw_msg(r, max_payload)?.map(|buf| decode(&buf)).transpose()
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// filled. EINTR is a retry, not a failure — a stray signal must never
/// make a healthy peer look crashed (`read_exact` does the same, but
/// cannot distinguish clean EOF from truncation).
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Serializes an event slice as a self-describing binary block: header
/// (magic, version, record count) plus fixed-width records. Node ids,
/// order, and durations are preserved exactly — the contract the shard
/// store and the distributed workers rely on.
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(EVENT_BLOCK_HEADER_BYTES + events.len() * EVENT_RECORD_BYTES);
    put_event_block(&mut buf, events);
    buf
}

fn put_event_block(buf: &mut Vec<u8>, events: &[Event]) {
    buf.extend_from_slice(&EVENT_BLOCK_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        buf.extend_from_slice(&e.src.0.to_le_bytes());
        buf.extend_from_slice(&e.dst.0.to_le_bytes());
        buf.extend_from_slice(&e.time.to_le_bytes());
        buf.extend_from_slice(&e.duration.to_le_bytes());
    }
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

/// A metrics snapshot: three `u32`-counted sections (counters, gauges,
/// histograms), entries name-ascending — snapshots iterate sorted maps,
/// so the encoding is deterministic. Both wire protocols carry it:
/// worker replies ship per-shard metrics back to the coordinator, and
/// the serve protocol's Metrics response ships the daemon's registry.
///
/// Decoding builds each map entry by entry, rejects duplicate and
/// out-of-order names, and requires histogram bucket indices to be
/// strictly ascending and within [`tnm_obs::HISTOGRAM_BUCKETS`] — the
/// canonical form is the only decodable one.
impl Wire for tnm_obs::Snapshot {
    fn put(&self, w: &mut WireWriter) {
        put_named(w, &self.counters, |w, v| v.put(w));
        put_named(w, &self.gauges, |w, g| (g.value, g.peak).put(w));
        put_named(w, &self.histograms, |w, h| {
            (h.count, h.sum).put(w);
            h.buckets.put(w);
        });
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let counters = get_named(r, "counter", u64::get)?;
        let gauges = get_named(r, "gauge", |r| {
            let (value, peak) = Wire::get(r)?;
            Ok(tnm_obs::GaugeSnapshot { value, peak })
        })?;
        let histograms = get_named(r, "histogram", |r| {
            let (count, sum) = Wire::get(r)?;
            let buckets: Vec<(u8, u64)> = Wire::get(r)?;
            for (k, &(i, _)) in buckets.iter().enumerate() {
                if i as usize >= tnm_obs::HISTOGRAM_BUCKETS {
                    return Err(WireError::Malformed(format!("histogram bucket index {i}")));
                }
                if k > 0 && buckets[k - 1].0 >= i {
                    return Err(WireError::Malformed("histogram buckets not ascending".into()));
                }
            }
            Ok(tnm_obs::HistogramSnapshot { count, sum, buckets })
        })?;
        Ok(tnm_obs::Snapshot { counters, gauges, histograms })
    }
}

fn put_named<V>(w: &mut WireWriter, map: &BTreeMap<String, V>, put: impl Fn(&mut WireWriter, &V)) {
    (map.len() as u32).put(w);
    for (name, v) in map {
        name.put(w);
        put(w, v);
    }
}

fn get_named<V>(
    r: &mut WireReader<'_>,
    what: &str,
    get: impl Fn(&mut WireReader<'_>) -> Result<V, WireError>,
) -> Result<BTreeMap<String, V>, WireError> {
    let mut map = BTreeMap::new();
    for _ in 0..u32::get(r)? {
        let name = String::get(r)?;
        let v = get(r)?;
        match map.last_key_value() {
            Some((last, _)) if *last == name => {
                return Err(WireError::Malformed(format!("duplicate {what} name")))
            }
            Some((last, _)) if *last > name => {
                return Err(WireError::Malformed(format!("{what} names not ascending")))
            }
            _ => map.insert(name, v),
        };
    }
    Ok(map)
}

// One window of the serve daemon's sample ring: `at_unix_ms ‖
// interval_ms ‖ delta`. The serve protocol's TimeSeries response ships
// the ring as a `Vec` of these; that is what `tnm top` polls.
crate::wire_struct!(TimePoint { at_unix_ms, interval_ms, delta });

/// One span record: `name ‖ args ‖ start_ns ‖ dur_ns ‖ tid ‖ depth ‖
/// trace_id ‖ span_id ‖ parent_id`. Distributed workers ship their side
/// of a request trace back to the coordinator as a `Vec` of these, and
/// the serve daemon returns a stitched span tree to `tnm client
/// --trace`. A recorded span id of 0 is rejected: it is the "no parent"
/// sentinel and can never be a real span.
impl Wire for tnm_obs::SpanRecord {
    fn put(&self, w: &mut WireWriter) {
        self.name.put(w);
        self.args.put(w);
        self.start_ns.put(w);
        self.dur_ns.put(w);
        self.tid.put(w);
        self.depth.put(w);
        self.trace_id.put(w);
        self.span_id.put(w);
        self.parent_id.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let span = tnm_obs::SpanRecord {
            name: Wire::get(r)?,
            args: Wire::get(r)?,
            start_ns: Wire::get(r)?,
            dur_ns: Wire::get(r)?,
            tid: Wire::get(r)?,
            depth: Wire::get(r)?,
            trace_id: Wire::get(r)?,
            span_id: Wire::get(r)?,
            parent_id: Wire::get(r)?,
        };
        if span.span_id == 0 {
            return Err(WireError::Malformed("span id 0 is reserved".into()));
        }
        Ok(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        7u8.put(&mut w);
        0xBEEFu16.put(&mut w);
        123_456u32.put(&mut w);
        (u64::MAX - 1).put(&mut w);
        (-42i64).put(&mut w);
        true.put(&mut w);
        Some(-9i64).put(&mut w);
        None::<i64>.put(&mut w);
        "shard_3.events".to_string().put(&mut w);
        w.put_bytes(&[1, 2, 3]);
        (-0.5f64).put(&mut w);
        vec![(1u8, 2u64)].put(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u16::get(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::get(&mut r).unwrap(), 123_456);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(i64::get(&mut r).unwrap(), -42);
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(Option::<i64>::get(&mut r).unwrap(), Some(-9));
        assert_eq!(Option::<i64>::get(&mut r).unwrap(), None);
        assert_eq!(String::get(&mut r).unwrap(), "shard_3.events");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(f64::get(&mut r).unwrap().to_bits(), (-0.5f64).to_bits());
        assert_eq!(Vec::<(u8, u64)>::get(&mut r).unwrap(), vec![(1, 2)]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(u32::get(&mut r), Err(WireError::Truncated { needed: 4, available: 2 })));
        // A byte-string length claiming past the end must not slice.
        let mut w = WireWriter::new();
        1_000_000u32.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::Truncated { .. })));
        // finish() flags leftovers.
        let mut r = WireReader::new(&[0, 1, 2]);
        u8::get(&mut r).unwrap();
        assert!(matches!(r.finish(), Err(WireError::TrailingBytes { extra: 2 })));
        // Booleans reject non-0/1 bytes.
        assert!(matches!(decode::<bool>(&[9]), Err(WireError::Malformed(_))));
        // A forged element count runs out of input instead of reserving.
        assert!(matches!(
            decode::<Vec<u64>>(&u32::MAX.to_le_bytes()),
            Err(WireError::Truncated { .. })
        ));
        // Strings reject invalid UTF-8.
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(decode::<String>(&bytes), Err(WireError::Malformed(_))));
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
        let bytes = encode(&snap);
        let decoded: tnm_obs::Snapshot = decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        // Deterministic: re-encoding the decoded snapshot is bit-identical.
        assert_eq!(encode(&decoded), bytes);
        // Empty snapshots work too.
        let bytes = encode(&tnm_obs::Snapshot::default());
        assert!(decode::<tnm_obs::Snapshot>(&bytes).unwrap().is_empty());
    }

    #[test]
    fn obs_snapshot_rejects_corruption() {
        let bytes = encode(&sample_snapshot());
        // Truncation at every prefix fails loudly (never panics, never
        // silently succeeds on a strict prefix).
        for cut in 0..bytes.len() {
            let result = decode::<tnm_obs::Snapshot>(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
        // A count header claiming entries past the input must not
        // pre-allocate or succeed.
        let bomb = encode(&u32::MAX);
        let mut r = WireReader::new(&bomb);
        assert!(matches!(tnm_obs::Snapshot::get(&mut r), Err(WireError::Truncated { .. })));
        // Duplicate and out-of-order names are malformed.
        let mut w = WireWriter::new();
        2u32.put(&mut w);
        for name in ["b", "b"] {
            (name.to_string(), 1u64).put(&mut w);
        }
        assert!(matches!(
            tnm_obs::Snapshot::get(&mut WireReader::new(&w.into_bytes())),
            Err(WireError::Malformed(_))
        ));
        let mut w = WireWriter::new();
        2u32.put(&mut w);
        for name in ["b", "a"] {
            (name.to_string(), 1u64).put(&mut w);
        }
        assert!(matches!(
            tnm_obs::Snapshot::get(&mut WireReader::new(&w.into_bytes())),
            Err(WireError::Malformed(_))
        ));
        // Out-of-range and non-ascending bucket indices are malformed.
        let mut bad = tnm_obs::Snapshot::default();
        bad.histograms.insert(
            "h".into(),
            tnm_obs::HistogramSnapshot { count: 1, sum: 1, buckets: vec![(65, 1)] },
        );
        let bytes = encode(&bad);
        assert!(matches!(decode::<tnm_obs::Snapshot>(&bytes), Err(WireError::Malformed(_))));
        let mut bad = tnm_obs::Snapshot::default();
        bad.histograms.insert(
            "h".into(),
            tnm_obs::HistogramSnapshot { count: 2, sum: 2, buckets: vec![(5, 1), (5, 1)] },
        );
        let bytes = encode(&bad);
        assert!(matches!(decode::<tnm_obs::Snapshot>(&bytes), Err(WireError::Malformed(_))));
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
        let bytes = encode(&spans);
        let decoded: Vec<tnm_obs::SpanRecord> = decode(&bytes).unwrap();
        assert_eq!(decoded, spans);
        // Empty lists work.
        let bytes = encode(&Vec::<tnm_obs::SpanRecord>::new());
        assert!(decode::<Vec<tnm_obs::SpanRecord>>(&bytes).unwrap().is_empty());
    }

    #[test]
    fn span_records_reject_corruption() {
        let bytes = encode(&sample_spans());
        // Every strict prefix fails loudly.
        for cut in 0..bytes.len() {
            let result = decode::<Vec<tnm_obs::SpanRecord>>(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
        // A forged count header must not pre-allocate or succeed.
        let bomb = encode(&u32::MAX);
        let mut r = WireReader::new(&bomb);
        assert!(matches!(
            Vec::<tnm_obs::SpanRecord>::get(&mut r),
            Err(WireError::Truncated { .. })
        ));
        // Span id 0 is the "no parent" sentinel — never a real record.
        let mut bad = sample_spans();
        bad[0].span_id = 0;
        let bytes = encode(&bad);
        assert!(matches!(decode::<Vec<tnm_obs::SpanRecord>>(&bytes), Err(WireError::Malformed(_))));
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        name: String,
        n: usize,
    }
    wire_struct!(Pair { name, n as u32 });

    #[derive(Debug, PartialEq)]
    enum Msg<'a> {
        Batch { pair: Pair, events: Cow<'a, [Event]> },
        Note(String, bool),
        Stop,
    }
    wire_enum!(Msg<'a> { 5 => Batch { pair, events }, 9 => Note(text, flag), 12 => Stop });

    /// The derives write fields in list order (with `as` widths), the
    /// enum tag travels as the frame kind, and unknown tags are refused.
    #[test]
    fn derived_messages_frame_by_tag() {
        let events = [Event::new(1u32, 2u32, 3)];
        let pair = Pair { name: "g".into(), n: 7 };
        assert_eq!(encode(&pair), [1, 0, 0, 0, b'g', 7, 0, 0, 0]);
        let msgs = [
            Msg::Batch { pair, events: Cow::Borrowed(&events) },
            Msg::Note("hi".into(), true),
            Msg::Stop,
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            write_msg(&mut stream, m).unwrap();
        }
        let mut cursor = stream.as_slice();
        for (m, kind) in msgs.iter().zip([5, 9, 12]) {
            assert_eq!(m.kind(), kind);
            assert_eq!(read_msg::<_, Msg<'_>>(&mut cursor, 1024).unwrap().as_ref(), Some(m));
        }
        assert!(read_msg::<_, Msg<'_>>(&mut cursor, 1024).unwrap().is_none());
        assert!(matches!(decode::<Msg<'_>>(&[7]), Err(WireError::Malformed(_))));
        let mut frame = Vec::new();
        write_frame(&mut frame, 12, &[0]).unwrap();
        assert!(matches!(
            read_msg::<_, Msg<'_>>(frame.as_slice(), 1024),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn errors_display() {
        assert!(WireError::Truncated { needed: 4, available: 1 }.to_string().contains("truncated"));
        assert!(WireError::BadVersion { got: 9 }.to_string().contains("version 9"));
        assert!(WireError::Oversized { len: 10, limit: 5 }.to_string().contains("limit"));
        assert!(WireError::from(std::io::Error::other("x")).to_string().contains("i/o"));
    }
}
