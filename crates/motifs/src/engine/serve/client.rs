//! The library/CLI client half of the `tnm serve` protocol.
//!
//! [`ServeClient`] wraps one TCP connection in typed request/response
//! calls: load a graph, run a [`Query`], append a live batch, register
//! an incremental subscription, read stats, metrics and the metrics
//! time series, shut the daemon down. Every call writes one [`Request`]
//! frame and reads exactly one [`Response`] frame; an error response
//! surfaces as [`ClientError::Server`] and the connection stays usable
//! for the next call — mirroring the server's recoverable-error
//! contract.
//!
//! Large initial loads are chunked automatically: a graph bigger than
//! [`LOAD_CHUNK_EVENTS`] ships as one `Load` request plus time-ordered
//! `Append` requests, so no request ever approaches the wire's
//! frame-payload ceiling.

use super::protocol::{AppendAck, Request, Response, ServerStats, TraceReply};
use crate::count::MotifCounts;
use crate::engine::query::{Query, QueryResponse};
use crate::engine::EnumConfig;
use std::borrow::Cow;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tnm_graph::wire::{read_msg, write_msg, Message, WireError, MAX_FRAME_PAYLOAD};
use tnm_graph::Event;

/// Events per frame when [`ServeClient::load_graph`] chunks a large
/// initial load: 1M events ≈ 20 MB of event block, comfortably under
/// the 64 MiB frame ceiling.
pub const LOAD_CHUNK_EVENTS: usize = 1 << 20;

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// Connection-level I/O failure.
    Io(std::io::Error),
    /// The response could not be decoded (or the server closed the
    /// connection mid-exchange).
    Wire(WireError),
    /// The server answered with an error frame; the message is its
    /// reason and the connection remains usable.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve connection error: {e}"),
            ClientError::Wire(e) => write!(f, "serve protocol error: {e}"),
            ClientError::Server(msg) => write!(f, "server rejected request: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One client connection to a [`MotifServer`](super::MotifServer).
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServeClient {
    /// Connects to a running server, with Nagle's algorithm off
    /// (`TCP_NODELAY`): a request frame larger than the write buffer
    /// leaves as a small header segment and then its payload, and with
    /// Nagle on the payload would wait for the server's delayed ACK —
    /// about 40 ms per call.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient { reader, writer: BufWriter::new(stream) })
    }

    /// Whether the connection's socket has `TCP_NODELAY` set.
    #[cfg(test)]
    pub(crate) fn nodelay(&self) -> std::io::Result<bool> {
        self.writer.get_ref().nodelay()
    }

    /// Connects with retries — for scripted sessions racing a daemon's
    /// startup (the CI smoke step starts `tnm serve` in the background
    /// and connects as soon as the port opens).
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        attempts: usize,
        delay: Duration,
    ) -> Result<Self, ClientError> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// One request/response exchange. The server keeps the connection
    /// open after an error response, so `Err(Server(_))` does not
    /// poison the client.
    fn call(&mut self, request: &Request<'_>) -> Result<Response, ClientError> {
        write_msg(&mut self.writer, request)?;
        self.writer.flush()?;
        match read_msg(&mut self.reader, MAX_FRAME_PAYLOAD)? {
            Some(Response::Error(message)) => Err(ClientError::Server(message)),
            Some(response) => Ok(response),
            None => Err(ClientError::Wire(WireError::Truncated { needed: 1, available: 0 })),
        }
    }

    /// Loads `events` into the server's registry under `name`,
    /// returning the loaded `(events, nodes)` totals. Oversized loads
    /// are chunked through time-ordered appends automatically.
    pub fn load_graph(
        &mut self,
        name: &str,
        events: &[Event],
        num_nodes: u32,
    ) -> Result<(u64, u32), ClientError> {
        let mut sorted = events.to_vec();
        sorted.sort_unstable();
        let first = &sorted[..sorted.len().min(LOAD_CHUNK_EVENTS)];
        let request = Request::Load { name: name.into(), num_nodes, events: Cow::Borrowed(first) };
        let (mut total, mut nodes) = match self.call(&request)? {
            Response::Loaded { events, nodes, .. } => (events, nodes),
            other => return Err(unexpected(&other)),
        };
        for chunk in sorted[first.len()..].chunks(LOAD_CHUNK_EVENTS) {
            let ack = self.append_events(name, chunk)?;
            total = ack.total_events;
        }
        nodes = nodes.max(sorted.iter().map(|e| e.src.0.max(e.dst.0) + 1).max().unwrap_or(0));
        Ok((total, nodes))
    }

    /// Appends a time-monotone batch to a loaded graph. The ack carries
    /// every subscription's live counts, already updated incrementally
    /// on the server.
    pub fn append_events(&mut self, name: &str, batch: &[Event]) -> Result<AppendAck, ClientError> {
        match self.call(&Request::Append { name: name.into(), events: Cow::Borrowed(batch) })? {
            Response::Appended(ack) => Ok(ack),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs a [`Query`] against a loaded graph. Validation happens
    /// server-side through the same [`Query::run`] path the CLI uses.
    pub fn query(&mut self, name: &str, query: &Query) -> Result<QueryResponse, ClientError> {
        Ok(self.query_exchange(name, query, false)?.0)
    }

    /// Runs a [`Query`] with request tracing: the server executes it
    /// under a fresh trace id and ships back the request's complete
    /// span tree (serve root, engine phases, distributed worker spans)
    /// plus the server-metrics delta it caused. Render the spans with
    /// [`tnm_obs::chrome_trace`] — that is what `tnm client --trace`
    /// writes.
    pub fn query_traced(
        &mut self,
        name: &str,
        query: &Query,
    ) -> Result<(QueryResponse, TraceReply), ClientError> {
        let (response, trace) = self.query_exchange(name, query, true)?;
        Ok((response, require_trace(trace)?))
    }

    fn query_exchange(
        &mut self,
        name: &str,
        query: &Query,
        trace: bool,
    ) -> Result<(QueryResponse, Option<TraceReply>), ClientError> {
        let request = Request::Query { name: name.into(), query: query.clone(), trace };
        match self.call(&request)? {
            Response::Query { response, trace } => Ok((response, trace)),
            other => Err(unexpected(&other)),
        }
    }

    /// Registers an incremental subscription (stream-eligible configs
    /// only), returning its id and initial counts.
    pub fn subscribe(
        &mut self,
        name: &str,
        cfg: &EnumConfig,
    ) -> Result<(u32, MotifCounts), ClientError> {
        let (id, counts, _) = self.subscribe_exchange(name, cfg, false)?;
        Ok((id, counts))
    }

    /// Registers a subscription with request tracing: like
    /// [`subscribe`](Self::subscribe), plus the span tree and metrics
    /// delta of the initial count.
    pub fn subscribe_traced(
        &mut self,
        name: &str,
        cfg: &EnumConfig,
    ) -> Result<(u32, MotifCounts, TraceReply), ClientError> {
        let (id, counts, trace) = self.subscribe_exchange(name, cfg, true)?;
        Ok((id, counts, require_trace(trace)?))
    }

    fn subscribe_exchange(
        &mut self,
        name: &str,
        cfg: &EnumConfig,
        trace: bool,
    ) -> Result<(u32, MotifCounts, Option<TraceReply>), ClientError> {
        match self.call(&Request::Subscribe { name: name.into(), cfg: cfg.clone(), trace })? {
            Response::Subscribed { id, counts, trace } => Ok((id, counts, trace)),
            other => Err(unexpected(&other)),
        }
    }

    /// Server statistics.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's full metrics snapshot (`serve.*` counters and
    /// latency histograms). Render it with
    /// [`to_prometheus`](tnm_obs::Snapshot::to_prometheus) for
    /// scrape-style output — that is what `tnm client --metrics` prints.
    pub fn metrics(&mut self) -> Result<tnm_obs::Snapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// The sampler's retained windows of metric deltas, oldest first
    /// (see [`tnm_obs::TimeSeries`]) — what `tnm top` polls. The same
    /// ring is served as JSON on the HTTP scrape surface's
    /// `/timeseries`, but this call needs no HTTP listener.
    pub fn timeseries(&mut self) -> Result<Vec<tnm_obs::TimePoint>, ClientError> {
        match self.call(&Request::TimeSeries)? {
            Response::TimeSeries(points) => Ok(points),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to stop accepting connections and exit its
    /// accept loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// A response of the wrong shape for its request.
fn unexpected(response: &Response) -> ClientError {
    ClientError::Wire(WireError::Malformed(format!("unexpected response kind {}", response.kind())))
}

/// A traced request must be answered with a trace.
fn require_trace(trace: Option<TraceReply>) -> Result<TraceReply, ClientError> {
    trace.ok_or_else(|| {
        ClientError::Wire(WireError::Malformed(
            "server did not answer a traced request with a trace".into(),
        ))
    })
}
