//! # rota-client — talk to a rota-server admission service
//!
//! A blocking [`Client`] over the newline-delimited JSON protocol of
//! [`rota_server::protocol`], plus a multi-connection [`loadtest`]
//! harness that drives a server with [`rota_workload`]-generated
//! traffic and reports throughput, latency percentiles, and acceptance
//! rates. The [`resilient`] module's [`ResilientClient`] is the one
//! retrying client: over a list of addresses (one server, or every node
//! of a rota-cluster federation) it layers deterministic retry,
//! exponential backoff with seeded jitter, per-request deadline
//! budgets and sticky failover on transport errors on top of the raw
//! client. The load test drives every connection through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadtest;
pub mod resilient;

use std::fmt;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rota_actor::{DistributedComputation, Granularity};
use rota_admission::ControllerStats;
use rota_obs::Json;
use rota_server::protocol::{read_frame, write_frame, FrameError, Request, Response};
use rota_server::spec::{ComputationSpec, ResourceSpec, SpecError};

pub use loadtest::{request_schedule, run_loadtest, LoadtestConfig, LoadtestReport};
pub use resilient::{ResilienceStats, ResilientClient, RetryConfig};

/// Anything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server closed the connection or sent an unreadable frame.
    Frame(FrameError),
    /// The frame was valid JSON but not a valid response document.
    Spec(SpecError),
    /// The server answered with an `error` response.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
            ClientError::Frame(err) => write!(f, "frame error: {err}"),
            ClientError::Spec(err) => write!(f, "bad response document: {err}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> Self {
        ClientError::Frame(err)
    }
}

impl From<SpecError> for ClientError {
    fn from(err: SpecError) -> Self {
        ClientError::Spec(err)
    }
}

/// A blocking connection to a rota-server instance.
///
/// One request/response in flight at a time; reconnect by constructing
/// a new client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        Client::wrap(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on how long the dial may take.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<Client, ClientError> {
        Client::wrap(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn wrap(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Bounds how long one read or one write on this connection may
    /// block. A call that outlives it fails with [`ClientError::Io`];
    /// its answer may still arrive, so the connection must not carry
    /// another call.
    pub fn set_io_timeout(&self, timeout: Duration) -> Result<(), ClientError> {
        let stream = self.writer.get_ref();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(())
    }

    /// Whether this idle connection can carry another call: nothing of
    /// the server's is buffered or waiting on the socket, and the server
    /// has not closed it. An unsolicited frame (such as the idle
    /// reaper's `idle timeout` error) makes it unusable, because the
    /// next call would read that frame as its answer.
    pub fn is_reusable(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(
            stream.peek(&mut [0u8; 1]),
            Err(err) if err.kind() == ErrorKind::WouldBlock
        );
        stream.set_nonblocking(false).is_ok() && quiet
    }

    /// Sends one request frame and reads one response frame.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, request)?;
        let line = read_frame(&mut self.reader, rota_server::MAX_FRAME_BYTES)?;
        Ok(Response::from_line(&line)?)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Version handshake: announce our [`rota_server::PROTOCOL_VERSION`]
    /// and confirm the server speaks it. A mismatched server answers
    /// with a structured `version-mismatch` error (surfaced as
    /// [`ClientError::Server`]) instead of a decode failure.
    pub fn hello(&mut self) -> Result<u64, ClientError> {
        self.hello_as(None)
    }

    /// [`Client::hello`] with a cluster node identity attached (peers
    /// introduce themselves by node id).
    pub fn hello_as(&mut self, node: Option<&str>) -> Result<u64, ClientError> {
        match self.call(&Request::Hello {
            version: rota_server::PROTOCOL_VERSION,
            node: node.map(str::to_string),
        })? {
            Response::Welcome { version } => Ok(version),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a computation for admission at the given granularity.
    /// Returns the raw response — `decision` or `overloaded` are both
    /// legitimate outcomes the caller must distinguish.
    pub fn admit(
        &mut self,
        computation: &DistributedComputation,
        granularity: Granularity,
    ) -> Result<Response, ClientError> {
        self.call(&Request::Admit {
            computation: ComputationSpec::from(computation),
            granularity,
            forwarded: false,
        })
    }

    /// Offers additional resources to the server.
    pub fn offer(&mut self, theta: &rota_resource::ResourceSet) -> Result<u64, ClientError> {
        let resources = theta
            .to_terms()
            .iter()
            .map(ResourceSpec::from_term)
            .collect::<Result<_, _>>()?;
        match self.call(&Request::Offer {
            resources,
            forwarded: false,
        })? {
            Response::Offered { terms } => Ok(terms),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches aggregated controller statistics and the shard count.
    pub fn stats(&mut self) -> Result<(ControllerStats, usize), ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats, shards } => Ok((stats, shards)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a metrics snapshot as a JSON document.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Ends the connection where the server closes after its last
    /// answer (a gossip exchange), leaving no socket in TIME_WAIT on
    /// either end: see [`rota_server::server::hang_up`].
    pub fn hang_up(mut self) {
        rota_server::server::hang_up(self.writer.get_mut());
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    match response {
        Response::Error { message } => ClientError::Server(message.clone()),
        other => ClientError::Server(format!("unexpected response: {}", frame_text(other))),
    }
}

/// The frame the wire carries for `response`, without the newline.
pub(crate) fn frame_text(response: &Response) -> String {
    let mut line = String::new();
    response.write_json(&mut line);
    line
}
