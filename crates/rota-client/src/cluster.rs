//! Cluster-aware client: a list of node addresses and sticky
//! round-robin failover on transport errors.
//!
//! A [`ClusterClient`] stays on one node until that node stops
//! answering, then rotates to the next address in the list and retries
//! the in-flight request — the cluster router accepts any admission
//! anywhere, so every node is a legitimate entry point.

use std::net::SocketAddr;
use std::time::Duration;

use rota_actor::{DistributedComputation, Granularity};
use rota_server::protocol::{Request, Response};
use rota_server::spec::{computation_to_json, ComputationSpec};

use crate::{Client, ClientError};

/// What the failover layer has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterClientStats {
    /// Connections dialed (first dials and failover dials).
    pub dials: u64,
    /// Times the client rotated to the next node after a transport
    /// failure.
    pub failovers: u64,
}

/// A blocking client over a set of cluster node addresses.
pub struct ClusterClient {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    connection: Option<Client>,
    timeout: Duration,
    stats: ClusterClientStats,
}

impl ClusterClient {
    /// Builds a client over `addrs`; connections are dialed lazily, so
    /// this fails only on an empty list.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<ClusterClient, ClientError> {
        if addrs.is_empty() {
            return Err(ClientError::Server("no cluster addresses given".into()));
        }
        Ok(ClusterClient {
            addrs,
            cursor: 0,
            connection: None,
            timeout: Duration::from_secs(5),
            stats: ClusterClientStats::default(),
        })
    }

    /// Bounds each dial.
    pub fn with_timeout(mut self, timeout: Duration) -> ClusterClient {
        self.timeout = timeout;
        self
    }

    /// The node the next request will be sent to.
    pub fn current_addr(&self) -> SocketAddr {
        self.addrs[self.cursor]
    }

    /// Failover counters.
    pub fn stats(&self) -> ClusterClientStats {
        self.stats
    }

    /// Sends `request`, rotating through the address list on transport
    /// errors (each node is tried once per call). Server-level errors
    /// and decisions are returned as-is — only a node that cannot
    /// answer at all triggers failover.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.addrs.len() {
            if attempt > 0 {
                self.stats.failovers += 1;
                self.connection = None;
                self.cursor = (self.cursor + 1) % self.addrs.len();
            }
            match self.call_current(request) {
                Err(err @ (ClientError::Io(_) | ClientError::Frame(_))) => {
                    last = Some(err);
                }
                answer => return answer,
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Server("no cluster addresses given".into())))
    }

    /// Submits a computation for admission anywhere in the cluster.
    pub fn admit(
        &mut self,
        computation: &DistributedComputation,
        granularity: Granularity,
    ) -> Result<Response, ClientError> {
        let spec = ComputationSpec::from_json(&computation_to_json(computation))?;
        self.call(&Request::Admit {
            computation: spec,
            granularity,
            forwarded: false,
        })
    }

    fn call_current(&mut self, request: &Request) -> Result<Response, ClientError> {
        let addr = self.addrs[self.cursor];
        let timeout = self.timeout;
        let client = match &mut self.connection {
            Some(client) => client,
            slot @ None => {
                self.stats.dials += 1;
                slot.insert(Client::connect_timeout(addr, timeout)?)
            }
        };
        client.call(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpListener;
    use std::thread;

    use rota_server::protocol::{read_frame, write_frame};

    /// A one-connection stub node: answers every request on its first
    /// connection with `respond(request_count)`, then exits.
    fn stub_node(respond: impl Fn(u64) -> Response + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut count = 0u64;
            while let Ok(line) = read_frame(&mut reader, rota_server::MAX_FRAME_BYTES) {
                let _ = Request::from_line(&line);
                count += 1;
                if write_frame(&mut writer, &respond(count).to_json()).is_err() {
                    break;
                }
            }
        });
        addr
    }

    /// An address that accepts the dial and immediately hangs up.
    fn dead_node() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                drop(stream);
            }
        });
        addr
    }

    #[test]
    fn empty_address_list_is_rejected() {
        assert!(ClusterClient::new(Vec::new()).is_err());
    }

    #[test]
    fn transport_failure_rotates_to_the_next_node() {
        let dead = dead_node();
        let live = stub_node(|_| Response::Pong);
        let mut client = ClusterClient::new(vec![dead, live]).unwrap();
        let response = client.call(&Request::Ping).unwrap();
        assert!(matches!(response, Response::Pong));
        assert_eq!(client.stats().failovers, 1);
        assert_eq!(client.current_addr(), live, "sticks to the survivor");
        // The next request goes straight to the live node.
        let response = client.call(&Request::Ping).unwrap();
        assert!(matches!(response, Response::Pong));
        assert_eq!(client.stats().failovers, 1);
    }

    #[test]
    fn server_errors_do_not_trigger_failover() {
        let fussy = stub_node(|_| Response::Error {
            message: "version-mismatch".into(),
        });
        let never = dead_node();
        let mut client = ClusterClient::new(vec![fussy, never]).unwrap();
        // An `error` answer is a real answer: it comes back verbatim
        // instead of burning the other nodes.
        let response = client.call(&Request::Ping).unwrap();
        assert!(matches!(response, Response::Error { .. }));
        assert_eq!(client.stats().failovers, 0);
    }

    #[test]
    fn all_nodes_down_returns_the_last_transport_error() {
        let mut client = ClusterClient::new(vec![dead_node(), dead_node()]).unwrap();
        match client.call(&Request::Ping) {
            Err(ClientError::Io(_) | ClientError::Frame(_)) => {}
            other => panic!("expected a transport error, got {other:?}"),
        }
        assert_eq!(client.stats().failovers, 1);
    }
}
