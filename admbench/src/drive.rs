//! The closed-loop load generator: each connection sends its next admit
//! only after the previous verdict came back, as a ROTA submitter
//! blocks on its verdict before its computation starts.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rota_client::Client;
use rota_server::protocol::Response;

use crate::workload::Job;

/// What one admit came back with.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A decision admitting the job.
    Accepted,
    /// A decision refusing the job.
    Rejected,
    /// Explicit backpressure.
    Overloaded,
    /// A transport or server error.
    Error(String),
    /// A decision for some other computation than the one sent.
    WrongName(String),
}

impl Outcome {
    /// Whether the service decided the job.
    pub fn decided(&self) -> bool {
        matches!(self, Outcome::Accepted | Outcome::Rejected)
    }
}

/// One admit's round trip.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the job in the submitted slice.
    pub job: usize,
    /// Connection that sent it.
    pub connection: usize,
    /// Client time from the first send to the final answer, in
    /// nanoseconds, resubmissions included.
    pub ns: u64,
    /// Times the admit was sent again after epoch-race backpressure.
    pub resubmits: u32,
    /// The verdict.
    pub outcome: Outcome,
    /// The response itself, kept only when asked for.
    pub response: Option<Response>,
}

/// Open client connections; connection `c` dials `addrs[c % len]`.
pub struct Generator {
    clients: Vec<Client>,
}

impl Generator {
    /// Connects `connections` clients, outside any timed window.
    pub fn connect(addrs: &[SocketAddr], connections: usize) -> Result<Generator, String> {
        let clients = (0..connections)
            .map(|c| {
                let addr = addrs[c % addrs.len()];
                Client::connect_timeout(addr, Duration::from_secs(2))
                    .map_err(|e| format!("connect {addr}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Generator { clients })
    }

    /// Submits `jobs` closed-loop, one generator thread per connection;
    /// connection `c` sends jobs `c, c + n, c + 2n, …` in order. Returns
    /// the samples in job order and the wall time of the whole batch.
    pub fn run(&mut self, jobs: &[Job], keep_responses: bool) -> (Vec<Sample>, Duration) {
        let n = self.clients.len();
        let started = Instant::now();
        let mut samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (c..jobs.len())
                            .step_by(n)
                            .map(|i| admit(client, c, i, &jobs[i], keep_responses))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed();
        samples.sort_by_key(|s| s.job);
        (samples, elapsed)
    }

    /// Submits `jobs` one at a time from the calling thread, job `i`
    /// over connection `i mod n`: every connection is exercised, but the
    /// service sees one fixed order, so the state it ends in is a pure
    /// function of the jobs.
    pub fn run_serial(&mut self, jobs: &[Job]) -> Vec<Sample> {
        let n = self.clients.len();
        jobs.iter()
            .enumerate()
            .map(|(i, job)| admit(&mut self.clients[i % n], i % n, i, job, false))
            .collect()
    }
}

/// Resubmissions of one admit after epoch-race backpressure before it
/// counts as undecided.
const MAX_RESUBMITS: u32 = 16;

/// Whether `message` is the cluster router's "lost N epoch races …
/// retry later" backpressure: concurrent two-phase commits kept
/// invalidating this admit's snapshot, and nothing was reserved.
fn is_epoch_race(message: &str) -> bool {
    message.contains("epoch races")
}

/// Sends one admit and waits for its answer. Epoch-race backpressure
/// asks the submitter to retry, so the admit is sent again as it was,
/// which starts a new two-phase commit; the sample's time covers every
/// send and its `resubmits` counts the extra ones.
fn admit(client: &mut Client, connection: usize, i: usize, job: &Job, keep: bool) -> Sample {
    let sent = Instant::now();
    let mut resubmits = 0;
    let result = loop {
        let result = client.call(&job.request);
        match &result {
            Ok(Response::Error { message })
                if is_epoch_race(message) && resubmits < MAX_RESUBMITS =>
            {
                resubmits += 1;
            }
            _ => break result,
        }
    };
    let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (outcome, response) = match result {
        Ok(response) => {
            let outcome = match &response {
                Response::Decision {
                    computation,
                    accepted,
                    ..
                } if *computation == job.name => {
                    if *accepted {
                        Outcome::Accepted
                    } else {
                        Outcome::Rejected
                    }
                }
                Response::Decision { computation, .. } => Outcome::WrongName(computation.clone()),
                Response::Overloaded { .. } => Outcome::Overloaded,
                Response::Error { message } => Outcome::Error(message.clone()),
                other => Outcome::Error(format!("unexpected response {:?}", other.to_json())),
            };
            (outcome, keep.then_some(response))
        }
        Err(e) => (Outcome::Error(e.to_string()), None),
    };
    Sample {
        job: i,
        connection,
        ns,
        resubmits,
        outcome,
        response,
    }
}
