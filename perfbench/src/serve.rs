//! The served path: boot the real `chase_server::Server` in-process on a
//! unix socket and drive it with `chase_server::client::run_session` from
//! a closed loop of client threads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chase_server::client::{request_once, run_session, ClientConfig, ClientError};
use chase_server::server::{Endpoint, Server, ServerConfig};
use chase_telemetry::json::Scalar;

use crate::check::{ChaseResult, Reply};
use crate::workload::{Op, Request, Stream};

/// Client threads of the closed loop: each waits for its reply before
/// sending the next request.
pub const CLIENTS: usize = 2;

/// A running in-process server.
pub struct Served {
    endpoint: Endpoint,
    thread: JoinHandle<()>,
}

impl Served {
    /// Binds `socket` with the default [`ServerConfig`], starts serving
    /// and waits for the first `pong`. Returns the server and the
    /// seconds from bind to that `pong`.
    pub fn boot(socket: PathBuf) -> Result<(Served, f64), String> {
        let started = Instant::now();
        let server = Server::bind(&Endpoint::Unix(socket), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let endpoint = server.endpoint().clone();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("perfbench: server stopped: {e}");
            }
        });
        let served = Served { endpoint, thread };
        loop {
            match request_once(&served.endpoint, r#"{"op":"ping"}"#) {
                Ok(reply) if reply.get("type").and_then(Scalar::as_str) == Some("pong") => break,
                Ok(reply) => {
                    served.stop()?;
                    return Err(format!("unexpected ping reply {reply:?}"));
                }
                Err(_) if started.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) => {
                    served.stop()?;
                    return Err(format!("server never answered ping: {e}"));
                }
            }
        }
        Ok((served, started.elapsed().as_secs_f64()))
    }

    /// The bound endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Graceful shutdown; waits for the server thread to end.
    pub fn stop(self) -> Result<(), String> {
        let ack = request_once(&self.endpoint, r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"));
        let joined = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_string());
        ack.and(joined).map(drop)
    }
}

/// One completed request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stream index of the request.
    pub index: u64,
    /// Send-to-`result` latency in microseconds.
    pub latency_us: f64,
    /// The operation sent.
    pub op: Op,
    /// Bytes of the request line.
    pub request_bytes: usize,
    /// Connection attempts (1 unless the server shed the request).
    pub attempts: u32,
    /// The checked reply fields, or why the request failed.
    pub reply: Result<Reply, String>,
    /// `server.*` counters streamed with the reply (telemetry on only).
    pub counters: BTreeMap<String, u64>,
}

/// What one closed-loop window produced.
#[derive(Debug)]
pub struct Window {
    /// Every finished request, ordered by stream index.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
}

fn reduce_result(result: &BTreeMap<String, Scalar>, op: Op) -> Result<Reply, String> {
    let text = |key: &str| result.get(key).and_then(Scalar::as_str);
    let num = |key: &str| result.get(key).and_then(Scalar::as_num);
    if text("status") != Some("ok") {
        return Err(format!("status {:?}: {:?}", text("status"), text("error")));
    }
    match op {
        Op::Decide => text("verdict")
            .map(|v| Reply::Verdict(v.to_string()))
            .ok_or_else(|| "decide result without verdict".to_string()),
        Op::Chase => Ok(Reply::Chase(ChaseResult {
            outcome: text("outcome")
                .ok_or("chase result without outcome")?
                .into(),
            steps: num("steps").ok_or("chase result without steps")?,
            atoms: num("atoms").ok_or("chase result without atoms")?,
            fingerprint: text("fingerprint")
                .ok_or("chase result without fingerprint")?
                .into(),
        })),
    }
}

/// Sends request `index` under session id `id` and waits for its result.
pub fn send(
    endpoint: &Endpoint,
    request: &Request,
    index: u64,
    id: &str,
    telemetry: bool,
    jitter: u64,
) -> Sample {
    let line = request.line(id, telemetry);
    let config = ClientConfig {
        jitter_seed: jitter,
        ..ClientConfig::default()
    };
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let started = Instant::now();
    let done = run_session(endpoint, &line, &config, |reply| {
        if reply.get("event").and_then(Scalar::as_str) != Some("counter_add") {
            return;
        }
        let name = reply.get("name").and_then(Scalar::as_str);
        let delta = reply.get("delta").and_then(Scalar::as_num);
        if let (Some(name), Some(delta)) = (name, delta) {
            if name.starts_with("server.") {
                *counters.entry(name.to_string()).or_insert(0) += delta;
            }
        }
    });
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    let (attempts, reply) = match done {
        Ok(done) => (done.attempts, reduce_result(&done.result, request.op)),
        Err(ClientError::Overloaded(attempts)) => (attempts, Err("overloaded".to_string())),
        Err(e) => (1, Err(e.to_string())),
    };
    Sample {
        index,
        latency_us,
        op: request.op,
        request_bytes: line.len(),
        attempts,
        reply,
        counters,
    }
}

/// Runs the closed loop over stream indices `0..limit` until `deadline`
/// passes: [`CLIENTS`] threads each take the next index, send it and
/// wait for its result. Requests in flight at the deadline finish.
pub fn closed_loop(
    endpoint: &Endpoint,
    stream: &Stream,
    limit: u64,
    deadline: Duration,
    telemetry: bool,
) -> Window {
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while started.elapsed() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= limit {
                        break;
                    }
                    let request = stream.request(index);
                    let id = format!("r{index}");
                    mine.push(send(
                        endpoint,
                        &request,
                        index,
                        &id,
                        telemetry,
                        client as u64 + 1,
                    ));
                }
                samples
                    .lock()
                    .expect("a client thread panicked")
                    .extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut samples = samples.into_inner().expect("a client thread panicked");
    samples.sort_by_key(|s| s.index);
    Window { samples, wall }
}
