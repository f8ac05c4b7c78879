//! Client-side driver: connect, submit one session, stream its reply
//! lines, and retry load-shed submissions with exponential backoff +
//! jitter.
//!
//! The retry loop only re-sends on `overloaded` (a typed, explicitly
//! retryable shed) and honours the server's `retry_after_ms` as a
//! floor under the exponential curve. Jitter is deterministic per
//! [`ClientConfig::jitter_seed`] so tests replay exactly; real callers
//! seed from anything handy. `shutting_down` and `error` replies are
//! terminal — retrying a draining server is how thundering herds are
//! made.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use chase_telemetry::json::{parse_line, Scalar};

use crate::server::Endpoint;

/// Retry/backoff knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Resubmission attempts after the first (0 = never retry).
    pub retries: u32,
    /// First backoff step; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retries: 5,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x5EED,
        }
    }
}

/// Why a session submission ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure.
    Io(String),
    /// The server replied `error`, or closed mid-session.
    Protocol(String),
    /// Still `overloaded` after every retry; the payload is the number
    /// of attempts made.
    Overloaded(u32),
    /// The server is draining; the session was not admitted.
    ShuttingDown,
    /// A `program_ref` submission missed the server's program cache
    /// and no full-source fallback was available; the payload is the
    /// unknown fingerprint.
    UnknownProgram(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "i/o error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Overloaded(attempts) => {
                write!(f, "server overloaded after {attempts} attempts")
            }
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::UnknownProgram(fp) => {
                write!(f, "program_ref {fp} is not cached (resubmit full source)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A finished session as seen from the client.
#[derive(Debug)]
pub struct SessionResult {
    /// The terminal `result` line's fields.
    pub result: BTreeMap<String, Scalar>,
    /// `event` lines relayed before the result.
    pub events: u64,
    /// Connection attempts used (1 = no retry needed).
    pub attempts: u32,
}

/// Minimal xorshift for jitter; deliberately local — the engine's PRNG
/// is crate-private and pulling `rand` in for backoff noise would be
/// absurd.
struct Jitter(u64);

impl Jitter {
    fn next_ms(&mut self, cap_ms: u64) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        if cap_ms == 0 {
            0
        } else {
            x % cap_ms
        }
    }
}

/// `line` and its newline in `buf`, which is cleared first: the bytes
/// [`send`] writes.
fn frame<'a>(buf: &'a mut Vec<u8>, line: &str) -> &'a [u8] {
    buf.clear();
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    buf
}

/// Connects, sends one framed request line (newline included) in one
/// write, and returns a reader for the replies.
fn send(endpoint: &Endpoint, framed: &[u8]) -> Result<impl BufRead, ClientError> {
    let io = |e: std::io::Error| ClientError::Io(e.to_string());
    let (read, mut write) = endpoint.connect().map_err(io)?;
    write
        .write_all(framed)
        .and_then(|()| write.flush())
        .map_err(io)?;
    Ok(BufReader::new(read))
}

/// Sends one already-encoded request line and returns the parsed reply
/// lines until (and excluding) the first one whose `type` is terminal
/// for this request. Fire-and-forget ops (`ping`, `shutdown`,
/// `cancel`) get exactly one line back; use this for those too.
pub fn request_once(
    endpoint: &Endpoint,
    request_line: &str,
) -> Result<BTreeMap<String, Scalar>, ClientError> {
    let mut reader = send(endpoint, frame(&mut Vec::new(), request_line))?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(ClientError::Protocol("server closed the connection".into())),
        Ok(_) => parse_line(line.trim_end()).map_err(ClientError::Protocol),
        Err(e) => Err(ClientError::Io(e.to_string())),
    }
}

/// Submits one session request and drives it to its `result` line,
/// retrying `overloaded` sheds per `config`. Every reply line of the
/// session (accepted, events, result) is handed to `on_line` as it
/// arrives, so a CLI can tee the stream.
pub fn run_session<F>(
    endpoint: &Endpoint,
    request_line: &str,
    config: &ClientConfig,
    on_line: F,
) -> Result<SessionResult, ClientError>
where
    F: FnMut(&BTreeMap<String, Scalar>),
{
    run_session_with_fallback(endpoint, request_line, None, config, on_line)
}

/// [`run_session`] with a full-source fallback line for `program_ref`
/// submissions: when the server replies `unknown_program` (cache
/// miss), the fallback is submitted immediately on a fresh connection
/// — one extra round trip, no backoff, and the server caches the
/// program for next time. Without a fallback the miss surfaces as
/// [`ClientError::UnknownProgram`].
pub fn run_session_with_fallback<F>(
    endpoint: &Endpoint,
    request_line: &str,
    fallback_line: Option<&str>,
    config: &ClientConfig,
    mut on_line: F,
) -> Result<SessionResult, ClientError>
where
    F: FnMut(&BTreeMap<String, Scalar>),
{
    let mut jitter = Jitter(config.jitter_seed);
    let mut attempts = 0u32;
    let mut line = request_line;
    // The framed line, reused by every attempt.
    let mut framed = Vec::new();
    loop {
        attempts += 1;
        match drive_once(endpoint, frame(&mut framed, line), &mut on_line) {
            Ok(Driven::Finished { result, events }) => {
                return Ok(SessionResult {
                    result,
                    events,
                    attempts,
                })
            }
            Ok(Driven::Overloaded { retry_after_ms }) => {
                if attempts > config.retries {
                    return Err(ClientError::Overloaded(attempts));
                }
                // Exponential curve with the server's hint as a floor,
                // plus up to one base-step of jitter, capped.
                let exp = config
                    .base_backoff
                    .saturating_mul(1u32 << (attempts - 1).min(16));
                let base = exp.max(Duration::from_millis(retry_after_ms));
                let jitter_ms = jitter.next_ms(config.base_backoff.as_millis().max(1) as u64);
                let wait = (base + Duration::from_millis(jitter_ms)).min(config.max_backoff);
                std::thread::sleep(wait);
            }
            Ok(Driven::ShuttingDown) => return Err(ClientError::ShuttingDown),
            Ok(Driven::UnknownProgram { program_ref }) => match fallback_line {
                // Resubmit the full-source line at once — the miss is
                // not a load condition, so no backoff applies. If the
                // fallback itself misses (it can't: it carries source),
                // the second arm stops any theoretical loop.
                Some(fallback) if line != fallback => line = fallback,
                _ => return Err(ClientError::UnknownProgram(program_ref)),
            },
            Err(e) => return Err(e),
        }
    }
}

enum Driven {
    Finished {
        result: BTreeMap<String, Scalar>,
        events: u64,
    },
    Overloaded {
        retry_after_ms: u64,
    },
    ShuttingDown,
    UnknownProgram {
        program_ref: String,
    },
}

fn drive_once<F>(endpoint: &Endpoint, framed: &[u8], on_line: &mut F) -> Result<Driven, ClientError>
where
    F: FnMut(&BTreeMap<String, Scalar>),
{
    let mut events = 0u64;
    for line in send(endpoint, framed)?.lines() {
        let line = line.map_err(|e| ClientError::Io(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse_line(&line).map_err(ClientError::Protocol)?;
        let kind = parsed
            .get("type")
            .and_then(Scalar::as_str)
            .unwrap_or("")
            .to_string();
        on_line(&parsed);
        match kind.as_str() {
            "accepted" => {}
            "event" => events += 1,
            "result" => {
                return Ok(Driven::Finished {
                    result: parsed,
                    events,
                })
            }
            "overloaded" => {
                let retry_after_ms = parsed
                    .get("retry_after_ms")
                    .and_then(Scalar::as_num)
                    .unwrap_or(0);
                return Ok(Driven::Overloaded { retry_after_ms });
            }
            "shutting_down" => return Ok(Driven::ShuttingDown),
            "unknown_program" => {
                let program_ref = parsed
                    .get("program_ref")
                    .and_then(Scalar::as_str)
                    .unwrap_or("")
                    .to_string();
                return Ok(Driven::UnknownProgram { program_ref });
            }
            "error" => {
                let msg = parsed
                    .get("message")
                    .and_then(Scalar::as_str)
                    .unwrap_or("unspecified server error");
                return Err(ClientError::Protocol(msg.to_string()));
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected reply type \"{other}\""
                )))
            }
        }
    }
    Err(ClientError::Protocol(
        "server closed the connection before the result".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = Jitter(42);
        let mut b = Jitter(42);
        for _ in 0..32 {
            let x = a.next_ms(100);
            assert_eq!(x, b.next_ms(100));
            assert!(x < 100);
        }
        assert_eq!(Jitter(7).next_ms(0), 0);
    }
}
