//! The resident server: socket accept loop, per-connection protocol
//! handling, session registry and graceful drain.
//!
//! One process, one [`Scheduler`]; any number of client connections,
//! each carrying any number of interleaved sessions. Replies for all
//! sessions of a connection are multiplexed onto its single writer
//! (every line carries the session `id`), so clients demultiplex by
//! `id` rather than by stream.
//!
//! Shutdown is an in-band `{"op":"shutdown"}` request (any connection
//! may send it — the server fleet's supervisor owns the socket, so
//! in-band is the honest interface in a `std`-only process with no
//! signal-handler access): admission stops immediately with typed
//! `shutting_down` replies, queued and running sessions finish and
//! deliver their results, runner threads exit, the accept loop wakes
//! and returns. Every session's [`CancelToken`] is registered in a
//! [`CancelGroup`], so the *abortive* variant
//! (`{"op":"shutdown","mode":"abort"}`) is exactly one `cancel_all`
//! call on top of the graceful path: every live session winds down
//! with `outcome:"cancelled"`, results still delivered.
//!
//! Admission also owns program resolution: the request's `program` /
//! `program_ref` is resolved against the content-addressed
//! [`ProgramCache`] *before* a scheduler slot is taken, so repeated
//! rule sets share one compiled bundle and malformed programs are
//! rejected with a typed `parse_error` result without ever occupying
//! a runner.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use chase_core::cancel::{CancelGroup, CancelToken};
use chase_core::compile::CompiledProgram;
use chase_telemetry::{names, Event};

use crate::cache::{Caches, DecideCache, ProgramCache, ProgramCacheConfig, Resolution};
use crate::protocol::{parse_request, Reply, Request, SessionRequest};
use crate::scheduler::{Rejected, RunnerCtx, Scheduler, SchedulerConfig};
use crate::session::{event_line, run_session};

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:PATH`, `tcp:ADDR`, a bare path (contains `/`) or a
    /// bare TCP address.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if s.contains('/') {
            return Ok(Endpoint::Unix(PathBuf::from(s)));
        }
        if s.contains(':') {
            return Ok(Endpoint::Tcp(s.to_string()));
        }
        Err(format!(
            "cannot interpret endpoint '{s}': use unix:PATH or tcp:HOST:PORT"
        ))
    }

    /// Connects to the endpoint and returns the connection's read and
    /// write halves.
    pub(crate) fn connect(&self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        }
        .split()
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Scheduler knobs (runners, queue caps, retry hint).
    pub scheduler: SchedulerConfig,
    /// Program-cache caps (entries, bytes).
    pub cache: CacheConfig,
}

/// Cache sizing for [`ServerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Compiled-program cache caps.
    pub programs: ProgramCacheConfig,
    /// Maximum memoized decide verdicts.
    pub decide_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            programs: ProgramCacheConfig::default(),
            decide_entries: 1024,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// The stream's read and write halves.
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Stream::Tcp(s) => Ok((Box::new(s.try_clone()?), Box::new(s))),
            Stream::Unix(s) => Ok((Box::new(s.try_clone()?), Box::new(s))),
        }
    }
}

/// One connection's shared, mutex-guarded line writer. All sessions of
/// the connection funnel through it; a write failure flips it into
/// degraded mode (silently dropping further lines — the client is
/// gone) after warning once on stderr.
pub struct ConnWriter {
    inner: Mutex<WriterInner>,
}

struct WriterInner {
    stream: Box<dyn Write + Send>,
    degraded: bool,
    warned: bool,
}

impl WriterInner {
    fn write_line(&mut self, line: &str) -> bool {
        if self.degraded {
            return false;
        }
        let wrote = self
            .stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush());
        if let Err(e) = wrote {
            self.degraded = true;
            if !self.warned {
                self.warned = true;
                eprintln!("chase-server: connection write failed ({e}); dropping further replies");
            }
            return false;
        }
        true
    }
}

impl ConnWriter {
    fn new(stream: Box<dyn Write + Send>) -> Self {
        ConnWriter {
            inner: Mutex::new(WriterInner {
                stream,
                degraded: false,
                warned: false,
            }),
        }
    }

    /// Writes one line (newline appended). Returns `false` once the
    /// connection has degraded; the caller decides what dropping a
    /// line means (sessions count dropped events, results are
    /// best-effort).
    pub fn send_line(&self, line: &str) -> bool {
        self.lock().write_line(line)
    }

    fn lock(&self) -> MutexGuard<'_, WriterInner> {
        self.inner.lock().expect("connection writer poisoned")
    }
}

/// Live-session registry: session id → cancel token, plus the group
/// that lets shutdown reach everything at once.
#[derive(Default)]
struct Registry {
    live: Mutex<HashMap<String, CancelToken>>,
    group: CancelGroup,
}

impl Registry {
    /// Registers a session's token; `false` if the id is already live
    /// (duplicate ids are a protocol error — sessions are keyed by id).
    fn insert(&self, id: &str, token: CancelToken) -> bool {
        let mut live = self.live.lock().expect("registry poisoned");
        if live.contains_key(id) {
            return false;
        }
        self.group.adopt(token.clone());
        live.insert(id.to_string(), token);
        true
    }

    fn cancel(&self, id: &str) -> bool {
        match self.live.lock().expect("registry poisoned").get(id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    fn remove(&self, id: &str) {
        self.live.lock().expect("registry poisoned").remove(id);
        self.group.prune();
    }

    /// Abortive shutdown: one call trips every live session's token
    /// (queued sessions registered at admission included), so each
    /// winds down with `outcome:"cancelled"` and still delivers its
    /// result line.
    fn abort_all(&self) {
        self.group.cancel_all();
    }
}

/// The resident chase server. [`Server::bind`] then [`Server::run`];
/// `run` returns after a graceful drain.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    scheduler: Arc<Scheduler>,
    registry: Arc<Registry>,
    caches: Arc<Caches>,
    shutting_down: Arc<AtomicBool>,
}

impl Server {
    /// Binds the endpoint (an existing unix socket path is unlinked
    /// first) and starts the scheduler's runner threads.
    pub fn bind(endpoint: &Endpoint, config: ServerConfig) -> std::io::Result<Server> {
        let (listener, endpoint) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                // Re-render with the actual port (`:0` binds pick one).
                let actual = Endpoint::Tcp(listener.local_addr()?.to_string());
                (Listener::Tcp(listener), actual)
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Endpoint::Unix(path.clone()),
                )
            }
        };
        Ok(Server {
            listener,
            endpoint,
            scheduler: Arc::new(Scheduler::new(config.scheduler)),
            registry: Arc::new(Registry::default()),
            caches: Arc::new(Caches {
                programs: ProgramCache::new(config.cache.programs),
                decide: DecideCache::new(config.cache.decide_entries),
            }),
            shutting_down: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound endpoint (with the real port for `:0` TCP binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Serves until a `shutdown` request completes its drain. Each
    /// connection gets its own handler thread; sessions run on the
    /// scheduler regardless of which connection submitted them.
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("chase-server: accept failed: {e}");
                    continue;
                }
            };
            let ctx = HandlerCtx {
                scheduler: Arc::clone(&self.scheduler),
                registry: Arc::clone(&self.registry),
                caches: Arc::clone(&self.caches),
                shutting_down: Arc::clone(&self.shutting_down),
                endpoint: self.endpoint.clone(),
            };
            // Drop the handles of finished handlers so their thread
            // stacks are unmapped now, not at shutdown.
            handlers.retain(|h| !h.is_finished());
            handlers.push(std::thread::spawn(move || handle_connection(stream, &ctx)));
        }
        // Drain: finish queued + running sessions, join runners, then
        // the handler threads (their clients have their results).
        self.scheduler.shutdown();
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

struct HandlerCtx {
    scheduler: Arc<Scheduler>,
    registry: Arc<Registry>,
    caches: Arc<Caches>,
    shutting_down: Arc<AtomicBool>,
    endpoint: Endpoint,
}

impl HandlerCtx {
    /// Wakes the blocking accept loop after shutdown was flagged.
    fn poke_acceptor(&self) {
        let _ = self.endpoint.connect();
    }
}

fn handle_connection(stream: Stream, ctx: &HandlerCtx) {
    let (read, write) = match stream.split() {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("chase-server: cannot split connection: {e}");
            return;
        }
    };
    let conn = Arc::new(ConnWriter::new(write));
    for line in BufReader::new(read).lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(msg) => {
                conn.send_line(&Reply::new("error").str("message", &msg).finish());
            }
            Ok(Request::Ping) => {
                conn.send_line(&Reply::new("pong").finish());
            }
            Ok(Request::Cancel { id }) => {
                let hit = ctx.registry.cancel(&id);
                conn.send_line(
                    &Reply::new("cancel_ack")
                        .str("id", &id)
                        .str("known", if hit { "true" } else { "false" })
                        .finish(),
                );
            }
            Ok(Request::Shutdown { abort }) => {
                conn.send_line(
                    &Reply::new("shutdown_ack")
                        .str("mode", if abort { "abort" } else { "graceful" })
                        .num("queued", ctx.scheduler.queued() as u64)
                        .num("running", ctx.scheduler.running() as u64)
                        .finish(),
                );
                if !ctx.shutting_down.swap(true, Ordering::SeqCst) {
                    ctx.poke_acceptor();
                }
                if abort {
                    ctx.registry.abort_all();
                }
                // The reader keeps serving pings/cancels for this
                // connection until the client hangs up; admission is
                // already closed.
            }
            Ok(Request::Session(req)) => {
                if let Some(program) = resolve_program(ctx, &conn, &req) {
                    submit_session(ctx, &conn, req, program);
                }
            }
        }
    }
}

/// Admission-time program resolution: `program_ref` against the cache
/// first, then source (alias hit or compile-and-insert). Returns
/// `None` when a terminal reply has already been sent — shutdown gate,
/// `unknown_program` miss, typed `parse_error`, or a contained compile
/// panic. In every `None` case the request never touched the
/// scheduler: a tenant spamming bad input cannot crowd out healthy
/// sessions.
fn resolve_program(
    ctx: &HandlerCtx,
    conn: &ConnWriter,
    req: &SessionRequest,
) -> Option<Arc<CompiledProgram>> {
    let id = req.id.as_str();
    // Sends one cache counter on the session's telemetry stream.
    let emit = |name: &'static str, delta: u64| {
        if req.telemetry && delta > 0 {
            let event = Event::CounterAdd { name, delta };
            conn.send_line(event_line(&mut String::new(), id, &event));
        }
    };
    // Gate before compiling: a draining server should not burn CPU on
    // admission work it will refuse anyway.
    if ctx.shutting_down.load(Ordering::SeqCst) {
        conn.send_line(&Reply::new("shutting_down").str("id", id).finish());
        return None;
    }
    if let Some(fp) = req.program_ref {
        if let Some(program) = ctx.caches.programs.lookup_ref(fp) {
            emit(names::PROGRAM_CACHE_HITS, 1);
            return Some(program);
        }
        if req.program.is_none() {
            conn.send_line(
                &Reply::new("unknown_program")
                    .str("id", id)
                    .str("program_ref", &fp.to_hex())
                    .finish(),
            );
            return None;
        }
        // A source fallback rode along: resolve it below (one round
        // trip saved versus replying `unknown_program`).
    }
    let source = req
        .program
        .as_deref()
        .expect("protocol guarantees program or program_ref");
    let resolved = catch_unwind(AssertUnwindSafe(|| {
        ctx.caches.programs.resolve_source(source, &req.tenant)
    }));
    match resolved {
        Err(_) => {
            conn.send_line(
                &Reply::new("result")
                    .str("id", id)
                    .str("status", "panicked")
                    .str("error", "program compilation panicked")
                    .num("elapsed_ms", 0)
                    .finish(),
            );
            None
        }
        Ok(Err(e)) => {
            // Malformed programs are rejected here, before enqueue;
            // the reply shape matches the old in-session parse_error
            // result so clients are none the wiser.
            conn.send_line(
                &Reply::new("result")
                    .str("id", id)
                    .str("status", "parse_error")
                    .str("error", &e.to_string())
                    .num("elapsed_ms", 0)
                    .finish(),
            );
            None
        }
        Ok(Ok(resolved)) => {
            match resolved.resolution {
                Resolution::Hit => emit(names::PROGRAM_CACHE_HITS, 1),
                Resolution::Compiled => {
                    emit(names::PROGRAM_CACHE_MISSES, 1);
                    emit(names::PROGRAM_COMPILES, 1);
                }
            }
            emit(names::PROGRAM_CACHE_EVICTIONS, resolved.evicted);
            Some(resolved.program)
        }
    }
}

/// Admission control for one session: shutdown gate, duplicate-id
/// check, scheduler submit with typed shed replies. The registry holds
/// a clone of the token the session will actually poll, so `cancel`
/// requests reach it.
fn submit_session(
    ctx: &HandlerCtx,
    conn: &Arc<ConnWriter>,
    req: Box<SessionRequest>,
    program: Arc<CompiledProgram>,
) {
    let id = req.id.clone();
    if ctx.shutting_down.load(Ordering::SeqCst) {
        conn.send_line(&Reply::new("shutting_down").str("id", &id).finish());
        return;
    }
    if !ctx.registry.insert(&id, req.cancel.clone()) {
        conn.send_line(
            &Reply::new("error")
                .str("id", &id)
                .str("message", "session id already in use")
                .finish(),
        );
        return;
    }
    // `program` is the canonical fingerprint: clients may resubmit the
    // same rule set by `program_ref` from now on.
    let accepted = Reply::new("accepted")
        .str("id", &id)
        .str("program", &program.fingerprint().to_hex())
        .finish();
    let tenant = req.tenant.clone();
    let job = {
        let conn = Arc::clone(conn);
        let registry = Arc::clone(&ctx.registry);
        let caches = Arc::clone(&ctx.caches);
        move |runner: &mut RunnerCtx| {
            let line = run_session(&req, &program, &conn, &caches, runner);
            // Free the id before the client can read the result: only
            // live ids clash.
            registry.remove(&req.id);
            // Best effort: a fully dead connection can't carry the
            // result, but the session still completed server-side.
            conn.send_line(&line);
        }
    };
    // `accepted` must precede every line a runner writes for this
    // session. Holding the writer lock across the submit makes a
    // runner that picks the job up at once wait for it. Runners never
    // hold the scheduler lock while writing, so this lock order
    // (writer, then scheduler) cannot deadlock.
    let mut writer = conn.lock();
    match ctx.scheduler.submit(&tenant, Box::new(job)) {
        Ok(()) => {
            writer.write_line(&accepted);
        }
        Err(Rejected::Overloaded { retry_after_ms }) => {
            ctx.registry.remove(&id);
            writer.write_line(
                &Reply::new("overloaded")
                    .str("id", &id)
                    .num("retry_after_ms", retry_after_ms)
                    .finish(),
            );
        }
        Err(Rejected::ShuttingDown) => {
            ctx.registry.remove(&id);
            writer.write_line(&Reply::new("shutting_down").str("id", &id).finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing_round_trips() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7878").unwrap(),
            Endpoint::Tcp("127.0.0.1:7878".into())
        );
        assert!(Endpoint::parse("nonsense").is_err());
    }

    #[test]
    fn conn_writer_degrades_once_and_counts_drops() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let conn = ConnWriter::new(Box::new(Broken));
        assert!(!conn.send_line("{\"type\":\"pong\"}"));
        assert!(!conn.send_line("{\"type\":\"event\"}"));
    }
}
