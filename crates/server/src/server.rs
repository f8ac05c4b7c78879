//! The resident server: socket accept loop, per-connection protocol
//! handling, session registry and graceful drain.
//!
//! One process, one [`Scheduler`]; any number of client connections,
//! each carrying any number of interleaved sessions. Replies for all
//! sessions of a connection are multiplexed onto its single writer
//! (every line carries the session `id`), so clients demultiplex by
//! `id` rather than by stream.
//!
//! Each connection is served by one handler thread, and handler
//! threads are reused: a handler that finishes a connection parks, and
//! the accept loop hands the next connection to the most recently
//! parked handler. Only when no handler is parked does it spawn a new
//! one, so a connection never waits behind another connection. A
//! parked handler exits after [`HANDLER_IDLE`] without work, so an idle
//! server returns to its runner threads alone. A one-request client
//! (a connection per request) thus costs a channel handoff instead of
//! a thread spawn and join.
//!
//! Shutdown is an in-band `{"op":"shutdown"}` request (any connection
//! may send it — the server fleet's supervisor owns the socket, so
//! in-band is the honest interface in a `std`-only process with no
//! signal-handler access). It closes the scheduler, whose flag is the
//! one "admission is closed" fact: admission answers typed
//! `shutting_down` replies from then on, and the accept loop wakes,
//! joins the runners (the drain: queued and running sessions finish
//! and deliver their results) and returns. The registry holds every
//! live session's [`CancelToken`] from admission to result, so the
//! *abortive* variant (`{"op":"shutdown","mode":"abort"}`) cancels
//! those tokens on top of the graceful path: every queued and running
//! session winds down with `outcome:"cancelled"`, results still
//! delivered.
//!
//! Admission also owns program resolution: the request's `program` /
//! `program_ref` is resolved against the content-addressed
//! [`ProgramCache`] *before* a scheduler slot is taken, so repeated
//! rule sets share one compiled bundle and malformed programs are
//! rejected with a typed `parse_error` result without ever occupying
//! a runner. A `decide` whose verdict is memoized in the
//! [`DecideCache`] is answered right there too, on the handler thread:
//! it never queues, never takes a runner and is never shed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::compile::CompiledProgram;
use chase_telemetry::{names, Event};
use chase_termination::decider_class;

use crate::cache::{Caches, DecideCache, ProgramCache, ProgramCacheConfig, Resolution};
use crate::protocol::{parse_request, Reply, Request, SessionOp, SessionRequest};
use crate::scheduler::{Rejected, RunnerCtx, Scheduler, SchedulerConfig};
use crate::session::{answer_cached_decide, event_line, run_chase, run_decide};

/// How long a connection handler thread stays parked, waiting for its
/// next connection, before it exits. Spawning and joining a thread
/// costs about 20 µs (2-CPU x86-64 host), so a busy server reuses its
/// handlers and an idle one keeps none for long.
pub const HANDLER_IDLE: Duration = Duration::from_secs(2);

/// How long one reply write to an accepted connection may block before
/// the connection degrades (see [`ConnWriter`]). A client that stops
/// reading fills its socket; without a bound, the runner writing its
/// session's events would block until the client read again, and hold
/// its scheduler slot that long. A reading client drains a socket
/// buffer in far less than this.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// Bounds how long each write to the stream may block.
    fn set_write_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(Some(timeout)),
            Stream::Unix(s) => s.set_write_timeout(Some(timeout)),
        }
    }

    /// The stream's read and write halves.
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Stream::Tcp(s) => Ok((Box::new(s.try_clone()?), Box::new(s))),
            Stream::Unix(s) => Ok((Box::new(s.try_clone()?), Box::new(s))),
        }
    }
}

/// One connection's shared, mutex-guarded line writer. All sessions of
/// the connection funnel through it; a write failure — including a
/// write blocked past [`WRITE_TIMEOUT`] by a client that stopped
/// reading — flips it into degraded mode (silently dropping further
/// lines — the client is gone) after warning once on stderr.
pub struct ConnWriter {
    inner: Mutex<WriterInner>,
}

struct WriterInner {
    stream: Box<dyn Write + Send>,
    /// The line being written and its newline, so each line is one
    /// write on the socket.
    buf: Vec<u8>,
    degraded: bool,
}

impl WriterInner {
    fn write_line(&mut self, line: &str) -> bool {
        if self.degraded {
            return false;
        }
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        let wrote = self
            .stream
            .write_all(&self.buf)
            .and_then(|()| self.stream.flush());
        if let Err(e) = wrote {
            self.degraded = true;
            eprintln!("chase-server: connection write failed ({e}); dropping further replies");
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
                buf: Vec::new(),
                degraded: false,
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

/// Live sessions: id → the cancel token the session polls. A session
/// is registered at admission, before it is queued, and removed once
/// its result is written, so `cancel` and abort reach queued and
/// running sessions alike.
#[derive(Default)]
struct Registry {
    live: Mutex<HashMap<String, CancelToken>>,
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, CancelToken>> {
        self.live.lock().expect("registry poisoned")
    }

    /// Registers a session's token; `false` if the id is already live
    /// (duplicate ids are a protocol error — sessions are keyed by id).
    fn insert(&self, id: &str, token: CancelToken) -> bool {
        let mut live = self.lock();
        if live.contains_key(id) {
            return false;
        }
        live.insert(id.to_string(), token);
        true
    }

    fn cancel(&self, id: &str) -> bool {
        self.lock().get(id).map(CancelToken::cancel).is_some()
    }

    fn remove(&self, id: &str) {
        self.lock().remove(id);
    }

    /// Abortive shutdown: trips every live session's token, so each
    /// winds down with `outcome:"cancelled"` and still delivers its
    /// result line.
    fn abort_all(&self) {
        self.lock().values().for_each(CancelToken::cancel);
    }
}

/// Connection handlers parked between connections.
#[derive(Default)]
struct Parked {
    state: Mutex<ParkedState>,
}

#[derive(Default)]
struct ParkedState {
    /// Each parked handler's thread and inbox, most recently parked
    /// last.
    idle: Vec<(ThreadId, SyncSender<Stream>)>,
    /// Shutdown began: no handler parks again.
    closed: bool,
}

impl Parked {
    fn lock(&self) -> MutexGuard<'_, ParkedState> {
        self.state.lock().expect("handler list poisoned")
    }

    /// Parks the calling handler. Its next connection arrives on the
    /// returned receiver, which disconnects if the server shuts down
    /// first; `None` once shutdown has begun.
    fn park(&self) -> Option<Receiver<Stream>> {
        let mut state = self.lock();
        if state.closed {
            return None;
        }
        let (inbox, next) = sync_channel(1);
        state.idle.push((std::thread::current().id(), inbox));
        Some(next)
    }

    /// Takes the calling handler off the list after its idle wait ran
    /// out: `true` if it was still parked, `false` if the accept loop
    /// or shutdown claimed it first.
    fn retire(&self) -> bool {
        let me = std::thread::current().id();
        let mut state = self.lock();
        let slot = state.idle.iter().position(|(thread, _)| *thread == me);
        slot.map(|i| state.idle.remove(i)).is_some()
    }

    /// Hands `stream` to the most recently parked handler, or gives it
    /// back when none is parked.
    fn hand_off(&self, stream: Stream) -> Result<(), Stream> {
        let Some((_, inbox)) = self.lock().idle.pop() else {
            return Err(stream);
        };
        let sent = inbox.send(stream);
        assert!(
            sent.is_ok(),
            "a parked handler waits on its inbox until it is sent a connection or retires"
        );
        Ok(())
    }

    /// Shutdown: stops handlers from parking, and drops every parked
    /// handler's inbox, which wakes it to exit.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.idle.clear();
    }
}

/// The resident chase server. [`Server::bind`] then [`Server::run`];
/// `run` returns after a graceful drain.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

/// The state every connection handler and queued session shares.
struct Shared {
    endpoint: Endpoint,
    scheduler: Scheduler,
    registry: Registry,
    caches: Caches,
    parked: Parked,
}

impl Shared {
    /// Wakes the blocking accept loop after admission closed.
    fn poke_acceptor(&self) {
        let _ = self.endpoint.connect();
    }
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
            shared: Arc::new(Shared {
                endpoint,
                scheduler: Scheduler::new(config.scheduler),
                registry: Registry::default(),
                caches: Caches {
                    programs: ProgramCache::new(config.cache.programs),
                    decide: DecideCache::new(config.cache.decide_entries),
                },
                parked: Parked::default(),
            }),
        })
    }

    /// The bound endpoint (with the real port for `:0` TCP binds).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// Serves until a `shutdown` request completes its drain. Each
    /// connection is served by its own handler thread: a parked handler
    /// if there is one, else a newly spawned one, which parks for reuse
    /// when its connection closes and exits after [`HANDLER_IDLE`]
    /// unused. Sessions run on the scheduler regardless of which
    /// connection submitted them; memoized decides are answered on the
    /// handler thread. Shutdown wakes every parked handler and joins
    /// every handler once its client hangs up.
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.shared.scheduler.is_closed() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("chase-server: accept failed: {e}");
                    continue;
                }
            };
            let Err(stream) = self.shared.parked.hand_off(stream) else {
                continue;
            };
            let shared = Arc::clone(&self.shared);
            // Drop the handles of retired handlers so their thread
            // stacks are unmapped now, not at shutdown.
            handlers.retain(|h| !h.is_finished());
            handlers.push(std::thread::spawn(move || {
                serve_connections(stream, &shared)
            }));
        }
        // Parked handlers exit now; busy ones exit when their client
        // hangs up. Drain: joining the runners finishes queued +
        // running sessions; then join the handler threads (their
        // clients have their results).
        self.shared.parked.close();
        self.shared.scheduler.shutdown();
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

/// A connection handler thread: serves `stream`, then parks and serves
/// each connection the accept loop hands it, until it sits parked for
/// [`HANDLER_IDLE`] or the server shuts down.
fn serve_connections(mut stream: Stream, shared: &Arc<Shared>) {
    loop {
        let mut open = stream
            .set_write_timeout(WRITE_TIMEOUT)
            .and_then(|()| stream.split())
            .map(|(read, write)| (BufReader::new(read), Arc::new(ConnWriter::new(write))));
        match &mut open {
            Ok((reader, conn)) => handle_connection(reader, conn, shared),
            Err(e) => eprintln!("chase-server: cannot set up connection: {e}"),
        }
        // The connection closes when `open` drops, after the handler
        // has parked: a client that waits for the close and then
        // connects again finds this handler ready to serve it.
        let next = shared.parked.park();
        drop(open);
        let Some(next) = next else {
            return;
        };
        stream = match next.recv_timeout(HANDLER_IDLE) {
            Ok(stream) => stream,
            // Claimed as the wait ran out: a connection, or shutdown's
            // disconnect, is on its way.
            Err(RecvTimeoutError::Timeout) if !shared.parked.retire() => match next.recv() {
                Ok(stream) => stream,
                Err(_) => return,
            },
            Err(_) => return,
        };
    }
}

/// Serves one connection's requests until the client hangs up.
fn handle_connection(reader: &mut impl BufRead, conn: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        match reader.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let Ok(line) = std::str::from_utf8(&bytes) else {
            conn.send_line(
                &Reply::new("error")
                    .str("message", "request line is not valid UTF-8")
                    .finish(),
            );
            continue;
        };
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Err(msg) => {
                conn.send_line(&Reply::new("error").str("message", &msg).finish());
            }
            Ok(Request::Ping) => {
                conn.send_line(&Reply::new("pong").finish());
            }
            Ok(Request::Cancel { id }) => {
                let hit = shared.registry.cancel(&id);
                conn.send_line(
                    &Reply::new("cancel_ack")
                        .str("id", &id)
                        .str("known", if hit { "true" } else { "false" })
                        .finish(),
                );
            }
            Ok(Request::Shutdown { abort }) => {
                // Close admission before the ack goes out, so no
                // session sent after the client has read it is admitted.
                if shared.scheduler.close() {
                    shared.poke_acceptor();
                }
                conn.send_line(
                    &Reply::new("shutdown_ack")
                        .str("mode", if abort { "abort" } else { "graceful" })
                        .num("queued", shared.scheduler.queued() as u64)
                        .num("running", shared.scheduler.running() as u64)
                        .finish(),
                );
                if abort {
                    shared.registry.abort_all();
                }
                // The reader keeps serving pings/cancels for this
                // connection until the client hangs up; admission is
                // already closed.
            }
            Ok(Request::Session(req)) => {
                if let Some(program) = resolve_program(shared, conn, &req) {
                    submit_session(shared, conn, req, program);
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
    shared: &Shared,
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
    if shared.scheduler.is_closed() {
        conn.send_line(&Reply::new("shutting_down").str("id", id).finish());
        return None;
    }
    if let Some(fp) = req.program_ref {
        if let Some(program) = shared.caches.programs.lookup_ref(fp) {
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
        shared.caches.programs.resolve_source(source, &req.tenant)
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
/// check, decide-cache probe, scheduler submit with typed shed
/// replies. The registry holds a clone of the token the session will
/// actually poll, so `cancel` requests reach it.
///
/// A decide whose verdict is memoized is answered here, on the
/// handler thread: `accepted`, the `decide_cache.hits` counter
/// (telemetry sessions), then the `result` line. It never takes a
/// runner, so it is never shed.
fn submit_session(
    shared: &Arc<Shared>,
    conn: &Arc<ConnWriter>,
    req: Box<SessionRequest>,
    program: Arc<CompiledProgram>,
) {
    let id = req.id.clone();
    if shared.scheduler.is_closed() {
        conn.send_line(&Reply::new("shutting_down").str("id", &id).finish());
        return;
    }
    if !shared.registry.insert(&id, req.cancel.clone()) {
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
    // A decide's class on a cache miss; `None` for a chase.
    let decide_class = match req.op {
        SessionOp::Chase { .. } => None,
        SessionOp::Decide => {
            let class = decider_class(program.tgd_set());
            if let Some(verdict) = shared.caches.decide.get(program.fingerprint(), class) {
                conn.send_line(&accepted);
                let line = answer_cached_decide(&req, &verdict, conn);
                shared.registry.remove(&id);
                conn.send_line(&line);
                return;
            }
            Some(class)
        }
    };
    let tenant = req.tenant.clone();
    let job = {
        let conn = Arc::clone(conn);
        let shared = Arc::clone(shared);
        move |runner: &mut RunnerCtx| {
            let line = match decide_class {
                Some(class) => run_decide(&req, &program, class, &conn, &shared.caches.decide),
                None => run_chase(&req, &program, &conn, runner),
            };
            // Free the id before the client can read the result: only
            // live ids clash.
            shared.registry.remove(&req.id);
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
    match shared.scheduler.submit(&tenant, Box::new(job)) {
        Ok(()) => {
            writer.write_line(&accepted);
        }
        Err(Rejected::Overloaded { retry_after_ms }) => {
            shared.registry.remove(&id);
            writer.write_line(
                &Reply::new("overloaded")
                    .str("id", &id)
                    .num("retry_after_ms", retry_after_ms)
                    .finish(),
            );
        }
        Err(Rejected::ShuttingDown) => {
            shared.registry.remove(&id);
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
