//! Readiness-based serving core: one thread, epoll, non-blocking sockets.
//!
//! The thread-per-connection model spends its concurrency budget on parked
//! reader threads; on the paper's data-center framing the socket layer must
//! cost nothing so the `BatchEngine` is the only thing that saturates. This
//! module replaces it with a single event-loop thread multiplexing every
//! connection over `epoll` — raw `extern "C"` FFI against the three epoll
//! syscall wrappers plus `eventfd`, matching the repo's no-external-deps
//! discipline (the `mda-server` binary already talks to `signal(2)` the same
//! way).
//!
//! Per connection the loop keeps a read buffer (incremental frame decode: a
//! frame may arrive over any number of `read()`s and several frames may
//! arrive in one) and a write buffer (replies are serialized into it and
//! flushed as the socket accepts bytes). Requests are **pipelined**: the
//! loop keeps decoding and submitting while earlier requests are still in
//! the dispatcher, up to `max_pipeline_depth` per connection — this is what
//! actually fills coalesced batches on a small host. Backpressure is
//! readiness-native: past the write high-water mark (or the depth cap) the
//! loop simply stops asking epoll for readability on that connection, so a
//! slow reader throttles itself without blocking anyone else.
//!
//! Dispatcher → loop handoff: worker replies are pushed onto a shared
//! [`Completions`] queue keyed by connection token and the loop is woken via
//! its eventfd ([`WakeFd`]); the loop drains completions every iteration,
//! appends the encoded replies to the owning connection's write buffer, and
//! resumes parsing any frames that were parked on the depth cap.
//!
//! Everything observable is preserved from the threaded core: the `GET `
//! HTTP metrics sniff on the same port, malformed-JSON frames answered in
//! band (id 0) without closing, oversized frames answered then closed (the
//! stream is beyond resync), and drain-then-shutdown — every admitted job's
//! reply is flushed before its socket closes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mda_routing::{BackendId, Bound, Route, Router};

use crate::config::ServerConfig;
use crate::datasets::DatasetStore;
use crate::exec::{decompose, WorkItem};
use crate::metrics::Metrics;
use crate::protocol::{
    decode_request, encode_reply, write_frame, Envelope, ErrorCode, ProtocolError, Reply, Request,
    ResponseBody, RouteInfo,
};
use crate::queue::{Coalescer, Job, ReplySink};
use crate::streams::StreamRegistry;
use mda_streaming::StreamConfig;

/// An inline request's failure: the wire error code and its message.
type Refusal = (ErrorCode, String);

// ---------------------------------------------------------------------------
// Raw epoll / eventfd FFI (Linux). No libc crate: these are the same thin
// `extern "C"` declarations the server binary uses for `signal(2)`.

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes) and
/// keeps natural alignment (16 bytes) everywhere else.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Owned epoll instance.
struct Poller {
    epfd: i32,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall wrapper; a negative return is an error.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd, op, fd, evp) } < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn delete(&self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for events (level-triggered). Returns how many are valid.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid out-buffer of `len()` entries.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance.
        unsafe { close(self.epfd) };
    }
}

/// An `eventfd`-backed wakeup: any thread writes, the event loop polls.
#[derive(Debug)]
pub struct WakeFd {
    fd: i32,
}

// SAFETY: the wrapped value is a file descriptor; `read`/`write` on it are
// thread-safe syscalls.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

impl WakeFd {
    fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall wrapper.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// Makes the next (or current) `epoll_wait` return immediately.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: valid buffer; an EAGAIN (counter saturated) still leaves
        // the fd readable, which is all a wakeup needs.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Resets the counter so level-triggered polling goes quiet again.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: valid buffer; EAGAIN means already drained.
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance.
        unsafe { close(self.fd) };
    }
}

// ---------------------------------------------------------------------------
// Dispatcher → event-loop completion handoff.

/// Replies finished by the dispatcher, waiting for the loop to serialize
/// them into their connection's write buffer. Pushing wakes the loop.
#[derive(Debug)]
pub struct Completions {
    ready: Mutex<Vec<(u64, Reply, Instant)>>,
    wake: Arc<WakeFd>,
}

impl Completions {
    fn new(wake: Arc<WakeFd>) -> Completions {
        Completions {
            ready: Mutex::new(Vec::new()),
            wake,
        }
    }

    /// Queues one finished reply for connection `token` and wakes the loop.
    pub fn push(&self, token: u64, reply: Reply) {
        self.ready
            .lock()
            .expect("completions mutex poisoned")
            .push((token, reply, Instant::now()));
        self.wake.wake();
    }

    fn drain(&self) -> Vec<(u64, Reply, Instant)> {
        std::mem::take(&mut *self.ready.lock().expect("completions mutex poisoned"))
    }
}

// ---------------------------------------------------------------------------
// Per-connection state machine.

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 64 * 1024;
const MAX_EVENTS: usize = 1024;
const HTTP_HEAD_CAP: usize = 8192;
/// How long the final drain may keep flushing write buffers to slow peers.
const FLUSH_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnMode {
    /// First bytes not seen yet: HTTP `GET ` or binary frames?
    Sniffing,
    /// Length-prefixed JSON frames.
    Frames,
    /// One HTTP metrics scrape, then close.
    Http,
}

struct Conn {
    stream: TcpStream,
    fd: i32,
    mode: ConnMode,
    /// Bytes received but not yet consumed by the parser.
    read_buf: Vec<u8>,
    /// Encoded replies not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Requests submitted to the dispatcher, reply not yet serialized.
    in_flight: usize,
    /// Peer sent EOF (or the parser decided to stop reading for good).
    read_closed: bool,
    /// Close as soon as the write buffer is flushed.
    kill_after_flush: bool,
    /// Interest currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            mode: ConnMode::Sniffing,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            in_flight: 0,
            read_closed: false,
            kill_after_flush: false,
            interest: 0,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn push_reply(&mut self, reply: &Reply) {
        write_frame(&mut self.write_buf, &encode_reply(reply)).expect("Vec write is infallible");
    }

    /// Non-blocking flush. `Ok(true)` = fully flushed, `Ok(false)` = socket
    /// full, `Err` = peer gone.
    fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(true)
    }

    /// Reads everything currently available through `chunk`, the loop's
    /// one read buffer, recording a clean EOF in `read_closed`; `Err` =
    /// connection is dead.
    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        loop {
            match (&self.stream).read(chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(());
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The loop itself.

/// Shared state the serving thread runs on. Constructed by
/// [`crate::Server::start`]; `run` consumes the listener.
pub(crate) struct EventLoop {
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) queue: Arc<Coalescer>,
    pub(crate) store: Arc<DatasetStore>,
    pub(crate) completions: Arc<Completions>,
    pub(crate) wake: Arc<WakeFd>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) finish: Arc<AtomicBool>,
    pub(crate) router: Arc<Router>,
    /// Push-mode stream state. `RefCell`, not `Mutex`: streams live and
    /// die on this thread only (`Send` because the stages are `Send`).
    pub(crate) streams: RefCell<StreamRegistry>,
    /// Subscription events produced while one connection was mutably
    /// borrowed, waiting to be fanned out to their target connections.
    /// Unlike [`Completions`], draining these must NOT touch `in_flight`:
    /// events are unsolicited, nothing was submitted for them.
    pub(crate) stream_events: RefCell<Vec<(u64, Reply)>>,
}

/// Builds the wake/completion pair shared between loop and dispatcher.
pub(crate) fn wake_pair() -> io::Result<(Arc<WakeFd>, Arc<Completions>)> {
    let wake = Arc::new(WakeFd::new()?);
    let completions = Arc::new(Completions::new(Arc::clone(&wake)));
    Ok((wake, completions))
}

impl EventLoop {
    pub(crate) fn run(self, listener: TcpListener) {
        let poller = match Poller::new() {
            Ok(p) => p,
            Err(_) => return,
        };
        let listener_fd = listener.as_raw_fd();
        if poller.add(listener_fd, TOKEN_LISTENER, EPOLLIN).is_err() {
            return;
        }
        if poller.add(self.wake.fd, TOKEN_WAKE, EPOLLIN).is_err() {
            return;
        }

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut listener = Some(listener);
        let mut events = vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // Zeroed once: every readable connection reads through it.
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut flush_deadline: Option<Instant> = None;

        while let Ok(n) = poller.wait(&mut events, 100) {
            let mut dead: Vec<u64> = Vec::new();

            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => {
                        if let Some(l) = &listener {
                            self.accept_ready(l, &poller, &mut conns, &mut next_token);
                        }
                    }
                    TOKEN_WAKE => self.wake.drain(),
                    token => {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        if bits & (EPOLLERR | EPOLLHUP) != 0 {
                            // Peer is gone; pending compute replies have
                            // nowhere to go.
                            dead.push(token);
                            continue;
                        }
                        if bits & EPOLLIN != 0 {
                            if conn.fill(&mut chunk).is_err() {
                                dead.push(token);
                                continue;
                            }
                            self.advance(token, conn);
                        }
                        if bits & EPOLLOUT != 0 && conn.flush().is_err() {
                            dead.push(token);
                        }
                    }
                }
            }

            // Serialize dispatcher completions into their connections and
            // resume any parsing parked on the pipeline-depth cap.
            for (token, reply, pushed) in self.completions.drain() {
                self.metrics
                    .conn_wait
                    .record_us(pushed.elapsed().as_micros() as u64);
                let Some(conn) = conns.get_mut(&token) else {
                    continue; // connection closed while the job ran
                };
                conn.in_flight -= 1;
                conn.push_reply(&reply);
                self.advance(token, conn);
            }

            // Fan out stream subscription events queued while handling
            // pushes this iteration. Drained AFTER completions and after
            // the push's own reply was buffered, so a subscriber that is
            // also the pusher always sees its `points_pushed` reply before
            // the events it caused. No `in_flight` bookkeeping: events are
            // unsolicited.
            for (token, reply) in self.stream_events.borrow_mut().drain(..) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.push_reply(&reply);
                }
            }

            // Stop accepting the moment shutdown begins.
            if self.shutdown.load(Ordering::SeqCst) {
                if let Some(l) = listener.take() {
                    poller.delete(l.as_raw_fd());
                }
            }

            // Flush, retire finished connections, refresh epoll interest.
            for (token, conn) in conns.iter_mut() {
                if conn.flush().is_err() {
                    dead.push(*token);
                    continue;
                }
                let flushed = conn.unflushed() == 0;
                if flushed && conn.kill_after_flush {
                    dead.push(*token);
                    continue;
                }
                if flushed && conn.read_closed && conn.in_flight == 0 {
                    dead.push(*token);
                    continue;
                }
                let want_read = !conn.read_closed
                    && !conn.kill_after_flush
                    && conn.in_flight < self.config.max_pipeline_depth
                    && conn.unflushed() < self.config.write_high_water;
                let mut interest = 0u32;
                if want_read {
                    interest |= EPOLLIN;
                }
                if conn.unflushed() > 0 {
                    interest |= EPOLLOUT;
                }
                if interest != conn.interest {
                    if poller.modify(conn.fd, *token, interest).is_err() {
                        dead.push(*token);
                        continue;
                    }
                    conn.interest = interest;
                }
            }
            dead.sort_unstable();
            dead.dedup();
            for token in dead {
                if let Some(conn) = conns.remove(&token) {
                    poller.delete(conn.fd);
                    self.metrics.open_connections.dec();
                    // A dead connection's stream subscriptions die with it;
                    // its opened streams stay (another client may push).
                    if self.streams.borrow_mut().drop_token(token) > 0 {
                        self.sync_stream_gauges();
                    }
                }
            }

            // Final drain: the dispatcher has joined, every completion is
            // serialized — flush what the peers will take, then exit.
            if self.finish.load(Ordering::SeqCst) {
                let deadline =
                    *flush_deadline.get_or_insert_with(|| Instant::now() + FLUSH_DEADLINE);
                let all_flushed = conns
                    .values()
                    .all(|c| c.unflushed() == 0 && c.in_flight == 0);
                if all_flushed || Instant::now() > deadline {
                    break;
                }
            }
        }
        for (_, conn) in conns.drain() {
            poller.delete(conn.fd);
            self.metrics.open_connections.dec();
        }
    }

    fn accept_ready(
        &self,
        listener: &TcpListener,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if conns.len() >= self.config.max_connections {
                        self.metrics.connections_rejected.inc();
                        continue; // dropped: closed immediately
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = *next_token;
                    *next_token += 1;
                    let mut conn = Conn::new(stream, fd);
                    conn.interest = EPOLLIN;
                    if poller.add(fd, token, EPOLLIN).is_err() {
                        continue;
                    }
                    self.metrics.connections.inc();
                    self.metrics.open_connections.inc();
                    conns.insert(token, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Runs the connection's parser over whatever is buffered: protocol
    /// sniffing, then frame extraction + request handling (or the HTTP
    /// scrape). Called after reads and after completions free depth.
    fn advance(&self, token: u64, conn: &mut Conn) {
        if conn.mode == ConnMode::Sniffing {
            if conn.read_buf.is_empty() {
                return;
            }
            if conn.read_buf[0] != b'G' {
                conn.mode = ConnMode::Frames;
            } else if conn.read_buf.len() >= 4 {
                conn.mode = if &conn.read_buf[..4] == b"GET " {
                    ConnMode::Http
                } else {
                    ConnMode::Frames
                };
            } else if conn.read_closed {
                // EOF before the sniff resolved: nothing to serve.
                conn.kill_after_flush = true;
                return;
            } else {
                return; // need more bytes
            }
        }
        match conn.mode {
            ConnMode::Sniffing => unreachable!("resolved above"),
            ConnMode::Http => self.advance_http(conn),
            ConnMode::Frames => self.advance_frames(token, conn),
        }
    }

    /// One-shot HTTP metrics scrape on the frame port.
    fn advance_http(&self, conn: &mut Conn) {
        if conn.kill_after_flush {
            return; // response already queued
        }
        let head_done = conn.read_buf.windows(4).any(|w| w == b"\r\n\r\n");
        if !head_done && conn.read_buf.len() < HTTP_HEAD_CAP && !conn.read_closed {
            return; // request head still arriving
        }
        self.metrics.count_request("metrics");
        let body = self.metrics.render_text();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        conn.write_buf.extend_from_slice(response.as_bytes());
        conn.read_buf.clear();
        conn.read_closed = true;
        conn.kill_after_flush = true;
    }

    /// Extracts and handles every complete frame in the buffer, respecting
    /// the per-connection pipeline-depth cap.
    fn advance_frames(&self, token: u64, conn: &mut Conn) {
        // Payloads are decoded where they lie: the buffer leaves the
        // connection for the loop (nothing below reads or fills it) and
        // returns without the frames it handled.
        let mut buf = std::mem::take(&mut conn.read_buf);
        let mut pos = 0usize;
        while !conn.kill_after_flush {
            if conn.in_flight >= self.config.max_pipeline_depth {
                break; // parked: resumed when a completion frees depth
            }
            let avail = buf.len() - pos;
            if avail < 4 {
                break;
            }
            let len =
                u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
            if len > self.config.max_frame_bytes {
                // The payload was never read, so the stream is beyond
                // resync: report and close (same contract as read_frame).
                let message = format!(
                    "frame of {len} bytes exceeds the {}-byte cap",
                    self.config.max_frame_bytes
                );
                self.reply_inline(conn, 0, Err((ErrorCode::BadRequest, message)));
                conn.read_closed = true;
                conn.kill_after_flush = true;
                break;
            }
            if avail < 4 + len {
                break; // partial frame: wait for more reads
            }
            let payload = pos + 4..pos + 4 + len;
            pos = payload.end;
            self.handle_payload(token, conn, &buf[payload]);
        }
        buf.drain(..pos);
        conn.read_buf = buf;
    }

    /// Answers one request inline: counts the reply as ok or error and
    /// queues it on the connection. An `Err((code, message))` becomes the
    /// typed [`ResponseBody::Error`].
    fn reply_inline(&self, conn: &mut Conn, id: u64, result: Result<ResponseBody, Refusal>) {
        let body = match result {
            Ok(body) => {
                self.metrics.replies_ok.inc();
                body
            }
            Err((code, message)) => {
                self.metrics.replies_error.inc();
                ResponseBody::Error { code, message }
            }
        };
        conn.push_reply(&Reply::new(id, body));
    }

    /// Handles one decoded frame: control ops and dataset management are
    /// answered inline; compute ops are decomposed (resolving dataset
    /// references) and submitted to the coalescing queue.
    fn handle_payload(&self, token: u64, conn: &mut Conn, payload: &[u8]) {
        let Envelope { id, req } = match decode_request(payload) {
            Ok(env) => env,
            Err(err) => {
                // In-band schema error; the framing is intact, so the
                // connection survives. Domain violations (a malformed
                // accuracy tolerance) get their own typed code.
                let code = match &err {
                    ProtocolError::InvalidParameter(_) => ErrorCode::InvalidParameter,
                    _ => ErrorCode::BadRequest,
                };
                self.reply_inline(conn, 0, Err((code, err.to_string())));
                return;
            }
        };
        self.metrics.count_request(req.op());
        match req {
            Request::Ping => self.reply_inline(conn, id, Ok(ResponseBody::Pong)),
            Request::Metrics => {
                // Counted before rendering, so the scrape includes itself.
                self.metrics.replies_ok.inc();
                let text = ResponseBody::MetricsText(self.metrics.render_text());
                conn.push_reply(&Reply::new(id, text));
            }
            Request::UploadDataset { name, entries } => {
                let labels: Vec<usize> = entries.iter().map(|e| e.label).collect();
                let series: Vec<Vec<f64>> = entries.into_iter().map(|e| e.series).collect();
                let result = match self.store.upload(&name, labels, series) {
                    Ok(out) => {
                        self.metrics.dataset_uploads.inc();
                        Ok(ResponseBody::DatasetUploaded {
                            dataset_id: out.dataset_id,
                            version: out.version,
                            count: out.count,
                            bytes: out.bytes,
                        })
                    }
                    Err(e) => Err((e.code, e.message)),
                };
                self.sync_dataset_gauges();
                self.reply_inline(conn, id, result);
            }
            Request::ListDatasets => {
                let items = self.store.list();
                self.reply_inline(conn, id, Ok(ResponseBody::Datasets { items }));
            }
            Request::DropDataset { dataset } => {
                let result = match self.store.drop_ref(&dataset) {
                    Ok(count) => {
                        self.metrics.dataset_drops.inc();
                        Ok(ResponseBody::Dropped { count })
                    }
                    Err(e) => Err((e.code, e.message)),
                };
                self.sync_dataset_gauges();
                self.reply_inline(conn, id, result);
            }
            Request::OpenStream {
                window,
                band,
                query,
                threshold,
            } => {
                let config = StreamConfig {
                    window,
                    band,
                    query,
                    threshold,
                };
                let result = match self.streams.borrow_mut().open(config) {
                    Ok(out) => {
                        self.metrics.streams_opened.inc();
                        Ok(ResponseBody::StreamOpened {
                            stream_id: out.stream_id,
                            shard: out.shard,
                            burn_in: out.burn_in,
                        })
                    }
                    Err(e) => Err((e.code(), e.to_string())),
                };
                self.sync_stream_gauges();
                self.reply_inline(conn, id, result);
            }
            Request::PushPoints { stream_id, points } => {
                let started = Instant::now();
                let result = match self.streams.borrow_mut().push(stream_id, &points) {
                    Ok(out) => {
                        self.metrics.stream_points.add(out.accepted);
                        self.metrics.stream_evictions.add(out.evictions);
                        self.metrics.stream_events.add(out.events.len() as u64);
                        let c = out.cascade;
                        self.metrics.stream_cascade.record(
                            c.pruned_kim as usize,
                            c.pruned_keogh as usize,
                            c.abandoned as usize,
                            c.computed as usize,
                        );
                        let mut queued = self.stream_events.borrow_mut();
                        for (target, sub_id, event) in out.events {
                            queued.push((
                                target,
                                Reply::new(sub_id, ResponseBody::StreamEvent(event)),
                            ));
                        }
                        Ok(ResponseBody::PointsPushed {
                            stream_id,
                            accepted: out.accepted,
                            epoch: out.epoch,
                        })
                    }
                    Err(e) => Err((e.code(), e.to_string())),
                };
                self.metrics
                    .stream_push
                    .record_us(started.elapsed().as_micros() as u64);
                self.reply_inline(conn, id, result);
            }
            Request::Subscribe { stream_id } => {
                // Events for this subscription carry the subscribe request's
                // id, so a pipelining client can correlate them.
                let result = match self.streams.borrow_mut().subscribe(stream_id, token, id) {
                    Ok(out) => Ok(ResponseBody::Subscribed {
                        stream_id,
                        epoch: out.epoch,
                        warm: out.warm,
                    }),
                    Err(e) => Err((e.code(), e.to_string())),
                };
                self.sync_stream_gauges();
                self.reply_inline(conn, id, result);
            }
            Request::CloseStream { stream_id } => {
                let result = match self.streams.borrow_mut().close(stream_id) {
                    Ok(out) => Ok(ResponseBody::StreamClosed {
                        stream_id,
                        pushed: out.pushed,
                    }),
                    Err(e) => Err((e.code(), e.to_string())),
                };
                self.sync_stream_gauges();
                self.reply_inline(conn, id, result);
            }
            req => {
                let used_dataset = matches!(
                    &req,
                    Request::Batch {
                        dataset: Some(_),
                        ..
                    } | Request::Knn {
                        dataset: Some(_),
                        ..
                    } | Request::Search {
                        dataset: Some(_),
                        ..
                    }
                );
                let deadline = req
                    .deadline()
                    .or(self.config.default_deadline)
                    .map(|d| Instant::now() + d);
                let accuracy = req.accuracy();
                let mut decomposed = match decompose(req, &self.store) {
                    Ok(Some(d)) => d,
                    Ok(None) => unreachable!("control ops handled above"),
                    Err(e) => {
                        // Resolution failures never occupy queue capacity.
                        if matches!(e.code, ErrorCode::NotFound | ErrorCode::StaleVersion) {
                            self.metrics.dataset_misses.inc();
                        }
                        self.reply_inline(conn, id, Err((e.code, e.message)));
                        return;
                    }
                };
                if used_dataset {
                    self.metrics.dataset_hits.inc();
                }
                let route = self.route(&decomposed, accuracy);
                decomposed.route_to(route.backend);
                self.metrics.count_backend(route.backend);
                self.metrics
                    .fleet_in_use_uw
                    .set((self.router.fleet().in_use_w() * 1e6).round() as u64);
                conn.in_flight += 1;
                self.metrics.record_pipeline_submit(conn.in_flight);
                let job = Job {
                    id,
                    items: decomposed.items,
                    assemble: decomposed.assemble,
                    reply: ReplySink::Conn {
                        token,
                        completions: Arc::clone(&self.completions),
                    },
                    deadline,
                    enqueued: Instant::now(),
                    // Routing is reported only when the client opted into
                    // the accuracy surface; default replies stay
                    // byte-identical to the pre-routing protocol.
                    route: accuracy.map(|_| RouteInfo {
                        backend: route.backend,
                        bound: route.bound,
                    }),
                    lease: route.lease,
                };
                if let Err(refusal) = self.queue.submit(job) {
                    conn.in_flight -= 1;
                    self.reply_inline(conn, id, Err((refusal.code(), refusal.message())));
                }
            }
        }
    }

    /// Picks a backend for one decomposed request: searches pin the pruned
    /// digital path, pair and kNN work goes through the SLA/power-aware
    /// router, and a degenerate job with no items trivially routes
    /// digital-exact.
    fn route(
        &self,
        decomposed: &crate::exec::Decomposed,
        accuracy: Option<mda_routing::Sla>,
    ) -> Route {
        let sla = accuracy.unwrap_or_default();
        if let Some(WorkItem::Search { .. }) = decomposed.items.first() {
            return self.router.route_search(sla);
        }
        let kind = decomposed.items.iter().find_map(|item| match item {
            WorkItem::Pair { spec, .. } | WorkItem::Knn { spec, .. } => Some(spec.kind),
            WorkItem::Search { .. } => None,
        });
        match kind {
            Some(kind) => self.router.route_pair(kind, decomposed.max_pair_len(), sla),
            None => Route {
                backend: BackendId::DigitalExact,
                bound: Bound::EXACT,
                lease: None,
            },
        }
    }

    fn sync_stream_gauges(&self) {
        let streams = self.streams.borrow();
        self.metrics.streams_open.set(streams.open_count() as u64);
        self.metrics
            .stream_subscriptions
            .set(streams.subscriber_count() as u64);
    }

    fn sync_dataset_gauges(&self) {
        let (count, bytes) = self.store.stats();
        self.metrics.datasets_resident.set(count as u64);
        self.metrics.dataset_resident_bytes.set(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakefd_wakes_and_drains() {
        let wake = WakeFd::new().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(wake.fd, TOKEN_WAKE, EPOLLIN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: times out.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        wake.wake();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        let token = events[0].data; // copy out: the struct may be packed
        assert_eq!(token, TOKEN_WAKE);
        wake.drain();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn completions_wake_their_loop() {
        let (wake, completions) = wake_pair().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(wake.fd, TOKEN_WAKE, EPOLLIN).unwrap();
        completions.push(42, Reply::new(7, ResponseBody::Pong));
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        let drained = completions.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 42);
        assert_eq!(drained[0].1.id, 7);
        assert!(completions.drain().is_empty());
    }

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
    }
}
