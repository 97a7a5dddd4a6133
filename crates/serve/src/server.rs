//! The long-running oracle server.
//!
//! One accept thread, two threads per session (reader and writer), and one
//! shared [`WorkPool`] doing the actual model checking, so checking stays
//! batched across clients: a single client's burst fans out over every pool
//! worker, and many idle sessions cost no checker threads at all.
//!
//! Sessions are pipelined: for each request the reader queues a reply slot
//! (a one-shot channel) on the session's bounded slot queue, then answers the
//! request or submits it to the pool, and the writer takes the slots in
//! request order, writing each reply when it arrives. There is no reorder
//! buffer: a reply that is ready early waits in its own slot. In-flight
//! requests per session are bounded (`max_inflight_per_session`: the queue
//! holds one slot fewer, the writer holds the last); at the bound the reader
//! simply stops reading, which turns into TCP backpressure on the client
//! rather than unbounded queue growth on the server.
//!
//! Robustness rules a long-lived process needs, each pinned by a test:
//! - malformed request payloads get an in-order `Error` response; the session
//!   survives, and framing-level corruption (oversized length prefix, type
//!   desync) drops only that session, never the server;
//! - quoted names longer than `max_name_len` are rejected *before* parsing,
//!   so they never reach the interner;
//! - when growth of the process-wide interner since server start exceeds
//!   `intern_budget_bytes`, further Check requests are refused (the verdict
//!   for traces already admitted still completes) — a hostile client can then
//!   only degrade service, not OOM the process.

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_core::intern;
use sibylfs_core::obs;
use sibylfs_core::pool::WorkPool;
use sibylfs_script::parse_trace;

use crate::protocol::{
    decode_request, encode_response, oversized_name_len, parse_spec_config, read_frame,
    write_frame, ProtocolError, Request, Response, DEFAULT_MAX_NAME_LEN,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick (the bound address is
    /// available from [`ServerHandle::addr`]).
    pub addr: String,
    /// Checker pool size.
    pub workers: usize,
    /// Per-session cap on requests accepted but not yet answered.
    pub max_inflight_per_session: usize,
    /// Per-name byte limit enforced at the protocol boundary.
    pub max_name_len: usize,
    /// Cap on process-wide interner growth (bytes) since server start;
    /// `None` disables the budget.
    pub intern_budget_bytes: Option<usize>,
    /// Optional bind address for the Prometheus-style metrics endpoint: a
    /// minimal HTTP server answering `GET /metrics` with the `@type
    /// metrics-v1` text exposition. `None` disables the endpoint.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight_per_session: 64,
            max_name_len: DEFAULT_MAX_NAME_LEN,
            intern_budget_bytes: None,
            metrics_addr: None,
        }
    }
}

struct Shared {
    opts: ServeOptions,
    pool: WorkPool,
    shutdown: AtomicBool,
    active_sessions: AtomicUsize,
    sessions_total: AtomicU64,
    /// Shared with the check jobs on its own, so that no job holds (and
    /// could drop) the last reference to the pool it runs on.
    checked_total: Arc<AtomicU64>,
    errors_total: AtomicU64,
    intern_baseline_bytes: usize,
    /// The metrics snapshot (and when it was taken) behind the previous
    /// stats line, so each tick reports *rates over the tick* rather than
    /// monotonically-growing totals.
    last_tick: Mutex<(Instant, obs::MetricsSnapshot)>,
}

impl Shared {
    fn stats_line(&self) -> String {
        let st = intern::stats();
        // Per-tick rates: the delta between two consecutive snapshots of the
        // process-wide counters, divided by the tick's wall-clock length.
        // The first tick rates against server start.
        let (checked_per_s, req_per_s, in_bps, out_bps) = {
            let now = Instant::now();
            let snap = obs::snapshot();
            let mut prev = self.last_tick.lock().unwrap_or_else(|e| e.into_inner());
            let dt = now.duration_since(prev.0).as_secs_f64();
            let rate = |name: &str| {
                let cur = snap.counter(name).unwrap_or(0);
                let old = prev.1.counter(name).unwrap_or(0);
                if dt > 0.0 { cur.saturating_sub(old) as f64 / dt } else { 0.0 }
            };
            let rates = (
                rate("sibylfs_check_traces_total"),
                rate("sibylfs_serve_requests_total"),
                rate("sibylfs_serve_bytes_in_total"),
                rate("sibylfs_serve_bytes_out_total"),
            );
            *prev = (now, snap);
            rates
        };
        format!(
            "sessions={} sessions_total={} checked={} errors={} queued={} workers={} intern_count={} intern_bytes={} intern_growth_bytes={} checked_per_s={checked_per_s:.1} req_per_s={req_per_s:.1} in_Bps={in_bps:.0} out_Bps={out_bps:.0}",
            self.active_sessions.load(Ordering::Relaxed),
            self.sessions_total.load(Ordering::Relaxed),
            self.checked_total.load(Ordering::Relaxed),
            self.errors_total.load(Ordering::Relaxed),
            self.pool.queued(),
            self.pool.workers(),
            st.count,
            st.bytes,
            st.bytes.saturating_sub(self.intern_baseline_bytes),
        )
    }

    fn intern_budget_exceeded(&self) -> bool {
        match self.opts.intern_budget_bytes {
            None => false,
            Some(budget) => {
                intern::stats().bytes.saturating_sub(self.intern_baseline_bytes) > budget
            }
        }
    }
}

/// Handle to a running server; dropping it shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address the metrics HTTP endpoint bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.shared.active_sessions.load(Ordering::SeqCst)
    }

    /// The same one-line stats summary the Stats request returns.
    pub fn stats_line(&self) -> String {
        self.shared.stats_line()
    }

    /// Stop accepting connections and wait for the accept thread. Live
    /// sessions wind down as their clients disconnect.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loops with throwaway connections.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.metrics_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a server. Returns once the listener is bound, with the accept loop
/// running on a background thread.
pub fn start(opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let metrics_listener = match &opts.metrics_addr {
        Some(maddr) => Some(TcpListener::bind(maddr)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        pool: WorkPool::new(opts.workers),
        intern_baseline_bytes: intern::stats().bytes,
        opts,
        shutdown: AtomicBool::new(false),
        active_sessions: AtomicUsize::new(0),
        sessions_total: AtomicU64::new(0),
        checked_total: Arc::new(AtomicU64::new(0)),
        errors_total: AtomicU64::new(0),
        last_tick: Mutex::new((Instant::now(), obs::snapshot())),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("sibylfs-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_shared))?;
    let (metrics_addr, metrics_thread) = match metrics_listener {
        Some(l) => {
            let maddr = l.local_addr()?;
            let http_shared = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name("sibylfs-metrics-http".to_string())
                .spawn(move || metrics_http_loop(&l, &http_shared))?;
            (Some(maddr), Some(h))
        }
        None => (None, None),
    };
    Ok(ServerHandle { shared, addr, accept_thread: Some(accept_thread), metrics_addr, metrics_thread })
}

/// The minimal HTTP front end for Prometheus-style scraping: answers
/// `GET /metrics` (or `GET /`) with the `@type metrics-v1` exposition and
/// closes the connection. One request per connection, handled inline on the
/// accept thread — a scrape is a few hundred bytes, so there is nothing to
/// pipeline.
fn metrics_http_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let _ = serve_one_metrics_request(stream);
    }
}

fn serve_one_metrics_request(stream: TcpStream) -> io::Result<()> {
    use std::io::BufRead as _;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers up to the blank line so well-behaved clients are not cut
    // off mid-send (we answer and close regardless).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "only GET is supported\n".to_string())
    } else if path == "/metrics" || path == "/" {
        ("200 OK", obs::snapshot().render())
    } else {
        ("404 Not Found", "try GET /metrics\n".to_string())
    };
    let mut out = BufWriter::new(stream);
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    out.flush()
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // Replies are small frames written as soon as they are ready; without
        // this, delayed ACK can hold one back for up to 40 ms.
        let _ = stream.set_nodelay(true);
        let session_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("sibylfs-session".to_string())
            .spawn(move || run_session(stream, &session_shared));
    }
}

/// One request's place in its session's reply order: the writer waits here
/// for the encoded response.
type Slot = Receiver<Vec<u8>>;

/// Answer a request through the sending end of its [`Slot`].
fn reply(reply_to: SyncSender<Vec<u8>>, resp: &Response) {
    let payload = encode_response(resp);
    obs::m::SERVE_INFLIGHT.dec();
    obs::m::SERVE_REORDER_DEPTH.inc();
    // The writer waits on every slot the reader queued, so the receiving
    // end is still there.
    let _ = reply_to.send(payload);
}

/// Decrements the active-session gauge even if the session thread panics.
struct SessionGauge<'a>(&'a Shared);

impl Drop for SessionGauge<'_> {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::SeqCst);
        // Every session ends through this drop — clean EOF, framing error,
        // or panic — so "killed" counts all torn-down sessions.
        obs::m::SERVE_SESSIONS_KILLED_TOTAL.inc();
    }
}

fn run_session(stream: TcpStream, shared: &Arc<Shared>) {
    shared.active_sessions.fetch_add(1, Ordering::SeqCst);
    shared.sessions_total.fetch_add(1, Ordering::SeqCst);
    obs::m::SERVE_SESSIONS_OPENED_TOTAL.inc();
    let _gauge = SessionGauge(shared);

    let Ok(write_stream) = stream.try_clone() else { return };
    // The writer holds the slot whose reply it is waiting for, so the queue
    // holds one slot fewer than the in-flight cap.
    let (slots, queued) = sync_channel(shared.opts.max_inflight_per_session.max(1) - 1);
    let writer = std::thread::Builder::new()
        .name("sibylfs-session-writer".to_string())
        .spawn(move || writer_loop(write_stream, &queued));

    reader_loop(stream, shared, &slots);
    drop(slots);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

/// Write each reply in request order. The loop ends once the reader has
/// stopped and every slot it queued has been answered.
fn writer_loop(stream: TcpStream, slots: &Receiver<Slot>) {
    let mut out = BufWriter::new(stream);
    let mut connected = true;
    for slot in slots {
        let payload = match slot.recv() {
            Ok(payload) => {
                obs::m::SERVE_REORDER_DEPTH.dec();
                payload
            }
            // The check job panicked without answering; answer in its place
            // so the replies after it keep their order.
            Err(_) => encode_response(&Response::Error {
                line: 0,
                col: 0,
                message: "internal error: the check failed".to_string(),
            }),
        };
        if connected {
            obs::m::SERVE_BYTES_OUT_TOTAL.add(4 + payload.len() as u64);
            // If the client went away mid-reply, only drain from here on, so
            // the reader's in-flight checks still complete and the session
            // can unwind.
            connected = write_frame(&mut out, &payload).and_then(|()| out.flush()).is_ok();
        }
    }
}

fn reader_loop(stream: TcpStream, shared: &Arc<Shared>, slots: &SyncSender<Slot>) {
    let mut input = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut input) {
            Ok(Some(f)) => f,
            // Clean EOF, connection reset, or fatal framing error (oversized
            // prefix): stop reading. Nothing more can be decoded reliably.
            Ok(None) | Err(_) => return,
        };
        let started = Instant::now();
        obs::m::SERVE_BYTES_IN_TOTAL.add(4 + frame.len() as u64);
        obs::m::SERVE_REQUESTS_TOTAL.inc();

        // Backpressure: queue the request's slot before doing its work. The
        // queue is full while `max_inflight_per_session` replies are
        // unwritten, and then the reader waits here instead of reading.
        let (reply_to, slot) = sync_channel(1);
        if slots.send(slot).is_err() {
            return; // the writer thread never started
        }
        obs::m::SERVE_INFLIGHT.inc();

        match decode_request(&frame) {
            Err(e) => {
                shared.errors_total.fetch_add(1, Ordering::Relaxed);
                obs::m::SERVE_ERRORS_TOTAL.inc();
                obs::m::SERVE_REQUEST_NS.record_duration(started.elapsed());
                reply(reply_to, &Response::Error { line: 0, col: 0, message: e.to_string() });
                // Payload-level garbage keeps the session, since framing is
                // still intact; any other error ends it.
                if !matches!(e, ProtocolError::BadTag(_) | ProtocolError::Malformed(_)) {
                    return;
                }
            }
            Ok(Request::Stats) => {
                obs::m::SERVE_REQUEST_NS.record_duration(started.elapsed());
                reply(reply_to, &Response::StatsLine(shared.stats_line()));
            }
            Ok(Request::Metrics) => {
                obs::m::SERVE_REQUEST_NS.record_duration(started.elapsed());
                reply(reply_to, &Response::Metrics(obs::snapshot().render()));
            }
            Ok(Request::Check { config, trace_text }) => {
                handle_check(shared, reply_to, started, &config, &trace_text);
            }
        }
    }
}

fn handle_check(
    shared: &Arc<Shared>,
    reply_to: SyncSender<Vec<u8>>,
    started: Instant,
    config: &str,
    trace_text: &str,
) {
    let reject = |reply_to, message: String, line: u32, col: u32| {
        shared.errors_total.fetch_add(1, Ordering::Relaxed);
        obs::m::SERVE_ERRORS_TOTAL.inc();
        obs::m::SERVE_REQUEST_NS.record_duration(started.elapsed());
        reply(reply_to, &Response::Error { line, col, message });
    };

    let cfg = match parse_spec_config(config) {
        Ok(cfg) => cfg,
        Err(e) => return reject(reply_to, format!("bad config: {e}"), 0, 0),
    };
    // Order matters: name-length and interner-budget gates run before
    // parse_trace, because parsing is what interns path components.
    if let Some(len) = oversized_name_len(trace_text, shared.opts.max_name_len) {
        return reject(
            reply_to,
            format!(
                "name of {len} bytes exceeds the {}-byte limit",
                shared.opts.max_name_len
            ),
            0,
            0,
        );
    }
    if shared.intern_budget_exceeded() {
        return reject(
            reply_to,
            "interner budget exceeded; the server is refusing new names".to_string(),
            0,
            0,
        );
    }
    let trace = match parse_trace(trace_text) {
        Ok(t) => t,
        Err(e) => {
            return reject(
                reply_to,
                e.message.clone(),
                u32::try_from(e.line).unwrap_or(u32::MAX),
                u32::try_from(e.col).unwrap_or(u32::MAX),
            )
        }
    };

    let checked_total = Arc::clone(&shared.checked_total);
    shared.pool.submit(move || {
        let checked = check_trace(&cfg, &trace, CheckOptions::default());
        checked_total.fetch_add(1, Ordering::Relaxed);
        obs::m::SERVE_REQUEST_NS.record_duration(started.elapsed());
        reply(reply_to, &Response::Verdict(render_checked_trace(&checked)));
    });
}
