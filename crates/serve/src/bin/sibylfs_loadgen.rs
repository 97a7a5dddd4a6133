//! Load generator for the oracle server.
//!
//! Builds a deterministic trace corpus (testgen's loadgen families executed
//! on the simulated ext4 backend), then drives a server with N concurrent
//! pipelined clients and reports checked-traces/sec plus latency percentiles
//! per client count. With `--verify`, the server checks the corpus plus the
//! contention traces at 3–6 processes, and every verdict must equal local
//! batch checking byte for byte — the CI smoke job runs this at high client
//! counts to pin "the server is the same oracle as the CLI".
//!
//! Results go to stdout and to `SIBYLFS_BENCH_JSON` (same record grammar as
//! the bench harness, so `sibylfs bench-diff` gates the `serve_loadgen/…`
//! family).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_core::obs;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::print::render_trace;
use sibylfs_serve::protocol::parse_spec_config;
use sibylfs_serve::{BlockingClient, Response, ServeOptions};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::{loadgen_scripts, LoadgenOptions};

const USAGE: &str = "\
usage: sibylfs_loadgen [options]

Drive a sibylfs oracle server with concurrent pipelined clients.

options:
  --addr HOST:PORT   target server (default: start an in-process server)
  --clients LIST     comma-separated client counts to sweep (default 1,2,4,8,16,32)
  --requests N       checks per client per run (default 50)
  --config NAME      model config, SpecConfig syntax (default linux)
  --scripts N        corpus size (default 64)
  --window W         per-client pipelining window (default 8)
  --workers N        checker workers for the in-process server (default 4)
  --verify           compare every verdict against local batch checking, over
                     the corpus plus the contention traces at 3-6 processes
  --trace-out FILE   record spans and write Chrome trace-event JSON
  -h, --help         show this help

After each sweep step the server's metrics snapshot is scraped; pool
utilization and the reorder-depth high-water mark (replies computed but not
yet taken by their session's writer) are embedded in the SIBYLFS_BENCH_JSON
records.
";

struct Args {
    addr: Option<String>,
    clients: Vec<usize>,
    requests: usize,
    config: String,
    scripts: usize,
    window: usize,
    workers: usize,
    verify: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        clients: vec![1, 2, 4, 8, 16, 32],
        requests: 50,
        config: "linux".to_string(),
        scripts: 64,
        window: 8,
        workers: 4,
        verify: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--clients" => {
                args.clients = value("--clients")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| format!("bad client count {s:?}: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.clients.is_empty() || args.clients.contains(&0) {
                    return Err("--clients needs positive counts".to_string());
                }
            }
            "--requests" => args.requests = value("--requests")?.parse().map_err(|e| format!("bad --requests: {e}"))?,
            "--config" => args.config = value("--config")?,
            "--scripts" => args.scripts = value("--scripts")?.parse().map_err(|e| format!("bad --scripts: {e}"))?,
            "--window" => args.window = value("--window")?.parse().map_err(|e| format!("bad --window: {e}"))?,
            "--workers" => args.workers = value("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?,
            "--verify" => args.verify = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.requests == 0 || args.window == 0 {
        return Err("--requests and --window must be positive".to_string());
    }
    Ok(args)
}

/// Per-run measurements for one client count.
struct RunResult {
    clients: usize,
    total_requests: usize,
    elapsed: Duration,
    p50_ns: u128,
    p95_ns: u128,
    p99_ns: u128,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.total_requests as f64 / self.elapsed.as_secs_f64()
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One client's work: `requests` checks over the corpus, pipelined `window`
/// deep, returning per-request latencies.
fn run_client(
    addr: &str,
    config: &str,
    corpus: &[String],
    requests: usize,
    window: usize,
    start_at: usize,
) -> Result<Vec<u128>, String> {
    let mut client =
        BlockingClient::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut latencies = Vec::with_capacity(requests);
    let mut sent_at = std::collections::VecDeque::with_capacity(window);
    let mut sent = 0;
    let mut received = 0;
    while received < requests {
        while sent < requests && sent - received < window {
            let text = &corpus[(start_at + sent) % corpus.len()];
            client.send_check(config, text).map_err(|e| format!("send: {e}"))?;
            sent_at.push_back(Instant::now());
            sent += 1;
        }
        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let t0: Instant = sent_at.pop_front().ok_or("response without a request")?;
        latencies.push(t0.elapsed().as_nanos());
        match resp {
            Response::Verdict(_) => {}
            Response::Error { line, col, message } => {
                return Err(format!("server error at {line}:{col}: {message}"));
            }
            Response::StatsLine(_) | Response::Metrics(_) => {
                return Err("unexpected non-verdict response".to_string())
            }
        }
        received += 1;
    }
    Ok(latencies)
}

fn run_sweep_step(
    addr: &str,
    config: &str,
    corpus: &Arc<Vec<String>>,
    clients: usize,
    requests: usize,
    window: usize,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let failures = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let corpus = Arc::clone(corpus);
        let addr = addr.to_string();
        let config = config.to_string();
        let failures = Arc::clone(&failures);
        handles.push(std::thread::spawn(move || {
            match run_client(&addr, &config, &corpus, requests, window, c * 7) {
                Ok(lat) => lat,
                Err(e) => {
                    eprintln!("client {c}: {e}");
                    failures.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                }
            }
        }));
    }
    let mut all: Vec<u128> = Vec::with_capacity(clients * requests);
    for h in handles {
        all.extend(h.join().map_err(|_| "client thread panicked".to_string())?);
    }
    if failures.load(Ordering::SeqCst) > 0 {
        return Err(format!("{} client(s) failed", failures.load(Ordering::SeqCst)));
    }
    let elapsed = started.elapsed();
    all.sort_unstable();
    Ok(RunResult {
        clients,
        total_requests: clients * requests,
        elapsed,
        p50_ns: percentile(&all, 0.50),
        p95_ns: percentile(&all, 0.95),
        p99_ns: percentile(&all, 0.99),
    })
}

/// One scrape of the server-side pool/reorder metrics, taken via the wire
/// protocol's Metrics request. Counters are cumulative since server start,
/// so per-sweep figures are deltas between two scrapes.
struct PoolScrape {
    busy_ns: u64,
    workers: i64,
    reorder_hwm: i64,
    queue_hwm: i64,
}

fn scrape_pool(addr: &str) -> Result<PoolScrape, String> {
    let mut client =
        BlockingClient::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let snap = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(PoolScrape {
        busy_ns: snap.counter("sibylfs_pool_busy_ns_total").unwrap_or(0),
        workers: snap.gauge("sibylfs_pool_workers").map(|(v, _)| v).unwrap_or(0),
        reorder_hwm: snap.gauge("sibylfs_serve_reorder_depth").map(|(_, h)| h).unwrap_or(0),
        queue_hwm: snap.gauge("sibylfs_pool_queue_depth").map(|(_, h)| h).unwrap_or(0),
    })
}

/// Append records to the `SIBYLFS_BENCH_JSON` file using the same grammar as
/// the bench harness (a single JSON array; read-strip-rewrite append).
/// `extra` is a preformatted `, "key": value` JSON fragment (bench-diff's
/// parser skips keys it does not know, so records stay gate-compatible).
fn emit_bench_record(name: &str, ns_per_iter: u128, iters: usize, elems_per_sec: f64, extra: &str) {
    let Ok(path) = std::env::var("SIBYLFS_BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    let record = format!(
        "  {{\"name\": {name:?}, \"ns_per_iter\": {ns_per_iter}, \"iters\": {iters}, \
         \"elems_per_sec\": {elems_per_sec:.1}{extra}, \"mode\": \"timed\"}}"
    );
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let body = existing.trim();
    let new_text = if let Some(inner) = body.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let inner = inner.trim_end();
        if inner.is_empty() {
            format!("[\n{record}\n]\n")
        } else {
            format!("[{inner},\n{record}\n]\n")
        }
    } else {
        format!("[\n{record}\n]\n")
    };
    if let Err(e) = std::fs::write(&path, new_text) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

fn verify_against_batch(
    addr: &str,
    config: &str,
    corpus: &[String],
) -> Result<(), String> {
    let cfg = parse_spec_config(config)?;
    let mut client =
        BlockingClient::connect_tcp(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (i, text) in corpus.iter().enumerate() {
        let resp = client.check(config, text).map_err(|e| format!("check: {e}"))?;
        let Response::Verdict(remote) = resp else {
            return Err(format!("corpus[{i}]: expected a verdict, got {resp:?}"));
        };
        let trace = sibylfs_script::parse_trace(text)
            .map_err(|e| format!("corpus[{i}] does not reparse: {e}"))?;
        let local = render_checked_trace(&check_trace(&cfg, &trace, CheckOptions::default()));
        if remote != local {
            return Err(format!(
                "corpus[{i}]: server verdict differs from batch checking\n--- local ---\n{local}\n--- server ---\n{remote}"
            ));
        }
    }
    println!("verify: {} verdicts bit-identical to batch checking", corpus.len());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Tracing must be on before the corpus build and the verify pass: the
    // client-side spans (local exec/check work, per-sweep brackets) are the
    // whole point of `--trace-out` here — the server records its own file.
    if args.trace_out.is_some() {
        obs::set_tracing(true);
    }

    // Build the corpus: deterministic scripts, executed on simulated ext4 so
    // every trace checks cleanly and any load-test deviation is a real bug.
    let profile = match configs::by_name("linux/ext4") {
        Some(p) => p,
        None => {
            eprintln!("error: linux/ext4 behaviour profile missing");
            std::process::exit(2);
        }
    };
    let scripts = loadgen_scripts(LoadgenOptions { scripts: args.scripts, ..Default::default() });
    let corpus: Arc<Vec<String>> = Arc::new(
        scripts
            .iter()
            .map(|s| render_trace(&execute_script(&profile, s, ExecOptions::default())))
            .collect(),
    );
    println!(
        "corpus: {} traces, {} bytes total",
        corpus.len(),
        corpus.iter().map(String::len).sum::<usize>()
    );

    // Start an in-process server unless one was pointed at.
    let (_server, addr) = match &args.addr {
        Some(a) => (None, a.clone()),
        None => {
            let opts = ServeOptions { workers: args.workers, ..Default::default() };
            match sibylfs_serve::start(opts) {
                Ok(h) => {
                    let addr = h.addr().to_string();
                    println!("in-process server on {addr} ({} workers)", args.workers);
                    (Some(h), addr)
                }
                Err(e) => {
                    eprintln!("error: cannot start server: {e}");
                    std::process::exit(2);
                }
            }
        }
    };

    if args.verify {
        let contention = (3..=6).flat_map(|p| contention_traces(ContentionOptions::new(p, 2)));
        let verified: Vec<String> =
            corpus.iter().cloned().chain(contention.map(|t| render_trace(&t))).collect();
        if let Err(e) = verify_against_batch(&addr, &args.config, &verified) {
            eprintln!("VERIFY FAILED: {e}");
            std::process::exit(1);
        }
    }

    let mut scrape = scrape_pool(&addr)
        .map_err(|e| eprintln!("warning: metrics scrape unavailable: {e}"))
        .ok();
    for &clients in &args.clients {
        let sweep = {
            let _span = obs::span("loadgen", "sweep");
            run_sweep_step(&addr, &args.config, &corpus, clients, args.requests, args.window)
        };
        match sweep {
            Ok(r) => {
                println!(
                    "clients={:<3} {:>8.0} checks/s  p50={:>8.2}ms p95={:>8.2}ms p99={:>8.2}ms  ({} checks in {:.2?})",
                    r.clients,
                    r.throughput(),
                    r.p50_ns as f64 / 1e6,
                    r.p95_ns as f64 / 1e6,
                    r.p99_ns as f64 / 1e6,
                    r.total_requests,
                    r.elapsed,
                );
                // Scrape the server's metrics and attribute this sweep's
                // pool-busy delta to it: utilization = busy worker-time over
                // available worker-time.
                let mut extra = format!(", \"p95_ns\": {}, \"p99_ns\": {}", r.p95_ns, r.p99_ns);
                let after = scrape.as_ref().and_then(|_| scrape_pool(&addr).ok());
                if let (Some(before), Some(after)) = (&scrape, &after) {
                    let workers = after.workers.max(1) as f64;
                    let util = after.busy_ns.saturating_sub(before.busy_ns) as f64
                        / (r.elapsed.as_nanos() as f64 * workers);
                    println!(
                        "            pool: utilization={:>5.1}%  queue_hwm={}  reorder_hwm={}",
                        util * 100.0,
                        after.queue_hwm,
                        after.reorder_hwm,
                    );
                    extra += &format!(
                        ", \"pool_utilization\": {util:.3}, \"reorder_depth_hwm\": {}, \"queue_depth_hwm\": {}",
                        after.reorder_hwm, after.queue_hwm,
                    );
                }
                if after.is_some() {
                    scrape = after;
                }
                emit_bench_record(
                    &format!("serve_loadgen/throughput/{clients}_clients"),
                    r.p50_ns,
                    r.total_requests,
                    r.throughput(),
                    &extra,
                );
            }
            Err(e) => {
                eprintln!("error: sweep at {clients} clients: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.trace_out {
        match obs::write_chrome_trace(std::path::Path::new(path)) {
            Ok(n) => println!("trace: {n} spans written to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
