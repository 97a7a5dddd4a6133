//! # Process-wide observability: metrics and span tracing
//!
//! Two facilities, both designed to be free when off and cheap when on:
//!
//! * **Metrics** — a static registry of relaxed-atomic [`Counter`]s,
//!   [`Gauge`]s (with high-water marks), and log2-bucketed [`Histogram`]s
//!   (with p50/p95/p99 readout). Every metric is a `static` declared in
//!   [`m`], so instrumented call sites pay a handful of relaxed atomic ops
//!   and zero lookups, locks, or allocation. [`snapshot`] samples the whole
//!   registry into a [`MetricsSnapshot`], which renders to (and parses from)
//!   the versioned `@type metrics-v1` text exposition shared by
//!   `sibylfs serve --metrics-addr`, the serve wire protocol's metrics
//!   response, and `sibylfs check --timings`.
//!
//! * **Span tracing** — named timed spans recorded into per-thread buffers
//!   behind a process-global [`AtomicBool`]. When tracing is off, [`span`]
//!   is a single relaxed load returning `None`. When on, each completed
//!   span is pushed onto the calling thread's buffer (one uncontended mutex
//!   per thread; buffers are registered globally so [`drain_spans`] can
//!   collect from every thread). Drained spans serialize as Chrome
//!   trace-event JSON, viewable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`.
//!
//! See `crates/core/DESIGN_OBS.md` for the memory-ordering and buffering
//! rationale.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// Observability must never wedge or abort the process it is observing, so
// every lock here rides through poisoning.
use crate::pool::lock;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing event count. All operations are relaxed
/// atomics: counters order nothing, they only tally.
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// An instantaneous level (queue depth, corpus size, inflight requests)
/// that also remembers the highest value it ever reached.
pub struct Gauge {
    cur: AtomicI64,
    hwm: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge { cur: AtomicI64::new(0), hwm: AtomicI64::new(0) }
    }

    /// Set the level outright (and bump the high-water mark if needed).
    #[inline]
    pub fn set(&self, v: i64) {
        self.cur.store(v, Relaxed);
        self.hwm.fetch_max(v, Relaxed);
    }

    /// Adjust the level by a signed delta, returning the new level.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        let new = self.cur.fetch_add(delta, Relaxed) + delta;
        self.hwm.fetch_max(new, Relaxed);
        new
    }

    #[inline]
    pub fn inc(&self) -> i64 {
        self.add(1)
    }

    #[inline]
    pub fn dec(&self) -> i64 {
        self.add(-1)
    }

    pub fn get(&self) -> i64 {
        self.cur.load(Relaxed)
    }

    pub fn high_water(&self) -> i64 {
        self.hwm.load(Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i` (1 ≤ i ≤ 62) holds values in `[2^(i-1), 2^i)`, and bucket 63
/// holds everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples (typically nanoseconds) with
/// power-of-two buckets. Recording is two relaxed `fetch_add`s; quantile
/// readout walks the 64 buckets and reports the upper bound of the bucket
/// containing the requested rank, so quantiles are upper estimates with
/// factor-of-two resolution — plenty for spotting tail shifts.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`; used as the quantile estimate.
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            _ if i >= HIST_BUCKETS - 1 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Record a duration in nanoseconds (saturating on the cast).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Snapshot this histogram's aggregate state. Bucket loads are not a
    /// consistent cut across concurrent writers; for observability that
    /// tearing is acceptable by design.
    pub fn stat(&self) -> HistStat {
        let mut counts = [0u64; HIST_BUCKETS];
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(Relaxed);
            total += counts[i];
        }
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the requested quantile, 1-based, clamped into range.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_upper(i);
                }
            }
            Self::bucket_upper(HIST_BUCKETS - 1)
        };
        HistStat {
            count: total,
            sum: self.sum.load(Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sparse `(bucket index, count)` pairs for every non-empty bucket, in
    /// index order. This is the raw log2 distribution behind the `buckets=`
    /// field of the metrics-v1 exposition: external tooling can recompute
    /// arbitrary quantiles or draw latency heatmaps from it. Subject to the
    /// same benign tearing as [`Histogram::stat`].
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Relaxed);
                (c != 0).then_some((i, c))
            })
            .collect()
    }

    /// Inclusive upper bound of log2 bucket `i` (the quantile estimate for
    /// samples landing there). Exposed so bucket-export consumers can map
    /// indices back to value ranges.
    pub fn bucket_bound(i: usize) -> u64 {
        Self::bucket_upper(i)
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Aggregate readout of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistStat {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

// ---------------------------------------------------------------------------
// The static registry
// ---------------------------------------------------------------------------

/// A reference to one registered metric, tagged by kind.
pub enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl MetricRef {
    fn sample(&self, name: &str) -> MetricEntry {
        match self {
            MetricRef::Counter(c) => MetricEntry::Counter { name: name.to_string(), value: c.get() },
            MetricRef::Gauge(g) => MetricEntry::Gauge {
                name: name.to_string(),
                value: g.get(),
                high_water: g.high_water(),
            },
            MetricRef::Histogram(h) => {
                let s = h.stat();
                MetricEntry::Histogram {
                    name: name.to_string(),
                    count: s.count,
                    sum: s.sum,
                    p50: s.p50,
                    p95: s.p95,
                    p99: s.p99,
                    buckets: h.nonzero_buckets(),
                }
            }
        }
    }
}

macro_rules! registry {
    ($($kind:ident $ident:ident => $name:literal;)*) => {
        /// Every process-global metric, as `static`s: instrumented call
        /// sites reference these directly, so the hot path never performs
        /// a name lookup.
        pub mod m {
            use super::{Counter, Gauge, Histogram};
            $(pub static $ident: $kind = $kind::new();)*
        }
        /// The full registry: `(exposition name, handle)` per metric.
        pub static REGISTRY: &[(&str, MetricRef)] = &[
            $(($name, MetricRef::$kind(&m::$ident)),)*
        ];
    };
}

registry! {
    // Checker.
    Counter CHECK_TRACES_TOTAL => "sibylfs_check_traces_total";
    Counter CHECK_DEVIATIONS_TOTAL => "sibylfs_check_deviations_total";
    Counter CHECK_TRUNCATIONS_TOTAL => "sibylfs_check_truncations_total";
    Counter STATE_DEDUP_HITS_TOTAL => "sibylfs_state_dedup_hits_total";
    Counter TAU_STATES_EXPANDED_TOTAL => "sibylfs_tau_states_expanded_total";
    Counter TAU_SLEEP_PRUNED_TOTAL => "sibylfs_tau_sleep_pruned_total";
    Histogram CHECK_TRACE_NS => "sibylfs_check_trace_ns";

    // Worker pool (`crate::pool`): every exec and check worker.
    Gauge POOL_QUEUE_DEPTH => "sibylfs_pool_queue_depth";
    Gauge POOL_WORKERS => "sibylfs_pool_workers";
    Counter POOL_JOBS_TOTAL => "sibylfs_pool_jobs_total";
    Counter POOL_JOBS_PANICKED => "sibylfs_pool_jobs_panicked";
    Counter POOL_BUSY_NS_TOTAL => "sibylfs_pool_busy_ns_total";
    Histogram POOL_JOB_WAIT_NS => "sibylfs_pool_job_wait_ns";
    Histogram POOL_JOB_RUN_NS => "sibylfs_pool_job_run_ns";

    // Serve path.
    Counter SERVE_REQUESTS_TOTAL => "sibylfs_serve_requests_total";
    Counter SERVE_ERRORS_TOTAL => "sibylfs_serve_errors_total";
    Counter SERVE_BYTES_IN_TOTAL => "sibylfs_serve_bytes_in_total";
    Counter SERVE_BYTES_OUT_TOTAL => "sibylfs_serve_bytes_out_total";
    Counter SERVE_SESSIONS_OPENED_TOTAL => "sibylfs_serve_sessions_opened_total";
    Counter SERVE_SESSIONS_KILLED_TOTAL => "sibylfs_serve_sessions_killed_total";
    Gauge SERVE_INFLIGHT => "sibylfs_serve_inflight";
    Gauge SERVE_REORDER_DEPTH => "sibylfs_serve_reorder_depth";
    Histogram SERVE_REQUEST_NS => "sibylfs_serve_request_ns";

    // Explore.
    Counter EXPLORE_ITERATIONS_TOTAL => "sibylfs_explore_iterations_total";
    Counter EXPLORE_NOVEL_TOTAL => "sibylfs_explore_novel_total";
    Counter EXPLORE_DIVERGENCES_TOTAL => "sibylfs_explore_divergences_total";
    Counter EXPLORE_EXEC_ERRORS_TOTAL => "sibylfs_explore_exec_errors_total";
    Counter EXPLORE_LINT_REJECTED_TOTAL => "sibylfs_explore_lint_rejected_total";
    Counter EXPLORE_LINT_REPAIRED_TOTAL => "sibylfs_explore_lint_repaired_total";
    Gauge EXPLORE_CORPUS_SIZE => "sibylfs_explore_corpus_size";
    Counter MUT_INSERT_TOTAL => "sibylfs_explore_mut_insert_total";
    Counter MUT_SPLICE_TOTAL => "sibylfs_explore_mut_splice_total";
    Counter MUT_PERTURB_TOTAL => "sibylfs_explore_mut_perturb_total";
    Counter MUT_DELETE_TOTAL => "sibylfs_explore_mut_delete_total";
    Counter MUT_DUPLICATE_TOTAL => "sibylfs_explore_mut_duplicate_total";
    Counter MUT_SWAP_TOTAL => "sibylfs_explore_mut_swap_total";
    Counter MUT_INTERLEAVE_TOTAL => "sibylfs_explore_mut_interleave_total";

    // Executor.
    Counter EXEC_SCRIPTS_TOTAL => "sibylfs_exec_scripts_total";
    Histogram EXEC_SCRIPT_NS => "sibylfs_exec_script_ns";

    // Pooled host workers.
    Counter EXEC_JAIL_RESETS_TOTAL => "sibylfs_exec_jail_resets_total";
    Counter EXEC_COLD_FORKS_TOTAL => "sibylfs_exec_cold_forks_total";
    Counter EXEC_WORKER_RESPAWNS_TOTAL => "sibylfs_exec_worker_respawns_total";

    // Observability itself.
    Counter OBS_SPANS_DROPPED_TOTAL => "sibylfs_obs_spans_dropped_total";
}

/// Sample every registered metric into a sorted, self-describing snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let mut entries: Vec<MetricEntry> =
        REGISTRY.iter().map(|(name, r)| r.sample(name)).collect();
    entries.sort_by(|a, b| a.name().cmp(b.name()));
    MetricsSnapshot { entries }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot and the metrics-v1 text exposition
// ---------------------------------------------------------------------------

/// Header line of the versioned text exposition, matching the repo's
/// `@type audit-report` / `@type lint-report` convention.
pub const METRICS_V1_HEADER: &str = "@type metrics-v1";

/// One sampled metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricEntry {
    Counter { name: String, value: u64 },
    Gauge { name: String, value: i64, high_water: i64 },
    Histogram {
        name: String,
        count: u64,
        sum: u64,
        p50: u64,
        p95: u64,
        p99: u64,
        /// Sparse `(log2 bucket index, count)` pairs, index-ascending.
        /// Optional on the wire (`buckets=`): older producers omit it, and
        /// a parse without the field yields an empty vec.
        buckets: Vec<(usize, u64)>,
    },
}

impl MetricEntry {
    pub fn name(&self) -> &str {
        match self {
            MetricEntry::Counter { name, .. }
            | MetricEntry::Gauge { name, .. }
            | MetricEntry::Histogram { name, .. } => name,
        }
    }
}

/// A point-in-time sample of the metrics registry, independent of the
/// process that produced it (it round-trips through the text exposition,
/// which is how `sibylfs_loadgen` scrapes a server).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|e| match e {
            MetricEntry::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
    }

    /// `(current, high_water)` for a gauge.
    pub fn gauge(&self, name: &str) -> Option<(i64, i64)> {
        self.entries.iter().find_map(|e| match e {
            MetricEntry::Gauge { name: n, value, high_water } if n == name => {
                Some((*value, *high_water))
            }
            _ => None,
        })
    }

    /// Drop entries that never fired (zero counters, zero-valued gauges with
    /// a zero high-water mark, empty histograms). A batch `--timings` table
    /// prints only the subsystems the run actually exercised.
    pub fn retain_nonzero(&mut self) {
        self.entries.retain(|e| match e {
            MetricEntry::Counter { value, .. } => *value != 0,
            MetricEntry::Gauge { value, high_water, .. } => *value != 0 || *high_water != 0,
            MetricEntry::Histogram { count, .. } => *count != 0,
        });
    }

    pub fn histogram(&self, name: &str) -> Option<HistStat> {
        self.entries.iter().find_map(|e| match e {
            MetricEntry::Histogram { name: n, count, sum, p50, p95, p99, .. } if n == name => {
                Some(HistStat { count: *count, sum: *sum, p50: *p50, p95: *p95, p99: *p99 })
            }
            _ => None,
        })
    }

    /// Raw log2 bucket pairs for a histogram, if the exposition carried the
    /// optional `buckets=` field (empty vec otherwise).
    pub fn histogram_buckets(&self, name: &str) -> Option<&[(usize, u64)]> {
        self.entries.iter().find_map(|e| match e {
            MetricEntry::Histogram { name: n, buckets, .. } if n == name => {
                Some(buckets.as_slice())
            }
            _ => None,
        })
    }

    /// Render the versioned text exposition:
    ///
    /// ```text
    /// @type metrics-v1
    /// counter sibylfs_check_traces_total 400
    /// gauge sibylfs_pool_queue_depth 0 hwm=17
    /// histogram sibylfs_check_trace_ns count=400 sum=52131 p50=65535 p95=131071 p99=262143
    /// ```
    ///
    /// One metric per line, sorted by name, Prometheus-style plain text;
    /// [`MetricsSnapshot::parse`] is the exact inverse.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 * (1 + self.entries.len()));
        out.push_str(METRICS_V1_HEADER);
        out.push('\n');
        for e in &self.entries {
            match e {
                MetricEntry::Counter { name, value } => {
                    out.push_str(&format!("counter {name} {value}\n"));
                }
                MetricEntry::Gauge { name, value, high_water } => {
                    out.push_str(&format!("gauge {name} {value} hwm={high_water}\n"));
                }
                MetricEntry::Histogram { name, count, sum, p50, p95, p99, buckets } => {
                    out.push_str(&format!(
                        "histogram {name} count={count} sum={sum} p50={p50} p95={p95} p99={p99}"
                    ));
                    // Raw log2 distribution, sparse `index:count` pairs. The
                    // field is optional so pre-bucket consumers keep parsing.
                    if !buckets.is_empty() {
                        out.push_str(" buckets=");
                        for (j, (i, c)) in buckets.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!("{i}:{c}"));
                        }
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parse a metrics-v1 text exposition back into a snapshot. Blank lines
    /// and `#` comments are skipped; unknown line kinds are an error, so
    /// format drift is caught rather than silently dropped.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == METRICS_V1_HEADER => {}
            other => {
                return Err(format!(
                    "metrics-v1: expected header {METRICS_V1_HEADER:?}, got {other:?}"
                ))
            }
        }
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let kind = parts.next().unwrap_or_default();
            let name = parts
                .next()
                .ok_or_else(|| format!("metrics-v1 line {}: missing name", i + 2))?
                .to_string();
            let fields: Vec<&str> = parts.collect();
            let field = |key: &str| -> Result<u64, String> {
                fields
                    .iter()
                    .find_map(|f| f.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                    .ok_or_else(|| format!("metrics-v1 line {}: missing {key}=", i + 2))?
                    .parse::<u64>()
                    .map_err(|e| format!("metrics-v1 line {}: bad {key}: {e}", i + 2))
            };
            let entry = match kind {
                "counter" => MetricEntry::Counter {
                    value: fields
                        .first()
                        .ok_or_else(|| format!("metrics-v1 line {}: missing value", i + 2))?
                        .parse::<u64>()
                        .map_err(|e| format!("metrics-v1 line {}: bad value: {e}", i + 2))?,
                    name,
                },
                "gauge" => {
                    let value = fields
                        .first()
                        .ok_or_else(|| format!("metrics-v1 line {}: missing value", i + 2))?
                        .parse::<i64>()
                        .map_err(|e| format!("metrics-v1 line {}: bad value: {e}", i + 2))?;
                    let high_water = fields
                        .iter()
                        .find_map(|f| f.strip_prefix("hwm="))
                        .ok_or_else(|| format!("metrics-v1 line {}: missing hwm=", i + 2))?
                        .parse::<i64>()
                        .map_err(|e| format!("metrics-v1 line {}: bad hwm: {e}", i + 2))?;
                    MetricEntry::Gauge { name, value, high_water }
                }
                "histogram" => {
                    // `buckets=` is optional (sparse `index:count` pairs);
                    // absence parses as an empty distribution.
                    let buckets = match fields
                        .iter()
                        .find_map(|f| f.strip_prefix("buckets="))
                    {
                        None | Some("") => Vec::new(),
                        Some(spec) => spec
                            .split(',')
                            .map(|pair| {
                                let (idx, cnt) = pair.split_once(':').ok_or_else(|| {
                                    format!(
                                        "metrics-v1 line {}: bad buckets pair {pair:?}",
                                        i + 2
                                    )
                                })?;
                                let idx = idx.parse::<usize>().map_err(|e| {
                                    format!("metrics-v1 line {}: bad bucket index: {e}", i + 2)
                                })?;
                                if idx >= HIST_BUCKETS {
                                    return Err(format!(
                                        "metrics-v1 line {}: bucket index {idx} out of range",
                                        i + 2
                                    ));
                                }
                                let cnt = cnt.parse::<u64>().map_err(|e| {
                                    format!("metrics-v1 line {}: bad bucket count: {e}", i + 2)
                                })?;
                                Ok((idx, cnt))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                    };
                    MetricEntry::Histogram {
                        count: field("count")?,
                        sum: field("sum")?,
                        p50: field("p50")?,
                        p95: field("p95")?,
                        p99: field("p99")?,
                        buckets,
                        name,
                    }
                }
                other => {
                    return Err(format!("metrics-v1 line {}: unknown kind {other:?}", i + 2))
                }
            };
            entries.push(entry);
        }
        Ok(MetricsSnapshot { entries })
    }
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// One completed span: a named, categorized interval on one thread.
/// Timestamps are nanoseconds since the process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    pub cat: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
}

static TRACING_ON: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPAN_COUNT: AtomicU64 = AtomicU64::new(0);
static SPAN_SINKS: Mutex<Vec<Arc<Mutex<Vec<SpanEvent>>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Hard cap on buffered (undrained) spans process-wide, so a long traced
/// `serve` run cannot grow without bound between drains. Spans past the cap
/// are counted in `sibylfs_obs_spans_dropped_total` and discarded.
pub const SPAN_BUFFER_CAP: u64 = 1 << 20;

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// This thread's `(tid, buffer)`. The buffer is registered globally on
    /// first use so `drain_spans` can reach it; the `Arc` keeps it alive
    /// (and drainable) after the thread exits.
    static LOCAL_SPANS: (u64, Arc<Mutex<Vec<SpanEvent>>>) = {
        let tid = NEXT_TID.fetch_add(1, Relaxed);
        let buf = Arc::new(Mutex::new(Vec::new()));
        lock(&SPAN_SINKS).push(Arc::clone(&buf));
        (tid, buf)
    };
}

/// Turn span recording on or off process-wide.
pub fn set_tracing(on: bool) {
    // Pin the epoch before the first span can start, so timestamps are
    // always non-negative offsets from it.
    if on {
        let _ = epoch();
    }
    TRACING_ON.store(on, Relaxed);
}

pub fn tracing_enabled() -> bool {
    TRACING_ON.load(Relaxed)
}

/// An in-flight span; records itself on drop.
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    start: Instant,
}

/// Begin a span. When tracing is off this is one relaxed load and returns
/// `None` — call sites hold the `Option` in a `_span` binding and pay
/// nothing else.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Option<SpanGuard> {
    if !TRACING_ON.load(Relaxed) {
        return None;
    }
    Some(SpanGuard { name, cat, start: Instant::now() })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        // Saturates to zero if the epoch was pinned after `start` (cannot
        // happen via `set_tracing`, but belt and braces).
        let ts = self.start.saturating_duration_since(epoch());
        if SPAN_COUNT.fetch_add(1, Relaxed) >= SPAN_BUFFER_CAP {
            m::OBS_SPANS_DROPPED_TOTAL.inc();
            return;
        }
        let ev = |tid: u64| SpanEvent {
            name: self.name,
            cat: self.cat,
            ts_ns: u64::try_from(ts.as_nanos()).unwrap_or(u64::MAX),
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            tid,
        };
        // `try_with`: a span finishing during thread teardown (after TLS
        // destruction) is silently dropped rather than aborting.
        let pushed = LOCAL_SPANS
            .try_with(|(tid, buf)| lock(buf).push(ev(*tid)))
            .is_ok();
        if !pushed {
            m::OBS_SPANS_DROPPED_TOTAL.inc();
        }
    }
}

/// Collect and clear every thread's span buffer. Events are returned in
/// timestamp order.
pub fn drain_spans() -> Vec<SpanEvent> {
    let sinks = lock(&SPAN_SINKS);
    let mut out = Vec::new();
    for buf in sinks.iter() {
        out.append(&mut lock(buf));
    }
    drop(sinks);
    SPAN_COUNT.store(0, Relaxed);
    out.sort_by_key(|e| (e.ts_ns, e.tid));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize spans as Chrome trace-event JSON (the `traceEvents` array of
/// complete `"ph":"X"` events, timestamps in microseconds). Open the file
/// in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn render_chrome_trace(events: &[SpanEvent]) -> String {
    let pid = std::process::id();
    let mut out = String::with_capacity(96 * (2 + events.len()));
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{},\"tid\":{}}}",
            json_escape(e.name),
            json_escape(e.cat),
            e.ts_ns / 1000,
            e.ts_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            pid,
            e.tid,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Drain all buffered spans and write them to `path` as Chrome trace-event
/// JSON. Returns the number of events written.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let events = drain_spans();
    std::fs::write(path, render_chrome_trace(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        assert_eq!(g.inc(), 1);
        assert_eq!(g.add(4), 5);
        assert_eq!(g.dec(), 4);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.stat(), HistStat { count: 0, sum: 0, p50: 0, p95: 0, p99: 0 });
        // 90 fast samples at 100ns, 10 slow at 1ms: p50 lands in the fast
        // bucket, p95/p99 in the slow one.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.stat();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 1_000_000);
        assert_eq!(s.p50, 127, "100 falls in [64,128)");
        assert_eq!(s.p95, (1u64 << 20) - 1, "1e6 falls in [2^19,2^20)");
        assert_eq!(s.p99, s.p95);
        // Edge buckets.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_renders_and_parses_round_trip() {
        let snap = MetricsSnapshot {
            entries: vec![
                MetricEntry::Counter { name: "sibylfs_check_traces_total".into(), value: 400 },
                MetricEntry::Gauge {
                    name: "sibylfs_pool_queue_depth".into(),
                    value: 0,
                    high_water: 17,
                },
                MetricEntry::Histogram {
                    name: "sibylfs_check_trace_ns".into(),
                    count: 400,
                    sum: 52_131,
                    p50: 65_535,
                    p95: 131_071,
                    p99: 262_143,
                    buckets: vec![(16, 390), (18, 10)],
                },
            ],
        };
        let text = snap.render();
        assert!(text.starts_with("@type metrics-v1\n"), "versioned header first: {text}");
        assert!(text.contains(" buckets=16:390,18:10"), "sparse bucket export: {text}");
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("sibylfs_check_traces_total"), Some(400));
        assert_eq!(back.gauge("sibylfs_pool_queue_depth"), Some((0, 17)));
        assert_eq!(back.histogram("sibylfs_check_trace_ns").unwrap().p95, 131_071);
        assert_eq!(
            back.histogram_buckets("sibylfs_check_trace_ns"),
            Some(&[(16usize, 390u64), (18, 10)][..])
        );
    }

    #[test]
    fn histogram_buckets_field_is_optional_and_validated() {
        // A line without buckets= parses to an empty distribution, and an
        // empty distribution renders without the field — exact round-trip
        // with pre-bucket producers.
        let old = "@type metrics-v1\nhistogram h count=1 sum=2 p50=3 p95=3 p99=3\n";
        let parsed = MetricsSnapshot::parse(old).unwrap();
        assert_eq!(parsed.histogram_buckets("h"), Some(&[][..]));
        assert_eq!(parsed.render(), old);

        // Malformed pairs and out-of-range indices are rejected, not dropped.
        for bad in ["buckets=7", "buckets=a:1", "buckets=7:x", "buckets=64:1"] {
            let line =
                format!("@type metrics-v1\nhistogram h count=1 sum=2 p50=3 p95=3 p99=3 {bad}\n");
            assert!(MetricsSnapshot::parse(&line).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn parse_rejects_missing_header_and_unknown_kinds() {
        assert!(MetricsSnapshot::parse("counter x 1\n").is_err());
        assert!(MetricsSnapshot::parse("@type metrics-v1\nsummary x 1\n").is_err());
        // Comments and blank lines are fine.
        let ok = MetricsSnapshot::parse("@type metrics-v1\n\n# comment\ncounter x 1\n").unwrap();
        assert_eq!(ok.counter("x"), Some(1));
    }

    #[test]
    fn global_snapshot_is_sorted_and_covers_the_registry() {
        let snap = snapshot();
        assert_eq!(snap.entries.len(), REGISTRY.len());
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot must be sorted by metric name");
        // Round-trips through the exposition.
        let back = MetricsSnapshot::parse(&snap.render()).unwrap();
        assert_eq!(back.entries.len(), snap.entries.len());
    }

    #[test]
    fn spans_record_only_when_enabled_and_serialize_as_chrome_json() {
        // Drain anything earlier tests in this process left behind.
        let _ = drain_spans();
        assert!(span("t", "off").is_none(), "tracing starts disabled");

        set_tracing(true);
        {
            let _outer = span("test", "outer");
            let _inner = span("test", "inner");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::spawn(|| {
            let _s = span("test", "worker");
        })
        .join()
        .unwrap();
        set_tracing(false);

        let events = drain_spans();
        assert!(events.iter().any(|e| e.name == "outer"));
        assert!(events.iter().any(|e| e.name == "inner"));
        assert!(events.iter().any(|e| e.name == "worker"), "other threads drain too");
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert!(outer.dur_ns >= 1_000_000, "slept 1ms inside the span");

        let json = render_chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.trim_end().ends_with("]}"));
        // Second drain is empty.
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
