//! # SibylFS coverage-guided model exploration
//!
//! The test suite of the paper is *static*: a fixed set of combinatorial and
//! hand-written scripts. This crate closes the feedback loop — like
//! coverage-risk-driven ridge selection, a measurable coverage objective
//! steers generation instead of blind sampling. The engine maintains a corpus
//! of interesting scripts, mutates them ([`mutate`]), executes the children on
//! a backend (the deterministic simulation by default, or the real host in
//! differential mode), checks the resulting traces against the model, and
//! keeps exactly those children that light up a coverage key
//! ([`sibylfs_core::coverage::CoverageKey`]) nothing else has reached — after
//! first minimizing them with the delta-debugging shrinker ([`shrink`]).
//!
//! ## Determinism and replay
//!
//! Each iteration is one item of [`sibylfs_core::pool::for_each_with`], and
//! all randomness derives from one base seed through
//! [`sibylfs_testgen::random::split_seed`]: pool worker `w` owns
//! `split_seed(seed, w)`, and its own iteration `i` owns
//! `split_seed(split_seed(seed, w), i)` — the *derived seed* recorded in the
//! header of every persisted corpus entry. The saved script itself replays
//! without any seed (execution and checking are deterministic); the seed
//! chain additionally pins the mutation that produced it. With more than one
//! worker the *set* of discoveries depends on scheduling (novelty is judged
//! against a shared map), but every individual entry is self-contained.
//!
//! ## Differential mode
//!
//! With [`Backend::Host`], every child runs on both the simulation and the
//! real kernel; any sim-vs-host verdict mismatch (modulo the known kernel
//! divergences) is itself a finding, shrunk and saved under `divergences/` in
//! the corpus directory.

pub mod corpus;
pub mod mutate;
pub mod shrink;

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sibylfs_check::{check_trace_with_coverage, CheckOptions, CheckedTrace, Deviation};
use sibylfs_core::coverage::{CoverageKey, CoverageMap};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::obs;
use sibylfs_core::pool::{self, lock};
use sibylfs_exec::{ExecError, ExecOptions, Executor, SimExecutor};
use sibylfs_fsimpl::configs;
use sibylfs_report::render_coverage_map_markdown;
use sibylfs_script::Script;
use sibylfs_testgen::random::split_seed;
use sibylfs_testgen::sequences;
use sibylfs_testgen::{generate_suite, SuiteOptions};

use corpus::{Corpus, CorpusEntry, EntryKind, Provenance};
use mutate::Mutator;
use shrink::shrink;

/// Which executor(s) the exploration loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process simulation only (deterministic, fast, default).
    Sim,
    /// Differential mode: every child runs on the real host kernel *and* the
    /// simulation; verdict mismatches are saved as distinguishing testcases.
    Host,
}

impl Backend {
    /// Short label used by reports.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Host => "host",
        }
    }
}

/// What the initial global coverage (the novelty reference) is seeded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Execute and check the full static quick suite first; exploration then
    /// hunts only what that suite does not reach. This is the production mode
    /// (and what the acceptance gate measures against).
    QuickSuite,
    /// Start from the corpus seeds only — cheaper; used by unit tests.
    SeedsOnly,
}

/// Options for one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// The simulated configuration under test (also the sim half of
    /// differential mode).
    pub config: String,
    /// The model flavour traces are checked against.
    pub flavor: Flavor,
    /// Sim-only or sim-vs-host differential.
    pub backend: Backend,
    /// Stop after this many iterations (children evaluated).
    pub iterations: Option<u64>,
    /// Stop after this much wall-clock time. If neither bound is given, a
    /// 60-second budget is used.
    pub time_budget: Option<Duration>,
    /// Base seed; every other seed in the run derives from it.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Where to persist corpus entries (`None`: in-memory only).
    pub corpus_dir: Option<PathBuf>,
    /// What the novelty reference starts from.
    pub baseline: BaselineMode,
    /// Print a live stats line to stderr.
    pub progress: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            config: "linux/tmpfs".to_string(),
            flavor: Flavor::Linux,
            backend: Backend::Sim,
            iterations: None,
            time_budget: None,
            seed: 42,
            workers: std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(2),
            corpus_dir: None,
            baseline: BaselineMode::QuickSuite,
            progress: false,
        }
    }
}

/// Why an exploration run could not start (or finish).
#[derive(Debug)]
pub enum ExploreError {
    /// `--config` names no registered simulated configuration.
    UnknownConfig(String),
    /// Differential mode requested where the host sandbox cannot be built.
    HostUnavailable(String),
    /// Persisting the corpus failed.
    Io(std::io::Error),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::UnknownConfig(name) => {
                write!(f, "unknown configuration {name:?} (see `sibylfs configs`)")
            }
            ExploreError::HostUnavailable(why) => {
                write!(f, "host backend unavailable: {why}")
            }
            ExploreError::Io(e) => write!(f, "corpus I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Io(e)
    }
}

/// The result of an exploration run.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The configuration explored.
    pub config: String,
    /// The flavour checked against.
    pub flavor: Flavor,
    /// `"sim"` or `"host"`.
    pub backend: &'static str,
    /// The base seed of the run.
    pub seed: u64,
    /// Children evaluated.
    pub iterations: u64,
    /// Wall-clock seconds spent exploring (baseline excluded).
    pub elapsed_secs: f64,
    /// Coverage of the novelty reference before exploring.
    pub baseline: CoverageMap,
    /// Final cumulative coverage.
    pub coverage: CoverageMap,
    /// Keys exploration reached that the baseline did not.
    pub novel_keys: Vec<CoverageKey>,
    /// Corpus size at the end (seeds + discoveries).
    pub corpus_len: usize,
    /// Files persisted (empty without `corpus_dir`).
    pub saved: Vec<PathBuf>,
    /// Backend-distinguishing (or model-deviating) testcases found.
    pub divergences: usize,
    /// Host-execution failures skipped (differential mode only).
    pub exec_errors: usize,
    /// Mutants statically rejected by the linter (execution skipped).
    pub lint_rejected: usize,
    /// Mutants statically repaired (doomed steps dropped) before execution.
    pub lint_repaired: usize,
}

impl ExploreOutcome {
    /// The headline branch-coverage percentages (baseline, final).
    pub fn coverage_percents(&self) -> (f64, f64) {
        (self.baseline.branch_summary().percent(), self.coverage.branch_summary().percent())
    }

    /// Render the final markdown report: run header, coverage delta, novel
    /// keys, and the full coverage map (per-syscall errno-envelope table plus
    /// the uncovered-transition list).
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (base_pct, final_pct) = self.coverage_percents();
        let _ = writeln!(out, "# Exploration report\n");
        let _ = writeln!(
            out,
            "* configuration: `{}`  model: `{}`  backend: {}  seed: {}",
            self.config,
            self.flavor.name(),
            self.backend,
            self.seed
        );
        let _ = writeln!(
            out,
            "* iterations: {}  elapsed: {:.1}s  corpus: {} entries  divergences: {}",
            self.iterations, self.elapsed_secs, self.corpus_len, self.divergences
        );
        let rejected_pct = if self.iterations > 0 {
            self.lint_rejected as f64 * 100.0 / self.iterations as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "* static pre-filter: {} mutant(s) rejected ({rejected_pct:.1}% of iterations, \
             execution skipped), {} repaired",
            self.lint_rejected, self.lint_repaired
        );
        let _ = writeln!(
            out,
            "* baseline coverage: {:.1}% branches, {} transitions",
            base_pct,
            self.baseline.transition_count()
        );
        let _ = writeln!(
            out,
            "* explored coverage: {:.1}% branches, {} transitions ({} novel key(s))\n",
            final_pct,
            self.coverage.transition_count(),
            self.novel_keys.len()
        );
        if !self.novel_keys.is_empty() {
            let _ = writeln!(out, "Keys first reached by exploration:\n");
            for key in self.novel_keys.iter().take(40) {
                match key {
                    CoverageKey::Branch(p) => {
                        let _ = writeln!(out, "* branch `{p}`");
                    }
                    CoverageKey::Transition { syscall, outcome } => {
                        let _ = writeln!(out, "* transition `{syscall}` → `{outcome}`");
                    }
                }
            }
            if self.novel_keys.len() > 40 {
                let _ = writeln!(out, "* … and {} more", self.novel_keys.len() - 40);
            }
            let _ = writeln!(out);
        }
        out.push_str(&render_coverage_map_markdown(&self.coverage));
        out
    }
}

/// Real-kernel deviations that differential mode does not count as findings:
/// the behaviours `tests/host_differential.rs` pins in its known-divergence
/// table (Linux accepts access mode 3 in `open`, caps `lseek` at
/// `s_maxbytes`, and lets tmpfs files grow past the model's EFBIG limit).
/// These three clauses are broader than that table's four entries on
/// purpose: each table entry names the one quick-suite call that triggers
/// it, while mutants reach the same behaviour at other offsets and through
/// other calls.
fn known_host_divergence(d: &Deviation) -> bool {
    (d.function == "open"
        && d.observed.starts_with("RV_fd(")
        && d.call.contains("[O_WRONLY;O_RDWR"))
        // The mutator also seeks to i64::MAX - 1, hence the truncated match.
        || (d.function == "lseek"
            && d.observed.starts_with("EINVAL")
            && d.call.contains("922337203685477580"))
        // The modelled MAX_FILE_SIZE is deliberately far below any real
        // kernel's s_maxbytes, so a sparse write/truncate between the two
        // limits succeeds on the host where the model answers EFBIG.
        || (matches!(d.function.as_str(), "truncate" | "pwrite" | "write")
            && (d.observed.starts_with("RV_none") || d.observed.starts_with("RV_num("))
            && d.allowed.iter().any(|a| a.contains("EFBIG")))
}

/// One evaluated child.
struct Eval {
    checked: CheckedTrace,
    cov: CoverageMap,
}

fn evaluate(exec: &dyn Executor, cfg: &SpecConfig, script: &Script) -> Result<Eval, ExecError> {
    let trace = exec.execute_script(script, ExecOptions::default())?;
    let (checked, cov) = check_trace_with_coverage(cfg, &trace, CheckOptions::default());
    Ok(Eval { checked, cov })
}

/// One run's state: what every iteration reads, and the corpus, coverage
/// and tallies that every worker updates.
struct Run<'a> {
    opts: &'a ExploreOptions,
    cfg: SpecConfig,
    sim: SimExecutor,
    /// Differential mode's host backend: one pool for the whole run, with
    /// one jailed worker process per explore worker.
    host: Option<Box<dyn Executor + Sync>>,
    mutator: Mutator,
    corpus: Mutex<Corpus>,
    global: Mutex<CoverageMap>,
    /// Finding signatures already saved, so one root cause does not flood
    /// the corpus.
    finding_sigs: Mutex<BTreeSet<(String, String)>>,
    saved: Mutex<Vec<PathBuf>>,
    /// Iterations started, for the progress line and the outcome; the
    /// pool's item source, not this tally, bounds the run.
    iterations: AtomicU64,
    novel_entries: AtomicUsize,
    divergences: AtomicUsize,
    exec_errors: AtomicUsize,
    /// Mutants the static linter rejected outright (no calls left after
    /// dropping doomed steps), saving an execution each.
    lint_rejected: AtomicUsize,
    /// Mutants the linter repaired (doomed steps dropped) before execution.
    lint_repaired: AtomicUsize,
}

/// One pool worker's state. `seed` is `split_seed(base, id)`, so worker
/// `id`'s iteration `iter` owns `split_seed(split_seed(base, id), iter)`.
struct Worker {
    id: usize,
    seed: u64,
    iter: u64,
}

/// Run the exploration loop.
pub fn explore(opts: &ExploreOptions) -> Result<ExploreOutcome, ExploreError> {
    let profile = configs::by_name(&opts.config)
        .ok_or_else(|| ExploreError::UnknownConfig(opts.config.clone()))?;
    if opts.backend == Backend::Host && !sibylfs_exec::host_backend_available() {
        return Err(ExploreError::HostUnavailable(
            "needs Linux with chroot privilege".to_string(),
        ));
    }
    let host: Option<Box<dyn Executor + Sync>> = match opts.backend {
        Backend::Sim => None,
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        Backend::Host => Some(Box::new(sibylfs_exec::HostFs::pooled(opts.workers.max(1)))),
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        Backend::Host => unreachable!("host_backend_available() is false off 64-bit Linux"),
    };
    let run = Run {
        opts,
        cfg: SpecConfig::standard(opts.flavor),
        sim: SimExecutor::new(profile),
        host,
        mutator: Mutator::new(40),
        corpus: Mutex::default(),
        global: Mutex::default(),
        finding_sigs: Mutex::default(),
        saved: Mutex::default(),
        iterations: AtomicU64::new(0),
        novel_entries: AtomicUsize::new(0),
        divergences: AtomicUsize::new(0),
        exec_errors: AtomicUsize::new(0),
        lint_rejected: AtomicUsize::new(0),
        lint_repaired: AtomicUsize::new(0),
    };

    // --- Baseline: what does the static suite already reach? -------------
    let mut baseline = CoverageMap::new();
    if opts.baseline == BaselineMode::QuickSuite {
        for script in generate_suite(SuiteOptions::quick()) {
            if let Ok(eval) = run.evaluate(&script) {
                baseline.merge(&eval.cov);
            }
        }
    }
    *lock(&run.global) = baseline.clone();

    // --- Seed the corpus with the known-hard scripts ---------------------
    let seed_scripts = sequences::model_gap_scripts()
        .into_iter()
        .map(|(sc, _)| sc)
        .chain(sequences::defect_scenario_scripts());
    for script in seed_scripts {
        let eval = run.evaluate(&script).expect("the simulation is infallible");
        lock(&run.global).merge(&eval.cov);
        let accepted = eval.checked.accepted;
        run.save_entry(CorpusEntry {
            script,
            kind: EntryKind::Seed,
            provenance: None,
            novel: Vec::new(),
            accepted,
        })?;
    }
    if opts.baseline == BaselineMode::SeedsOnly {
        baseline = lock(&run.global).clone();
    }

    // Each iteration is one pool item. The source alone ends the run: it
    // stops at the iteration cap or, checked as each item is handed out,
    // once the time budget is spent.
    let budget = match (opts.iterations, opts.time_budget) {
        (None, None) => Some(Duration::from_secs(60)),
        (_, tb) => tb,
    };
    let start = Instant::now();
    let items = (0..opts.iterations.unwrap_or(u64::MAX))
        .take_while(|_| budget.is_none_or(|b| start.elapsed() < b));
    let next_id = AtomicUsize::new(0);
    let (pool_running, pool_returned) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // The progress line refreshes every 500 ms, and once more as soon as
        // the pool returns and drops its sender, so the scope joins when the
        // work is done rather than at the next refresh.
        if opts.progress {
            let run = &run;
            scope.spawn(move || loop {
                let done = pool_returned.recv_timeout(Duration::from_millis(500))
                    == Err(RecvTimeoutError::Disconnected);
                let pct = lock(&run.global).branch_summary().percent();
                eprint!(
                    "\rexplore: {} iters, corpus {}, coverage {:.1}% branches, {} novel, {} divergences, {} lint-rejected   ",
                    run.iterations.load(Ordering::Relaxed),
                    lock(&run.corpus).len(),
                    pct,
                    run.novel_entries.load(Ordering::Relaxed),
                    run.divergences.load(Ordering::Relaxed),
                    run.lint_rejected.load(Ordering::Relaxed),
                );
                if done {
                    eprintln!();
                    break;
                }
            });
        }
        pool::for_each_with(
            opts.workers,
            items,
            || {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                Worker { id, seed: split_seed(opts.seed, id as u64), iter: 0 }
            },
            |worker, _| run.iteration(worker),
        );
        drop(pool_running);
    });

    let elapsed_secs = start.elapsed().as_secs_f64();
    let coverage = run.global.into_inner().unwrap_or_else(PoisonError::into_inner);
    let novel_keys = coverage.novel_versus(&baseline);
    Ok(ExploreOutcome {
        config: opts.config.clone(),
        flavor: opts.flavor,
        backend: opts.backend.label(),
        seed: opts.seed,
        iterations: run.iterations.into_inner(),
        elapsed_secs,
        baseline,
        coverage,
        novel_keys,
        corpus_len: run.corpus.into_inner().unwrap_or_else(PoisonError::into_inner).len(),
        saved: run.saved.into_inner().unwrap_or_else(PoisonError::into_inner),
        divergences: run.divergences.into_inner(),
        exec_errors: run.exec_errors.into_inner(),
        lint_rejected: run.lint_rejected.into_inner(),
        lint_repaired: run.lint_repaired.into_inner(),
    })
}

impl Run<'_> {
    fn evaluate(&self, script: &Script) -> Result<Eval, ExecError> {
        evaluate(&self.sim, &self.cfg, script)
    }

    /// One iteration: mutate a corpus pick, pre-filter it statically,
    /// evaluate it, save what it finds and keep it if it reaches new
    /// coverage.
    fn iteration(&self, worker: &mut Worker) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
        obs::m::EXPLORE_ITERATIONS_TOTAL.inc();
        let derived = split_seed(worker.seed, worker.iter);
        let provenance = Provenance {
            base_seed: self.opts.seed,
            worker: worker.id,
            iter: worker.iter,
            derived_seed: derived,
        };
        worker.iter += 1;
        let mut rng = StdRng::seed_from_u64(derived);
        let parent = {
            let corpus = lock(&self.corpus);
            corpus
                .pick(&mut rng)
                .expect("the corpus is seeded before workers start")
                .script
                .clone()
        };
        let name = format!("explore___w{}_i{:05}_s{derived:016x}", worker.id, provenance.iter);
        let child = self.mutator.mutate(&parent, &mut rng, name);

        // Static pre-exec filter: drop statically-doomed steps whose every
        // predicted coverage key is already reached globally; skip children
        // with no calls left. Steps predicting a *novel* key are kept, so
        // the filter can only save executions, never coverage.
        let repair = {
            let global = lock(&self.global);
            sibylfs_analyze::repair_for_explore(&child, &global)
        };
        let child = match repair {
            sibylfs_analyze::RepairOutcome::Clean => child,
            sibylfs_analyze::RepairOutcome::Repaired(repaired, _dropped) => {
                self.lint_repaired.fetch_add(1, Ordering::Relaxed);
                obs::m::EXPLORE_LINT_REPAIRED_TOTAL.inc();
                repaired
            }
            sibylfs_analyze::RepairOutcome::Rejected => {
                self.lint_rejected.fetch_add(1, Ordering::Relaxed);
                obs::m::EXPLORE_LINT_REJECTED_TOTAL.inc();
                return;
            }
        };

        let _span = obs::span("explore", "explore_iter");
        let Ok(eval) = self.evaluate(&child) else {
            self.exec_errors.fetch_add(1, Ordering::Relaxed);
            obs::m::EXPLORE_EXEC_ERRORS_TOTAL.inc();
            return;
        };

        match self.host.as_deref() {
            // Differential mode: a sim-vs-host verdict mismatch is a finding.
            Some(host) => match evaluate(host, &self.cfg, &child) {
                Ok(host_eval) if verdict_mismatch(&eval, &host_eval) => {
                    let sig = divergence_signature(&eval, &host_eval);
                    self.finding(sig, &child, provenance, |cand| {
                        match (self.evaluate(cand), evaluate(host, &self.cfg, cand)) {
                            (Ok(s), Ok(h)) => verdict_mismatch(&s, &h),
                            _ => false,
                        }
                    });
                }
                Ok(_) => {}
                Err(_) => {
                    self.exec_errors.fetch_add(1, Ordering::Relaxed);
                    obs::m::EXPLORE_EXEC_ERRORS_TOTAL.inc();
                }
            },
            // Sim-only mode: a deviation means the simulated configuration
            // left the model's envelope, through a defect it models or a gap
            // between model and simulation. The shrunk script keeps the
            // first deviation's signature.
            None => {
                if let Some(first) = eval.checked.deviations.first() {
                    let sig = (first.function.clone(), observed_kind(&first.observed).to_string());
                    self.finding(sig.clone(), &child, provenance, |cand| {
                        self.evaluate(cand)
                            .map(|e| {
                                e.checked.deviations.iter().any(|d| {
                                    d.function == sig.0 && observed_kind(&d.observed) == sig.1
                                })
                            })
                            .unwrap_or(false)
                    });
                }
            }
        }

        // Coverage feedback: does the child reach anything new?
        let novel0 = {
            let global = lock(&self.global);
            eval.cov.novel_versus(&global)
        };
        if novel0.is_empty() {
            return;
        }
        // Minimize while preserving every novel key, outside all locks.
        let target: CoverageMap = {
            let mut m = CoverageMap::new();
            for k in &novel0 {
                m.insert(k.clone());
            }
            m
        };
        let minimized = shrink(&child, |cand| {
            self.evaluate(cand)
                .map(|e| target.novel_versus(&e.cov).is_empty())
                .unwrap_or(false)
        });
        let Ok(min_eval) = self.evaluate(&minimized) else { return };
        let (new_keys, added) = {
            let mut global = lock(&self.global);
            let new_keys = min_eval.cov.novel_versus(&global);
            let added = global.merge(&min_eval.cov);
            (new_keys, added)
        };
        if added == 0 {
            return; // another worker got there first
        }
        let entry = CorpusEntry {
            script: minimized,
            kind: EntryKind::Coverage,
            provenance: Some(provenance),
            novel: new_keys,
            accepted: min_eval.checked.accepted,
        };
        if self.save_entry_or_warn(entry) {
            self.novel_entries.fetch_add(1, Ordering::Relaxed);
            obs::m::EXPLORE_NOVEL_TOTAL.inc();
        }
    }

    /// A finding: unless one with the same signature is already saved,
    /// shrink `child` to a minimal script on which `keep` still holds and
    /// save it under `divergences/`.
    fn finding(
        &self,
        sig: (String, String),
        child: &Script,
        provenance: Provenance,
        keep: impl FnMut(&Script) -> bool,
    ) {
        if !lock(&self.finding_sigs).insert(sig) {
            return;
        }
        let script = shrink(child, keep);
        let accepted = self.evaluate(&script).map(|e| e.checked.accepted).unwrap_or(false);
        let entry = CorpusEntry {
            script,
            kind: EntryKind::Divergence,
            provenance: Some(provenance),
            novel: Vec::new(),
            accepted,
        };
        if self.save_entry_or_warn(entry) {
            self.divergences.fetch_add(1, Ordering::Relaxed);
            obs::m::EXPLORE_DIVERGENCES_TOTAL.inc();
        }
    }

    /// Add `entry` to the corpus unless the corpus already holds its steps,
    /// and write it to the corpus directory if there is one. Returns whether
    /// the entry was added; an error means it was added but not written.
    fn save_entry(&self, entry: CorpusEntry) -> io::Result<bool> {
        let mut corpus = lock(&self.corpus);
        if !corpus.insert(entry) {
            return Ok(false);
        }
        obs::m::EXPLORE_CORPUS_SIZE.set(corpus.len() as i64);
        let Some(dir) = &self.opts.corpus_dir else { return Ok(true) };
        let entry = corpus.entries().last().expect("just inserted").clone();
        drop(corpus);
        let path = corpus::persist_entry(dir, &entry)?;
        lock(&self.saved).push(path);
        Ok(true)
    }

    /// [`Run::save_entry`] for entries found while exploring: a failed write
    /// is only a warning, and the entry, being in the corpus, still counts.
    fn save_entry_or_warn(&self, entry: CorpusEntry) -> bool {
        self.save_entry(entry).unwrap_or_else(|e| {
            eprintln!("warning: could not persist corpus entry: {e}");
            true
        })
    }
}

/// Two evaluations disagree when one conforms to the model and the other does
/// not (after dropping the documented kernel divergences from the host side).
fn verdict_mismatch(sim: &Eval, host: &Eval) -> bool {
    let host_deviates =
        host.checked.deviations.iter().any(|d| !known_host_divergence(d));
    sim.checked.accepted == host_deviates
}

/// The payload-free shape of an observed value: `RV_bytes("zzz")` and
/// `RV_bytes("m")` are the same root cause, so finding dedup and the
/// shrinker's preservation predicate both key on the constructor only.
fn observed_kind(observed: &str) -> &str {
    let end = observed.find(['(', ' ', '{']).unwrap_or(observed.len());
    &observed[..end]
}

fn divergence_signature(sim: &Eval, host: &Eval) -> (String, String) {
    let side = |e: &Eval| {
        e.checked
            .deviations
            .first()
            .map(|d| format!("{}:{}", d.function, observed_kind(&d.observed)))
            .unwrap_or_else(|| "clean".to_string())
    };
    (side(sim), side(host))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_with_seeds_only_baseline_finds_novel_coverage() {
        let opts = ExploreOptions {
            iterations: Some(200),
            workers: 2,
            baseline: BaselineMode::SeedsOnly,
            ..ExploreOptions::default()
        };
        let outcome = explore(&opts).unwrap();
        assert_eq!(outcome.backend, "sim");
        assert!(outcome.iterations >= 200, "ran only {} iterations", outcome.iterations);
        assert!(
            !outcome.novel_keys.is_empty(),
            "200 iterations over the seeds-only baseline should find something new"
        );
        assert!(outcome.corpus_len > 15, "corpus did not grow: {}", outcome.corpus_len);
        let (base, fin) = outcome.coverage_percents();
        assert!(fin >= base);
        let md = outcome.render_markdown();
        assert!(md.contains("# Exploration report"));
        assert!(md.contains("novel key(s)"));
    }

    #[test]
    fn the_progress_line_does_not_delay_the_end_of_a_run() {
        // A 100 ms budget with the 500 ms progress refresh on: the run ends
        // when its worker does, not at the progress thread's next wake-up.
        let opts = ExploreOptions {
            time_budget: Some(Duration::from_millis(100)),
            workers: 1,
            progress: true,
            ..ExploreOptions::default()
        };
        let outcome = explore(&opts).unwrap();
        assert!(
            outcome.elapsed_secs < 0.45,
            "a 0.1 s run took {:.3} s to join",
            outcome.elapsed_secs
        );
    }

    #[test]
    fn unknown_config_is_a_clean_error() {
        let opts =
            ExploreOptions { config: "plan9/fossil".to_string(), ..ExploreOptions::default() };
        match explore(&opts) {
            Err(ExploreError::UnknownConfig(name)) => assert_eq!(name, "plan9/fossil"),
            other => panic!("expected UnknownConfig, got {other:?}"),
        }
    }
}
