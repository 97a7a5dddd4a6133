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
//! All randomness derives from one base seed through
//! [`sibylfs_testgen::random::split_seed`]: worker `w` owns
//! `split_seed(seed, w)`, and its iteration `i` owns
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
//! real kernel; any sim-vs-host verdict mismatch (modulo the two documented
//! kernel divergences) is itself a finding, shrunk and saved under
//! `divergences/` in the corpus directory.

pub mod corpus;
pub mod mutate;
pub mod shrink;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Bound on mutated script length, in steps.
    pub max_steps: usize,
    /// How many mutants each worker plans per round before evaluating them,
    /// in order, on its own thread. `1` plans each mutant only after the
    /// previous one has been evaluated.
    pub batch: usize,
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
            max_steps: 40,
            batch: 8,
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

/// The two documented real-kernel divergences from the differential-harness
/// PR; in differential mode these must not register as findings on every
/// iteration. Kept in sync with `tests/host_differential.rs`.
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

/// Shared cross-worker state.
struct Shared {
    corpus: Mutex<Corpus>,
    global: Mutex<CoverageMap>,
    /// Deviation/divergence signatures already saved, so one root cause does
    /// not flood the corpus.
    divergence_sigs: Mutex<std::collections::BTreeSet<(String, String)>>,
    saved: Mutex<Vec<PathBuf>>,
    iterations: AtomicU64,
    novel_entries: AtomicUsize,
    divergences: AtomicUsize,
    exec_errors: AtomicUsize,
    /// Mutants the static linter rejected outright (no calls left after
    /// dropping doomed steps), saving an execution each.
    lint_rejected: AtomicUsize,
    /// Mutants the linter repaired (doomed steps dropped) before execution.
    lint_repaired: AtomicUsize,
    active_workers: AtomicUsize,
    stop: AtomicBool,
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
    let cfg = SpecConfig::standard(opts.flavor);
    let sim = SimExecutor::new(profile.clone());

    // --- Baseline: what does the static suite already reach? -------------
    let mut baseline = CoverageMap::new();
    if opts.baseline == BaselineMode::QuickSuite {
        for script in generate_suite(SuiteOptions::quick()) {
            if let Ok(eval) = evaluate(&sim, &cfg, &script) {
                baseline.merge(&eval.cov);
            }
        }
    }

    // --- Seed the corpus with the known-hard scripts ---------------------
    let mut corpus0 = Corpus::new();
    let mut global0 = baseline.clone();
    let mut saved0 = Vec::new();
    let seed_scripts: Vec<Script> = sequences::model_gap_scripts()
        .into_iter()
        .map(|(sc, _)| sc)
        .chain(sequences::defect_scenario_scripts())
        .collect();
    for script in seed_scripts {
        let eval = evaluate(&sim, &cfg, &script).expect("the simulation is infallible");
        global0.merge(&eval.cov);
        let entry = CorpusEntry {
            script,
            kind: EntryKind::Seed,
            provenance: None,
            novel: Vec::new(),
            accepted: eval.checked.accepted,
        };
        if corpus0.insert(entry) {
            if let Some(dir) = &opts.corpus_dir {
                let e = corpus0.entries().last().expect("just inserted");
                saved0.push(corpus::persist_entry(dir, e)?);
            }
        }
    }
    if opts.baseline == BaselineMode::SeedsOnly {
        baseline = global0.clone();
    }
    obs::m::EXPLORE_CORPUS_SIZE.set(corpus0.len() as i64);

    let shared = Shared {
        corpus: Mutex::new(corpus0),
        global: Mutex::new(global0),
        divergence_sigs: Mutex::new(Default::default()),
        saved: Mutex::new(saved0),
        iterations: AtomicU64::new(0),
        novel_entries: AtomicUsize::new(0),
        divergences: AtomicUsize::new(0),
        exec_errors: AtomicUsize::new(0),
        lint_rejected: AtomicUsize::new(0),
        lint_repaired: AtomicUsize::new(0),
        active_workers: AtomicUsize::new(opts.workers),
        stop: AtomicBool::new(false),
    };
    let mutator = Mutator::new(opts.max_steps);
    let budget = match (opts.iterations, opts.time_budget) {
        (None, None) => Some(Duration::from_secs(60)),
        (_, tb) => tb,
    };

    // One host pool for the whole run, one jailed worker process per
    // explore worker, so no worker pays its own jail setup.
    let host: Option<Box<dyn Executor + Sync>> = match opts.backend {
        Backend::Sim => None,
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        Backend::Host => Some(Box::new(sibylfs_exec::HostFs::pooled(opts.workers.max(1)))),
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        Backend::Host => unreachable!("host_backend_available() is false off 64-bit Linux"),
    };
    let start = Instant::now();

    std::thread::scope(|scope| {
        // The progress line refreshes every 500 ms; the last worker to exit
        // wakes the thread early, so the scope joins as soon as the work is
        // done rather than at the next refresh.
        let progress = opts.progress.then(|| {
            let shared = &shared;
            let handle = scope.spawn(move || {
                while shared.active_workers.load(Ordering::SeqCst) > 0 {
                    std::thread::park_timeout(Duration::from_millis(500));
                    let pct = lock(&shared.global).branch_summary().percent();
                    eprint!(
                        "\rexplore: {} iters, corpus {}, coverage {:.1}% branches, {} novel, {} divergences, {} lint-rejected   ",
                        shared.iterations.load(Ordering::Relaxed),
                        lock(&shared.corpus).len(),
                        pct,
                        shared.novel_entries.load(Ordering::Relaxed),
                        shared.divergences.load(Ordering::Relaxed),
                        shared.lint_rejected.load(Ordering::Relaxed),
                    );
                }
                eprintln!();
            });
            handle.thread().clone()
        });
        pool::for_each(opts.workers, 0..opts.workers, |w| {
            worker_loop(w, opts, &sim, host.as_deref(), &cfg, &mutator, &shared, start, budget);
            if shared.active_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
                if let Some(t) = &progress {
                    t.unpark();
                }
            }
        });
    });

    let elapsed_secs = start.elapsed().as_secs_f64();
    let coverage = shared.global.into_inner().unwrap_or_else(PoisonError::into_inner);
    let novel_keys = coverage.novel_versus(&baseline);
    Ok(ExploreOutcome {
        config: opts.config.clone(),
        flavor: opts.flavor,
        backend: opts.backend.label(),
        seed: opts.seed,
        iterations: shared.iterations.load(Ordering::SeqCst),
        elapsed_secs,
        baseline,
        coverage,
        novel_keys,
        corpus_len: shared.corpus.into_inner().unwrap_or_else(PoisonError::into_inner).len(),
        saved: shared.saved.into_inner().unwrap_or_else(PoisonError::into_inner),
        divergences: shared.divergences.load(Ordering::SeqCst),
        exec_errors: shared.exec_errors.load(Ordering::SeqCst),
        lint_rejected: shared.lint_rejected.load(Ordering::SeqCst),
        lint_repaired: shared.lint_repaired.load(Ordering::SeqCst),
    })
}

/// One mutant planned for batch execution.
struct Planned {
    child: Script,
    provenance: Provenance,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    opts: &ExploreOptions,
    sim: &SimExecutor,
    host: Option<&(dyn Executor + Sync)>,
    cfg: &SpecConfig,
    mutator: &Mutator,
    shared: &Shared,
    start: Instant,
    budget: Option<Duration>,
) {
    let worker_seed = split_seed(opts.seed, worker as u64);
    let mut iter: u64 = 0;
    let batch_size = opts.batch.max(1);

    loop {
        // --- Plan a batch of mutants (seed chain identical to the old
        // one-at-a-time loop: worker w, iteration i still owns
        // split_seed(split_seed(seed, w), i)). --------------------------
        let mut planned: Vec<Planned> = Vec::with_capacity(batch_size);
        while planned.len() < batch_size {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(b) = budget {
                if start.elapsed() >= b {
                    shared.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            if let Some(max) = opts.iterations {
                if shared.iterations.fetch_add(1, Ordering::SeqCst) >= max {
                    shared.iterations.fetch_sub(1, Ordering::SeqCst);
                    shared.stop.store(true, Ordering::Relaxed);
                    break;
                }
            } else {
                shared.iterations.fetch_add(1, Ordering::SeqCst);
            }
            obs::m::EXPLORE_ITERATIONS_TOTAL.inc();

            let derived = split_seed(worker_seed, iter);
            let provenance =
                Provenance { base_seed: opts.seed, worker, iter, derived_seed: derived };
            iter += 1;
            let mut rng = StdRng::seed_from_u64(derived);
            let parent = {
                let corpus = lock(&shared.corpus);
                corpus
                    .pick(&mut rng)
                    .expect("the corpus is seeded before workers start")
                    .script
                    .clone()
            };
            let name = format!("explore___w{worker}_i{:05}_s{derived:016x}", provenance.iter);
            let child = mutator.mutate(&parent, &mut rng, name);

            // Static pre-exec filter: drop statically-doomed steps whose every
            // predicted coverage key is already reached globally; skip children
            // with no calls left. Steps predicting a *novel* key are kept, so
            // the filter can only save executions, never coverage.
            let repair = {
                let global = lock(&shared.global);
                sibylfs_analyze::repair_for_explore(&child, &global)
            };
            let child = match repair {
                sibylfs_analyze::RepairOutcome::Clean => child,
                sibylfs_analyze::RepairOutcome::Repaired(repaired, _dropped) => {
                    shared.lint_repaired.fetch_add(1, Ordering::Relaxed);
                    obs::m::EXPLORE_LINT_REPAIRED_TOTAL.inc();
                    repaired
                }
                sibylfs_analyze::RepairOutcome::Rejected => {
                    shared.lint_rejected.fetch_add(1, Ordering::Relaxed);
                    obs::m::EXPLORE_LINT_REJECTED_TOTAL.inc();
                    continue;
                }
            };
            planned.push(Planned { child, provenance });
        }
        if planned.is_empty() {
            break; // stopped (or budget hit) with nothing left to evaluate
        }

        // --- Evaluate the batch in claim order on this thread (novelty,
        // divergences, and shrinking are deterministic per mutant given the
        // shared state). ---------------------------------------------------
        for Planned { child, provenance } in planned {
            let _span = obs::span("explore", "explore_iter");
            let Ok(eval) = evaluate(sim, cfg, &child) else {
                shared.exec_errors.fetch_add(1, Ordering::Relaxed);
                obs::m::EXPLORE_EXEC_ERRORS_TOTAL.inc();
                continue;
            };

            // Differential mode: compare the sim verdict with the host verdict.
            if let Some(host) = host {
                match evaluate(host, cfg, &child) {
                    Ok(host_eval) => {
                        if verdict_mismatch(&eval, &host_eval) {
                            handle_divergence(
                                sim, host, cfg, &child, &eval, &host_eval, provenance, opts,
                                shared,
                            );
                        }
                    }
                    Err(_) => {
                        shared.exec_errors.fetch_add(1, Ordering::Relaxed);
                        obs::m::EXPLORE_EXEC_ERRORS_TOTAL.inc();
                    }
                }
            }

            // Sim-only mode: a deviation means the simulation left the model's
            // envelope — itself a distinguishing finding.
            if opts.backend == Backend::Sim && !eval.checked.accepted {
                handle_sim_deviation(sim, cfg, &child, &eval, provenance, opts, shared);
            }

            // Coverage feedback: does the child reach anything new?
            let novel0 = {
                let global = lock(&shared.global);
                eval.cov.novel_versus(&global)
            };
            if novel0.is_empty() {
                continue;
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
                evaluate(sim, cfg, cand)
                    .map(|e| target.novel_versus(&e.cov).is_empty())
                    .unwrap_or(false)
            });
            let Ok(min_eval) = evaluate(sim, cfg, &minimized) else { continue };
            let (new_keys, added) = {
                let mut global = lock(&shared.global);
                let new_keys = min_eval.cov.novel_versus(&global);
                let added = global.merge(&min_eval.cov);
                (new_keys, added)
            };
            if added == 0 {
                continue; // another worker got there first
            }
            let entry = CorpusEntry {
                script: minimized,
                kind: EntryKind::Coverage,
                provenance: Some(provenance),
                novel: new_keys,
                accepted: min_eval.checked.accepted,
            };
            save_entry(entry, opts, shared);
            shared.novel_entries.fetch_add(1, Ordering::Relaxed);
            obs::m::EXPLORE_NOVEL_TOTAL.inc();
        }
    }
}

/// Two evaluations disagree when one conforms to the model and the other does
/// not (after dropping the documented kernel divergences from the host side).
fn verdict_mismatch(sim: &Eval, host: &Eval) -> bool {
    let host_deviates =
        host.checked.deviations.iter().any(|d| !known_host_divergence(d));
    sim.checked.accepted == host_deviates
}

/// A sim-vs-host verdict mismatch: shrink to a minimal distinguishing script
/// and save it under `divergences/`.
#[allow(clippy::too_many_arguments)]
fn handle_divergence(
    sim: &SimExecutor,
    host: &dyn Executor,
    cfg: &SpecConfig,
    child: &Script,
    eval: &Eval,
    host_eval: &Eval,
    provenance: Provenance,
    opts: &ExploreOptions,
    shared: &Shared,
) {
    let sig = divergence_signature(eval, host_eval);
    if !lock(&shared.divergence_sigs).insert(sig) {
        return;
    }
    let minimized = shrink(child, |cand| {
        match (evaluate(sim, cfg, cand), evaluate(host, cfg, cand)) {
            (Ok(s), Ok(h)) => verdict_mismatch(&s, &h),
            _ => false,
        }
    });
    let accepted = evaluate(sim, cfg, &minimized).map(|e| e.checked.accepted).unwrap_or(false);
    let entry = CorpusEntry {
        script: minimized,
        kind: EntryKind::Divergence,
        provenance: Some(provenance),
        novel: Vec::new(),
        accepted,
    };
    save_entry(entry, opts, shared);
    shared.divergences.fetch_add(1, Ordering::Relaxed);
    obs::m::EXPLORE_DIVERGENCES_TOTAL.inc();
}

/// The payload-free shape of an observed value: `RV_bytes("zzz")` and
/// `RV_bytes("m")` are the same root cause, so divergence dedup and the
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

/// The simulation deviated from the model: a model/sim gap of exactly the
/// kind the differential-harness PR fixed six of. Shrink preserving the first
/// deviation signature and save it.
fn handle_sim_deviation(
    sim: &SimExecutor,
    cfg: &SpecConfig,
    child: &Script,
    eval: &Eval,
    provenance: Provenance,
    opts: &ExploreOptions,
    shared: &Shared,
) {
    let Some(first) = eval.checked.deviations.first() else { return };
    let sig = (first.function.clone(), observed_kind(&first.observed).to_string());
    if !lock(&shared.divergence_sigs).insert(sig.clone()) {
        return;
    }
    let minimized = shrink(child, |cand| {
        evaluate(sim, cfg, cand)
            .map(|e| {
                e.checked
                    .deviations
                    .iter()
                    .any(|d| d.function == sig.0 && observed_kind(&d.observed) == sig.1)
            })
            .unwrap_or(false)
    });
    let entry = CorpusEntry {
        script: minimized,
        kind: EntryKind::Divergence,
        provenance: Some(provenance),
        novel: Vec::new(),
        accepted: false,
    };
    save_entry(entry, opts, shared);
    shared.divergences.fetch_add(1, Ordering::Relaxed);
    obs::m::EXPLORE_DIVERGENCES_TOTAL.inc();
}

fn save_entry(entry: CorpusEntry, opts: &ExploreOptions, shared: &Shared) {
    let mut corpus = lock(&shared.corpus);
    if !corpus.insert(entry) {
        return;
    }
    let entry = corpus.entries().last().expect("just inserted").clone();
    obs::m::EXPLORE_CORPUS_SIZE.set(corpus.len() as i64);
    drop(corpus);
    if let Some(dir) = &opts.corpus_dir {
        match corpus::persist_entry(dir, &entry) {
            Ok(path) => lock(&shared.saved).push(path),
            Err(e) => eprintln!("warning: could not persist corpus entry: {e}"),
        }
    }
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
