//! The core trace-checking algorithm.
//!
//! One step loop ([`Checker`]) applies a trace's labels in order to the set
//! of model states the real system might be in. [`check_trace`] runs it once
//! from the initial state; a [`Checker`] session runs it over many traces
//! and skips the labels a trace shares with the one checked before it.
//!
//! Resumption rests on one invariant: the loop state after `n` labels
//! depends only on those labels, their line numbers, the spec config and the
//! [`CheckOptions`]. Nothing else feeds it: no trace name, no clock, no
//! global state that changes a verdict. So the state a previous trace
//! reached after a shared prefix of `(lineno, label)` pairs is exactly the
//! state a fresh check of the new trace reaches there.
//!
//! The loop state is just the tracked set (a core `TrackedSet`: the states
//! plus the partial-order reduction's bookkeeping); a deviation names its
//! call through [`Trace::call_of`], which reads only the labels up to it. A
//! snapshot, taken after each label, shares the tracked set behind an
//! `Arc`, so taking one and resuming from one are reference-count bumps; a
//! label that changes the set builds a new one, and a τ closure or the state
//! bound copies the set only while a snapshot still shares it. A snapshot
//! also holds the label with its line number, which is what the next trace
//! is matched against, and how many `CheckedStep`s and `Deviation`s the
//! trace had recorded by then, so the prefix's verdicts are reused without
//! rerunning.

use std::sync::Arc;

use sibylfs_core::commands::OsLabel;
use sibylfs_core::coverage::{self, CoverageKey, CoverageMap};
use sibylfs_core::flavor::SpecConfig;
use sibylfs_core::obs;
use sibylfs_core::os::state_set::StateSet;
use sibylfs_core::os::trans::{allowed_returns, default_completion, TrackedSet};
use sibylfs_core::os::{OsState, ProcRunState};
use sibylfs_core::types::INITIAL_PID;
use sibylfs_script::Trace;

/// Options controlling a checking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// A safety bound on the tracked state-set size; exceeding it truncates
    /// the set and records an explicit deviation (the check is lossy from
    /// that point on, so it must never be reported as clean). The
    /// specification's careful treatment of nondeterminism keeps real sets
    /// tiny (§3), so hitting this bound indicates a checker bug.
    pub max_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { max_states: 4096 }
    }
}

/// The label a checked step corresponds to, kept structurally: the checker's
/// inner loop no longer renders labels to text (that cost is paid only at the
/// output boundary, via `Display`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepLabel {
    /// A label observed in the trace.
    Observed(OsLabel),
    /// A step synthesised by the checker itself (e.g. the state-set safety
    /// bound being hit), described by fixed text.
    Synthetic(&'static str),
}

impl std::fmt::Display for StepLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepLabel::Observed(label) => label.fmt(f),
            StepLabel::Synthetic(text) => f.write_str(text),
        }
    }
}

/// The kind of label a checked step corresponds to, recorded structurally so
/// consumers never have to parse the rendered label text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// An `OS_CALL` label.
    Call,
    /// An `OS_RETURN` label.
    Return,
    /// An internal τ label.
    Tau,
    /// A process-creation label.
    Create,
    /// A process-destruction label.
    Destroy,
    /// A step synthesised by the checker itself (e.g. the state-set safety
    /// bound being hit), not present in the original trace.
    Internal,
}

impl StepKind {
    fn of_label(label: &OsLabel) -> StepKind {
        match label {
            OsLabel::Call(..) => StepKind::Call,
            OsLabel::Return(..) => StepKind::Return,
            OsLabel::Tau => StepKind::Tau,
            OsLabel::Create(..) => StepKind::Create,
            OsLabel::Destroy(..) => StepKind::Destroy,
        }
    }
}

/// The verdict on a single trace step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepVerdict {
    /// The step is allowed by the model.
    Ok,
    /// The step is not allowed; the checker recovered and continued.
    Deviation {
        /// What the real system returned (or did).
        observed: String,
        /// What the model would have allowed at this point.
        allowed: Vec<String>,
        /// The completion the checker assumed in order to continue.
        continued_with: Option<String>,
    },
    /// The tracked state set exceeded [`CheckOptions::max_states`] and was
    /// truncated: the remainder of the check is lossy (states the real system
    /// might be in were dropped), so the trace cannot be reported clean.
    StateSetBounded {
        /// How many states were tracked when the bound was hit.
        tracked: usize,
        /// The configured bound the set was truncated to.
        bound: usize,
    },
}

/// A checked trace step: the original label plus the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedStep {
    /// Line number in the original trace.
    pub lineno: usize,
    /// The label that was checked (structural; render with `Display`).
    pub label: StepLabel,
    /// The structural kind of the label.
    pub kind: StepKind,
    /// The verdict.
    pub verdict: StepVerdict,
    /// Size of the tracked state set after this step (residual
    /// nondeterminism at this point of the trace).
    pub states_tracked: usize,
}

/// A deviation record extracted from a checked trace, used by the survey and
/// acceptance reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deviation {
    /// Line number of the offending return in the trace.
    pub lineno: usize,
    /// The libc function involved.
    pub function: String,
    /// The full call (rendered), for context.
    pub call: String,
    /// What the implementation returned (rendered).
    pub observed: String,
    /// What the specification allowed (rendered).
    pub allowed: Vec<String>,
}

/// The result of checking one trace against the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedTrace {
    /// The script/trace name.
    pub name: String,
    /// The libc function group of the originating script.
    pub group: String,
    /// Whether every step was allowed by the model.
    pub accepted: bool,
    /// Per-step verdicts.
    pub steps: Vec<CheckedStep>,
    /// The deviations found (empty iff `accepted`).
    pub deviations: Vec<Deviation>,
    /// The largest state set tracked while checking (a measure of residual
    /// nondeterminism; reported by the checker-internals benchmark).
    pub max_states_tracked: usize,
}

/// The initial state alone.
fn initial_set(cfg: &SpecConfig) -> Arc<TrackedSet> {
    Arc::new(TrackedSet::from(StateSet::singleton(OsState::initial_with_process(cfg, INITIAL_PID))))
}

/// One label of the last trace a [`Checker`] checked, and the tracked set
/// after it.
#[derive(Debug)]
struct Snapshot {
    lineno: usize,
    label: OsLabel,
    after: Arc<TrackedSet>,
    /// How many `CheckedStep`s and `Deviation`s the trace had by then.
    steps: usize,
    deviations: usize,
}

/// A checking session that starts each trace from the longest prefix of
/// `(lineno, label)` pairs it shares with the trace checked last, reusing
/// that prefix's steps and deviations (the module docs say why that is
/// sound). The match compares observed labels only; the session knows
/// nothing about how the traces were made. Every [`CheckedTrace`] equals
/// what [`check_trace`] returns for the same trace.
#[derive(Debug)]
pub struct Checker {
    cfg: SpecConfig,
    opts: CheckOptions,
    /// The last trace's snapshots, one per label.
    snapshots: Vec<Snapshot>,
    /// The last trace's checked steps and deviations.
    steps: Vec<CheckedStep>,
    deviations: Vec<Deviation>,
}

impl Checker {
    /// A session checking against `cfg` with `opts`.
    pub fn new(cfg: &SpecConfig, opts: CheckOptions) -> Checker {
        Checker {
            cfg: *cfg,
            opts,
            snapshots: Vec::new(),
            steps: Vec::new(),
            deviations: Vec::new(),
        }
    }

    /// Check `trace`, resuming from the longest prefix it shares with the
    /// trace checked last.
    pub fn check(&mut self, trace: &Trace) -> CheckedTrace {
        self.run(trace, true)
    }

    /// The step loop. With `keep` set, it snapshots after each label it
    /// applies, and the result copies the steps so the next trace can reuse
    /// them; without it, the session is used once and gives its steps away.
    fn run(&mut self, trace: &Trace, keep: bool) -> CheckedTrace {
        let _span = obs::span("check", "check_trace");
        let started = std::time::Instant::now();
        let cfg = &self.cfg;
        let opts = self.opts;

        let resumed = self
            .snapshots
            .iter()
            .zip(&trace.steps)
            .take_while(|(snap, step)| snap.lineno == step.lineno && snap.label == step.label)
            .count();
        self.snapshots.truncate(resumed);
        let (mut tracked, steps_kept, deviations_kept) = match self.snapshots.last() {
            Some(snap) => (Arc::clone(&snap.after), snap.steps, snap.deviations),
            None => (initial_set(cfg), 0, 0),
        };
        self.steps.truncate(steps_kept);
        self.deviations.truncate(deviations_kept);
        let steps = &mut self.steps;
        let deviations = &mut self.deviations;
        // Dedup hits are tallied locally per trace and flushed once below: the
        // insert path is too hot for shared atomics (see `StateSet::take_dedup_hits`).
        let mut dedup_hits: u64 = 0;

        for (index, step) in trace.steps.iter().enumerate().skip(resumed) {
            let label = &step.label;
            let (next, verdict) = apply_label(cfg, tracked, label);
            match &verdict {
                StepVerdict::Ok => {}
                // Only the bound-handling block below constructs this variant.
                StepVerdict::StateSetBounded { .. } => {
                    unreachable!("apply_label never returns StateSetBounded")
                }
                StepVerdict::Deviation { observed, allowed, .. } => {
                    let (function, call) = trace
                        .call_of(index)
                        .map(|c| (c.name().to_string(), c.to_string()))
                        .unwrap_or_else(|| ("<unknown>".to_string(), String::new()));
                    deviations.push(Deviation {
                        lineno: step.lineno,
                        function,
                        call,
                        observed: observed.clone(),
                        allowed: allowed.clone(),
                    });
                }
            }
            tracked = next;
            // A set still shared with a snapshot had its hits taken at the
            // step that built it.
            dedup_hits += Arc::get_mut(&mut tracked).map_or(0, TrackedSet::take_dedup_hits);
            steps.push(CheckedStep {
                lineno: step.lineno,
                label: StepLabel::Observed(label.clone()),
                kind: StepKind::of_label(label),
                verdict,
                states_tracked: tracked.len(),
            });
            if tracked.len() > opts.max_states {
                // The remainder of the check is lossy: record it loudly so the
                // trace is never reported clean.
                let size = tracked.len();
                obs::m::CHECK_TRUNCATIONS_TOTAL.inc();
                Arc::make_mut(&mut tracked).truncate(opts.max_states);
                deviations.push(Deviation {
                    lineno: step.lineno,
                    function: "<checker>".to_string(),
                    call: "<state-set safety bound>".to_string(),
                    observed: format!("{size} states tracked"),
                    allowed: vec![format!(
                        "at most {} states (CheckOptions::max_states)",
                        opts.max_states
                    )],
                });
                steps.push(CheckedStep {
                    lineno: step.lineno,
                    label: StepLabel::Synthetic("<state-set safety bound exceeded; set truncated>"),
                    kind: StepKind::Internal,
                    verdict: StepVerdict::StateSetBounded { tracked: size, bound: opts.max_states },
                    states_tracked: tracked.len(),
                });
            }
            if tracked.is_empty() {
                // Unrecoverable (should not happen: recovery always yields at
                // least one state); restart from a fresh state to keep going.
                tracked = initial_set(cfg);
            }
            if keep {
                self.snapshots.push(Snapshot {
                    lineno: step.lineno,
                    label: label.clone(),
                    after: Arc::clone(&tracked),
                    steps: steps.len(),
                    deviations: deviations.len(),
                });
            }
        }

        obs::m::CHECK_TRACES_TOTAL.inc();
        obs::m::CHECK_DEVIATIONS_TOTAL.add(deviations.len() as u64);
        obs::m::CHECK_LABELS_APPLIED_TOTAL.add((trace.steps.len() - resumed) as u64);
        obs::m::CHECK_LABELS_RESUMED_TOTAL.add(resumed as u64);
        obs::m::STATE_DEDUP_HITS_TOTAL.add(dedup_hits);
        obs::m::CHECK_TRACE_NS.record_duration(started.elapsed());

        let (steps, deviations) = if keep {
            (steps.clone(), deviations.clone())
        } else {
            (std::mem::take(steps), std::mem::take(deviations))
        };
        // The initial set holds one state, so the largest set is at least 1.
        let max_states_tracked = steps.iter().map(|s| s.states_tracked).fold(1, usize::max);
        CheckedTrace {
            name: trace.name.clone(),
            group: trace.group.clone(),
            accepted: deviations.is_empty(),
            steps,
            deviations,
            max_states_tracked,
        }
    }
}

/// Check a single trace against the model configured by `cfg`: a one-trace
/// [`Checker`] session that keeps no snapshots.
pub fn check_trace(cfg: &SpecConfig, trace: &Trace, opts: CheckOptions) -> CheckedTrace {
    Checker::new(cfg, opts).run(trace, false)
}

/// Check a trace and record the model coverage exercised while doing so.
///
/// Coverage has two key families (see [`sibylfs_core::coverage`]): the
/// specification branches (`spec_point`s) evaluated during this check,
/// collected through the thread-scoped collector so concurrent exploration
/// workers do not pollute each other, and the `(syscall, outcome)` transitions
/// observed in the trace itself, each return keyed by its
/// [`Trace::call_of`]. Checking runs entirely on the calling thread, which is
/// what makes the scoped collection sound.
pub fn check_trace_with_coverage(
    cfg: &SpecConfig,
    trace: &Trace,
    opts: CheckOptions,
) -> (CheckedTrace, CoverageMap) {
    coverage::scoped_begin();
    let checked = check_trace(cfg, trace, opts);
    let mut map = CoverageMap::new();
    for point in coverage::scoped_end() {
        map.insert(CoverageKey::Branch(point));
    }
    for (index, step) in trace.steps.iter().enumerate() {
        let OsLabel::Return(_, ret) = &step.label else { continue };
        if let Some(cmd) = trace.call_of(index) {
            map.insert(CoverageKey::Transition {
                syscall: cmd.name().to_string(),
                outcome: coverage::outcome_name(ret),
            });
        }
    }
    (checked, map)
}

/// Apply one label to the tracked set, producing the next set and the
/// verdict for this step. Takes the set by value: conformant paths hand back
/// the transition union, deviation paths hand back a recovered set (or the
/// input set unchanged).
fn apply_label(
    cfg: &SpecConfig,
    mut tracked: Arc<TrackedSet>,
    label: &OsLabel,
) -> (Arc<TrackedSet>, StepVerdict) {
    match label {
        OsLabel::Call(..) | OsLabel::Create(..) | OsLabel::Destroy(..) => {
            let next = tracked.after(cfg, label);
            if next.is_empty() {
                // e.g. a call from an unknown process, or a call while one is
                // already in flight: recover by ignoring the label.
                let verdict = StepVerdict::Deviation {
                    observed: label.to_string(),
                    allowed: vec!["<no such transition from any tracked state>".to_string()],
                    continued_with: None,
                };
                (tracked, verdict)
            } else {
                (Arc::new(next), StepVerdict::Ok)
            }
        }
        OsLabel::Tau => {
            Arc::make_mut(&mut tracked).close(cfg);
            (tracked, StepVerdict::Ok)
        }
        OsLabel::Return(pid, observed) => {
            // A call with nothing else in flight is matched at its return.
            if let Some(next) =
                tracked.match_lone_call(cfg, *pid, observed).filter(|next| !next.is_empty())
            {
                return (Arc::new(next), StepVerdict::Ok);
            }
            // Otherwise close under internal steps so calls from other
            // processes may be processed in any order before this return is
            // matched; a deviation's diagnostics read the closed set.
            let tracked = Arc::make_mut(&mut tracked);
            tracked.close(cfg);
            let next = tracked.after(cfg, label);
            if !next.is_empty() {
                return (Arc::new(next), StepVerdict::Ok);
            }
            // Non-conformant: collect the allowed returns for diagnostics and
            // continue from the model's own completions (Fig. 4).
            let states = tracked.states();
            let mut allowed: Vec<String> = Vec::new();
            for st in states {
                for a in allowed_returns(st, *pid) {
                    if !allowed.contains(&a) {
                        allowed.push(a);
                    }
                }
            }
            let mut recovered = StateSet::new();
            let mut continued_with = None;
            for st in states {
                if let Some((value, next_st)) = default_completion(st, *pid) {
                    if continued_with.is_none() {
                        continued_with = Some(value.to_string());
                    }
                    recovered.insert(next_st);
                }
            }
            if recovered.is_empty() {
                // Last resort: mark the process ready again in every state so
                // subsequent steps can still be checked.
                for st in states {
                    let mut st = st.clone();
                    if let Some(p) = st.proc_mut(*pid) {
                        p.run_state = ProcRunState::Ready;
                    }
                    recovered.insert(st);
                }
            }
            let verdict =
                StepVerdict::Deviation { observed: observed.to_string(), allowed, continued_with };
            (Arc::new(TrackedSet::from(recovered)), verdict)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::errno::Errno;
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::flavor::Flavor;
    use sibylfs_core::types::{Fd, Pid};

    fn cfg() -> SpecConfig {
        SpecConfig::standard(Flavor::Linux)
    }

    fn trace_of(pairs: Vec<(OsCommand, ErrorOrValue)>) -> Trace {
        let mut t = Trace::new("test", "test");
        for (cmd, ret) in pairs {
            t.push_call_return(INITIAL_PID, cmd, ret);
        }
        t
    }

    #[test]
    fn conformant_trace_is_accepted() {
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            (OsCommand::Stat("/missing".into()), ErrorOrValue::Error(Errno::ENOENT)),
            (
                OsCommand::Open("/d/f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(FileMode::new(0o644))),
                ErrorOrValue::Value(RetValue::Fd(Fd(3))),
            ),
            (OsCommand::Write(Fd(3), b"hello".to_vec()), ErrorOrValue::Value(RetValue::Num(5))),
            (OsCommand::Close(Fd(3)), ErrorOrValue::Value(RetValue::None)),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(checked.accepted, "{:?}", checked.deviations);
        assert_eq!(checked.steps.iter().filter(|s| s.kind == StepKind::Call).count(), 5);
        assert!(checked.max_states_tracked >= 1);
    }

    #[test]
    fn wrong_errno_is_flagged_with_diagnostics_and_checking_continues() {
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            // EPERM is not allowed for a plain mkdir of a fresh directory…
            (OsCommand::Mkdir("/e".into(), FileMode::new(0o777)), ErrorOrValue::Error(Errno::EPERM)),
            // …but checking continues: the recovered state has /e created, so
            // this stat of /e must be accepted.
            (OsCommand::Rmdir("/e".into()), ErrorOrValue::Value(RetValue::None)),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations.len(), 1);
        assert_eq!(checked.deviations[0].function, "mkdir");
        assert_eq!(checked.deviations[0].observed, "EPERM");
        // The third call is checked against the recovered (successful) state.
        assert!(matches!(checked.steps[5].verdict, StepVerdict::Ok));
    }

    #[test]
    fn wrong_success_value_is_flagged() {
        let t = trace_of(vec![
            // umask returns the *previous* mask (0o022), not the new one.
            (OsCommand::Umask(FileMode::new(0o077)), ErrorOrValue::Value(RetValue::Num(0o077))),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert!(checked.deviations[0].allowed.iter().any(|a| a.contains("18")));
    }

    #[test]
    fn flavor_differences_change_acceptance() {
        // unlink of a directory returning EISDIR: fine on Linux, a deviation
        // under the OS X model.
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            (OsCommand::Unlink("/d".into()), ErrorOrValue::Error(Errno::EISDIR)),
        ]);
        let linux = check_trace(&SpecConfig::standard(Flavor::Linux), &t, CheckOptions::default());
        assert!(linux.accepted);
        let mac = check_trace(&SpecConfig::standard(Flavor::Mac), &t, CheckOptions::default());
        assert!(!mac.accepted);
        // The POSIX envelope accepts both.
        let posix = check_trace(&SpecConfig::standard(Flavor::Posix), &t, CheckOptions::default());
        assert!(posix.accepted);
    }

    #[test]
    fn the_initial_process_runs_with_the_spec_configs_privilege() {
        // A sim run whose initial process is unprivileged: it may not write
        // the root directory, so the mkdir fails with EACCES.
        let profile = sibylfs_fsimpl::configs::by_name("linux/tmpfs").unwrap();
        let mut s = sibylfs_script::Script::new("mkdir___non_root", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        let opts = sibylfs_exec::ExecOptions { root_user: false };
        let t = sibylfs_exec::execute_script(&profile, &s, opts);
        let eacces = OsLabel::Return(INITIAL_PID, ErrorOrValue::Error(Errno::EACCES));
        assert_eq!(t.steps[1].label, eacces);
        let unprivileged = SpecConfig::unprivileged(Flavor::Linux);
        let checked = check_trace(&unprivileged, &t, CheckOptions::default());
        assert!(checked.accepted, "{:?}", checked.deviations);
        // Checked as root, the same mkdir may only succeed.
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations[0].allowed, ["RV_none"]);
    }

    #[test]
    fn multi_process_returns_in_either_order_are_accepted() {
        let mut t = Trace::new("concurrency", "concurrency");
        t.push_label(OsLabel::Create(Pid(2), sibylfs_core::types::Uid(0), sibylfs_core::types::Gid(0)));
        // Both calls are issued before either returns; returns arrive in the
        // opposite order from the calls.
        t.push_label(OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));
        t.push_label(OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None)));
        t.push_label(OsLabel::Call(INITIAL_PID, OsCommand::Stat("/b".into())));
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        // The stat call has no return in the trace; that is fine.
        assert!(checked.accepted, "{:?}", checked.deviations);
    }

    #[test]
    fn a_return_derives_each_successor_once() {
        // The call is the only one in flight, so the return processes it
        // once and matches each outcome as it is emitted, deriving nothing
        // twice.
        let cfg = cfg();
        let call = OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        let (tracked, verdict) = apply_label(&cfg, initial_set(&cfg), &call);
        assert_eq!(verdict, StepVerdict::Ok);
        let ret = OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None));
        let (mut next, verdict) = apply_label(&cfg, tracked, &ret);
        assert_eq!(verdict, StepVerdict::Ok);
        assert_eq!(next.len(), 1);
        assert_eq!(Arc::get_mut(&mut next).unwrap().take_dedup_hits(), 0);
    }

    #[test]
    fn hitting_the_max_states_bound_is_reported_not_silent() {
        // Two processes with calls in flight: resolving the second return
        // τ-closes over both calls, leaving more than one tracked state.
        let mut t = Trace::new("bound", "bound");
        t.push_label(OsLabel::Create(
            Pid(2),
            sibylfs_core::types::Uid(0),
            sibylfs_core::types::Gid(0),
        ));
        t.push_label(OsLabel::Call(
            INITIAL_PID,
            OsCommand::Mkdir("/a".into(), FileMode::new(0o777)),
        ));
        t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));

        // With a generous bound the trace is clean.
        let clean = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(clean.accepted);
        assert!(clean.max_states_tracked > 1);

        // With the bound forced below the tracked set size, the truncation is
        // recorded as an explicit deviation and a dedicated step verdict —
        // a lossy check must never be reported clean.
        let bounded = check_trace(&cfg(), &t, CheckOptions { max_states: 1 });
        assert!(!bounded.accepted);
        assert!(bounded
            .steps
            .iter()
            .any(|s| matches!(s.verdict, StepVerdict::StateSetBounded { .. })
                && s.kind == StepKind::Internal));
        assert!(bounded.deviations.iter().any(|d| d.function == "<checker>"));
    }

    #[test]
    fn checking_with_coverage_records_branches_and_transitions() {
        let t = trace_of(vec![
            (
                OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
                ErrorOrValue::Value(RetValue::None),
            ),
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Error(Errno::EEXIST)),
            (OsCommand::Stat("/missing".into()), ErrorOrValue::Error(Errno::ENOENT)),
        ]);
        let (checked, cov) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert!(checked.accepted, "{:?}", checked.deviations);
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "mkdir".into(),
            outcome: "ok/none".into()
        }));
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "mkdir".into(),
            outcome: "EEXIST".into()
        }));
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "stat".into(),
            outcome: "ENOENT".into()
        }));
        // Specification branches were attributed to this check.
        assert!(cov.branch_points().iter().any(|p| p.starts_with("mkdir/")));
        assert!(cov.branch_points().iter().any(|p| p.starts_with("stat/")));
        // The same trace re-checked yields the same coverage (determinism).
        let (_, cov2) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert_eq!(cov, cov2);
    }

    #[test]
    fn a_tagged_return_with_no_call_in_flight_is_rejected() {
        let text = "@type trace\n# Test os___return_without_call\n@process create 2 0 0\n\
                    2: mkdir \"/a\" 0o777\nRV_none\n[p2] RV_none\n";
        let t = sibylfs_script::parse_trace(text).unwrap();
        let (checked, cov) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations.len(), 1);
        let deviation = &checked.deviations[0];
        assert_eq!((deviation.lineno, deviation.function.as_str()), (4, "<unknown>"));
        assert!(cov.branch_points().contains("os/return_without_call_rejected"));
    }

    #[test]
    fn a_stray_return_names_no_call_and_records_no_transition() {
        let text = "@type trace\n# Test os___stray_return\n1: mkdir \"/a\" 0o777\nRV_none\n\
                    [p1] EEXIST\n";
        let t = sibylfs_script::parse_trace(text).unwrap();
        let (checked, cov) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations.len(), 1);
        assert_eq!(checked.deviations[0].function, "<unknown>");
        let mkdir = |outcome: &str| CoverageKey::Transition {
            syscall: "mkdir".into(),
            outcome: outcome.into(),
        };
        assert!(cov.contains(&mkdir("ok/none")));
        assert!(!cov.contains(&mkdir("EEXIST")), "no call returned EEXIST");
    }

    #[test]
    fn readdir_wrong_entry_is_flagged() {
        let mut t = Trace::new("readdir", "readdir");
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Opendir("/d".into()),
            ErrorOrValue::Value(RetValue::DirHandle(sibylfs_core::types::DirHandleId(1))),
        );
        // The implementation claims an entry that does not exist.
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Readdir(sibylfs_core::types::DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(Some("ghost".into()))),
        );
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert!(checked.deviations[0].allowed.iter().any(|a| a.contains('a')));
    }
}
