//! Prefix-resumption equivalence suite.
//!
//! A [`Checker`] session starts each trace from the longest prefix of
//! `(lineno, label)` pairs it shares with the trace checked before it. That
//! is a pure optimisation: every `CheckedTrace` a session returns must equal
//! a fresh [`check_trace`] of the same trace and render byte-identically.
//! This suite pins that over
//!
//! * the full suite on the four `suite_sim` configs, in a seeded shuffle,
//!   fed to one session whole and to two sessions every other trace (as two
//!   pool workers pulling the next index see it),
//! * the quick suite, the model-gap scripts and the contention traces at 3–6
//!   processes,
//! * 500 explore mutants, each checked right after its parent, and
//! * hand-built pairs: a trace after itself, after one of its own prefixes,
//!   under shifted line numbers (which must not resume), and shared prefixes
//!   that hit the state-set bound or empty the set and restart.
//!
//! The label counters are process-global, so every test here takes the
//! `SERIAL` lock before it checks anything.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sibylfs::prelude::*;
use sibylfs_check::StepVerdict;
use sibylfs_core::obs;
use sibylfs_explore::mutate::Mutator;
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::sequences::model_gap_scripts;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The configs perfbench's `suite_sim` checks.
const CONFIGS: [&str; 4] = ["linux/tmpfs", "linux/sshfs-tmpfs", "freebsd/ufs", "mac/hfsplus"];

/// Labels a run of checks applied and resumed, read off the obs counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Labels {
    applied: u64,
    resumed: u64,
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Labels) {
    let applied = obs::m::CHECK_LABELS_APPLIED_TOTAL.get();
    let resumed = obs::m::CHECK_LABELS_RESUMED_TOTAL.get();
    let out = f();
    let labels = Labels {
        applied: obs::m::CHECK_LABELS_APPLIED_TOTAL.get() - applied,
        resumed: obs::m::CHECK_LABELS_RESUMED_TOTAL.get() - resumed,
    };
    (out, labels)
}

fn label_count<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> u64 {
    traces.into_iter().map(|t| t.steps.len() as u64).sum()
}

fn assert_same(resumed: &CheckedTrace, fresh: &CheckedTrace, ctx: &str) {
    assert_eq!(resumed, fresh, "{ctx}: {} differs when resumed", fresh.name);
    assert_eq!(
        render_checked_trace(resumed),
        render_checked_trace(fresh),
        "{ctx}: {} renders differently when resumed",
        fresh.name
    );
}

/// Check `traces[i]` for each `i` of `order` through one session, asserting
/// each result equals `fresh[i]` and renders byte-identically.
fn session_matches_fresh(
    session: &mut Checker,
    traces: &[Trace],
    fresh: &[CheckedTrace],
    order: impl IntoIterator<Item = usize>,
    ctx: &str,
) -> Labels {
    let ((), labels) = counted(|| {
        for i in order {
            assert_same(&session.check(&traces[i]), &fresh[i], ctx);
        }
    });
    labels
}

fn fresh_checks(cfg: &SpecConfig, opts: CheckOptions, traces: &[Trace]) -> Vec<CheckedTrace> {
    traces.iter().map(|t| check_trace(cfg, t, opts)).collect()
}

fn executed(profile: &BehaviorProfile, scripts: &[Script]) -> Vec<Trace> {
    scripts.iter().map(|s| execute_script(profile, s, ExecOptions::default())).collect()
}

/// One session over `traces` in order, against fresh checks.
fn assert_session_equivalent(cfg: &SpecConfig, traces: &[Trace], ctx: &str) -> Labels {
    let opts = CheckOptions::default();
    let fresh = fresh_checks(cfg, opts, traces);
    let mut session = Checker::new(cfg, opts);
    session_matches_fresh(&mut session, traces, &fresh, 0..traces.len(), ctx)
}

#[test]
fn full_suite_resumes_like_fresh_checks_whole_and_every_other() {
    let _serial = serial();
    let mut suite = generate_suite(SuiteOptions::full());
    suite.shuffle(&mut StdRng::seed_from_u64(0x5E55_1011));
    for name in CONFIGS {
        let profile = configs::by_name(name).unwrap();
        let cfg = SpecConfig::standard(profile.platform);
        let opts = CheckOptions::default();
        let traces = executed(&profile, &suite);
        let fresh = fresh_checks(&cfg, opts, &traces);
        let labels = label_count(&traces);

        let mut whole = Checker::new(&cfg, opts);
        let seen = session_matches_fresh(&mut whole, &traces, &fresh, 0..traces.len(), name);
        assert_eq!(seen.applied + seen.resumed, labels, "{name}: every label is counted once");
        // Not vacuous: the shuffled suite still shares most of its prefixes.
        assert!(
            seen.resumed * 2 > labels,
            "{name}: only {} of {labels} labels resumed",
            seen.resumed
        );

        for first in [0, 1] {
            let mut worker = Checker::new(&cfg, opts);
            let order = (first..traces.len()).step_by(2);
            let ctx = format!("{name}, every other trace from {first}");
            let seen = session_matches_fresh(&mut worker, &traces, &fresh, order, &ctx);
            assert!(seen.resumed > 0, "{ctx}: nothing resumed");
        }
    }
}

#[test]
fn quick_suite_model_gaps_and_contention_resume_like_fresh_checks() {
    let _serial = serial();
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let cfg = SpecConfig::standard(Flavor::Linux);

    let quick = executed(&profile, &generate_suite(SuiteOptions::quick()));
    let seen = assert_session_equivalent(&cfg, &quick, "quick suite");
    assert!(seen.resumed > 0, "the quick suite resumed nothing");

    let gaps: Vec<Script> = model_gap_scripts().into_iter().map(|(s, _)| s).collect();
    assert_session_equivalent(&cfg, &executed(&profile, &gaps), "model-gap scripts");

    let contention: Vec<Trace> =
        (3..=6).flat_map(|p| contention_traces(ContentionOptions::new(p, 2))).collect();
    assert_session_equivalent(&cfg, &contention, "contention p3-p6");
}

#[test]
fn mutants_checked_after_their_parents_resume_like_fresh_checks() {
    let _serial = serial();
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let mutator = Mutator::new(40);
    let parents: Vec<Script> = model_gap_scripts().into_iter().map(|(s, _)| s).collect();
    let mut rng = StdRng::seed_from_u64(0x90A2_0F00);
    let mut pairs = Vec::new();
    for i in 0..500usize {
        let parent = &parents[i % parents.len()];
        let mutant = mutator.mutate(parent, &mut rng, format!("resume_mutant_{i:03}"));
        pairs.push(execute_script(&profile, parent, ExecOptions::default()));
        pairs.push(execute_script(&profile, &mutant, ExecOptions::default()));
    }
    let seen = assert_session_equivalent(&cfg, &pairs, "parent then mutant");
    assert!(seen.resumed > 0, "no mutant resumed from its parent");
}

fn mkdir(path: &str) -> OsCommand {
    OsCommand::Mkdir(path.into(), FileMode::new(0o777))
}

fn rv_none() -> ErrorOrValue {
    ErrorOrValue::Value(RetValue::None)
}

/// A single-process trace: mkdir of each path, then a stat of `probe`.
fn linear(name: &str, dirs: &[&str], probe: &str) -> Trace {
    let mut t = Trace::new(name, "resume");
    for d in dirs {
        t.push_call_return(INITIAL_PID, mkdir(d), rv_none());
    }
    t.push_call_return(
        INITIAL_PID,
        OsCommand::Stat(probe.into()),
        ErrorOrValue::Error(Errno::ENOENT),
    );
    t
}

/// The two-process trace of the checker's
/// `hitting_the_max_states_bound_is_reported_not_silent` unit test: the
/// second return τ-closes over both calls in flight, so more than one state
/// is tracked.
fn two_process_prefix(name: &str) -> Trace {
    let mut t = Trace::new(name, "resume");
    t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
    t.push_label(OsLabel::Call(INITIAL_PID, mkdir("/a")));
    t.push_label(OsLabel::Call(Pid(2), mkdir("/b")));
    t.push_label(OsLabel::Return(Pid(2), rv_none()));
    t
}

/// Check `traces` in order through one session with `opts`, asserting each
/// equals a fresh check; returns the labels each check applied and resumed.
fn pairwise(
    cfg: &SpecConfig,
    opts: CheckOptions,
    traces: &[&Trace],
) -> Vec<(CheckedTrace, Labels)> {
    let mut session = Checker::new(cfg, opts);
    traces
        .iter()
        .map(|t| {
            let (checked, labels) = counted(|| session.check(t));
            assert_same(&checked, &check_trace(cfg, t, opts), "hand-built");
            (checked, labels)
        })
        .collect()
}

#[test]
fn a_trace_after_itself_or_its_own_prefix_resumes_all_of_it() {
    let _serial = serial();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let opts = CheckOptions::default();
    let full = linear("full", &["/a", "/a/b", "/c"], "/missing");
    let mut prefix = full.clone();
    prefix.name = "prefix".to_string();
    prefix.steps.truncate(4);
    let n = full.steps.len() as u64;

    let seen = pairwise(&cfg, opts, &[&full, &full, &prefix, &full]);
    assert_eq!(seen[0].1, Labels { applied: n, resumed: 0 });
    assert_eq!(seen[1].1, Labels { applied: 0, resumed: n }, "a repeat applies nothing");
    assert_eq!(seen[2].1, Labels { applied: 0, resumed: 4 }, "a prefix applies nothing");
    // The session now holds only the prefix, so the full trace resumes 4.
    assert_eq!(seen[3].1, Labels { applied: n - 4, resumed: 4 });
}

#[test]
fn shifted_line_numbers_do_not_resume() {
    let _serial = serial();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let opts = CheckOptions::default();
    let t = linear("plain", &["/a", "/b"], "/a/x");
    let mut shifted = t.clone();
    shifted.name = "shifted".to_string();
    for step in &mut shifted.steps {
        step.lineno += 1;
    }
    let seen = pairwise(&cfg, opts, &[&t, &shifted]);
    let n = t.steps.len() as u64;
    assert_eq!(seen[1].1, Labels { applied: n, resumed: 0 }, "same labels, other lines");
    assert_ne!(seen[0].0.steps, seen[1].0.steps, "the line numbers show in the steps");
}

#[test]
fn a_shared_prefix_that_hits_the_state_bound_resumes_like_fresh() {
    let _serial = serial();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let opts = CheckOptions { max_states: 1 };
    let mut a = two_process_prefix("bounded_a");
    a.push_label(OsLabel::Return(INITIAL_PID, rv_none()));
    a.push_call_return(
        INITIAL_PID,
        OsCommand::Stat("/a".into()),
        ErrorOrValue::Error(Errno::ENOENT),
    );
    let mut b = two_process_prefix("bounded_b");
    b.push_label(OsLabel::Return(INITIAL_PID, ErrorOrValue::Error(Errno::EEXIST)));
    b.push_label(OsLabel::Destroy(Pid(2)));

    let seen = pairwise(&cfg, opts, &[&a, &b, &a]);
    let prefix = two_process_prefix("prefix").steps.len() as u64;
    assert_eq!(seen[1].1.resumed, prefix);
    assert_eq!(seen[2].1.resumed, prefix);
    for (checked, _) in &seen {
        assert!(!checked.accepted, "{}: a truncated check is never clean", checked.name);
        assert!(
            checked.steps.iter().any(|s| matches!(s.verdict, StepVerdict::StateSetBounded { .. })),
            "{}: the prefix hits the bound",
            checked.name
        );
    }
}

#[test]
fn a_shared_prefix_that_empties_the_state_set_resumes_like_fresh() {
    let _serial = serial();
    let cfg = SpecConfig::standard(Flavor::Linux);
    // With a bound of 0, every step truncates the set to nothing and the
    // checker restarts from a fresh initial state.
    let opts = CheckOptions { max_states: 0 };
    let a = linear("empty_a", &["/a", "/b"], "/a/x");
    let b = linear("empty_b", &["/a", "/b", "/c"], "/c/x");
    let seen = pairwise(&cfg, opts, &[&a, &b, &a]);
    assert_eq!(seen[1].1.resumed, 4, "the two mkdirs are shared");
    assert_eq!(seen[2].1.resumed, 4);
    assert!(seen.iter().all(|(c, _)| c.deviations.len() >= c.steps.len() / 2));
}

#[test]
fn label_counters_split_every_label_into_applied_or_resumed() {
    let _serial = serial();
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let opts = CheckOptions::default();
    let traces: Vec<Trace> =
        executed(&profile, &generate_suite(SuiteOptions::quick())).into_iter().take(100).collect();
    let labels = label_count(&traces);

    let (_, fresh) = counted(|| fresh_checks(&cfg, opts, &traces));
    assert_eq!(fresh, Labels { applied: labels, resumed: 0 }, "check_trace applies every label");

    let mut session = Checker::new(&cfg, opts);
    let (_, resumed) = counted(|| traces.iter().map(|t| session.check(t)).count());
    assert_eq!(resumed.applied + resumed.resumed, labels);
    assert!(resumed.resumed > 0);
}
