//! The lone-call return path against the τ-closure.
//!
//! A return whose call is the only one in flight (every tracked state has
//! the returning process in its call, every other process is ready, and
//! nothing sleeps) is matched by `TrackedSet::match_lone_call` without
//! building the closure. That is a pure optimisation: at every return, where
//! the call is alone, it must give the states `close` then `after` give, in
//! the same order, with nothing asleep; where it is not, it must decline.
//! This suite replays the checker's steps and pins that over
//!
//! * the quick suite and the model-gap scripts on the simulated Linux
//!   config, where every return is of the lone kind,
//! * the contention traces at 3–6 processes, where most are not, and
//! * 500 explore mutants.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sibylfs::prelude::*;
use sibylfs_check::StepKind;
use sibylfs_core::commands::OsLabel;
use sibylfs_core::os::state_set::StateSet;
use sibylfs_core::os::trans::{default_completion, TrackedSet};
use sibylfs_core::os::{OsState, ProcRunState};
use sibylfs_core::types::{Pid, INITIAL_PID};
use sibylfs_explore::mutate::Mutator;
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::sequences::model_gap_scripts;

/// How many returns took each path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Paths {
    lone: usize,
    closure: usize,
}

/// Whether `pid`'s call is the only one in flight in `tracked`.
fn call_is_alone(tracked: &TrackedSet, pid: Pid) -> bool {
    tracked.sleep_sets().iter().all(Vec::is_empty)
        && tracked.states().iter().all(|st| {
            matches!(st.proc(pid).map(|p| &p.run_state), Some(ProcRunState::InCall(_)))
                && st
                    .procs
                    .iter()
                    .all(|(q, p)| *q == pid || matches!(p.run_state, ProcRunState::Ready))
        })
}

fn initial(cfg: &SpecConfig) -> TrackedSet {
    TrackedSet::from(StateSet::singleton(OsState::initial_with_process(cfg, INITIAL_PID)))
}

/// What the checker continues from after a deviating return: the model's own
/// completions of the closed set, or every closed state with `pid` ready.
fn recovered(closed: &TrackedSet, pid: Pid) -> TrackedSet {
    let mut out: StateSet = closed
        .states()
        .iter()
        .filter_map(|st| default_completion(st, pid).map(|(_, next)| next))
        .collect();
    if out.is_empty() {
        for st in closed.states() {
            let mut st = st.clone();
            if let Some(p) = st.proc_mut(pid) {
                p.run_state = ProcRunState::Ready;
            }
            out.insert(st);
        }
    }
    TrackedSet::from(out)
}

/// Replay the checker's steps over `trace` and, at every return, compare
/// the lone path with `close` then `after`. The replayed set must track as
/// many states as the checker reports at every step.
fn replay(cfg: &SpecConfig, trace: &Trace) -> Paths {
    let checked = check_trace(cfg, trace, CheckOptions::default());
    let mut reported = checked.steps.iter().filter(|s| s.kind != StepKind::Internal);
    let mut paths = Paths::default();
    let mut tracked = initial(cfg);
    for step in &trace.steps {
        let ctx = format!("{} line {}", trace.name, step.lineno);
        tracked = match &step.label {
            OsLabel::Return(pid, observed) => {
                let lone = tracked.match_lone_call(cfg, *pid, observed);
                let mut closed = tracked.clone();
                closed.close(cfg);
                let next = closed.after(cfg, &step.label);
                match lone {
                    Some(got) => {
                        assert!(call_is_alone(&tracked, *pid), "{ctx}: took the lone path");
                        assert_eq!(got.states().states(), next.states().states(), "{ctx}");
                        assert_eq!(got.sleep_sets().len(), got.len(), "{ctx}");
                        assert!(got.sleep_sets().iter().all(Vec::is_empty), "{ctx}");
                        paths.lone += 1;
                    }
                    None => {
                        assert!(!call_is_alone(&tracked, *pid), "{ctx}: declined a lone call");
                        paths.closure += 1;
                    }
                }
                if next.is_empty() {
                    recovered(&closed, *pid)
                } else {
                    next
                }
            }
            OsLabel::Tau => {
                tracked.close(cfg);
                tracked
            }
            label => {
                let next = tracked.after(cfg, label);
                if next.is_empty() {
                    tracked
                } else {
                    next
                }
            }
        };
        let want = reported.next().expect("one checked step per label").states_tracked;
        assert_eq!(tracked.len(), want, "{ctx}: the replay left the checker's path");
        if tracked.is_empty() {
            tracked = initial(cfg);
        }
    }
    paths
}

fn replay_all(cfg: &SpecConfig, traces: impl IntoIterator<Item = Trace>) -> Paths {
    traces.into_iter().fold(Paths::default(), |acc, trace| {
        let p = replay(cfg, &trace);
        Paths { lone: acc.lone + p.lone, closure: acc.closure + p.closure }
    })
}

fn linux() -> SpecConfig {
    SpecConfig::standard(Flavor::Linux)
}

fn executed(scripts: impl IntoIterator<Item = Script>) -> impl Iterator<Item = Trace> {
    let profile = configs::by_name("linux/tmpfs").unwrap();
    scripts.into_iter().map(move |s| execute_script(&profile, &s, ExecOptions::default()))
}

#[test]
fn every_sequential_return_takes_the_lone_path() {
    let cfg = linux();
    let quick = replay_all(&cfg, executed(generate_suite(SuiteOptions::quick())));
    assert_eq!(quick.closure, 0, "{quick:?}");
    assert!(quick.lone >= 500, "{quick:?}");
    let gaps = replay_all(&cfg, executed(model_gap_scripts().into_iter().map(|(s, _)| s)));
    assert_eq!(gaps.closure, 0, "{gaps:?}");
    assert!(gaps.lone > 0);
}

#[test]
fn contention_returns_take_the_closure_path_while_calls_overlap() {
    let cfg = linux();
    let traces = (3..=6).flat_map(|p| contention_traces(ContentionOptions::new(p, 2)));
    let paths = replay_all(&cfg, traces);
    assert!(paths.lone > 0 && paths.closure > paths.lone, "{paths:?}");
}

/// drbh's writer round: the readers' calls are issued before the writer's
/// and return first. While a reader is in flight beside the writer no call
/// is alone, and after the readers return the writer's call has been
/// processed in some tracked states, so every return of the round closes.
#[test]
fn drbh_writer_round_returns_take_the_closure_path() {
    let cfg = linux();
    let trace = contention_traces(ContentionOptions::new(3, 2))
        .into_iter()
        .find(|t| t.name.ends_with("drbh_p3_n2"))
        .expect("the drbh family");
    let write = trace
        .steps
        .iter()
        .position(|s| matches!(&s.label, OsLabel::Call(_, OsCommand::Pwrite(..))))
        .expect("a writer round");
    let round: Vec<usize> = (write + 1..trace.steps.len())
        .take_while(|&i| matches!(trace.steps[i].label, OsLabel::Return(..)))
        .collect();
    assert_eq!(round.len(), 3, "two readers and the writer return");
    let mut tracked = initial(&cfg);
    for (i, step) in trace.steps.iter().enumerate() {
        if let OsLabel::Return(pid, observed) = &step.label {
            if round.contains(&i) {
                let lone = tracked.match_lone_call(&cfg, *pid, observed);
                assert!(lone.is_none(), "line {} took the lone path", step.lineno);
            }
            tracked.close(&cfg);
        }
        tracked = tracked.after(&cfg, &step.label);
        assert!(!tracked.is_empty(), "line {} deviates", step.lineno);
    }
}

#[test]
fn mutant_returns_match_the_closure_path() {
    let cfg = linux();
    let mutator = Mutator::new(40);
    let parents: Vec<Script> = model_gap_scripts().into_iter().map(|(s, _)| s).collect();
    let mut rng = StdRng::seed_from_u64(0x104E_CA11);
    let mutants: Vec<Script> = (0..500usize)
        .map(|i| mutator.mutate(&parents[i % parents.len()], &mut rng, format!("lone_{i:03}")))
        .collect();
    let paths = replay_all(&cfg, executed(mutants));
    assert!(paths.lone > 0, "{paths:?}");
}
