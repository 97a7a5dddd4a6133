//! Partial-order reduction equivalence suite.
//!
//! POR is a pure optimisation: the production checker dispatches fewer calls
//! than full expansion, but every verdict it hands out — per-step verdicts,
//! deviations, acceptance — and the size of every tracked state set must be
//! identical to the full-expansion reference checker in `common`, because
//! interleaving orders reach equal states. This suite pins that equivalence
//! over
//!
//! * the whole quick test suite executed on the simulated Linux config,
//! * the model-gap regression scripts,
//! * the fxmark-style contention trace families (the only inputs with real
//!   multi-process overlap, i.e. where POR actually prunes),
//! * hand-written deviating concurrent traces (the recovery path),
//! * hand-written renames that must not commute with a concurrent call, and
//! * a 500-mutant replay of the explore engine's mutation operators.
//!
//! Two properties close the loop at the other end: the footprint analysis
//! itself is sound — whenever two in-flight calls are claimed to commute,
//! processing them in either order from a random reachable state produces
//! equal multisets of states — once over a small colliding universe and
//! once over a populated tree where renames really succeed.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;

use common::{ref_check_trace, ref_tau_closure, ref_union_trans, RefChecked};
use sibylfs::prelude::*;
use sibylfs_core::commands::OsLabel;
use sibylfs_core::footprint::footprint_of;
use sibylfs_core::os::state_set::StateSet;
use sibylfs_core::os::trans::{default_completion, expand_calls, os_trans, process_call, TrackedSet};
use sibylfs_core::os::{OsState, ProcRunState};
use sibylfs_core::path::{resolve_path, FollowLast, ResName, ResolveCtx};
use sibylfs_core::types::{Gid, Pid, Uid, INITIAL_PID};
use sibylfs_check::{CheckedTrace, StepVerdict};
use sibylfs_explore::mutate::Mutator;
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::sequences::model_gap_scripts;

/// A verdict with what POR may legitimately change normalised: the
/// `allowed` diagnostic lists are accumulated in state-set iteration order,
/// which reduction may permute, so they are sorted (the *sets* must still
/// agree). State-set sizes stay: POR prunes dispatches, never states.
fn normalized(verdict: &StepVerdict) -> StepVerdict {
    let mut v = verdict.clone();
    if let StepVerdict::Deviation { allowed, .. } = &mut v {
        allowed.sort();
    }
    v
}

fn sorted(allowed: &[String]) -> Vec<String> {
    let mut allowed = allowed.to_vec();
    allowed.sort();
    allowed
}

/// Check `trace` with the production checker and with the full-expansion
/// reference, and require equal verdicts, deviations and state-set sizes at
/// every step.
fn assert_equivalent(cfg: &SpecConfig, trace: &Trace, ctx: &str) -> (CheckedTrace, RefChecked) {
    let got = check_trace(cfg, trace, CheckOptions::default());
    let want = ref_check_trace(cfg, trace, CheckOptions::default());
    let got_steps: Vec<_> =
        got.steps.iter().map(|s| (normalized(&s.verdict), s.states_tracked)).collect();
    let want_steps: Vec<_> =
        want.verdicts.iter().map(normalized).zip(want.set_sizes.iter().copied()).collect();
    assert_eq!(got_steps, want_steps, "{ctx}: verdicts or set sizes differ from full expansion");
    let got_deviations: Vec<_> =
        got.deviations.iter().map(|d| (d.lineno, &d.observed, sorted(&d.allowed))).collect();
    let want_deviations: Vec<_> =
        want.deviations.iter().map(|(lineno, obs, allowed)| (*lineno, obs, sorted(allowed))).collect();
    assert_eq!(got_deviations, want_deviations, "{ctx}: deviations differ from full expansion");
    assert_eq!(got.accepted, want.accepted, "{ctx}: acceptance differs from full expansion");
    assert_eq!(got.max_states_tracked, want.max_states_tracked, "{ctx}: max states differ");
    (got, want)
}

#[test]
fn quick_suite_verdicts_are_identical_por_on_and_off() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let mut checked = 0usize;
    for script in generate_suite(SuiteOptions::quick()) {
        let trace = execute_script(&profile, &script, ExecOptions::default());
        assert_equivalent(&cfg, &trace, &script.name);
        checked += 1;
    }
    assert!(checked >= 500, "quick suite shrank to {checked} scripts");
}

#[test]
fn model_gap_scripts_verdicts_are_identical_por_on_and_off() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let profile = configs::by_name("linux/tmpfs").unwrap();
    for (script, _) in model_gap_scripts() {
        let trace = execute_script(&profile, &script, ExecOptions::default());
        assert_equivalent(&cfg, &trace, &script.name);
    }
}

#[test]
fn contention_traces_are_accepted_and_equivalent() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    for opts in [
        ContentionOptions::new(2, 2),
        ContentionOptions::new(3, 2),
        ContentionOptions::new(4, 1),
    ] {
        for trace in contention_traces(opts) {
            let (on, full) = assert_equivalent(&cfg, &trace, &trace.name);
            assert!(on.accepted, "{}: deviations {:?}", trace.name, on.deviations);
            assert!(full.accepted);
        }
    }
}

/// POR prunes dispatches, not states: interleaving orders reach equal states,
/// so the checker tracks the sets full expansion does at every step. What
/// POR saves shows in the closures before the returns: each tracks the
/// states full expansion does, and some end with calls asleep, which POR
/// never dispatched.
#[test]
fn por_actually_prunes_the_commuting_contention_families() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    for trace in contention_traces(ContentionOptions::new(3, 2)) {
        assert_equivalent(&cfg, &trace, &trace.name);
        let mut states = vec![OsState::initial_with_process(&cfg, INITIAL_PID)];
        let mut slept = false;
        for step in &trace.steps {
            if matches!(step.label, OsLabel::Return(..)) {
                let mut reduced = TrackedSet::from(states.iter().cloned().collect::<StateSet>());
                reduced.close(&cfg);
                states = ref_tau_closure(&cfg, &states);
                assert_eq!(reduced.len(), states.len(), "{} line {}", trace.name, step.lineno);
                assert!(reduced.states().iter().all(|st| states.contains(st)), "{}", trace.name);
                slept |= reduced.sleep_sets().iter().any(|s| !s.is_empty());
            }
            states = ref_union_trans(&cfg, &states, &step.label);
        }
        assert!(slept, "{}: POR skipped no dispatch", trace.name);
    }
}

/// Only τ processes a call, and a return from a process still in its call
/// matches nothing, so a return never needs to skip a sleeper. Replays the
/// checker's steps over accepted contention traces — a return or τ closes
/// the set first, every other label is applied — and requires every pid
/// asleep after a label to be in a call.
#[test]
fn a_sleeping_pid_is_always_in_a_call() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let mut sleepers = 0usize;
    for opts in [ContentionOptions::new(3, 2), ContentionOptions::new(4, 2)] {
        for trace in contention_traces(opts) {
            let checked = check_trace(&cfg, &trace, CheckOptions::default());
            assert!(checked.accepted, "{}", trace.name);
            let initial = OsState::initial_with_process(&cfg, INITIAL_PID);
            let mut tracked = TrackedSet::from(StateSet::singleton(initial));
            for (step, checked_step) in trace.steps.iter().zip(&checked.steps) {
                if matches!(step.label, OsLabel::Tau | OsLabel::Return(..)) {
                    tracked.close(&cfg);
                }
                if !matches!(step.label, OsLabel::Tau) {
                    tracked = tracked.after(&cfg, &step.label);
                }
                assert_eq!(tracked.len(), checked_step.states_tracked, "{}", trace.name);
                for (st, sleep) in tracked.states().iter().zip(tracked.sleep_sets()) {
                    for (pid, _) in sleep {
                        let run_state = st.proc(*pid).map(|p| &p.run_state);
                        assert!(
                            matches!(run_state, Some(ProcRunState::InCall(_))),
                            "{} line {}: pid {pid} sleeps in {run_state:?}",
                            trace.name,
                            step.lineno
                        );
                        sleepers += 1;
                    }
                }
            }
        }
    }
    assert!(sleepers > 0, "no pid ever slept");
}

/// Require a check of `ctx` accepted, with no step at the state bound and at
/// most `2⁶` states tracked.
fn assert_decided_within_64_states(
    ctx: &str,
    accepted: bool,
    deviations: &dyn std::fmt::Debug,
    bounded: bool,
    max_states_tracked: usize,
) {
    assert!(accepted, "{ctx}: deviations {deviations:?}");
    assert!(!bounded, "{ctx} hit the state bound");
    assert!(max_states_tracked <= 64, "{ctx} tracked {max_states_tracked} states");
}

/// Six renames in flight per round: every process renames its own file, so
/// the footprints commute.
#[test]
fn rename_storm_p6_is_decided_and_accepted_under_por() {
    let trace = contention_traces(ContentionOptions::new(6, 2))
        .into_iter()
        .find(|t| t.name.contains("rename_storm"))
        .expect("the rename storm family");
    let cfg = SpecConfig::standard(Flavor::Linux);
    let checked = check_trace(&cfg, &trace, CheckOptions::default());
    let bounded =
        checked.steps.iter().any(|s| matches!(s.verdict, StepVerdict::StateSetBounded { .. }));
    assert_decided_within_64_states(
        &trace.name,
        checked.accepted,
        &checked.deviations,
        bounded,
        checked.max_states_tracked,
    );
}

/// Full expansion decides six-way contention too: every interleaving order
/// of the commuting calls reaches one equal state, so the reference closure
/// tracks the same few states the reduced one does.
#[test]
fn six_way_contention_is_decided_without_por() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let bound = CheckOptions::default().max_states;
    for trace in contention_traces(ContentionOptions::new(6, 2)) {
        let (_, full) = assert_equivalent(&cfg, &trace, &trace.name);
        let bounded = full.set_sizes.iter().any(|&n| n > bound);
        assert_decided_within_64_states(
            &trace.name,
            full.accepted,
            &full.deviations,
            bounded,
            full.max_states_tracked,
        );
    }
}

/// Overlap `lower`'s call (from pid 1) with `higher`'s (from pid 2) and
/// deliver the lower pid's return first.
///
/// This is the shape in which a footprint that is too small shows. Claiming
/// the two calls commute puts pid 1 to sleep in the state reached by
/// processing pid 2 first, and a sleeping call is never dispatched there, so
/// no tracked state processes pid 2's call before pid 1's. A trace whose
/// observations only that order explains is then rejected under POR and
/// accepted by full expansion.
fn overlap(
    t: &mut Trace,
    lower: (OsCommand, ErrorOrValue),
    higher: (OsCommand, ErrorOrValue),
) {
    let (p, q) = (INITIAL_PID, Pid(2));
    t.push_label(OsLabel::Call(p, lower.0));
    t.push_label(OsLabel::Call(q, higher.0));
    t.push_label(OsLabel::Return(p, lower.1));
    t.push_label(OsLabel::Return(q, higher.1));
}

fn rv_none() -> ErrorOrValue {
    ErrorOrValue::Value(RetValue::None)
}

fn mkdir(path: &str) -> OsCommand {
    OsCommand::Mkdir(path.into(), FileMode::new(0o777))
}

fn rename(src: &str, dst: &str) -> OsCommand {
    OsCommand::Rename(src.into(), dst.into())
}

fn create(path: &str) -> OsCommand {
    let flags = OpenFlags::O_CREAT | OpenFlags::O_WRONLY;
    OsCommand::Open(path.into(), flags, Some(FileMode::new(0o644)))
}

/// Renames that must not commute with a concurrent call. The first three
/// end in an observation only the higher-pid-first order explains; the last
/// two pin conflicts the random property below is too unlikely to reach,
/// and the lower pid's return is the observation that needs that order.
fn non_commuting_rename_traces() -> Vec<Trace> {
    let (p, q) = (INITIAL_PID, Pid(2));
    let new_trace = |name: &str, dirs: &[&str]| {
        let mut t = Trace::new(name, "por");
        for d in dirs {
            t.push_call_return(p, mkdir(d), rv_none());
        }
        t.push_label(OsLabel::Create(q, Uid(0), Gid(0)));
        t
    };

    // Moving a directory moves every cwd inside it: `../../z` from
    // `/a/d/e` lands in `/b` only if the move came first. Pins the
    // `DirMetaWrite` of the moved directory against `..` traversal.
    let mut moved_cwd =
        new_trace("por_rename_moves_a_cwd_ancestor", &["/a", "/a/d", "/a/d/e", "/b"]);
    moved_cwd.push_call_return(p, OsCommand::Chdir("/a/d/e".into()), rv_none());
    overlap(&mut moved_cwd, (mkdir("../../z"), rv_none()), (rename("/a/d", "/b/d"), rv_none()));
    moved_cwd.push_call_return(p, OsCommand::Rmdir("/b/z".into()), rv_none());

    // Replacing the empty directory a process is creating in: only the
    // rename-first order disconnects the cwd (ENOENT) and lets the rename
    // succeed (created first, `/d` is no longer empty). Pins the replaced
    // directory's `ListingRead` and `DirMetaWrite`.
    let mut replaced_cwd = new_trace("por_rename_replaces_a_creators_cwd", &["/d", "/e"]);
    replaced_cwd.push_call_return(p, OsCommand::Chdir("/d".into()), rv_none());
    overlap(
        &mut replaced_cwd,
        (mkdir("x"), ErrorOrValue::Error(Errno::ENOENT)),
        (rename("/e", "/d"), rv_none()),
    );
    replaced_cwd.push_call_return(q, OsCommand::Rmdir("/d".into()), rv_none());

    // Listing the rename's source parent. `readdir` itself is τ-pure (the
    // entry is matched against the handle at return time), so the order
    // shows through `opendir`, whose τ-step snapshots the listing: `x` is
    // listed only if the snapshot predates the move. Pins the `EntryWrite`
    // on the source end.
    let mut listed_source = new_trace("por_rename_out_of_a_listed_directory", &["/s", "/t"]);
    listed_source.push_call_return(p, create("/s/x"), ErrorOrValue::Value(RetValue::Fd(Fd(3))));
    listed_source.push_call_return(p, OsCommand::Close(Fd(3)), rv_none());
    let dh = DirHandleId(1);
    overlap(
        &mut listed_source,
        (rename("/s/x", "/t/x"), rv_none()),
        (OsCommand::Opendir("/s".into()), ErrorOrValue::Value(RetValue::DirHandle(dh))),
    );
    listed_source.push_call_return(
        q,
        OsCommand::Readdir(dh),
        ErrorOrValue::Value(RetValue::ReaddirEntry(Some("x".to_string()))),
    );
    listed_source.push_call_return(q, OsCommand::Closedir(dh), rv_none());

    // Replacing a file that is still linked elsewhere: a `stat` of the
    // other link sees one link only after the rename. Pins the `FileWrite`
    // on the replaced file.
    let mut replaced_file = new_trace("por_rename_over_a_file_linked_elsewhere", &[]);
    for f in ["/f", "/g"] {
        replaced_file.push_call_return(p, create(f), ErrorOrValue::Value(RetValue::Fd(Fd(3))));
        replaced_file.push_call_return(p, OsCommand::Close(Fd(3)), rv_none());
    }
    replaced_file.push_call_return(p, OsCommand::Link("/f".into(), "/l".into()), rv_none());
    let one_link = Stat {
        kind: FileKind::Regular,
        size: 0,
        nlink: 1,
        mode: FileMode::new(0o644),
        uid: Uid(0),
        gid: Gid(0),
    };
    overlap(
        &mut replaced_file,
        (OsCommand::Stat("/l".into()), ErrorOrValue::Value(RetValue::Stat(Box::new(one_link)))),
        (rename("/g", "/f"), rv_none()),
    );

    // Two directory moves, each into the other's subtree through a relative
    // destination (pid 1's cwd is in `/e`, pid 2's in `/a`): whichever runs
    // second would close a cycle and fails with EINVAL. No path resolution
    // of one reads what the other writes; only the destination's ancestry
    // walk does. Pins the `ConnRead` chain of the destination parent.
    let mut cycle =
        new_trace("por_renames_that_would_close_a_cycle", &["/a", "/a/b", "/e", "/e/k"]);
    cycle.push_call_return(p, OsCommand::Chdir("/e/k".into()), rv_none());
    cycle.push_call_return(q, OsCommand::Chdir("/a/b".into()), rv_none());
    overlap(
        &mut cycle,
        (rename("/a", "n"), ErrorOrValue::Error(Errno::EINVAL)),
        (rename("/e", "c"), rv_none()),
    );
    cycle.push_call_return(q, mkdir("/a/b/c/k/z"), rv_none());

    vec![moved_cwd, replaced_cwd, listed_source, replaced_file, cycle]
}

#[test]
fn renames_that_must_not_commute_are_accepted_and_equivalent() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    for trace in non_commuting_rename_traces() {
        let (on, full) = assert_equivalent(&cfg, &trace, &trace.name);
        assert!(full.accepted, "{}: full expansion rejects: {:?}", trace.name, full.deviations);
        assert!(on.accepted, "{}: POR rejects: {:?}", trace.name, on.deviations);
    }
}

/// A concurrent trace whose return deviates: the recovery path (allowed-set
/// diagnostics, default completions, sleep-set reset) must behave as full
/// expansion does.
#[test]
fn deviating_concurrent_trace_is_equivalent() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let mut t = Trace::new("por_deviation", "contention");
    t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
    t.push_label(OsLabel::Create(Pid(3), Uid(0), Gid(0)));
    t.push_label(OsLabel::Call(
        INITIAL_PID,
        OsCommand::Mkdir("/a".into(), FileMode::new(0o777)),
    ));
    t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
    t.push_label(OsLabel::Call(Pid(3), OsCommand::Stat("/c".into())));
    // EPERM is not in stat's envelope here: a deviation with two other calls
    // still in flight.
    t.push_label(OsLabel::Return(Pid(3), ErrorOrValue::Error(Errno::EPERM)));
    t.push_label(OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None)));
    t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));
    // Checking continues after recovery; the final state must know /a and /b.
    t.push_call_return(INITIAL_PID, OsCommand::Rmdir("/a".into()), ErrorOrValue::Value(RetValue::None));
    t.push_call_return(Pid(2), OsCommand::Rmdir("/b".into()), ErrorOrValue::Value(RetValue::None));
    let (on, _) = assert_equivalent(&cfg, &t, "por_deviation");
    assert!(!on.accepted);
    assert_eq!(on.deviations.len(), 1);
}

#[test]
fn mutant_replay_verdicts_are_identical_por_on_and_off() {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let mutator = Mutator::new(40);
    let parents: Vec<Script> = model_gap_scripts().into_iter().map(|(s, _)| s).collect();
    let mut rng = StdRng::seed_from_u64(0x90A2_0F00);
    for i in 0..500usize {
        let parent = &parents[i % parents.len()];
        let mutant = mutator.mutate(parent, &mut rng, format!("por_mutant_{i:03}"));
        let trace = execute_script(&profile, &mutant, ExecOptions::default());
        assert_equivalent(&cfg, &trace, &mutant.name);
    }
}

// ---------------------------------------------------------------------------
// Footprint soundness: claimed commutation really is commutation.
// ---------------------------------------------------------------------------

/// The small colliding path universe of [`commuting_footprints_really_commute`]
/// (kept in sync with the one in `model_properties.rs`).
const SMALL_PATHS: &[&str] = &["a", "b", "a/b", "/a", "a/", "missing/x", ".", "/", "s"];

/// The universe of the populated-tree property: every object of
/// [`populated_tree`] by absolute path, through the symlink, and relative to
/// pid 2's cwd `/a/b`, plus missing names in each directory.
const TREE_PATHS: &[&str] = &[
    "/a", "/a/b", "/a/b/c", "/a/f", "/a/b/g", "/a/b/c/h", "/e", "/s", "/s/c", "/s/g", "/n",
    "/a/n", "/a/b/c/n", "/e/n", "/s/n", "c", "g", "n", "..", "../f", "../n", "../../e", "c/h",
    "c/n", "e",
];

fn arb_path(paths: &'static [&'static str]) -> impl Strategy<Value = String> + Clone {
    proptest::strategy::Union::new(paths.iter().map(|p| Just(p.to_string()).boxed()).collect())
}

fn arb_rename(paths: &'static [&'static str]) -> impl Strategy<Value = OsCommand> {
    (arb_path(paths), arb_path(paths)).prop_map(|(a, b)| OsCommand::Rename(a.into(), b.into()))
}

/// Strategy: an arbitrary single command over the given path universe.
fn arb_command(paths: &'static [&'static str]) -> impl Strategy<Value = OsCommand> {
    let path = arb_path(paths);
    let fd = (0i32..6).prop_map(sibylfs_core::types::Fd);
    prop_oneof![
        path.clone().prop_map(|p| OsCommand::Mkdir(p.into(), FileMode::new(0o777))),
        path.clone().prop_map(|p| OsCommand::Rmdir(p.into())),
        path.clone().prop_map(|p| OsCommand::Unlink(p.into())),
        path.clone().prop_map(|p| OsCommand::Stat(p.into())),
        path.clone().prop_map(|p| OsCommand::Lstat(p.into())),
        path.clone().prop_map(|p| OsCommand::Opendir(p.into())),
        path.clone().prop_map(|p| OsCommand::Chdir(p.into())),
        arb_rename(paths),
        (path.clone(), path.clone()).prop_map(|(a, b)| OsCommand::Link(a.into(), b.into())),
        (path.clone(), path.clone()).prop_map(|(a, b)| OsCommand::Symlink(a.into(), b.into())),
        (path.clone(), 0u32..0o1000)
            .prop_map(|(p, m)| OsCommand::Chmod(p.into(), FileMode::new(m))),
        (path.clone(), -4i64..64).prop_map(|(p, l)| OsCommand::Truncate(p.into(), l)),
        (path, any::<bool>(), any::<bool>()).prop_map(|(p, creat, excl)| {
            let mut flags = OpenFlags::O_RDWR;
            if creat {
                flags = flags | OpenFlags::O_CREAT;
            }
            if excl {
                flags = flags | OpenFlags::O_EXCL;
            }
            OsCommand::Open(p.into(), flags, Some(FileMode::new(0o644)))
        }),
        fd.clone().prop_map(|f| OsCommand::Read(f, 16)),
        (fd.clone(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(f, data)| OsCommand::Write(f, data)),
        (fd, -2i64..32).prop_map(|(f, off)| OsCommand::Pread(f, 8, off)),
    ]
}

/// Run `cmd` from `pid` to completion through the model's own canonical
/// completion of its last branch; `None` if the call never returns.
fn complete(
    cfg: &SpecConfig,
    st: &OsState,
    pid: Pid,
    cmd: OsCommand,
) -> Option<(ErrorOrValue, OsState)> {
    let called = os_trans(cfg, st, &OsLabel::Call(pid, cmd)).into_iter().next()?;
    let branch = expand_calls(cfg, &called).into_iter().next_back()?;
    default_completion(&branch, pid)
}

fn with_second_process(cfg: &SpecConfig) -> OsState {
    let st = OsState::initial_with_process(cfg, INITIAL_PID);
    os_trans(cfg, &st, &OsLabel::Create(Pid(2), Uid(0), Gid(0))).remove(0)
}

/// A populated starting tree: nested directories `/a/b/c`, files `/a/f`,
/// `/a/b/g` and `/a/b/c/h`, an empty directory `/e`, a relative symlink
/// `/s -> a/b`, and a second process whose cwd is `/a/b`.
fn populated_tree(cfg: &SpecConfig) -> OsState {
    let mut steps = Vec::new();
    for d in ["/a", "/a/b", "/a/b/c", "/e"] {
        steps.push((INITIAL_PID, mkdir(d)));
    }
    for f in ["/a/f", "/a/b/g", "/a/b/c/h"] {
        // The canonical completion hands out the lowest free fd.
        steps.push((INITIAL_PID, create(f)));
        steps.push((INITIAL_PID, OsCommand::Close(Fd(0))));
    }
    steps.push((INITIAL_PID, OsCommand::Symlink("a/b".into(), "/s".into())));
    steps.push((Pid(2), OsCommand::Chdir("/a/b".into())));
    let mut st = with_second_process(cfg);
    for (pid, cmd) in steps {
        let shown = cmd.to_string();
        match complete(cfg, &st, pid, cmd) {
            Some((ErrorOrValue::Value(_), next)) => st = next,
            other => panic!("{cfg}: setting up {shown} failed: {:?}", other.map(|(v, _)| v)),
        }
    }
    st
}

/// Strategy: a reachable state with two live processes, built by running a
/// few commands over `paths` from `start` through the model's own canonical
/// completions.
fn arb_two_proc_state(
    cfg: SpecConfig,
    start: fn(&SpecConfig) -> OsState,
    paths: &'static [&'static str],
) -> impl Strategy<Value = OsState> {
    proptest::collection::vec((arb_command(paths), any::<bool>()), 0..8).prop_map(move |cmds| {
        let mut st = start(&cfg);
        for (cmd, second) in cmds {
            let pid = if second { Pid(2) } else { INITIAL_PID };
            if let Some((_, next)) = complete(&cfg, &st, pid, cmd) {
                st = next;
            }
        }
        st
    })
}

/// Put `cmd_p` (from `p`) and `cmd_q` (from `q`) in flight from `st`. If
/// their footprints claim to commute, process them in both orders and
/// require equal multisets of states. Returns the state with both calls in
/// flight when the claim was made and checked.
fn check_claimed_commutation(
    cfg: &SpecConfig,
    st: &OsState,
    (p, cmd_p): (Pid, &OsCommand),
    (q, cmd_q): (Pid, &OsCommand),
) -> Option<OsState> {
    let st = os_trans(cfg, st, &OsLabel::Call(p, cmd_p.clone()))
        .into_iter()
        .next()
        .and_then(|st| os_trans(cfg, &st, &OsLabel::Call(q, cmd_q.clone())).into_iter().next())?;
    if !footprint_of(cfg, &st, p, cmd_p).commutes(&footprint_of(cfg, &st, q, cmd_q)) {
        return None;
    }
    let mut p_first: Vec<OsState> = Vec::new();
    for mid in process_call(cfg, &st, p) {
        p_first.extend(process_call(cfg, &mid, q));
    }
    let mut q_first: Vec<OsState> = Vec::new();
    for mid in process_call(cfg, &st, q) {
        q_first.extend(process_call(cfg, &mid, p));
    }
    // Sorted by fingerprint, equal multisets are equal vectors.
    p_first.sort_by_key(OsState::fingerprint);
    q_first.sort_by_key(OsState::fingerprint);
    assert!(
        p_first == q_first,
        "{cfg}: {cmd_p} (pid {}) and {cmd_q} (pid {}) were claimed to commute but do not",
        p.0,
        q.0
    );
    Some(st)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Footprint soundness: if the footprints of two in-flight calls commute,
    /// processing them in either order yields equal multisets of states.
    #[test]
    fn commuting_footprints_really_commute(
        st in arb_two_proc_state(
            SpecConfig::standard(Flavor::Linux),
            with_second_process,
            SMALL_PATHS,
        ),
        cmd_p in arb_command(SMALL_PATHS),
        cmd_q in arb_command(SMALL_PATHS),
    ) {
        let cfg = SpecConfig::standard(Flavor::Linux);
        check_claimed_commutation(&cfg, &st, (INITIAL_PID, &cmd_p), (Pid(2), &cmd_q));
    }
}

/// What a rename that changes the tree moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RenameWrite {
    FileToNewName,
    FileOverFile,
    DirMove,
}

/// What `cmd`, a rename in flight for `pid`, writes when processed from
/// `st`; `None` when it fails there or is a same-object no-op.
fn rename_write(cfg: &SpecConfig, st: &OsState, pid: Pid, cmd: &OsCommand) -> Option<RenameWrite> {
    let OsCommand::Rename(src, dst) = cmd else { return None };
    if !process_call(cfg, st, pid).iter().any(|next| next.heap != st.heap) {
        return None;
    }
    let rctx = ResolveCtx::new(&st.heap, st.proc(pid)?.cwd, None);
    match (
        resolve_path(&rctx, src, FollowLast::NoFollow),
        resolve_path(&rctx, dst, FollowLast::NoFollow),
    ) {
        (ResName::File { .. }, ResName::None { .. }) => Some(RenameWrite::FileToNewName),
        (ResName::File { .. }, ResName::File { .. }) => Some(RenameWrite::FileOverFile),
        (ResName::Dir { .. }, _) => Some(RenameWrite::DirMove),
        _ => None,
    }
}

/// Footprint soundness for renames that really move something. Over the
/// small universe a rename almost never succeeds, so this property starts
/// from [`populated_tree`], makes one of the two calls a rename (from either
/// process), and runs under every flavour. It counts the checked commuting
/// pairs by what the rename wrote, and requires a minimum of each kind so
/// the property cannot go vacuous again.
#[test]
fn commuting_renames_really_commute_on_a_populated_tree() {
    const CASES: u32 = 512;
    let mut checked: std::collections::BTreeMap<RenameWrite, usize> = Default::default();
    for &flavor in Flavor::ALL {
        let cfg = SpecConfig::standard(flavor);
        let states = arb_two_proc_state(cfg, populated_tree, TREE_PATHS);
        let (other, renames) = (arb_command(TREE_PATHS), arb_rename(TREE_PATHS));
        for case in 0..CASES {
            let mut rng = TestRng::for_case(&format!("populated_tree_{}", flavor.name()), case);
            let st = states.generate(&mut rng);
            let (cmd, ren) = (other.generate(&mut rng), renames.generate(&mut rng));
            let (renamer, (p, q)) = if any::<bool>().generate(&mut rng) {
                (INITIAL_PID, ((INITIAL_PID, &ren), (Pid(2), &cmd)))
            } else {
                (Pid(2), ((INITIAL_PID, &cmd), (Pid(2), &ren)))
            };
            if let Some(in_flight) = check_claimed_commutation(&cfg, &st, p, q) {
                if let Some(kind) = rename_write(&cfg, &in_flight, renamer, &ren) {
                    *checked.entry(kind).or_default() += 1;
                }
            }
        }
    }
    for (kind, min) in [
        (RenameWrite::FileToNewName, 100),
        (RenameWrite::FileOverFile, 50),
        (RenameWrite::DirMove, 100),
    ] {
        let got = checked.get(&kind).copied().unwrap_or(0);
        assert!(
            got >= min,
            "only {got} commuting pairs with a {kind:?} rename (want {min}): {checked:?}"
        );
    }
}
