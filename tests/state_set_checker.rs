//! Differential and regression tests for the fingerprint-deduped `StateSet`
//! checker.
//!
//! The checker rewrite replaced `Vec`-with-structural-`contains` state sets
//! by fingerprint-indexed dedup and copy-on-write state sharing. These tests
//! pin the refactor down:
//!
//! * a differential property test drives randomly generated scripts through
//!   the execute→check pipeline and compares the production checker, step by
//!   step, against the reference implementation in `common`, which still
//!   uses the naive `Vec` representation;
//! * a multi-process regression test asserts tracked state sets actually grow
//!   past one while calls are in flight and collapse again once returns
//!   resolve the nondeterminism — guarding the fingerprint dedup against both
//!   over-merging (distinct states conflated) and under-merging (duplicate
//!   states retained).

mod common;

use common::ref_check_trace;
use sibylfs_check::{check_trace, CheckOptions, StepKind, StepVerdict};
use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue};
use sibylfs_core::flags::FileMode;
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::types::{Gid, Pid, Uid, INITIAL_PID};
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::Trace;
use sibylfs_testgen::random::random_scripts;
use sibylfs_testgen::RandomOptions;

/// Differential property: on randomly generated scripts executed against both
/// a conformant and a deliberately deviant file-system profile, the StateSet
/// checker and the reference checker agree on every verdict, every deviation,
/// every per-step set size, and `max_states_tracked`.
#[test]
fn state_set_checker_matches_reference_on_random_scripts() {
    let scripts = random_scripts(RandomOptions { seed: 0xD1FF, scripts: 30, calls_per_script: 25 });
    let mut compared = 0usize;
    for (profile_name, flavor) in
        [("linux/ext4", Flavor::Linux), ("linux/sshfs-tmpfs", Flavor::Linux), ("linux/ext4", Flavor::Posix)]
    {
        let profile = configs::by_name(profile_name).unwrap();
        let cfg = SpecConfig::standard(flavor);
        for script in &scripts {
            let trace = execute_script(&profile, script, ExecOptions::default());
            let got = check_trace(&cfg, &trace, CheckOptions::default());
            let want = ref_check_trace(&cfg, &trace, CheckOptions::default());

            let ctx = format!("{profile_name}/{flavor:?}/{}", script.name);
            assert_eq!(got.accepted, want.accepted, "{ctx}: acceptance differs");
            assert_eq!(
                got.max_states_tracked, want.max_states_tracked,
                "{ctx}: max_states_tracked differs"
            );
            // No synthetic (Internal) steps are expected at the default bound.
            let real_steps: Vec<_> =
                got.steps.iter().filter(|s| s.kind != StepKind::Internal).collect();
            assert_eq!(real_steps.len(), want.verdicts.len(), "{ctx}: step count differs");
            for (i, (step, want_verdict)) in
                real_steps.iter().zip(want.verdicts.iter()).enumerate()
            {
                assert_eq!(&step.verdict, want_verdict, "{ctx}: verdict differs at step {i}");
                assert_eq!(
                    step.states_tracked, want.set_sizes[i],
                    "{ctx}: tracked set size differs at step {i}"
                );
            }
            assert_eq!(got.deviations.len(), want.deviations.len(), "{ctx}: deviation count");
            for (d, (lineno, observed, allowed)) in
                got.deviations.iter().zip(want.deviations.iter())
            {
                assert_eq!(d.lineno, *lineno, "{ctx}: deviation lineno");
                assert_eq!(&d.observed, observed, "{ctx}: deviation observed");
                assert_eq!(&d.allowed, allowed, "{ctx}: deviation allowed");
            }
            compared += 1;
        }
    }
    assert_eq!(compared, 90, "every script/profile pair was compared");
}

/// Multi-process nondeterminism regression: while several calls are in
/// flight the tracked set must grow past one (under-approximating here would
/// mean over-merging: distinct interleavings conflated by a bad fingerprint),
/// and once every return has resolved the nondeterminism the set must
/// collapse back to exactly one state (failing to collapse would mean
/// under-merging: structurally equal states kept as duplicates; the two
/// mutations reach one equal state in either order).
#[test]
fn multi_process_state_sets_grow_and_collapse() {
    let mut t = Trace::new("multiproc", "concurrency");
    t.push_label(OsLabel::Create(Pid(2), Uid(0), Gid(0)));
    t.push_label(OsLabel::Create(Pid(3), Uid(0), Gid(0)));
    // Three calls in flight before any return, two of them mutations.
    t.push_label(OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))));
    t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
    t.push_label(OsLabel::Call(Pid(3), OsCommand::Stat("/a".into())));
    // Returns resolve in an order different from the calls.
    t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));
    t.push_label(OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None)));
    // p3's stat raced with p1's mkdir of the same path: both outcomes are in
    // the tracked set until its return picks one (here: the stat was
    // processed before the mkdir took effect).
    t.push_label(OsLabel::Return(Pid(3), ErrorOrValue::Error(sibylfs_core::errno::Errno::ENOENT)));

    let cfg = SpecConfig::standard(Flavor::Linux);
    let checked = check_trace(&cfg, &t, CheckOptions::default());
    assert!(checked.accepted, "{cfg}: trace should conform: {:?}", checked.deviations);
    let sizes: Vec<usize> = checked.steps.iter().map(|s| s.states_tracked).collect();

    // The set grew past one while returns were being matched against
    // states with calls still in flight.
    assert!(
        checked.max_states_tracked > 1,
        "{cfg}: expected residual nondeterminism, got max_states_tracked = {}",
        checked.max_states_tracked
    );
    assert!(sizes.iter().any(|&n| n > 1), "{cfg}: no step tracked more than one state");

    // After the final return every branch has converged: exactly one state.
    let last = checked.steps.last().unwrap();
    assert_eq!(last.kind, StepKind::Return);
    assert!(matches!(last.verdict, StepVerdict::Ok));
    assert_eq!(
        last.states_tracked, 1,
        "{cfg}: state set failed to collapse after all returns resolved: {sizes:?}"
    );
}
