//! Benchmark: checker internals — the cost of the building blocks whose
//! design §3 and §5 discuss (path resolution, per-command dispatch, the
//! τ-closure used for concurrent calls, and readdir's must/may machinery).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sibylfs_core::commands::{OsCommand, OsLabel};
use sibylfs_core::flags::FileMode;
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::fs_ops::dispatch;
use sibylfs_core::os::state_set::StateSet;
use sibylfs_core::os::trans::{expand_calls, os_trans, tau_closure};
use sibylfs_core::os::OsState;
use sibylfs_core::path::{resolve, FollowLast, ResolveCtx};
use sibylfs_core::types::{Gid, Pid, Uid, INITIAL_PID};

/// A model state with a moderately deep directory tree and some symlinks.
fn populated_state(cfg: &SpecConfig) -> OsState {
    let mut st = OsState::initial_with_process(cfg, INITIAL_PID);
    let mut labels = Vec::new();
    for d in 0..10 {
        labels.push(OsCommand::Mkdir(format!("/d{d}").into(), FileMode::new(0o755)));
        for s in 0..5 {
            labels.push(OsCommand::Mkdir(format!("/d{d}/s{s}").into(), FileMode::new(0o755)));
        }
    }
    labels.push(OsCommand::Symlink("/d0/s0".into(), "/link".into()));
    for cmd in labels {
        let st1 = os_trans(cfg, &st, &OsLabel::Call(INITIAL_PID, cmd)).remove(0);
        let outs = sibylfs_core::os::trans::expand_calls(cfg, &st1);
        // Take the success branch (the last state produced).
        let pending = outs.into_iter().last().expect("at least one outcome");
        let (value, next) =
            sibylfs_core::os::trans::default_completion(&pending, INITIAL_PID).expect("completion");
        let _ = value;
        st = next;
    }
    st
}

fn checker_internals(c: &mut Criterion) {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let st = populated_state(&cfg);

    c.bench_function("path_resolution_deep", |b| {
        let ctx = ResolveCtx::new(&st.heap, st.heap.root(), None);
        b.iter(|| resolve(&ctx, "/d9/s4/../../d0/s0/missing", FollowLast::Follow))
    });

    c.bench_function("dispatch_rename_checks", |b| {
        let cmd = OsCommand::Rename("/d0".into(), "/d1".into());
        b.iter(|| dispatch(&cfg, &st, INITIAL_PID, &cmd).errors.len())
    });

    // N processes with commuting calls in flight: the classic branching
    // workload. Each process mkdirs a distinct fresh path, so every pair of
    // in-flight calls commutes and partial-order reduction dispatches them
    // in a single representative interleaving.
    let in_flight = |n: u32| {
        let mut stn = st.clone();
        for pid in 2..=n {
            let next = os_trans(&cfg, &stn, &OsLabel::Create(Pid(pid), Uid(0), Gid(0)));
            stn = next.into_iter().next().expect("created");
        }
        for pid in 1..=n {
            let path = format!("/bench_p{pid}");
            let next = os_trans(
                &cfg,
                &stn,
                &OsLabel::Call(Pid(pid), OsCommand::Mkdir(path.into(), FileMode::new(0o777))),
            );
            stn = next.into_iter().next().expect("call accepted");
        }
        stn
    };
    let st3 = in_flight(3);
    let st6 = in_flight(6);

    c.bench_function("tau_closure_three_processes", |b| {
        b.iter(|| tau_closure(&cfg, std::slice::from_ref(&st3)).len())
    });

    // Six commuting calls in flight: 2^6 subset states.
    c.bench_function("tau_closure_six_processes", |b| {
        b.iter(|| tau_closure(&cfg, std::slice::from_ref(&st6)).len())
    });

    // The cost of branching: with copy-on-write state sharing a clone is a
    // handful of reference-count bumps plus the small fid/proc tables, no
    // matter how much file content the heap carries.
    c.bench_function("state_clone_branching", |b| {
        b.iter(|| black_box(st.clone()))
    });

    // Fingerprint computation on a fresh (uncached) state: the one full walk
    // a state pays before all further dedup probes become O(1).
    c.bench_function("state_fingerprint_uncached", |b| {
        b.iter(|| st.clone().fingerprint())
    });

    // Dedup on insert: a τ-expansion's worth of duplicate and distinct states
    // pushed through a StateSet, the checker's per-step inner loop.
    c.bench_function("state_set_dedup_insert", |b| {
        let branches = expand_calls(&cfg, &st3);
        b.iter(|| {
            let mut set = StateSet::new();
            // Two rounds of the same states: the second round is all dedup
            // hits, as in a τ-closure revisiting its frontier.
            for _ in 0..2 {
                for s in &branches {
                    set.insert(s.clone());
                }
            }
            set.len()
        })
    });
}

criterion_group!(benches, checker_internals);
criterion_main!(benches);
