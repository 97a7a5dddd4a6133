//! Benchmark: checking fxmark-style contention traces (the workload family
//! partial-order reduction exists for).
//!
//! Each family from `sibylfs_testgen::contention` is checked end to end —
//! the full Call/Tau/Return label stream through the checker. Two scales:
//!
//! * `p6` — six processes, POR only. Without reduction the τ-closure of the
//!   storm families is minutes of wall clock and gigabytes of states (the
//!   create/unlink storm reaches ~150 k states at five processes already);
//!   these benches exist to prove six-way contention *completes* under POR.
//! * `p4` — four processes, POR and no-POR side by side: the largest scale
//!   at which the unreduced closure is still bench-feasible, keeping the
//!   exponential-vs-linear gap visible in the recorded results. At this
//!   scale the unreduced create/unlink storm already exceeds the checker's
//!   4096-state bound (its verdict degrades to bounded), so `accepted` is
//!   only asserted for the POR runs.
//!
//! Every family reduces, `rename_storm` included: each process renames its
//! own file, and `rename`'s footprint names the two entries it rewrites, so
//! the six-process POR rows cover all four families. The `por` rows are
//! gated in CI's perf trend, so a footprint change that stops a family
//! reducing shows up as a regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sibylfs_check::{check_trace, CheckOptions};
use sibylfs_core::flavor::{Flavor, PorMode, SpecConfig};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};

/// Bench id like `drbh_p6` from a trace named `contention___drbh_p6_n2`.
fn family_of(name: &str) -> String {
    let tail = name.split("___").nth(1).unwrap_or(name);
    tail.rsplit_once("_n").map(|(f, _)| f.to_string()).unwrap_or_else(|| tail.to_string())
}

fn contention(c: &mut Criterion) {
    let cfg = SpecConfig::standard(Flavor::Linux);
    let cfg_no_por = cfg.with_por(PorMode::Off);

    let mut group = c.benchmark_group("check_contention");
    group.sample_size(10);

    // Six-way contention: feasible only with reduction on.
    for trace in &contention_traces(ContentionOptions::new(6, 2)) {
        group.bench_with_input(
            BenchmarkId::new(family_of(&trace.name), "por"),
            trace,
            |b, trace| {
                b.iter(|| {
                    let checked = check_trace(&cfg, trace, CheckOptions::default());
                    assert!(checked.accepted, "{} must check clean under POR", trace.name);
                    checked.max_states_tracked
                })
            },
        );
    }

    // Four-way contention: the POR on/off contrast at a scale where the
    // unreduced closure still terminates quickly enough to benchmark.
    for trace in &contention_traces(ContentionOptions::new(4, 2)) {
        for (mode, cfg) in [("por", &cfg), ("no_por", &cfg_no_por)] {
            group.bench_with_input(
                BenchmarkId::new(family_of(&trace.name), mode),
                trace,
                |b, trace| {
                    b.iter(|| {
                        let checked = check_trace(cfg, trace, CheckOptions::default());
                        if mode == "por" {
                            assert!(checked.accepted, "{} must check clean", trace.name);
                        }
                        checked.max_states_tracked
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, contention);
criterion_main!(benches);
