//! Benchmark: checking fxmark-style contention traces (the workload family
//! partial-order reduction exists for).
//!
//! Each family from `sibylfs_testgen::contention` is checked end to end —
//! the full Call/Tau/Return label stream through the checker — at six and at
//! four processes. Interleaving orders of commuting calls reach equal
//! states, so the checker tracks few states and decides every family; the
//! sleep sets save the dispatches of the orders a sibling already covered.
//!
//! Every family reduces, `rename_storm` included: each process renames its
//! own file, and `rename`'s footprint names the two entries it rewrites. The
//! rows (`check_contention/<family>/por`, ids kept from when an unreduced
//! mode ran beside them) are gated in CI's perf trend, so a footprint change
//! that stops a family reducing shows up as a regression.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sibylfs_check::{check_trace, CheckOptions};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};

/// Bench id like `drbh_p6` from a trace named `contention___drbh_p6_n2`.
fn family_of(name: &str) -> String {
    let tail = name.split("___").nth(1).unwrap_or(name);
    tail.rsplit_once("_n").map(|(f, _)| f.to_string()).unwrap_or_else(|| tail.to_string())
}

fn contention(c: &mut Criterion) {
    let cfg = SpecConfig::standard(Flavor::Linux);

    let mut group = c.benchmark_group("check_contention");
    group.sample_size(10);
    for opts in [ContentionOptions::new(6, 2), ContentionOptions::new(4, 2)] {
        for trace in &contention_traces(opts) {
            group.bench_with_input(
                BenchmarkId::new(family_of(&trace.name), "por"),
                trace,
                |b, trace| {
                    b.iter(|| {
                        let checked = check_trace(&cfg, trace, CheckOptions::default());
                        assert!(checked.accepted, "{} must check clean", trace.name);
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
