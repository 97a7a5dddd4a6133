//! Benchmark: test-suite execution throughput (§7.1).
//!
//! The paper reports suite execution on tmpfs taking 152 s versus 79 s for
//! checking — i.e. the oracle is not the bottleneck. This benchmark measures
//! the execution rate of the simulated configuration so the exec-vs-check
//! comparison of `exp_performance` can be related to wall-clock numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use sibylfs_bench::{bench_profile, bench_suite};
use sibylfs_exec::{execute_suite, ExecOptions, SimExecutor};

fn exec_throughput(c: &mut Criterion) {
    let suite = bench_suite();
    let sim = SimExecutor::new(bench_profile());
    let mut group = c.benchmark_group("exec_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(suite.len() as u64));
    group.bench_function("execute_suite", |b| {
        b.iter(|| execute_suite(&sim, &suite, ExecOptions::default(), 1).unwrap().len())
    });
    group.finish();
}

criterion_group!(benches, exec_throughput);
criterion_main!(benches);
