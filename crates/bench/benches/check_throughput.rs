//! Benchmark: trace-checking throughput (§7.1).
//!
//! The paper checks the 21 070-trace suite in ~79 s with four workers
//! (≈266 traces/s). This benchmark measures the reproduction's checking rate
//! on a fixed 400-trace slice of the suite, single-threaded and with four
//! workers, each worker in one resuming `Checker` session. The `fresh` row
//! checks the same slice on one thread with a fresh `check_trace` per trace
//! and no session, the path serve and explore take.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sibylfs_bench::{bench_spec, bench_traces};
use sibylfs_check::{check_trace, check_traces_parallel, CheckOptions};

fn check_throughput(c: &mut Criterion) {
    let traces = bench_traces();
    let cfg = bench_spec();
    let mut group = c.benchmark_group("check_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces.len() as u64));
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| {
                let (checked, _) =
                    check_traces_parallel(&cfg, &traces, CheckOptions::default(), w);
                checked.len()
            })
        });
    }
    group.bench_with_input(BenchmarkId::new("fresh", 1), &traces, |b, traces| {
        b.iter(|| {
            traces.iter().filter(|t| check_trace(&cfg, t, CheckOptions::default()).accepted).count()
        })
    });
    group.finish();
}

criterion_group!(benches, check_throughput);
criterion_main!(benches);
