//! Benchmark: pooled execution vs the sequential baselines.
//!
//! Two families of rows, both reported as scripts/sec over the bench suite:
//!
//! * `sim/*` — the in-process `SimExecutor`. `sim/sequential` is a plain
//!   loop over `Executor::execute_script`; `sim/pipelined/{1,2,4,8}` drive
//!   the same suite through `execute_suite` (a `sibylfs_core::pool::map`) at
//!   each worker count. Sim execution is pure compute, so the pooled rows only
//!   pull ahead of sequential when the machine has more than one core — on a
//!   single-core runner they measure the pool's thread start-up instead (it
//!   should be small).
//! * `host/*` — the chroot-jailed real-kernel backend (skipped with a note
//!   when the sandbox is unavailable; run as root). `host/cold_fork` is the
//!   no-reuse baseline: a fresh single-worker pool per script, so every
//!   script pays one fork + chroot + sandbox build/teardown.
//!   `host/pooled/{1,2,4,8}` execute on persistent pre-jailed workers that
//!   reset the jail between scripts, so the win is the eliminated per-script
//!   setup — it shows up even on one core.
//!
//! Host rows run a reduced prefix of the suite: eleven timed loops of 400
//! forks would dominate bench wall clock without changing the ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sibylfs_bench::{bench_profile, bench_suite};
use sibylfs_exec::{execute_suite, ExecOptions, Executor, SimExecutor};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
use sibylfs_exec::HostFs;

/// Worker counts for the pipelined rows (the issue's 1/2/4/8 sweep).
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Scripts per host row — see module docs.
const HOST_SUITE_LEN: usize = 96;

fn exec_pipeline(c: &mut Criterion) {
    let suite = bench_suite();
    let mut group = c.benchmark_group("exec_pipeline");
    group.sample_size(10);

    group.throughput(Throughput::Elements(suite.len() as u64));
    let sim = SimExecutor::new(bench_profile());
    group.bench_function("sim/sequential", |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|s| sim.execute_script(s, ExecOptions::default()).unwrap())
                .collect::<Vec<_>>()
                .len()
        })
    });
    for &w in WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("sim/pipelined", w), &w, |b, &w| {
            b.iter(|| execute_suite(&sim, &suite, ExecOptions::default(), w).unwrap().len())
        });
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    host_rows(&mut group, &suite);

    group.finish();
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn host_rows(group: &mut criterion::BenchmarkGroup<'_>, suite: &[sibylfs_script::Script]) {
    if !HostFs::available() {
        eprintln!("exec_pipeline: host rows skipped (sandbox unavailable; run as root)");
        return;
    }
    let host_suite = &suite[..suite.len().min(HOST_SUITE_LEN)];
    group.throughput(Throughput::Elements(host_suite.len() as u64));

    group.bench_function("host/cold_fork", |b| {
        b.iter(|| {
            for s in host_suite {
                HostFs::pooled(1).execute_script(s, ExecOptions::default()).unwrap();
            }
            host_suite.len()
        })
    });

    for &w in WORKER_COUNTS {
        // One pool per row, shared across iterations: the workers stay jailed
        // for the whole row, which is exactly the production reuse pattern.
        let host = HostFs::pooled(w);
        group.bench_with_input(BenchmarkId::new("host/pooled", w), &w, |b, &w| {
            b.iter(|| execute_suite(&host, host_suite, ExecOptions::default(), w).unwrap().len())
        });
    }
}

criterion_group!(benches, exec_pipeline);
criterion_main!(benches);
