//! Shared fixtures for the Criterion benchmarks that reproduce the paper's
//! performance evaluation (§7.1) and probe checker internals.

use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite, ExecOptions, SimExecutor};
use sibylfs_fsimpl::{configs, BehaviorProfile};
use sibylfs_script::{Script, Trace};
use sibylfs_testgen::{generate_suite, SuiteOptions};

/// The number of scripts used by the throughput benchmarks (kept moderate so
/// a full `cargo bench` run finishes in minutes).
pub const BENCH_SUITE_SIZE: usize = 400;

/// A deterministic benchmark suite: the first `BENCH_SUITE_SIZE` scripts of
/// the quick suite.
pub fn bench_suite() -> Vec<Script> {
    generate_suite(SuiteOptions::quick()).into_iter().take(BENCH_SUITE_SIZE).collect()
}

/// The reference configuration used by the benchmarks (tmpfs on Linux, the
/// paper's execution baseline).
pub fn bench_profile() -> BehaviorProfile {
    configs::by_name("linux/tmpfs").expect("registered configuration")
}

/// The model configuration used by the benchmarks.
pub fn bench_spec() -> SpecConfig {
    SpecConfig::standard(Flavor::Linux)
}

/// Traces of the benchmark suite executed on the reference configuration.
pub fn bench_traces() -> Vec<Trace> {
    let sim = SimExecutor::new(bench_profile());
    execute_suite(&sim, &bench_suite(), ExecOptions::default(), 1)
        .expect("the simulation is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nonempty_and_deterministic() {
        let a = bench_suite();
        let b = bench_suite();
        assert_eq!(a.len(), BENCH_SUITE_SIZE);
        assert_eq!(a, b);
        let traces = bench_traces();
        assert_eq!(traces.len(), BENCH_SUITE_SIZE);
    }
}
