//! Parallel checking of whole trace sets.
//!
//! Traces are independent of one another, so the suite can be partitioned
//! across worker threads for linear speedup — the property the paper exploits
//! to check 20 000 traces in about a minute on a four-core machine (§3, §7.1).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use sibylfs_core::flavor::SpecConfig;
use sibylfs_core::pool;
use sibylfs_script::Trace;

use crate::checker::{check_trace, CheckOptions, CheckedTrace};

/// Aggregate statistics for a suite-checking run (reported by §7.1/§7.2
/// experiments).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SuiteCheckStats {
    /// Number of traces checked.
    pub traces: usize,
    /// Number of traces accepted by the model.
    pub accepted: usize,
    /// Total number of deviations across all traces.
    pub deviations: usize,
    /// Wall-clock time spent checking, in seconds.
    pub elapsed_secs: f64,
    /// Checking throughput in traces per second.
    pub traces_per_sec: f64,
    /// Number of worker threads used.
    pub workers: usize,
}

impl SuiteCheckStats {
    /// Aggregate a result set checked over `elapsed` wall-clock time. Public
    /// so callers that check as part of a larger job (executing and checking
    /// each script on one worker) can report the same statistics.
    pub fn from_results(
        results: &[CheckedTrace],
        elapsed: Duration,
        workers: usize,
    ) -> SuiteCheckStats {
        let traces = results.len();
        let accepted = results.iter().filter(|r| r.accepted).count();
        let deviations = results.iter().map(|r| r.deviations.len()).sum();
        let elapsed_secs = elapsed.as_secs_f64();
        SuiteCheckStats {
            traces,
            accepted,
            deviations,
            elapsed_secs,
            traces_per_sec: if elapsed_secs > 0.0 { traces as f64 / elapsed_secs } else { 0.0 },
            workers,
        }
    }
}

/// Check a set of traces using `workers` threads, preserving input order.
/// Workers take the next unchecked trace as they come free, so a few long
/// traces amid thousands of short ones never leave a worker idle.
pub fn check_traces_parallel(
    cfg: &SpecConfig,
    traces: &[Trace],
    opts: CheckOptions,
    workers: usize,
) -> (Vec<CheckedTrace>, SuiteCheckStats) {
    let workers = workers.max(1);
    let start = Instant::now();
    let results = pool::map(workers, traces, |t| check_trace(cfg, t, opts));
    let stats = SuiteCheckStats::from_results(&results, start.elapsed(), workers);
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::errno::Errno;
    use sibylfs_core::flags::FileMode;
    use sibylfs_core::flavor::Flavor;
    use sibylfs_core::types::INITIAL_PID;

    fn make_trace(i: usize, bad: bool) -> Trace {
        let mut t = Trace::new(format!("trace_{i}"), "mkdir");
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir(format!("/d{i}").into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        if bad {
            t.push_call_return(
                INITIAL_PID,
                OsCommand::Rmdir(format!("/d{i}").into()),
                ErrorOrValue::Error(Errno::EPERM),
            );
        }
        t
    }

    #[test]
    fn parallel_results_match_sequential_and_preserve_order() {
        let cfg = SpecConfig::standard(Flavor::Linux);
        let traces: Vec<Trace> = (0..40).map(|i| make_trace(i, i % 5 == 0)).collect();
        let (seq, _) = check_traces_parallel(&cfg, &traces, CheckOptions::default(), 1);
        let (par, stats) = check_traces_parallel(&cfg, &traces, CheckOptions::default(), 4);
        assert_eq!(seq, par);
        assert_eq!(stats.traces, 40);
        assert_eq!(stats.accepted, 32);
        assert_eq!(stats.deviations, 8);
        assert_eq!(stats.workers, 4);
        assert!(stats.traces_per_sec > 0.0);
        for (i, r) in par.iter().enumerate() {
            assert_eq!(r.name, format!("trace_{i}"));
        }
    }

    #[test]
    fn empty_suite_is_fine() {
        let cfg = SpecConfig::standard(Flavor::Posix);
        let (results, stats) = check_traces_parallel(&cfg, &[], CheckOptions::default(), 8);
        assert!(results.is_empty());
        assert_eq!(stats.traces, 0);
        assert_eq!(stats.accepted, 0);
    }
}
