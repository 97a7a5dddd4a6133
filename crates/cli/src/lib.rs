//! Shared plumbing for the `sibylfs` command-line tool and the experiment
//! binaries that regenerate the paper's evaluation numbers.

pub mod bench_diff;

use std::sync::Arc;
use std::time::Instant;

use sibylfs_check::{check_trace, CheckOptions, CheckedTrace, SuiteCheckStats};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::pool;
use sibylfs_exec::{ExecError, ExecOptions, Executor, SimExecutor, HOST_CONFIG_NAME};
use sibylfs_fsimpl::{configs, BehaviorProfile};
use sibylfs_report::{summarize_run_for_backend, RunSummary};
use sibylfs_script::Script;
use sibylfs_testgen::{generate_suite, SuiteOptions};

/// How many worker threads to use for checking (the paper uses four, §7.1).
pub const DEFAULT_WORKERS: usize = 4;

/// Parse the common `--full`/`--quick` suite-size flag from the argument
/// list; the default is the quick suite so experiments finish in seconds.
pub fn suite_options_from_args(args: &[String]) -> SuiteOptions {
    if args.iter().any(|a| a == "--full") {
        SuiteOptions::full()
    } else {
        SuiteOptions::quick()
    }
}

/// Generate the suite selected by the command-line arguments.
pub fn suite_from_args(args: &[String]) -> Vec<Script> {
    generate_suite(suite_options_from_args(args))
}

/// The result of executing and checking one configuration.
pub struct ConfigRun {
    /// The configuration that was tested. For the host backend this is a
    /// synthetic descriptive profile (there is no simulated behaviour model
    /// of the real kernel — that is the point).
    pub profile: BehaviorProfile,
    /// The flavour it was checked against.
    pub flavor: Flavor,
    /// Checking statistics; execution and checking share the workers, so
    /// the wall time covers both.
    pub check_stats: SuiteCheckStats,
    /// The per-trace results.
    pub checked: Vec<CheckedTrace>,
    /// The aggregated summary.
    pub summary: RunSummary,
}

/// A shareable executor, as the pool's worker threads need it.
pub type SharedExecutor = Arc<dyn Executor + Send + Sync>;

/// Resolve a `--config` name to an executor plus the flavour its platform is
/// checked against by default. `host/linux` (on Linux) resolves to the
/// real-host backend with a pool of [`DEFAULT_WORKERS`] persistent pre-jailed
/// workers; every other name is looked up in the simulated configuration
/// registry. `None` means the name is unknown here.
pub fn executor_for_config(name: &str) -> Option<(SharedExecutor, Flavor)> {
    executor_for_config_with(name, DEFAULT_WORKERS)
}

/// [`executor_for_config`] with an explicit host worker-pool size
/// (`--exec-workers`). Simulated configurations ignore the knob — the sim is
/// a pure function, so pool threads share one executor freely.
pub fn executor_for_config_with(
    name: &str,
    exec_workers: usize,
) -> Option<(SharedExecutor, Flavor)> {
    if name == HOST_CONFIG_NAME {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let host = sibylfs_exec::HostFs::pooled(exec_workers);
            return Some((Arc::new(host), Flavor::Linux));
        }
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        {
            let _ = exec_workers;
            return None;
        }
    }
    let profile = configs::by_name(name)?;
    let flavor = profile.platform;
    Some((Arc::new(SimExecutor::new(profile)) as SharedExecutor, flavor))
}

/// The descriptive pseudo-profile used to report host-backend runs.
pub fn host_profile() -> BehaviorProfile {
    BehaviorProfile::baseline(HOST_CONFIG_NAME, Flavor::Linux)
        .describe("the real host kernel via per-script chroot jails")
}

/// Execute the suite on any backend and check the traces against the given
/// flavour of the specification.
///
/// Each of `workers` pool threads executes a script and checks its trace
/// before taking the next script, so at most `workers` unchecked traces exist
/// at any time. Results keep suite order and are byte-identical to executing
/// everything, then checking everything; the error returned is the first by
/// suite order.
///
/// `ConfigRun::profile` is resolved from the executor's configuration name
/// (registry lookup, or the host pseudo-profile); callers that already hold
/// the exact profile should use [`run_config`], which threads it through
/// unchanged.
pub fn run_executor(
    exec: SharedExecutor,
    flavor: Flavor,
    suite: &[Script],
    workers: usize,
) -> Result<ConfigRun, ExecError> {
    let config_name = exec.config_name();
    let backend_name = exec.backend_name();
    let cfg = SpecConfig::standard(flavor);

    let start = Instant::now();
    let checked = pool::map(workers, suite, |script| {
        let trace = exec.execute_script(script, ExecOptions::default())?;
        Ok(check_trace(&cfg, &trace, CheckOptions::default()))
    })
    .into_iter()
    .collect::<Result<Vec<CheckedTrace>, ExecError>>()?;
    let check_stats = SuiteCheckStats::from_results(&checked, start.elapsed(), workers);

    let summary = summarize_run_for_backend(&config_name, flavor.name(), backend_name, &checked);
    let profile = configs::by_name(&config_name).unwrap_or_else(host_profile);
    Ok(ConfigRun { profile, flavor, check_stats, checked, summary })
}

/// Execute the suite on a simulated configuration and check the traces
/// against the given flavour of the specification.
pub fn run_config(
    profile: &BehaviorProfile,
    flavor: Flavor,
    suite: &[Script],
    workers: usize,
) -> ConfigRun {
    let exec = Arc::new(SimExecutor::new(profile.clone()));
    let run = run_executor(exec, flavor, suite, workers).expect("the simulation is infallible");
    ConfigRun { profile: profile.clone(), ..run }
}

/// Execute and check a configuration against the flavour of its own platform.
pub fn run_config_native(profile: &BehaviorProfile, suite: &[Script], workers: usize) -> ConfigRun {
    run_config(profile, profile.platform, suite, workers)
}

/// Look up a configuration or exit with a helpful message.
pub fn config_or_exit(name: &str) -> BehaviorProfile {
    match configs::by_name(name) {
        Some(c) => c,
        None => {
            eprintln!("unknown configuration {name:?}; available configurations:");
            for n in configs::config_names() {
                eprintln!("  {n}");
            }
            eprintln!("  {HOST_CONFIG_NAME} (real host, Linux with chroot privilege only)");
            std::process::exit(2);
        }
    }
}

/// Format a floating point number of seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.0} ms", s * 1000.0)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_flag_parsing() {
        let quick = suite_options_from_args(&["--quick".to_string()]);
        assert!(!quick.full_open_sweep);
        let full = suite_options_from_args(&["--full".to_string()]);
        assert!(full.full_open_sweep);
        let default = suite_options_from_args(&[]);
        assert!(!default.full_open_sweep);
    }

    #[test]
    fn run_config_produces_consistent_counts() {
        let mut opts = SuiteOptions::quick();
        opts.random_scripts = 0;
        let suite: Vec<Script> = generate_suite(opts).into_iter().take(50).collect();
        let profile = configs::by_name("linux/ext4").unwrap();
        let run = run_config(&profile, Flavor::Linux, &suite, 2);
        assert_eq!(run.checked.len(), 50);
        assert_eq!(run.summary.traces, 50);
        assert_eq!(run.summary.accepted + run.summary.failing, 50);
        assert_eq!(run.summary.backend, "sim");
        assert!(run.check_stats.traces_per_sec > 0.0);
    }

    #[test]
    fn run_config_threads_custom_profiles_through_unchanged() {
        // A profile not in the registry (or modified from it) must come back
        // verbatim in ConfigRun::profile, not a registry/pseudo substitute.
        let mut custom = configs::by_name("linux/ext4").unwrap();
        custom.name = "linux/ext4-patched".to_string();
        custom.supports_dir_nlink = false;
        let suite: Vec<Script> =
            generate_suite(SuiteOptions::quick()).into_iter().take(5).collect();
        let run = run_config(&custom, Flavor::Linux, &suite, 1);
        assert_eq!(run.profile, custom);
        assert_eq!(run.summary.config, "linux/ext4-patched");
    }

    #[test]
    fn executor_resolution_covers_sim_and_host_names() {
        let (exec, flavor) = executor_for_config("linux/ext4").unwrap();
        assert_eq!(exec.backend_name(), "sim");
        assert_eq!(flavor, Flavor::Linux);
        assert!(executor_for_config("plan9/fossil").is_none());
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let (exec, flavor) = executor_for_config(HOST_CONFIG_NAME).unwrap();
            assert_eq!(exec.backend_name(), "host");
            assert_eq!(exec.config_name(), HOST_CONFIG_NAME);
            assert_eq!(flavor, Flavor::Linux);
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn run_executor_labels_host_runs() {
        if !sibylfs_exec::host_backend_available() {
            eprintln!("skipping: host sandbox unavailable");
            return;
        }
        let suite: Vec<Script> =
            generate_suite(SuiteOptions::quick()).into_iter().take(10).collect();
        let (exec, flavor) = executor_for_config(HOST_CONFIG_NAME).unwrap();
        let run = run_executor(exec, flavor, &suite, 2).unwrap();
        assert_eq!(run.summary.backend, "host");
        assert_eq!(run.summary.config, HOST_CONFIG_NAME);
        assert_eq!(run.summary.traces, 10);
        assert_eq!(run.profile.name, HOST_CONFIG_NAME);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.5), "500 ms");
        assert_eq!(fmt_secs(2.0), "2.00 s");
    }
}
