//! Experiment: §7.2 "Test coverage".
//!
//! The paper measures the proportion of model clauses exercised when checking
//! a full test run and reports 98% statement coverage. The reproduction
//! instruments the model with named specification points; this binary runs
//! the suite on the reference configuration, checks it under both the Linux
//! flavour and the POSIX envelope (platform-specific clauses are only
//! exercised by the matching flavour, as the paper notes), and reports the
//! fraction of specification points hit.

use sibylfs_check::{check_trace_with_coverage, CheckOptions};
use sibylfs_cli::{suite_from_args, DEFAULT_WORKERS};
use sibylfs_core::coverage::CoverageMap;
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::pool;
use sibylfs_exec::{execute_suite, ExecOptions, SimExecutor};
use sibylfs_fsimpl::configs;
use sibylfs_report::render_coverage_markdown;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = suite_from_args(&args);
    println!("# §7.2 Test coverage of the model\n");
    println!("Suite size: {} scripts\n", suite.len());

    let mut coverage = CoverageMap::new();
    for (config, flavor) in [
        ("linux/tmpfs", Flavor::Linux),
        ("linux/tmpfs", Flavor::Posix),
        ("mac/hfsplus", Flavor::Mac),
        ("freebsd/ufs", Flavor::FreeBsd),
        ("linux/sshfs-allow-other", Flavor::Linux),
    ] {
        let profile = configs::by_name(config).expect("registered configuration");
        let sim = SimExecutor::new(profile);
        let traces = execute_suite(&sim, &suite, ExecOptions::default(), DEFAULT_WORKERS)
            .expect("the simulation is infallible");
        let cfg = SpecConfig::standard(flavor);
        let results = pool::map(DEFAULT_WORKERS, &traces, |t| {
            let (checked, cov) = check_trace_with_coverage(&cfg, t, CheckOptions::default());
            (checked.accepted, cov)
        });
        for (_, cov) in &results {
            coverage.merge(cov);
        }
        println!(
            "* checked {} against `{}`: {}/{} accepted",
            config,
            flavor.name(),
            results.iter().filter(|(accepted, _)| *accepted).count(),
            results.len()
        );
    }
    let summary = coverage.branch_summary();
    println!();
    print!("{}", render_coverage_markdown(&summary));
    println!("\nPaper reference: 98% statement coverage of the model.");
}
