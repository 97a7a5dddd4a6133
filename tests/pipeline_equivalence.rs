//! Pooled execution must be a pure performance change: for every backend,
//! the traces (and therefore the verdicts) coming out of
//! `execute_suite_pipelined`'s worker threads — and, on the host, out of the
//! persistent pre-jailed worker pool — must be byte-identical to the plain
//! sequential `execute_suite_on` path, in the same order.
//!
//! The corpus deliberately mixes the three script populations with different
//! stress profiles: the combinatorial quick suite (breadth), the model-gap
//! scripts (known-hard single traces), and the contention families
//! (multi-process interleavings, where any cross-script state leak or
//! reordering would be loudest).

use std::sync::Arc;

use sibylfs::check::{check_trace, CheckOptions, CheckedTrace};
use sibylfs::exec::{execute_suite_on, execute_suite_pipelined, ExecOptions, SimExecutor};
use sibylfs::fsimpl::configs;
use sibylfs::model::flavor::{Flavor, SpecConfig};
use sibylfs::script::{render_trace, Script, Trace};
use sibylfs::testgen::contention::{contention_scripts, ContentionOptions};
use sibylfs::testgen::sequences::model_gap_scripts;
use sibylfs::testgen::{generate_suite, SuiteOptions};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
use sibylfs::exec::HostFs;

/// Quick suite + model-gap scripts + contention families.
fn corpus() -> Vec<Script> {
    let mut scripts = generate_suite(SuiteOptions::quick());
    scripts.extend(model_gap_scripts().into_iter().map(|(s, _)| s));
    scripts.extend(contention_scripts(ContentionOptions::new(3, 4)));
    scripts
}

fn check_all(traces: &[Trace], cfg: &SpecConfig) -> Vec<CheckedTrace> {
    traces.iter().map(|t| check_trace(cfg, t, CheckOptions::default())).collect()
}

/// Byte-level comparison with a readable first-difference diagnostic.
fn assert_traces_identical(sequential: &[Trace], pipelined: &[Trace], what: &str) {
    assert_eq!(sequential.len(), pipelined.len(), "{what}: trace count differs");
    for (i, (s, p)) in sequential.iter().zip(pipelined).enumerate() {
        let (s_text, p_text) = (render_trace(s), render_trace(p));
        assert_eq!(
            s_text, p_text,
            "{what}: trace #{i} ({}) differs between sequential and pipelined execution",
            s.name
        );
    }
}

#[test]
fn sim_pipeline_is_byte_identical_to_sequential() {
    let scripts = corpus();
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let opts = ExecOptions::default();

    let sim = SimExecutor::new(profile.clone());
    let sequential = execute_suite_on(&sim, &scripts, opts).unwrap();
    for workers in [1, 4] {
        let exec = Arc::new(SimExecutor::new(profile.clone()));
        let pipelined = execute_suite_pipelined(exec, &scripts, opts, workers).unwrap();
        assert_traces_identical(&sequential, &pipelined, &format!("sim, {workers} worker(s)"));

        let cfg = SpecConfig::standard(Flavor::Linux);
        assert_eq!(
            check_all(&sequential, &cfg),
            check_all(&pipelined, &cfg),
            "sim verdicts differ at {workers} worker(s)"
        );
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn host_pool_pipeline_is_byte_identical_to_cold_forks() {
    if !HostFs::available() {
        eprintln!("skipping: host sandbox unavailable (needs chroot privilege)");
        return;
    }
    let scripts = corpus();
    let opts = ExecOptions::default();

    // The reference: sequential execution, one cold fork + fresh jail per
    // script — the semantics the pool must reproduce exactly.
    let sequential = execute_suite_on(&HostFs::new(), &scripts, opts).unwrap();
    for workers in [1, 4] {
        let pooled = Arc::new(HostFs::pooled(workers));
        let pipelined = execute_suite_pipelined(pooled, &scripts, opts, workers).unwrap();
        assert_traces_identical(&sequential, &pipelined, &format!("host, {workers} worker(s)"));

        let cfg = SpecConfig::standard(Flavor::Linux);
        assert_eq!(
            check_all(&sequential, &cfg),
            check_all(&pipelined, &cfg),
            "host verdicts differ at {workers} worker(s)"
        );
    }
}
