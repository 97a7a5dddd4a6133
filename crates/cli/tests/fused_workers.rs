//! `run_executor` executes each script and checks its trace on the same pool
//! worker. Fusing the two must be a pure performance change: the verdicts
//! equal sequential `check_trace(execute_script(..))` in suite order, the
//! error returned is the first by suite order, and a panicking executor
//! reaches the caller instead of leaving it blocked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_cli::{run_executor, SharedExecutor};
use sibylfs_core::commands::OsCommand;
use sibylfs_core::flags::FileMode;
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite, ExecError, ExecOptions, Executor, SimExecutor};
use sibylfs_fsimpl::configs;
use sibylfs_script::{Script, Trace};
use sibylfs_testgen::contention::{contention_scripts, ContentionOptions};
use sibylfs_testgen::sequences::model_gap_scripts;
use sibylfs_testgen::{generate_suite, SuiteOptions};

/// The corpus of `tests/pipeline_equivalence.rs`: quick suite, model-gap
/// scripts and contention families.
fn corpus() -> Vec<Script> {
    let mut scripts = generate_suite(SuiteOptions::quick());
    scripts.extend(model_gap_scripts().into_iter().map(|(s, _)| s));
    scripts.extend(contention_scripts(ContentionOptions::new(3, 4)));
    scripts
}

fn sim() -> SimExecutor {
    SimExecutor::new(configs::by_name("linux/tmpfs").unwrap())
}

/// `run_executor` at 1 and 4 workers renders, in order, exactly the verdicts
/// of executing then checking one script at a time on the same executor.
fn assert_fused_matches_sequential(exec: SharedExecutor, what: &str) {
    let scripts = corpus();
    let cfg = SpecConfig::standard(Flavor::Linux);
    let sequential: Vec<String> = scripts
        .iter()
        .map(|s| {
            let trace = exec.execute_script(s, ExecOptions::default()).unwrap();
            render_checked_trace(&check_trace(&cfg, &trace, CheckOptions::default()))
        })
        .collect();
    for workers in [1, 4] {
        let Ok(run) = run_executor(Arc::clone(&exec), Flavor::Linux, &scripts, workers) else {
            panic!("{what}: run_executor failed at {workers} worker(s)");
        };
        assert_eq!(run.checked.len(), sequential.len(), "{what}: verdict count differs");
        for (i, (fused, seq)) in run.checked.iter().zip(&sequential).enumerate() {
            assert_eq!(
                &render_checked_trace(fused),
                seq,
                "{what}: verdict #{i} ({}) differs at {workers} worker(s)",
                scripts[i].name
            );
        }
    }
}

#[test]
fn fused_sim_verdicts_equal_sequential_in_order() {
    assert_fused_matches_sequential(Arc::new(sim()), "sim");
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn fused_host_verdicts_equal_sequential_in_order() {
    if !sibylfs_exec::host_backend_available() {
        eprintln!("skipping: host sandbox unavailable (needs chroot privilege)");
        return;
    }
    assert_fused_matches_sequential(Arc::new(sibylfs_exec::HostFs::pooled(4)), "host/linux");
}

/// Twelve one-call scripts, named by index.
fn small_suite() -> Vec<Script> {
    (0..12)
        .map(|i| {
            let mut s = Script::new(format!("mkdir___fused_{i}"), "mkdir");
            s.call(OsCommand::Mkdir(format!("/d{i}").into(), FileMode::new(0o777)));
            s
        })
        .collect()
}

fn injected(i: usize) -> ExecError {
    ExecError::Backend { script: format!("mkdir___fused_{i}"), message: "injected".to_string() }
}

/// The simulator behind a hook that sees each [`small_suite`] script's
/// index first, and may panic or fail it.
struct Hooked<F>(SimExecutor, F);

impl<F: Fn(usize) -> Result<(), ExecError> + Send + Sync> Executor for Hooked<F> {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn config_name(&self) -> String {
        self.0.config_name()
    }

    fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        (self.1)(script.name.trim_start_matches("mkdir___fused_").parse().unwrap())?;
        self.0.execute_script(script, opts)
    }
}

#[test]
fn a_panicking_executor_panics_the_caller_promptly() {
    let scripts = small_suite();
    let exec: SharedExecutor = Arc::new(Hooked(sim(), |i| {
        if i == 5 {
            panic!("executor bug on script {i}");
        }
        Ok(())
    }));
    // A channel with a deadline, so a blocked caller fails the test
    // instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let run = || run_executor(exec, Flavor::Linux, &scripts, 4);
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let _ = tx.send(outcome.err().and_then(|p| p.downcast_ref::<String>().cloned()));
    });
    let message = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run_executor must panic or return within seconds, not block");
    caller.join().unwrap();
    assert_eq!(message.as_deref(), Some("executor bug on script 5"));
}

/// Scripts 3 and 7 fail, and script 3 waits until script 7 has failed, so
/// the later script fails first on the wall clock. Returns the executor and
/// the order the failures happened in.
fn fails_3_and_7() -> (SharedExecutor, Arc<Mutex<Vec<usize>>>) {
    let failures = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&failures);
    let exec = Hooked(sim(), move |i| {
        let started = Instant::now();
        while i == 3
            && !log.lock().unwrap().contains(&7)
            && started.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        if i == 3 || i == 7 {
            log.lock().unwrap().push(i);
            return Err(injected(i));
        }
        Ok(())
    });
    (Arc::new(exec), failures)
}

#[test]
fn the_first_error_by_suite_order_wins_over_the_first_on_the_clock() {
    let scripts = small_suite();

    let (exec, failures) = fails_3_and_7();
    let Err(e) = run_executor(exec, Flavor::Linux, &scripts, 4) else {
        panic!("run_executor must fail");
    };
    assert_eq!(*failures.lock().unwrap(), [7, 3], "script 7 fails first");
    assert_eq!(e, injected(3));

    let (exec, failures) = fails_3_and_7();
    let res = execute_suite(&*exec, &scripts, ExecOptions::default(), 4);
    assert_eq!(*failures.lock().unwrap(), [7, 3], "script 7 fails first");
    assert_eq!(res.err(), Some(injected(3)));
}
