//! # SibylFS test executor
//!
//! Runs test scripts against a file system under test and records the
//! resulting traces (the "Test executor" box of Fig. 1).
//!
//! The crate provides two trace producers behind the [`Executor`] trait:
//!
//! * [`SimExecutor`] — the in-process deterministic simulation
//!   ([`SimOs`](sibylfs_fsimpl::SimOs)) parameterised by a
//!   [`BehaviorProfile`]. Every script execution starts from a fresh
//!   simulated kernel with an empty root; the initial process runs as root
//!   (or as an unprivileged user when requested), and additional processes
//!   are created with whatever credentials the script declares.
//! * [`HostFs`] (`target_os = "linux"` only) — the real-host backend: each
//!   script runs on one of a pool of forked worker processes, each
//!   chroot-jailed in its own temporary directory that it empties between
//!   scripts, issuing genuine libc syscalls, as the paper's test executor
//!   does (§6.2). See the [`host`] module.
//!
//! Both backends record the same [`Trace`] structure through one loop, so
//! the checker and the reporting pipeline are oblivious to where a trace
//! came from — which is what lets `tests/host_differential.rs` compare the
//! simulation against the real kernel with the model as the oracle.

use std::fmt;

use sibylfs_core::commands::OsLabel;
use sibylfs_core::obs;
use sibylfs_core::pool;
use sibylfs_core::types::{Gid, Uid, INITIAL_PID};
use sibylfs_fsimpl::{BehaviorProfile, SimOs, World};
use sibylfs_script::{Script, ScriptStep, Trace};

// The host backend's inline libc bindings assume the 64-bit Linux ABI
// (64-bit `off_t`, the 64-bit `struct dirent` layout), so it is compiled
// only for 64-bit Linux targets; everywhere else the backend is absent and
// [`host_backend_available`] is `false`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub mod host;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub use host::HostFs;

/// The configuration name under which the host backend appears in the CLI
/// (`sibylfs run --config host/linux`) and in survey reports.
pub const HOST_CONFIG_NAME: &str = "host/linux";

/// Whether the real-host backend can run here (Linux, with enough privilege
/// to build a chroot jail). Always `false` on non-Linux targets.
pub fn host_backend_available() -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        host::sandbox_available()
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        false
    }
}

/// Options controlling script execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Whether the initial process runs as root (the paper's default; worker
    /// processes for permission tests are created explicitly by scripts).
    pub root_user: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { root_user: true }
    }
}

/// Why an executor failed to produce a trace.
///
/// The simulation is infallible; the host backend can fail to set up its
/// sandbox (insufficient privilege) or to ferry the trace back from the
/// worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The backend cannot run at all in this environment (e.g. the host
    /// backend without the privilege to chroot). Callers should skip, not
    /// fail.
    SandboxUnavailable(String),
    /// Executing one script went wrong (worker died, trace unparseable, …).
    Backend {
        /// The script being executed.
        script: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::SandboxUnavailable(why) => {
                write!(f, "host sandbox unavailable: {why}")
            }
            ExecError::Backend { script, message } => {
                write!(f, "executing {script:?} failed: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A trace producer: anything that can run a test script from a fresh,
/// empty file-system state and record the libc-level call/return trace.
///
/// The checker only ever sees the produced [`Trace`], so implementations are
/// interchangeable — the substitution argument of the `fsimpl` crate, now
/// validated differentially by `tests/host_differential.rs`.
pub trait Executor {
    /// Short backend label used by reports: `"sim"` or `"host"`.
    fn backend_name(&self) -> &'static str;

    /// The configuration name this executor tests (e.g. `"linux/ext4"` or
    /// [`HOST_CONFIG_NAME`]).
    fn config_name(&self) -> String;

    /// Execute a single script from a fresh initial state.
    fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError>;
}

/// The simulation-backed executor (the seed's original behaviour).
#[derive(Debug, Clone)]
pub struct SimExecutor {
    /// The behaviour profile the simulated kernel runs with.
    pub profile: BehaviorProfile,
}

impl SimExecutor {
    /// Create an executor for the given configuration.
    pub fn new(profile: BehaviorProfile) -> SimExecutor {
        SimExecutor { profile }
    }
}

impl Executor for SimExecutor {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn config_name(&self) -> String {
        self.profile.name.clone()
    }

    fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        Ok(execute_script(&self.profile, script, opts))
    }
}

/// Run `script` on `world` from a fresh initial process; record its trace.
fn record(world: &mut impl World, script: &Script, opts: ExecOptions) -> Trace {
    let (uid, gid) = if opts.root_user { (Uid(0), Gid(0)) } else { (Uid(1000), Gid(1000)) };
    world.create_process(INITIAL_PID, uid, gid);

    let mut trace = Trace::new(script.name.clone(), script.group.clone());
    for step in &script.steps {
        match step {
            ScriptStep::Call { pid, cmd } => {
                let ret = world.call(*pid, cmd);
                trace.push_call_return(*pid, cmd.clone(), ret);
            }
            ScriptStep::CreateProcess { pid, uid, gid } => {
                world.create_process(*pid, *uid, *gid);
                trace.push_label(OsLabel::Create(*pid, *uid, *gid));
            }
            ScriptStep::DestroyProcess { pid } => {
                world.destroy_process(*pid);
                trace.push_label(OsLabel::Destroy(*pid));
            }
        }
    }
    trace
}

/// Execute a single script against a fresh instance of the given simulated
/// configuration, producing the observed trace.
pub fn execute_script(profile: &BehaviorProfile, script: &Script, opts: ExecOptions) -> Trace {
    let _span = obs::span("exec", "execute_script");
    let started = std::time::Instant::now();
    let trace = record(&mut SimOs::new(profile.clone()), script, opts);
    obs::m::EXEC_SCRIPTS_TOTAL.inc();
    obs::m::EXEC_SCRIPT_NS.record_duration(started.elapsed());
    trace
}

/// Execute a whole suite on `workers` pool threads
/// ([`sibylfs_core::pool::map`]), returning traces in input order.
///
/// Each script runs against its own fresh file system, mirroring the paper's
/// per-script chroot jails (which the host backend realises literally), so
/// the traces are byte-identical to a sequential loop over
/// [`Executor::execute_script`]. The error returned is the first failing
/// script's by input order, so the choice is deterministic even though later
/// scripts may already have executed.
pub fn execute_suite(
    exec: &(dyn Executor + Sync),
    scripts: &[Script],
    opts: ExecOptions,
    workers: usize,
) -> Result<Vec<Trace>, ExecError> {
    pool::map(workers, scripts, |s| exec.execute_script(s, opts)).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::errno::Errno;
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::types::Pid;
    use sibylfs_fsimpl::configs;

    fn paper_rename_script() -> Script {
        let mut s = Script::new("rename___rename_emptydir___nonemptydir", "rename");
        s.call(OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777)))
            .call(OsCommand::Mkdir("nonemptydir".into(), FileMode::new(0o777)))
            .call(OsCommand::Open(
                "nonemptydir/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o666)),
            ))
            .call(OsCommand::Rename("emptydir".into(), "nonemptydir".into()));
        s
    }

    #[test]
    fn executes_the_paper_example_on_ext4() {
        let profile = configs::by_name("linux/ext4").unwrap();
        let trace = execute_script(&profile, &paper_rename_script(), ExecOptions::default());
        assert_eq!(trace.call_count(), 4);
        // ext4 reports ENOTEMPTY (allowed); the final return is an error.
        let last = trace.steps.last().unwrap();
        match &last.label {
            OsLabel::Return(_, ErrorOrValue::Error(e)) => assert_eq!(*e, Errno::ENOTEMPTY),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sshfs_produces_the_fig4_deviation() {
        let profile = configs::by_name("linux/sshfs-tmpfs").unwrap();
        let trace = execute_script(&profile, &paper_rename_script(), ExecOptions::default());
        let last = trace.steps.last().unwrap();
        match &last.label {
            OsLabel::Return(_, ErrorOrValue::Error(e)) => assert_eq!(*e, Errno::EPERM),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn each_script_starts_from_an_empty_file_system() {
        let profile = configs::by_name("linux/tmpfs").unwrap();
        let mut s = Script::new("mkdir___simple", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
        // Running the same script twice must give identical traces: state does
        // not leak between executions.
        let t1 = execute_script(&profile, &s, ExecOptions::default());
        let t2 = execute_script(&profile, &s, ExecOptions::default());
        assert_eq!(t1, t2);
        match &t1.steps[1].label {
            OsLabel::Return(_, ErrorOrValue::Value(RetValue::None)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiprocess_scripts_record_lifecycle_labels() {
        let profile = configs::by_name("linux/ext4").unwrap();
        let mut s = Script::new("permissions___two_procs", "permissions");
        s.call(OsCommand::Mkdir("/shared".into(), FileMode::new(0o777)))
            .create_process(Pid(2), Uid(1000), Gid(1000))
            .call_as(Pid(2), OsCommand::Mkdir("/shared/theirs".into(), FileMode::new(0o755)))
            .destroy_process(Pid(2));
        let trace = execute_script(&profile, &s, ExecOptions::default());
        assert!(trace.labels().any(|l| matches!(l, OsLabel::Create(Pid(2), ..))));
        assert!(trace.labels().any(|l| matches!(l, OsLabel::Destroy(Pid(2)))));
        assert_eq!(trace.call_count(), 2);
    }

    #[test]
    fn sim_executor_matches_free_function() {
        let profile = configs::by_name("linux/ext4").unwrap();
        let exec = SimExecutor::new(profile.clone());
        assert_eq!(exec.backend_name(), "sim");
        assert_eq!(exec.config_name(), "linux/ext4");
        let script = paper_rename_script();
        let via_trait = exec.execute_script(&script, ExecOptions::default()).unwrap();
        let direct = execute_script(&profile, &script, ExecOptions::default());
        assert_eq!(via_trait, direct);
        let suite = [paper_rename_script(), paper_rename_script()];
        let traces = execute_suite(&exec, &suite, ExecOptions::default(), 2).unwrap();
        assert_eq!(traces, [direct.clone(), direct]);
    }
}
