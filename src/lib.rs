//! # SibylFS (Rust reproduction) — umbrella crate
//!
//! This crate re-exports the workspace's component crates under one roof so
//! that examples, integration tests, and downstream users can depend on a
//! single `sibylfs` crate:
//!
//! * [`model`] — the executable specification (states, labels, `os_trans`);
//! * [`check`] — the trace-checking oracle;
//! * [`script`] — the script/trace text formats;
//! * [`fsimpl`] — simulated file-system configurations under test;
//! * [`exec`] — the test executor;
//! * [`testgen`] — the combinatorial test-suite generator;
//! * [`report`] — result aggregation and reporting;
//! * [`explore`] — the coverage-guided exploration engine;
//! * [`analyze`] — static analyses: the spec-consistency audit and the
//!   flow-sensitive script linter.
//!
//! ## Thirty-second tour
//!
//! ```
//! use sibylfs::prelude::*;
//!
//! // 1. A test script (Fig. 2 of the paper).
//! let mut script = Script::new("rename___demo", "rename");
//! script
//!     .call(OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777)))
//!     .call(OsCommand::Mkdir("nonemptydir".into(), FileMode::new(0o777)))
//!     .call(OsCommand::Open(
//!         "nonemptydir/f".into(),
//!         OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
//!         Some(FileMode::new(0o666)),
//!     ))
//!     .call(OsCommand::Rename("emptydir".into(), "nonemptydir".into()));
//!
//! // 2. Execute it on a simulated file system (Fig. 3).
//! let profile = configs::by_name("linux/ext4").unwrap();
//! let trace = execute_script(&profile, &script, ExecOptions::default());
//!
//! // 3. Check the trace against the Linux flavour of the model (Fig. 4).
//! let verdict = check_trace(
//!     &SpecConfig::standard(Flavor::Linux),
//!     &trace,
//!     CheckOptions::default(),
//! );
//! assert!(verdict.accepted);
//! ```

pub use sibylfs_analyze as analyze;
pub use sibylfs_check as check;
pub use sibylfs_core as model;
pub use sibylfs_exec as exec;
pub use sibylfs_explore as explore;
pub use sibylfs_fsimpl as fsimpl;
pub use sibylfs_report as report;
pub use sibylfs_script as script;
pub use sibylfs_testgen as testgen;

/// A prelude bringing the most frequently used items of every component crate
/// into scope.
pub mod prelude {
    pub use sibylfs_check::{
        check_trace, check_traces_parallel, render_checked_trace, CheckOptions, CheckedTrace,
        Checker,
    };
    pub use sibylfs_core::prelude::*;
    pub use sibylfs_exec::{execute_script, execute_suite, ExecOptions, SimExecutor};
    pub use sibylfs_fsimpl::{configs, BehaviorProfile, SimOs, World};
    pub use sibylfs_report::{merge_runs, render_merged_markdown, render_run_markdown, summarize_run};
    pub use sibylfs_script::{parse_script, parse_trace, render_script, render_trace, Script, Trace};
    pub use sibylfs_testgen::{generate_suite, summarize_suite, SuiteOptions};
}
