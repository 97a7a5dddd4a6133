//! Experiment: §7.1 — performance of suite execution and trace checking.
//!
//! The paper reports, on a four-core laptop: checking the full 21 070-trace
//! suite with 4 worker processes takes ~79 s (≈266 traces/s), while executing
//! the suite on tmpfs takes ~152 s — i.e. checking is faster than execution.
//! This binary regenerates the same rows for the reproduction: suite size,
//! execution time, checking time for 1/2/4 workers, and throughput.
//!
//! Run with `--full` for the full suite (tens of thousands of traces) or
//! without for the quick suite.

use std::time::Instant;

use sibylfs_check::{check_traces_parallel, CheckOptions};
use sibylfs_cli::{fmt_secs, suite_from_args};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite, ExecOptions, SimExecutor};
use sibylfs_fsimpl::configs;
use sibylfs_script::render_trace;
use sibylfs_testgen::summarize_suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = suite_from_args(&args);
    let summary = summarize_suite(&suite);
    println!("# §7.1 Performance\n");
    println!(
        "Suite: {} scripts, {} libc calls (paper: 21 070 scripts, 46 MB of traces)\n",
        summary.total, summary.calls
    );

    // Suite execution on the tmpfs-like configuration (the paper's baseline).
    let profile = configs::by_name("linux/tmpfs").expect("registered configuration");
    let sim = SimExecutor::new(profile.clone());
    let start = Instant::now();
    let traces = execute_suite(&sim, &suite, ExecOptions::default(), 1)
        .expect("the simulation is infallible");
    let exec_secs = start.elapsed().as_secs_f64();
    let trace_bytes: usize = traces.iter().map(|t| render_trace(t).len()).sum();
    println!(
        "Test-suite execution on {}: {} ({:.0} traces/s, {:.1} MB of trace data)",
        profile.name,
        fmt_secs(exec_secs),
        traces.len() as f64 / exec_secs,
        trace_bytes as f64 / 1e6
    );

    // Trace checking with 1, 2 and 4 workers.
    let cfg = SpecConfig::standard(Flavor::Linux);
    println!("\n| workers | checking time | traces/s | accepted |");
    println!("|---|---|---|---|");
    for workers in [1usize, 2, 4] {
        let (_, stats) = check_traces_parallel(&cfg, &traces, CheckOptions::default(), workers);
        println!(
            "| {workers} | {} | {:.0} | {}/{} |",
            fmt_secs(stats.elapsed_secs),
            stats.traces_per_sec,
            stats.accepted,
            stats.traces
        );
    }
    println!(
        "\nPaper reference: 79 s to check 21 070 traces with 4 workers (266 traces/s); \
         execution on tmpfs 152 s — checking a trace set takes less time than executing it."
    );
    let (_, check4) = check_traces_parallel(&cfg, &traces, CheckOptions::default(), 4);
    let faster = check4.elapsed_secs < exec_secs;
    println!(
        "Reproduction: checking with 4 workers is {} than execution ({} vs {}).",
        if faster { "faster" } else { "slower" },
        fmt_secs(check4.elapsed_secs),
        fmt_secs(exec_secs)
    );
}
