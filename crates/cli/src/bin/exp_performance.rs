//! Experiment: §7.1 — performance of suite execution and trace checking.
//!
//! The paper reports, on a four-core laptop: checking the full 21 070-trace
//! suite with 4 worker processes takes ~79 s (≈266 traces/s), while executing
//! the suite on tmpfs takes ~152 s — i.e. checking is faster than execution.
//! This binary regenerates the same rows for the reproduction: suite size,
//! execution time, checking time for 1/2/4 workers, and throughput.
//!
//! The comparison needs execution that does file-system work, so where the
//! host backend is available (Linux, as root) the suite runs on `host/linux`
//! with one jailed worker on tmpfs, and those traces are checked. Elsewhere
//! it runs on the simulator, whose time is labelled as such, and no
//! faster/slower line is printed.
//!
//! Run with `--full` for the full suite (tens of thousands of traces) or
//! without for the quick suite.

use std::time::Instant;

use sibylfs_check::{check_traces_parallel, CheckOptions};
use sibylfs_cli::{executor_for_config, fmt_secs, suite_from_args};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite, host_backend_available, ExecOptions, HOST_CONFIG_NAME};
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

    // The paper executes the suite on tmpfs. Here that needs the host
    // backend; elsewhere only the simulator, which does no file-system work,
    // can run it.
    let on_host = host_backend_available();
    let (config, kind) = if on_host {
        (HOST_CONFIG_NAME, "1 jailed worker on tmpfs")
    } else {
        ("linux/tmpfs", "simulator, no file-system work")
    };
    let (exec, _) = executor_for_config(config, 1).expect("a known configuration");
    let start = Instant::now();
    let traces = execute_suite(&*exec, &suite, ExecOptions::default(), 1)
        .unwrap_or_else(|e| panic!("suite execution on {config} failed: {e}"));
    let exec_secs = start.elapsed().as_secs_f64();
    let trace_bytes: usize = traces.iter().map(|t| render_trace(t).len()).sum();
    println!(
        "Test-suite execution on {config} ({kind}): {} ({:.0} traces/s, {:.1} MB of trace data)",
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
    if on_host {
        let (_, check4) = check_traces_parallel(&cfg, &traces, CheckOptions::default(), 4);
        println!(
            "Reproduction: checking with 4 workers is {} than execution on {config} ({} vs {}).",
            if check4.elapsed_secs < exec_secs { "faster" } else { "slower" },
            fmt_secs(check4.elapsed_secs),
            fmt_secs(exec_secs)
        );
    } else {
        println!(
            "No reproduction: the host backend is unavailable (it needs Linux and root), and \
             the simulator's execution time is no stand-in for a real file system's."
        );
    }
}
