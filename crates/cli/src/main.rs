//! The `sibylfs` command-line tool: generate test suites, run them against a
//! simulated configuration or the real host kernel, check traces against the
//! model, and survey many configurations at once (the turnkey black-box test
//! setup of §1 "Use cases").

use std::fs;
use std::path::PathBuf;

use sibylfs_check::{check_trace, render_checked_trace, render_parse_error, CheckOptions};
use sibylfs_cli::{
    executor_for_config, executor_for_config_with, run_executor, suite_from_args, DEFAULT_WORKERS,
};
use sibylfs_core::flavor::Flavor;
use sibylfs_exec::{host_backend_available, ExecError, ExecOptions, HOST_CONFIG_NAME};
use sibylfs_fsimpl::configs;
use sibylfs_report::{merge_runs, render_merged_markdown, render_run_markdown};
use sibylfs_script::{parse_script, parse_trace, render_script, render_trace};
use sibylfs_testgen::summarize_suite;

const USAGE: &str = "sibylfs — oracle-based testing for POSIX and real-world file systems

USAGE:
    sibylfs gen   [--full|--quick] [--out DIR]       generate the test suite
    sibylfs run   --config NAME [--full] [--out DIR] execute the suite on a configuration
                  [--exec-workers N]                 and check every trace
    sibylfs check --flavor FLAVOR [--por MODE] FILE. check recorded traces against the model
    sibylfs check --remote ADDR FILE...              check traces on a remote oracle server
    sibylfs exec  --config NAME [--exec-workers N] SCRIPT...
                                                     execute script files and print traces
    sibylfs serve [OPTIONS]                          run the oracle as a long-lived TCP server
    sibylfs survey [--full] [--flavor FLAVOR]        run and check every registered configuration
    sibylfs explore --config NAME [OPTIONS]          coverage-guided exploration of the model
    sibylfs lint  SCRIPT...                          statically lint script files
    sibylfs audit [--baseline FILE]                  spec-consistency audit of the model source
    sibylfs bench-diff OLD NEW [--max-regression N]  gate on bench-result regressions
    sibylfs configs                                  list registered configurations

OBSERVABILITY (check, exec, explore, serve):
    --trace-out FILE         record spans and write a Chrome trace-event JSON
                             file (open in Perfetto / chrome://tracing)
    --timings                (run, check, exec) print an `@type metrics-v1`
                             table of the run's counters, pool gauges, and
                             latency histograms

WORKERS (run, exec):
    --exec-workers N         worker threads (default 4). Under `run` each
                             thread executes a script and checks its trace
                             before taking the next. On host/linux each thread
                             drives a persistent pre-jailed worker process
                             whose jail is reset between scripts instead of
                             re-forking.

EXPLORE OPTIONS:
    --backend sim|host       executor (default sim; host = differential mode)
    --flavor FLAVOR          model flavour to check against (default: linux)
    --iterations N           stop after N mutated scripts
    --time-budget SECS       stop after SECS seconds (default 60 if no --iterations)
    --corpus-dir DIR         persist minimized corpus entries under DIR
    --seed N                 base seed; every derived seed is recorded (default 42)
    --workers N              worker threads (default: up to 4)
    --batch N                mutants each worker plans before evaluating them
                             (default 8; 1 = sequential evaluation)
    --min-coverage PCT       exit 1 if final branch coverage is below PCT
    --require-gain           exit 1 unless exploration beat the static quick suite

SERVE OPTIONS:
    --addr HOST:PORT         bind address (default 127.0.0.1:7788; port 0 = OS pick)
    --workers N              checker worker threads (default 4)
    --max-name-len BYTES     reject quoted names longer than this (default 512)
    --intern-budget BYTES    refuse new names once the interner has grown this much
    --stats-every SECS       print the stats line to stderr every SECS (default 10, 0 = off)
    --metrics-addr HOST:PORT also serve `@type metrics-v1` text over HTTP GET /metrics

AUDIT OPTIONS:
    --baseline FILE          suppress findings listed in FILE; exit 1 only on new ones
    --dump-envelopes         print the computed per-syscall errno envelopes and exit

BENCH-DIFF:
    OLD and NEW are bench-result files written by running the bench suite with
    SIBYLFS_BENCH_JSON=<path>. Exits 1 if a gated bench (check_throughput/*,
    tau_closure_*) is slower in NEW by more than N percent (default 10).

FLAVOR is one of: posix, linux, mac, freebsd.
MODE is `footprint` (default: commutativity-aware partial-order reduction in
the checker's τ-closure) or `off` (full interleaving expansion).
NAME is a simulated configuration (see `sibylfs configs`) or `host/linux`
for the real host kernel (Linux with chroot privilege only).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    match cmd.as_str() {
        "gen" => cmd_gen(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "exec" => cmd_exec(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "survey" => cmd_survey(&args[1..]),
        "explore" => cmd_explore(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "bench-diff" => cmd_bench_diff(&args[1..]),
        "configs" => {
            for c in configs::all_configs() {
                println!("{:40} {:8} {}", c.name, c.platform.name(), c.description);
            }
            let host_note = if host_backend_available() {
                "the real host kernel via per-script chroot jails"
            } else {
                "the real host kernel (unavailable here: needs Linux + chroot privilege)"
            };
            println!("{HOST_CONFIG_NAME:40} {:8} {host_note}", "linux");
        }
        "--help" | "-h" | "help" => print!("{USAGE}"),
        other => {
            eprintln!("unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The value following a `--flag`, if the flag is present.
///
/// A flag that is present but followed by nothing — or by something that is
/// itself a `--flag` — is an error: `--out --full` must not silently eat
/// `--full` as a directory name.
fn opt_value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("flag {name} requires a value");
            std::process::exit(2);
        }
    }
}

fn flavor_from(args: &[String]) -> Flavor {
    match opt_value(args, "--flavor") {
        Some(f) => f.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => Flavor::Posix,
    }
}

fn por_from(args: &[String]) -> sibylfs_core::flavor::PorMode {
    match opt_value(args, "--por") {
        Some(p) => p.parse().unwrap_or_else(|e: String| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => sibylfs_core::flavor::PorMode::Footprint,
    }
}

/// `--trace-out FILE`: switch span tracing on now (so the command's work is
/// recorded) and hand the path back for the end-of-command write.
fn trace_out_from(args: &[String]) -> Option<PathBuf> {
    let path = opt_value(args, "--trace-out").map(PathBuf::from);
    if path.is_some() {
        sibylfs_core::obs::set_tracing(true);
    }
    path
}

fn write_trace_or_exit(path: &std::path::Path) {
    match sibylfs_core::obs::write_chrome_trace(path) {
        Ok(n) => eprintln!("trace: wrote {n} span(s) to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write trace to {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Read and parse a file, exiting with a diagnostic (not a panic) on failure.
fn read_or_exit(file: &str) -> String {
    fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(2);
    })
}

fn exec_error_exit(e: ExecError) -> ! {
    eprintln!("{e}");
    std::process::exit(2);
}

fn cmd_gen(args: &[String]) {
    let suite = suite_from_args(args);
    let summary = summarize_suite(&suite);
    if let Some(dir) = opt_value(args, "--out") {
        let dir = PathBuf::from(dir);
        fs::create_dir_all(&dir).expect("create output directory");
        for script in &suite {
            let path = dir.join(format!("{}.script", script.name));
            fs::write(path, render_script(script)).expect("write script file");
        }
        println!("wrote {} scripts to disk", summary.total);
    }
    println!("generated {} scripts ({} libc calls)", summary.total, summary.calls);
    for (group, count) in &summary.per_group {
        println!("  {group:12} {count}");
    }
}

/// `--exec-workers N`: how many worker threads (and, on the host backend,
/// pooled worker processes) execute the scripts.
fn exec_workers_from(args: &[String]) -> usize {
    match opt_value(args, "--exec-workers") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("flag --exec-workers requires a positive number, got {v:?}");
                std::process::exit(2);
            }
        },
        None => DEFAULT_WORKERS,
    }
}

fn print_timings_if_asked(args: &[String]) {
    if args.iter().any(|a| a == "--timings") {
        let mut snap = sibylfs_core::obs::snapshot();
        snap.retain_nonzero();
        print!("{}", snap.render());
    }
}

fn cmd_run(args: &[String]) {
    let name = opt_value(args, "--config").unwrap_or_else(|| {
        eprintln!("--config NAME is required (see `sibylfs configs`)");
        std::process::exit(2);
    });
    let exec_workers = exec_workers_from(args);
    let Some((executor, flavor)) = executor_for_config_with(&name, exec_workers) else {
        sibylfs_cli::config_or_exit(&name);
        unreachable!("config_or_exit exits for unknown names");
    };
    let suite = suite_from_args(args);
    let run = run_executor(executor, flavor, &suite, exec_workers)
        .unwrap_or_else(|e| exec_error_exit(e));
    if let Some(dir) = opt_value(args, "--out") {
        let dir = PathBuf::from(dir);
        fs::create_dir_all(&dir).expect("create output directory");
        for checked in &run.checked {
            let path = dir.join(format!("{}.checked", checked.name));
            fs::write(path, render_checked_trace(checked)).expect("write checked trace");
        }
    }
    print!("{}", render_run_markdown(&run.summary));
    println!(
        "workers: {} ({} backend) executed and checked {} traces in {:.2}s ({:.0} traces/s)",
        run.check_stats.workers,
        run.summary.backend,
        run.check_stats.traces,
        run.check_stats.elapsed_secs,
        run.check_stats.traces_per_sec
    );
    print_timings_if_asked(args);
}

fn cmd_check(args: &[String]) {
    let flavor = flavor_from(args);
    let cfg = sibylfs_core::flavor::SpecConfig::standard(flavor).with_por(por_from(args));
    let remote = opt_value(args, "--remote");
    let trace_out = trace_out_from(args);
    let timings = args.iter().any(|a| a == "--timings");
    let flag_values = [
        opt_value(args, "--flavor"),
        opt_value(args, "--por"),
        remote.clone(),
        opt_value(args, "--trace-out"),
    ];
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            !a.starts_with("--") && !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str()))
        })
        .collect();
    if files.is_empty() {
        eprintln!("no trace files given");
        std::process::exit(2);
    }
    if let Some(addr) = remote {
        return check_remote(&addr, &cfg, &files);
    }
    let mut failing = 0usize;
    for file in files {
        let text = read_or_exit(file);
        let trace = parse_trace(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {file}: {e}");
            eprint!("{}", render_parse_error(file, &e));
            std::process::exit(2);
        });
        let checked = check_trace(&cfg, &trace, CheckOptions::default());
        if !checked.accepted {
            failing += 1;
        }
        print!("{}", render_checked_trace(&checked));
        println!();
    }
    if timings {
        let mut snap = sibylfs_core::obs::snapshot();
        snap.retain_nonzero();
        print!("{}", snap.render());
    }
    if let Some(path) = &trace_out {
        write_trace_or_exit(path);
    }
    if failing > 0 {
        std::process::exit(1);
    }
}

/// `sibylfs check --remote ADDR`: ship each trace to an oracle server, with
/// the files pipelined over one session, and print the verdicts it streams
/// back. Output for conformant inputs is bit-identical to local checking.
fn check_remote(addr: &str, cfg: &sibylfs_core::flavor::SpecConfig, files: &[&String]) {
    use sibylfs_serve::{BlockingClient, Response};

    let config = cfg.to_string();
    let mut client = BlockingClient::connect_tcp(addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(2);
    });
    for file in files {
        let text = read_or_exit(file);
        if let Err(e) = client.send_check(&config, &text) {
            eprintln!("cannot send {file} to {addr}: {e}");
            std::process::exit(2);
        }
    }
    let mut failing = 0usize;
    for file in files {
        match client.recv() {
            Ok(Response::Verdict(v)) => {
                if !v.contains("# Verdict: accepted") {
                    failing += 1;
                }
                print!("{v}");
                println!();
            }
            Ok(Response::Error { line, col, message }) => {
                eprintln!("cannot check {file}: line {line}:{col}: {message}");
                std::process::exit(2);
            }
            Ok(other) => {
                eprintln!("unexpected response for {file}: {other:?}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("lost connection to {addr} while checking {file}: {e}");
                std::process::exit(2);
            }
        }
    }
    if failing > 0 {
        std::process::exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    use sibylfs_serve::ServeOptions;

    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
        opt_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("flag {flag} requires a number, got {v:?}");
                std::process::exit(2);
            })
        })
    }

    let mut opts = ServeOptions {
        addr: opt_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7788".to_string()),
        ..Default::default()
    };
    if let Some(w) = num::<usize>(args, "--workers") {
        opts.workers = w.max(1);
    }
    if let Some(n) = num::<usize>(args, "--max-name-len") {
        opts.max_name_len = n;
    }
    opts.intern_budget_bytes = num::<usize>(args, "--intern-budget");
    opts.metrics_addr = opt_value(args, "--metrics-addr");
    let stats_every = num::<u64>(args, "--stats-every").unwrap_or(10);
    let trace_out = trace_out_from(args);

    let server = sibylfs_serve::start(opts).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        std::process::exit(2);
    });
    // The line below is a contract with scripts that spawn the server and
    // need the bound address (CI smoke uses port 0); everything else a
    // running server says goes to stderr.
    println!("listening on {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        eprintln!("metrics on http://{addr}/metrics");
    }
    eprintln!("{}", server.stats_line());
    // A server has no natural end of command, so the trace file is rewritten
    // in place on every tick: kill the process whenever, the file is valid.
    let mut spans: Vec<sibylfs_core::obs::SpanEvent> = Vec::new();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(stats_every.max(1)));
        if stats_every > 0 {
            eprintln!("{}", server.stats_line());
        }
        if let Some(path) = &trace_out {
            spans.extend(sibylfs_core::obs::drain_spans());
            let json = sibylfs_core::obs::render_chrome_trace(&spans);
            if let Err(e) = fs::write(path, json) {
                eprintln!("cannot write trace to {}: {e}", path.display());
            }
        }
    }
}

fn cmd_exec(args: &[String]) {
    let name = opt_value(args, "--config").unwrap_or_else(|| "linux/tmpfs".to_string());
    let exec_workers = exec_workers_from(args);
    let Some((executor, _flavor)) = executor_for_config_with(&name, exec_workers) else {
        sibylfs_cli::config_or_exit(&name);
        unreachable!("config_or_exit exits for unknown names");
    };
    let trace_out = trace_out_from(args);
    let flag_values = [
        opt_value(args, "--config"),
        opt_value(args, "--trace-out"),
        opt_value(args, "--exec-workers"),
    ];
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            !a.starts_with("--") && !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str()))
        })
        .collect();
    let scripts: Vec<sibylfs_script::Script> = files
        .iter()
        .map(|file| {
            let text = read_or_exit(file);
            parse_script(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {file}: {e}");
                eprint!("{}", render_parse_error(file, &e));
                std::process::exit(2);
            })
        })
        .collect();
    // All scripts execute on the worker pool concurrently; traces print in
    // file order, stopping at the first failure like the sequential loop did.
    let results = sibylfs_core::pool::map(exec_workers, &scripts, |script| {
        executor.execute_script(script, ExecOptions::default())
    });
    for result in results {
        let trace = result.unwrap_or_else(|e| exec_error_exit(e));
        print!("{}", render_trace(&trace));
        println!();
    }
    print_timings_if_asked(args);
    if let Some(path) = &trace_out {
        write_trace_or_exit(path);
    }
}

fn cmd_explore(args: &[String]) {
    use sibylfs_explore::{explore, Backend, ExploreOptions};

    fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
        opt_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("flag {flag} requires a number, got {v:?}");
                std::process::exit(2);
            })
        })
    }

    let mut opts = ExploreOptions::default();
    if let Some(config) = opt_value(args, "--config") {
        opts.config = config;
    }
    if let Some(flavor) = opt_value(args, "--flavor") {
        opts.flavor = flavor.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    match opt_value(args, "--backend").as_deref() {
        None | Some("sim") => opts.backend = Backend::Sim,
        Some("host") => opts.backend = Backend::Host,
        Some(other) => {
            eprintln!("unknown backend {other:?} (expected sim or host)");
            std::process::exit(2);
        }
    }
    opts.iterations = num::<u64>(args, "--iterations");
    opts.time_budget = num::<u64>(args, "--time-budget").map(std::time::Duration::from_secs);
    if let Some(seed) = num::<u64>(args, "--seed") {
        opts.seed = seed;
    }
    if let Some(workers) = num::<usize>(args, "--workers") {
        opts.workers = workers.max(1);
    }
    if let Some(batch) = num::<usize>(args, "--batch") {
        opts.batch = batch.max(1);
    }
    opts.corpus_dir = opt_value(args, "--corpus-dir").map(PathBuf::from);
    opts.progress = true;
    // Validate the gate flags up front: a malformed --min-coverage must not
    // be discovered only after the whole exploration run has been paid for.
    let min_coverage = num::<f64>(args, "--min-coverage");
    let require_gain = args.iter().any(|a| a == "--require-gain");
    let trace_out = trace_out_from(args);

    // The explored configuration is always a *simulated* one (in differential
    // mode the host runs alongside it); unknown names get the standard
    // helpful listing.
    sibylfs_cli::config_or_exit(&opts.config);
    let outcome = explore(&opts).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    print!("{}", outcome.render_markdown());
    if let Some(path) = &trace_out {
        write_trace_or_exit(path);
    }

    let (base_pct, final_pct) = outcome.coverage_percents();
    let mut failed = false;
    if let Some(min) = min_coverage {
        if final_pct < min {
            eprintln!(
                "coverage gate failed: {final_pct:.1}% branch coverage is below the \
                 checked-in baseline of {min:.1}%"
            );
            failed = true;
        }
    }
    if require_gain && outcome.novel_keys.is_empty() {
        eprintln!(
            "gain gate failed: exploration found no coverage key beyond the static \
             quick suite ({base_pct:.1}% → {final_pct:.1}%)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn cmd_lint(args: &[String]) {
    use sibylfs_analyze::lint;
    use sibylfs_script::parse_script_spanned;

    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("no script files given");
        std::process::exit(2);
    }
    let mut errors = 0usize;
    for file in files {
        let text = read_or_exit(file);
        let (script, linenos) = parse_script_spanned(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {file}: {e}");
            eprint!("{}", render_parse_error(file, &e));
            std::process::exit(2);
        });
        let diags = lint::lint_script(&script);
        if !lint::is_clean(&diags) {
            errors += 1;
        }
        print!("{}", lint::render_diagnostics(&script, &diags, Some(&linenos)));
        println!();
    }
    if errors > 0 {
        std::process::exit(1);
    }
}

fn cmd_audit(args: &[String]) {
    use sibylfs_analyze::audit_model;

    let report = audit_model();
    if args.iter().any(|a| a == "--dump-envelopes") {
        print!("{}", report.render_computed_envelopes());
        return;
    }
    print!("{}", report.render());
    match opt_value(args, "--baseline") {
        Some(file) => {
            let baseline = read_or_exit(&file);
            let unexplained = report.unexplained(&baseline);
            if !unexplained.is_empty() {
                eprintln!(
                    "audit gate failed: {} finding(s) not covered by the baseline {}:",
                    unexplained.len(),
                    file
                );
                for f in unexplained {
                    eprintln!("  {}", f.line());
                }
                std::process::exit(1);
            }
        }
        None => {
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
    }
}

fn cmd_bench_diff(args: &[String]) {
    use sibylfs_cli::bench_diff::{diff_benches, parse_bench_json, render_diff};

    let max_regression = match opt_value(args, "--max-regression") {
        Some(v) => v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("flag --max-regression requires a number of percent, got {v:?}");
            std::process::exit(2);
        }),
        None => 10.0,
    };
    let flag_values = [opt_value(args, "--max-regression")];
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            !a.starts_with("--") && !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str()))
        })
        .collect();
    let [old_file, new_file] = files.as_slice() else {
        eprintln!("bench-diff needs exactly two files: OLD NEW (got {})", files.len());
        std::process::exit(2);
    };
    let parse = |file: &str| {
        parse_bench_json(&read_or_exit(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {file}: {e}");
            std::process::exit(2);
        })
    };
    let report = diff_benches(&parse(old_file), &parse(new_file), max_regression);
    print!("{}", render_diff(&report));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn cmd_survey(args: &[String]) {
    let suite = suite_from_args(args);
    let explicit_flavor = opt_value(args, "--flavor").map(|f| {
        f.parse::<Flavor>().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    let mut summaries = Vec::new();
    for profile in configs::all_configs() {
        let flavor = explicit_flavor.unwrap_or(profile.platform);
        let exec = std::sync::Arc::new(sibylfs_exec::SimExecutor::new(profile.clone()));
        let run = run_executor(exec, flavor, &suite, DEFAULT_WORKERS)
            .expect("the simulation is infallible");
        eprintln!(
            "checked {:40} {:5}/{:5} accepted",
            profile.name, run.summary.accepted, run.summary.traces
        );
        summaries.push(run.summary);
    }
    // The survey grows a real-host row wherever the sandbox can be built.
    if host_backend_available() {
        if let Some((executor, default_flavor)) = executor_for_config(HOST_CONFIG_NAME) {
            let flavor = explicit_flavor.unwrap_or(default_flavor);
            match run_executor(executor, flavor, &suite, DEFAULT_WORKERS) {
                Ok(run) => {
                    eprintln!(
                        "checked {:40} {:5}/{:5} accepted [host backend]",
                        HOST_CONFIG_NAME, run.summary.accepted, run.summary.traces
                    );
                    summaries.push(run.summary);
                }
                Err(e) => eprintln!("skipping {HOST_CONFIG_NAME}: {e}"),
            }
        }
    } else {
        eprintln!("skipping {HOST_CONFIG_NAME}: sandbox unavailable (needs Linux + chroot privilege)");
    }
    let merged = merge_runs(summaries);
    print!("{}", render_merged_markdown(&merged));
}
