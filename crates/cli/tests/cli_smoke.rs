//! Integration smoke test that shells out to the built `sibylfs` binary and
//! asserts exit codes and key output for `gen`/`exec`/`check`/`configs` —
//! including the error paths (unknown subcommand, unknown flags, missing
//! `--config`, unparseable trace files, flag values that are themselves
//! flags) that were previously untested.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sibylfs_cli")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn sibylfs binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("process exited normally")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sibylfs-cli-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).expect("write test file");
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = run(&[]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown subcommand"));
}

#[test]
fn help_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("oracle-based testing"));
}

#[test]
fn configs_lists_registry_and_host_row() {
    let out = run(&["configs"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("linux/ext4"));
    assert!(text.contains("linux/sshfs-tmpfs"));
    assert!(text.contains("host/linux"), "host row missing:\n{text}");
}

#[test]
fn gen_writes_scripts_to_the_out_directory() {
    let dir = temp_dir("gen");
    let out = run(&["gen", "--quick", "--out", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("generated"));
    let scripts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "script"))
        .collect();
    assert!(scripts.len() > 100, "expected a quick suite on disk, got {}", scripts.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_out_flag_must_not_eat_the_next_flag_as_its_value() {
    // Regression test for the `opt_value` fix: `--out --full` used to write
    // the whole suite into a directory literally named "--full".
    let out = run(&["gen", "--out", "--full"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("--out"), "diagnostic names the flag: {}", stderr(&out));
    assert!(!Path::new("--full").exists(), "must not create a '--full' directory");
}

#[test]
fn out_directory_errors_exit_2_without_a_panic() {
    let dir = temp_dir("out-errors");
    let file = dir.join("regular-file");
    write(&file, "not a directory");
    let under_file = file.join("out");
    for args in [
        vec!["gen", "--quick", "--out", under_file.to_str().unwrap()],
        vec!["run", "--config", "linux/ext4", "--quick", "--out", under_file.to_str().unwrap()],
    ] {
        let out = run(&args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("cannot create "), "{args:?}: {}", stderr(&out));
    }

    // A directory in the place of the first script file.
    use sibylfs_testgen::{generate_suite, SuiteOptions};
    let first = &generate_suite(SuiteOptions::quick())[0];
    let out_dir = dir.join("scripts");
    std::fs::create_dir_all(out_dir.join(format!("{}.script", first.name))).unwrap();
    let out = run(&["gen", "--quick", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).starts_with("cannot write "), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file may be named like a flag's value: `check --flavor linux t.trace
/// linux` checks both files, and `exec --exec-workers 2 t.script 2` runs
/// both scripts.
#[test]
fn files_named_like_a_flag_value_are_not_dropped() {
    let dir = temp_dir("flag-value-names");
    let in_dir = |args: &[&str]| {
        Command::new(bin()).args(args).current_dir(&dir).output().expect("spawn sibylfs binary")
    };
    let script = "@type script\n# Test names___smoke\nmkdir \"d\" 0o755\nstat \"d\"\n";
    write(&dir.join("t.script"), script);
    write(&dir.join("2"), script);
    let out = in_dir(&["exec", "--exec-workers", "2", "t.script", "2"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).matches("@type trace").count(), 2, "{}", stdout(&out));

    let trace = stdout(&in_dir(&["exec", "t.script"]));
    write(&dir.join("t.trace"), &trace);
    write(&dir.join("linux"), &trace);
    let out = in_dir(&["check", "--flavor", "linux", "t.trace", "linux"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).matches("# Verdict:").count(), 2, "{}", stdout(&out));
    let out = in_dir(&["check", "--flavor", "linux", "linux"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).matches("# Verdict:").count(), 1, "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `survey` merges every configuration's run into one table with each
/// configuration's acceptance rate, then checks off the §7.3 findings.
#[test]
fn survey_reports_acceptance_and_reproduces_every_finding() {
    let out = run(&["survey", "--quick"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("| deviations | accepted % |"), "{text}");
    assert!(text.contains("| linux/ext4 | sim | linux |"), "{text}");
    assert_eq!(text.matches("* [reproduced] ").count(), 8, "{text}");
    assert!(!text.contains("NOT reproduced"), "{text}");
    assert!(stderr(&out).contains(" deviations)"), "{}", stderr(&out));
}

/// §7.1 compares checking against execution that does file-system work: a
/// `Reproduction:` verdict may only rest on the real kernel's execution
/// time, never on the simulator's.
#[test]
fn exp_performance_compares_checking_only_against_host_execution() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_performance"))
        .arg("--quick")
        .output()
        .expect("spawn exp_performance");
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("| 4 | "), "{text}");
    for line in text.lines().filter(|l| l.starts_with("Reproduction:")) {
        assert!(line.contains("host/linux"), "a verdict without host execution: {line}");
    }
}

#[test]
fn exec_then_check_round_trips_through_the_binary() {
    let dir = temp_dir("exec-check");
    let script_path = dir.join("t.script");
    write(
        &script_path,
        "@type script\n# Test rename___smoke\nmkdir \"emptydir\" 0o777\nmkdir \"nonemptydir\" 0o777\nopen \"nonemptydir/f\" [O_CREAT;O_WRONLY] 0o666\nrename \"emptydir\" \"nonemptydir\"\n",
    );
    let out = run(&["exec", "--config", "linux/ext4", script_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let trace_text = stdout(&out);
    assert!(trace_text.contains("@type trace"));
    assert!(trace_text.contains("ENOTEMPTY"));

    let trace_path = dir.join("t.trace");
    write(&trace_path, &trace_text);
    let out = run(&["check", "--flavor", "linux", trace_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "conformant trace: {}", stderr(&out));
    assert!(stdout(&out).contains("rename"));

    // The SSHFS EPERM answer deviates under the Linux flavour: exit code 1.
    let out = run(&["exec", "--config", "linux/sshfs-tmpfs", script_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    write(&trace_path, &stdout(&out));
    let out = run(&["check", "--flavor", "linux", trace_path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "deviating trace exits 1");
    assert!(stdout(&out).contains("allowed are only"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `check A B C …` checks its files through one resumable session in
/// argument order; its output must equal checking each file on its own.
#[test]
fn checking_many_files_at_once_matches_one_run_per_file() {
    use sibylfs_exec::{execute_script, ExecOptions};
    use sibylfs_testgen::{generate_suite, SuiteOptions};

    let dir = temp_dir("check-many");
    let profile = sibylfs_fsimpl::configs::by_name("linux/tmpfs").expect("registered config");
    let files: Vec<String> = generate_suite(SuiteOptions::quick())
        .iter()
        .take(20)
        .enumerate()
        .map(|(i, script)| {
            let trace = execute_script(&profile, script, ExecOptions::default());
            let path = dir.join(format!("{i:02}.trace"));
            write(&path, &sibylfs_script::render_trace(&trace));
            path.to_str().expect("utf-8 temp path").to_string()
        })
        .collect();
    let check_all = |files: &[String]| {
        let mut args = vec!["check", "--flavor", "linux"];
        args.extend(files.iter().map(String::as_str));
        run(&args)
    };
    let one_by_one = |files: &[String]| -> String {
        files.iter().map(|f| stdout(&run(&["check", "--flavor", "linux", f]))).collect()
    };

    let all = check_all(&files);
    assert_eq!(code(&all), 0, "stderr: {}", stderr(&all));
    assert_eq!(stdout(&all), one_by_one(&files));

    // A trace in the middle whose first mkdir fails with EPERM deviates.
    let bad = &files[10];
    let text = std::fs::read_to_string(bad).expect("read trace");
    write(Path::new(bad), &text.replacen("RV_none", "EPERM", 1));
    let all = check_all(&files);
    assert_eq!(code(&all), 1, "one failing trace still exits 1");
    assert!(stdout(&all).contains("allowed are only"));
    assert_eq!(stdout(&all), one_by_one(&files));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_unparseable_and_missing_trace_files() {
    let dir = temp_dir("check-bad");
    let bad = dir.join("bad.trace");
    write(&bad, "@type trace\nthis is not a trace line\n");
    let out = run(&["check", "--flavor", "linux", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "parse failure is a clean exit 2, not a panic");
    assert!(stderr(&out).contains("cannot parse"));

    let out = run(&["check", "--flavor", "linux", dir.join("nope.trace").to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot read"));

    let out = run(&["check", "--flavor", "linux"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("no trace files"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_unknown_flavor() {
    let out = run(&["check", "--flavor", "plan9", "whatever.trace"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("flavor") || stderr(&out).contains("plan9"));
}

/// A flag a subcommand does not take is an error that names it, not
/// something to skip: a mistyped `--full` must not quietly check the quick
/// suite, a mistyped `--exec-workers` must not quietly run the default
/// worker count, and an unknown flag's value must not be read as a file.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (vec!["run", "--config", "linux/tmpfs", "--ful"], "--ful"),
        (vec!["run", "--config", "linux/tmpfs", "--exec-worker", "1"], "--exec-worker"),
        (vec!["check", "--mode", "off", "t.trace"], "--mode"),
        (vec!["check", "--flavor", "linux", "--full", "t.trace"], "--full"),
        (vec!["gen", "--quick", "--timings"], "--timings"),
        (vec!["lint", "--strict", "s.script"], "--strict"),
        (vec!["configs", "--all"], "--all"),
    ] {
        let out = run(&args);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "{args:?}: {err}");
        assert!(err.contains(&format!("unknown flag {flag} ")), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} did some work: {}", stdout(&out));
    }
}

#[test]
fn run_requires_a_known_config() {
    let out = run(&["run"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("--config"));

    let out = run(&["run", "--config", "plan9/fossil"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown configuration"));
    // The error listing advertises the host backend name.
    assert!(stderr(&out).contains("host/linux"));
}

#[test]
fn explore_smoke_produces_a_report_and_a_replayable_corpus() {
    let dir = temp_dir("explore");
    let corpus = dir.join("corpus");
    let out = run(&[
        "explore",
        "--config",
        "linux/tmpfs",
        "--iterations",
        "300",
        "--seed",
        "7",
        "--workers",
        "2",
        "--corpus-dir",
        corpus.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("# Exploration report"), "{report}");
    assert!(report.contains("Per-syscall outcome envelope"));
    assert!(report.contains("baseline coverage"));
    // The corpus directory holds the seeds plus any discoveries, and every
    // file replays through the binary's own exec pipeline.
    let scripts: Vec<_> = std::fs::read_dir(&corpus)
        .expect("corpus dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().map(|x| x == "script").unwrap_or(false))
        .collect();
    assert!(!scripts.is_empty(), "corpus is empty");
    let first = scripts[0].path();
    let out = run(&["exec", "--config", "linux/tmpfs", first.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "corpus entry failed to replay: {}", stderr(&out));
    assert!(stdout(&out).contains("@type trace"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_gates_and_flag_errors() {
    // Unknown configuration: the standard listing, exit 2.
    let out = run(&["explore", "--config", "plan9/fossil", "--iterations", "1"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown configuration"));

    // Unknown backend.
    let out = run(&["explore", "--backend", "quantum", "--iterations", "1"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown backend"));

    // Non-numeric iteration count.
    let out = run(&["explore", "--iterations", "many"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("requires a number"));

    // An unreachable coverage bar makes the gate fail with exit 1.
    let out = run(&[
        "explore",
        "--config",
        "linux/tmpfs",
        "--iterations",
        "5",
        "--min-coverage",
        "101.0",
    ]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("coverage gate failed"));
}

#[test]
fn exec_rejects_unparseable_script_files() {
    let dir = temp_dir("exec-bad");
    let bad = dir.join("bad.script");
    write(&bad, "@type script\nbogus \"x\"\n");
    let out = run(&["exec", "--config", "linux/ext4", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot parse"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_parse_failure_renders_a_diagnostic_block_with_position() {
    let dir = temp_dir("check-diag");
    let bad = dir.join("bad.trace");
    write(&bad, "@type trace\n# Test t\n1: chown \"/f\" -5 0\nRV_none\n");
    let out = run(&["check", "--flavor", "linux", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("cannot parse"), "{err}");
    assert!(err.contains("@type parse-error"), "diagnostic block missing:\n{err}");
    assert!(err.contains("uid out of range: -5"), "{err}");
    assert!(err.contains("line 3, column"), "position missing:\n{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Start `sibylfs serve` on a free port; returns the child and its address.
fn spawn_server() -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};

    let mut server = Command::new(bin())
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn server");
    // Contract: the first stdout line is "listening on ADDR".
    let mut line = String::new();
    BufReader::new(server.stdout.as_mut().expect("server stdout"))
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad contract line {line:?}"))
        .to_string();
    (server, addr)
}

#[test]
fn serve_then_remote_check_matches_local_checking() {
    let dir = temp_dir("serve-remote");
    let script_path = dir.join("t.script");
    write(
        &script_path,
        "@type script\n# Test serve___smoke\nmkdir \"d\" 0o755\nstat \"d\"\nrmdir \"d\"\n",
    );
    let out = run(&["exec", "--config", "linux/ext4", script_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let trace_path = dir.join("t.trace");
    write(&trace_path, &stdout(&out));

    let (mut server, addr) = spawn_server();
    let local = run(&["check", "--flavor", "linux", trace_path.to_str().unwrap()]);
    let remote = run(&["check", "--remote", &addr, trace_path.to_str().unwrap()]);
    let _ = server.kill();
    let _ = server.wait();
    assert_eq!(code(&local), 0, "stderr: {}", stderr(&local));
    assert_eq!(code(&remote), 0, "stderr: {}", stderr(&remote));
    assert_eq!(stdout(&remote), stdout(&local), "remote verdicts must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The contention families' traces, in which calls from several processes
/// overlap, check from files and over the wire exactly as in-process: one
/// `check` invocation and one `check --remote` session over all 16 files
/// both print what one in-process `Checker` session renders.
#[test]
fn contention_traces_check_from_files_and_over_the_wire() {
    use sibylfs_check::{render_checked_trace, CheckOptions, Checker};
    use sibylfs_core::flavor::{Flavor, SpecConfig};
    use sibylfs_testgen::contention::{contention_traces, ContentionOptions};

    let dir = temp_dir("contention");
    let mut checker = Checker::new(&SpecConfig::standard(Flavor::Linux), CheckOptions::default());
    let mut expected = String::new();
    let mut files = Vec::new();
    for trace in (3..=6).flat_map(|p| contention_traces(ContentionOptions::new(p, 2))) {
        let checked = checker.check(&trace);
        assert!(checked.accepted, "{}: {:?}", trace.name, checked.deviations);
        expected += &render_checked_trace(&checked);
        expected.push('\n');
        let path = dir.join(format!("{}.trace", trace.name));
        write(&path, &sibylfs_script::render_trace(&trace));
        files.push(path.to_str().expect("utf-8 temp path").to_string());
    }
    assert_eq!(files.len(), 16);
    let check = |extra: &[&str]| {
        let mut args = vec!["check", "--flavor", "linux"];
        args.extend(extra);
        args.extend(files.iter().map(String::as_str));
        run(&args)
    };

    let local = check(&[]);
    assert_eq!(code(&local), 0, "stderr: {}", stderr(&local));
    assert_eq!(stdout(&local), expected);
    let (mut server, addr) = spawn_server();
    let remote = check(&["--remote", &addr]);
    let _ = server.kill();
    let _ = server.wait();
    assert_eq!(code(&remote), 0, "stderr: {}", stderr(&remote));
    assert_eq!(stdout(&remote), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A return tagged for a process with no call in flight parses, and the
/// checker rejects it.
#[test]
fn a_tagged_return_with_no_call_in_flight_is_not_accepted() {
    let dir = temp_dir("stray-return");
    let path = dir.join("t.trace");
    write(&path, "@type trace\n# Test os___stray_return\n@process create 2 0 0\n[p2] RV_none\n");
    let out = run(&["check", "--flavor", "linux", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("# Verdict: NOT accepted"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_check_with_no_server_exits_2() {
    let dir = temp_dir("remote-noserver");
    let trace_path = dir.join("t.trace");
    write(&trace_path, "@type trace\n# Test t\n");
    // Port 1 is never listening in the test environment.
    let out = run(&["check", "--remote", "127.0.0.1:1", trace_path.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot connect"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_timings_prints_a_versioned_metrics_table() {
    let dir = temp_dir("timings");
    let script_path = dir.join("t.script");
    write(&script_path, "@type script\n# Test timings___smoke\nmkdir \"d\" 0o755\nstat \"d\"\n");
    let out = run(&["exec", "--config", "linux/ext4", script_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let trace_path = dir.join("t.trace");
    write(&trace_path, &stdout(&out));

    let out = run(&["check", "--flavor", "linux", "--timings", trace_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("@type metrics-v1"), "versioned header missing:\n{text}");
    assert!(text.contains("counter sibylfs_check_traces_total 1"), "{text}");
    assert!(text.contains("histogram sibylfs_check_trace_ns count=1"), "{text}");
    // The table is filtered to what the run exercised: no serve metrics.
    assert!(!text.contains("sibylfs_serve_"), "zero-valued metrics must be dropped:\n{text}");

    // Without the flag, no metrics text reaches stdout.
    let out = run(&["check", "--flavor", "linux", trace_path.to_str().unwrap()]);
    assert!(!stdout(&out).contains("metrics-v1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_trace_out_writes_chrome_trace_json() {
    let dir = temp_dir("trace-out");
    let script_path = dir.join("t.script");
    write(&script_path, "@type script\n# Test traceout___smoke\nmkdir \"d\" 0o755\nrmdir \"d\"\n");
    let out = run(&["exec", "--config", "linux/ext4", script_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let trace_path = dir.join("t.trace");
    write(&trace_path, &stdout(&out));

    let json_path = dir.join("spans.json");
    let out = run(&[
        "check",
        "--flavor",
        "linux",
        "--trace-out",
        json_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let json = std::fs::read_to_string(&json_path).expect("trace file written");
    assert!(json.starts_with("{\"traceEvents\":["), "not a Chrome trace:\n{json}");
    assert!(json.trim_end().ends_with("]}"), "unterminated JSON:\n{json}");
    assert!(json.contains("\"name\":\"check_trace\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "complete events only:\n{json}");

    // An unwritable path is a clean exit 2, after the verdicts.
    let out = run(&[
        "check",
        "--flavor",
        "linux",
        "--trace-out",
        dir.join("no/such/dir/x.json").to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("cannot write trace"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite contract: under `--stats-every`, stdout stays machine-readable —
/// exactly the one "listening on ADDR" line — while the periodic stats go to
/// stderr. Scripts that spawn the server and parse stdout must never race a
/// stats line.
#[test]
fn serve_stdout_carries_only_the_contract_line() {
    use std::io::{BufRead, BufReader, Read};

    let mut server = Command::new(bin())
        .args(["serve", "--addr", "127.0.0.1:0", "--stats-every", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server");
    let mut stdout_reader = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut line = String::new();
    stdout_reader.read_line(&mut line).expect("read contract line");
    assert!(line.starts_with("listening on "), "bad contract line {line:?}");

    // Give the 1-second stats ticker time to fire at least twice.
    std::thread::sleep(std::time::Duration::from_millis(2500));
    let _ = server.kill();
    let _ = server.wait();

    let mut rest = String::new();
    stdout_reader.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.is_empty(), "stdout must stay silent after the contract line, got {rest:?}");
    let mut err = String::new();
    server.stderr.take().expect("server stderr").read_to_string(&mut err).expect("drain stderr");
    assert!(
        err.matches("sessions=").count() >= 2,
        "expected periodic stats lines on stderr:\n{err}"
    );
}
