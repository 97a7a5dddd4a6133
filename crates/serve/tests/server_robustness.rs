//! End-to-end and robustness tests for the oracle server: a live server, real
//! TCP sessions, hostile framing, and the interner budget. These are the
//! "long-lived process" guarantees the batch CLI never had to make.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_core::commands::OsCommand;
use sibylfs_core::flags::FileMode;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::{parse_trace, render_trace, Script};
use sibylfs_serve::protocol::{
    encode_request, parse_spec_config, read_frame, write_frame, Request, MAX_FRAME_LEN,
};
use sibylfs_serve::{start, BlockingClient, Response, ServeOptions};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::{loadgen_scripts, LoadgenOptions};

fn corpus(n: usize) -> Vec<String> {
    let profile = configs::by_name("linux/ext4").unwrap();
    loadgen_scripts(LoadgenOptions { scripts: n, ..Default::default() })
        .iter()
        .map(|s| render_trace(&execute_script(&profile, s, ExecOptions::default())))
        .collect()
}

fn wait_for_no_sessions(server: &sibylfs_serve::ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "sessions leaked: {}", server.active_sessions());
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn verdicts_match_batch_checking_bit_for_bit() {
    let server = start(ServeOptions::default()).unwrap();
    let cfg = parse_spec_config("linux").unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    for text in corpus(12) {
        let resp = client.check("linux", &text).unwrap();
        let Response::Verdict(remote) = resp else { panic!("expected verdict, got {resp:?}") };
        let local = render_checked_trace(&check_trace(
            &cfg,
            &parse_trace(&text).unwrap(),
            CheckOptions::default(),
        ));
        assert_eq!(remote, local);
        assert!(remote.contains("# Verdict: accepted"), "loadgen corpus must check cleanly");
    }
}

/// Multi-process traces, whose calls from several processes overlap, ride
/// the wire like any other: the contention families at 3–6 processes get
/// verdicts bit-identical to batch checking, all accepted.
#[test]
fn contention_traces_match_batch_checking_bit_for_bit() {
    let server = start(ServeOptions::default()).unwrap();
    let cfg = parse_spec_config("linux").unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    for trace in (3..=6).flat_map(|p| contention_traces(ContentionOptions::new(p, 2))) {
        let resp = client.check("linux", &render_trace(&trace)).unwrap();
        let Response::Verdict(remote) = resp else { panic!("{}: got {resp:?}", trace.name) };
        let local = render_checked_trace(&check_trace(&cfg, &trace, CheckOptions::default()));
        assert_eq!(remote, local, "{}", trace.name);
        assert!(remote.contains("# Verdict: accepted"), "{remote}");
    }
}

#[test]
fn non_root_configs_are_checked_from_an_unprivileged_process() {
    // Run as an unprivileged initial process, `mkdir "/d"` fails with
    // EACCES: only a non-root check accepts that.
    let profile = configs::by_name("linux/tmpfs").unwrap();
    let mut script = Script::new("mkdir___non_root", "mkdir");
    script.call(OsCommand::Mkdir("/d".into(), FileMode::new(0o777)));
    let text = render_trace(&execute_script(&profile, &script, ExecOptions { root_user: false }));
    let cfg = parse_spec_config("linux,non-root").unwrap();
    let checked = check_trace(&cfg, &parse_trace(&text).unwrap(), CheckOptions::default());
    let local = render_checked_trace(&checked);
    assert!(local.contains("# Verdict: accepted"), "{local}");

    let server = start(ServeOptions::default()).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    assert_eq!(client.check("linux,non-root", &text).unwrap(), Response::Verdict(local));
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let server = start(ServeOptions::default()).unwrap();
    let texts = corpus(8);
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    for t in &texts {
        client.send_check("linux", t).unwrap();
    }
    for t in &texts {
        let name_line = t.lines().nth(1).unwrap(); // "# Test <name>"
        let Response::Verdict(v) = client.recv().unwrap() else { panic!("expected verdict") };
        assert!(
            v.contains(name_line),
            "responses out of order: wanted {name_line:?} in:\n{v}"
        );
    }
}

#[test]
fn parse_errors_come_back_with_line_and_column() {
    let server = start(ServeOptions::default()).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let bad = "@type trace\n# Test t\n1: read (FD 3) -1\nRV_none\n";
    let resp = client.check("linux", bad).unwrap();
    let Response::Error { line, col, message } = resp else {
        panic!("expected an error, got {resp:?}");
    };
    assert_eq!(line, 3);
    assert_eq!(col as usize, bad.lines().nth(2).unwrap().find("-1").unwrap() + 1);
    assert!(message.contains("count out of range"), "{message}");

    // The session survives the error and still checks the next trace.
    let good = corpus(1).remove(0);
    assert!(matches!(client.check("linux", &good).unwrap(), Response::Verdict(_)));
}

#[test]
fn bad_config_and_malformed_payloads_get_clean_errors() {
    let server = start(ServeOptions::default()).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();

    let resp = client.check("plan9", "@type trace\n").unwrap();
    assert!(matches!(resp, Response::Error { line: 0, col: 0, .. }), "got {resp:?}");

    // Hand-rolled garbage payload: unknown tag. Session answers and survives.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &[0x7f, 1, 2, 3]).unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(reply[0], 0x82, "expected an error response");
    // Same connection still works for a real request afterwards.
    write_frame(&mut raw, &encode_request(&Request::Stats)).unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(reply[0], 0x83, "session must survive payload-level garbage");
}

#[test]
fn framing_attacks_drop_the_session_not_the_server() {
    let opts = ServeOptions { max_inflight_per_session: 4, ..Default::default() };
    let server = start(opts).unwrap();

    // Oversized length prefix.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
        let mut buf = Vec::new();
        let n = raw.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must close without a response after frame desync");
    }
    // Truncated frame: promise 100 bytes, send 3, disconnect.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        drop(raw);
    }
    // Mid-session disconnect with requests in flight.
    {
        let texts = corpus(4);
        let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
        for t in &texts {
            client.send_check("linux", t).unwrap();
        }
        drop(client);
    }

    wait_for_no_sessions(&server);

    // The server is still fully alive for a fresh client.
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let good = corpus(1).remove(0);
    assert!(matches!(client.check("linux", &good).unwrap(), Response::Verdict(_)));
}

#[test]
fn oversized_names_are_rejected_at_the_boundary() {
    let opts = ServeOptions { max_name_len: 64, ..Default::default() };
    let server = start(opts).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let big = "x".repeat(65);
    let text = format!("@type trace\n# Test t\n1: mkdir \"{big}\" 0o755\nRV_none\n");
    let resp = client.check("linux", &text).unwrap();
    let Response::Error { message, .. } = resp else { panic!("expected error, got {resp:?}") };
    assert!(message.contains("65 bytes exceeds the 64-byte limit"), "{message}");
}

#[test]
fn hostile_client_cannot_balloon_the_interner() {
    let opts = ServeOptions {
        max_name_len: 64,
        intern_budget_bytes: Some(4 << 10),
        ..Default::default()
    };
    let server = start(opts).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();

    // Stream unique path components until the budget trips. Each name is
    // under the per-name limit, so only the budget can stop the growth.
    let mut rejected = false;
    for i in 0..10_000 {
        let text = format!(
            "@type trace\n# Test hostile_{i}\n1: mkdir \"uniq_{i:05}_{}\" 0o755\nRV_none\n",
            "p".repeat(40)
        );
        match client.check("linux", &text).unwrap() {
            Response::Verdict(_) => {}
            Response::Error { message, .. } => {
                assert!(message.contains("interner budget"), "{message}");
                rejected = true;
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(rejected, "the interner budget never tripped after 10k unique names");

    // Stats still answer, and report the growth the attack caused.
    let stats = client.stats().unwrap();
    assert!(stats.contains("intern_growth_bytes="), "{stats}");
    let growth: usize = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("intern_growth_bytes="))
        .unwrap()
        .parse()
        .unwrap();
    // The budget bounds growth up to one in-flight request's worth of slack.
    assert!(growth < (4 << 10) + 4096, "growth {growth} not bounded by the budget");
}

#[test]
fn stats_line_reports_sessions_and_intern_state() {
    let server = start(ServeOptions::default()).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let good = corpus(1).remove(0);
    client.check("linux", &good).unwrap();
    let stats = client.stats().unwrap();
    for key in [
        "sessions=",
        "sessions_total=",
        "checked=",
        "errors=",
        "queued=",
        "workers=",
        "intern_count=",
        "intern_bytes=",
        "intern_growth_bytes=",
        // Per-tick rates: deltas between two consecutive metrics snapshots,
        // so a tail of the stderr log shows load, not lifetime totals.
        "checked_per_s=",
        "req_per_s=",
        "in_Bps=",
        "out_Bps=",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats:?}");
    }
    assert_eq!(server.stats_line().split(' ').count(), stats.split(' ').count());
}

#[test]
fn concurrent_sessions_all_get_correct_verdicts() {
    let server = start(ServeOptions { workers: 4, ..Default::default() }).unwrap();
    let texts = std::sync::Arc::new(corpus(16));
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|k| {
            let texts = std::sync::Arc::clone(&texts);
            std::thread::spawn(move || {
                let mut client = BlockingClient::connect_tcp(addr).unwrap();
                for t in texts.iter().skip(k % 4) {
                    let Response::Verdict(v) = client.check("linux", t).unwrap() else {
                        panic!("expected verdict")
                    };
                    assert!(v.contains("# Verdict: accepted"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    wait_for_no_sessions(&server);
}

#[test]
fn metrics_request_returns_a_parsed_snapshot_over_the_wire() {
    let server = start(ServeOptions::default()).unwrap();
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let before = client.metrics().unwrap();
    let req0 = before.counter("sibylfs_serve_requests_total").unwrap();
    for text in corpus(3) {
        assert!(matches!(client.check("linux", &text).unwrap(), Response::Verdict(_)));
    }
    let after = client.metrics().unwrap();
    // 3 checks + the first metrics request itself happened in between.
    let req1 = after.counter("sibylfs_serve_requests_total").unwrap();
    assert!(req1 >= req0 + 4, "requests_total went {req0} -> {req1}");
    assert!(after.counter("sibylfs_serve_bytes_in_total").unwrap() > 0);
    assert!(after.counter("sibylfs_serve_bytes_out_total").unwrap() > 0);
    assert!(after.counter("sibylfs_serve_sessions_opened_total").unwrap() >= 1);
    let lat = after.histogram("sibylfs_serve_request_ns").unwrap();
    assert!(lat.count >= 4, "latency histogram saw {} samples", lat.count);
    assert!(lat.p50 <= lat.p99);
}

/// The minimal HTTP exposition endpoint: GET /metrics answers metrics-v1
/// text, unknown paths 404, non-GET methods 405, and the verdict path is
/// untouched by scrapes.
#[test]
fn metrics_addr_serves_http_get() {
    let opts =
        ServeOptions { metrics_addr: Some("127.0.0.1:0".to_string()), ..Default::default() };
    let server = start(opts).unwrap();
    let maddr = server.metrics_addr().expect("metrics listener bound");

    let http = |request: &str| -> String {
        let mut s = TcpStream::connect(maddr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    };

    let ok = http("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
    assert!(ok.contains("@type metrics-v1"), "{ok}");
    assert!(ok.contains("counter sibylfs_serve_requests_total"), "{ok}");

    let missing = http("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let bad_method = http("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405"), "{bad_method}");

    // Scraping must not disturb the oracle path.
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    let good = corpus(1).remove(0);
    assert!(matches!(client.check("linux", &good).unwrap(), Response::Verdict(_)));
}
