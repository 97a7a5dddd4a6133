//! Round-trip property tests for the script/trace text formats:
//! `parse(render(x)) == x`, over both proptest-generated values and the
//! generated corpus (every quick-suite script plus the traces it produces).
//!
//! These pin the on-disk format before real-host traces start landing in it:
//! the host backend renders its traces in a forked worker and the parent
//! parses them back, so any format asymmetry would corrupt host runs.

use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use proptest::strategy::Union;

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue, Stat};
use sibylfs_core::path::ParsedPath;
use sibylfs_core::errno::Errno;
use sibylfs_core::flags::{FileMode, OpenFlags, SeekWhence};
use sibylfs_core::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid};
use sibylfs_script::{
    parse_script, parse_trace, render_script, render_trace, Script, ScriptStep, Trace,
};

// --- strategies -----------------------------------------------------------

/// Path-ish strings: printable ASCII plus the characters the escaping code
/// must handle (quotes, backslashes, control characters, non-ASCII).
fn path_strategy() -> BoxedStrategy<String> {
    let chars: Vec<char> = {
        let mut v: Vec<char> = ('a'..='e').collect();
        v.extend(['/', '.', '_', '-', ' ', '"', '\\', '\n', '\t', 'é', 'λ']);
        v
    };
    prop_vec(0..chars.len(), 0..12)
        .prop_map(move |idxs| idxs.into_iter().map(|i| chars[i]).collect())
        .boxed()
}

fn mode_strategy() -> BoxedStrategy<FileMode> {
    (0u32..0o10000).prop_map(FileMode::new).boxed()
}

fn flags_strategy() -> BoxedStrategy<OpenFlags> {
    (0usize..OpenFlags::NAMED.len(), 0usize..OpenFlags::NAMED.len(), 0usize..3)
        .prop_map(|(a, b, access)| {
            let access = [OpenFlags::O_RDONLY, OpenFlags::O_WRONLY, OpenFlags::O_RDWR][access];
            access.with(OpenFlags::NAMED[a].1).with(OpenFlags::NAMED[b].1)
        })
        .boxed()
}

/// Data written by `write`/`pwrite`. The text format renders data through
/// `String::from_utf8_lossy`, so the format (deliberately, following the
/// paper's ASCII scripts) only round-trips UTF-8 payloads; the generator
/// stays within that contract.
fn data_strategy() -> BoxedStrategy<Vec<u8>> {
    path_strategy().prop_map(String::into_bytes).boxed()
}

fn fd_strategy() -> BoxedStrategy<Fd> {
    (0i32..100).prop_map(Fd).boxed()
}

fn dh_strategy() -> BoxedStrategy<DirHandleId> {
    (0i32..100).prop_map(DirHandleId).boxed()
}

fn whence_strategy() -> BoxedStrategy<SeekWhence> {
    prop_oneof![
        Just(SeekWhence::Set),
        Just(SeekWhence::Cur),
        Just(SeekWhence::End),
    ]
    .boxed()
}

fn command_strategy() -> BoxedStrategy<OsCommand> {
    let p = path_strategy();
    let m = mode_strategy();
    let f = fd_strategy();
    let d = dh_strategy();
    Union::new(vec![
        p.clone().prop_map(|a| OsCommand::Chdir(a.into())).boxed(),
        (p.clone(), m.clone()).prop_map(|(a, b)| OsCommand::Chmod(a.into(), b)).boxed(),
        (p.clone(), 0u32..5000, 0u32..5000)
            .prop_map(|(a, u, g)| OsCommand::Chown(a.into(), Uid(u), Gid(g)))
            .boxed(),
        f.clone().prop_map(OsCommand::Close).boxed(),
        d.clone().prop_map(OsCommand::Closedir).boxed(),
        (p.clone(), p.clone()).prop_map(|(a, b)| OsCommand::Link(a.into(), b.into())).boxed(),
        (f.clone(), -1000i64..1000, whence_strategy())
            .prop_map(|(fd, off, w)| OsCommand::Lseek(fd, off, w))
            .boxed(),
        p.clone().prop_map(|a| OsCommand::Lstat(a.into())).boxed(),
        (p.clone(), m.clone()).prop_map(|(a, b)| OsCommand::Mkdir(a.into(), b)).boxed(),
        (p.clone(), flags_strategy(), m.clone(), 0usize..2)
            .prop_map(|(a, fl, mo, has)| {
                OsCommand::Open(a.into(), fl, if has == 1 { Some(mo) } else { None })
            })
            .boxed(),
        p.clone().prop_map(|a| OsCommand::Opendir(a.into())).boxed(),
        (f.clone(), 0usize..4096, -10i64..10_000)
            .prop_map(|(fd, n, off)| OsCommand::Pread(fd, n, off))
            .boxed(),
        (f.clone(), data_strategy(), -10i64..10_000)
            .prop_map(|(fd, data, off)| OsCommand::Pwrite(fd, data, off))
            .boxed(),
        (f.clone(), 0usize..4096).prop_map(|(fd, n)| OsCommand::Read(fd, n)).boxed(),
        d.clone().prop_map(OsCommand::Readdir).boxed(),
        p.clone().prop_map(|a| OsCommand::Readlink(a.into())).boxed(),
        (p.clone(), p.clone()).prop_map(|(a, b)| OsCommand::Rename(a.into(), b.into())).boxed(),
        d.prop_map(OsCommand::Rewinddir).boxed(),
        p.clone().prop_map(|a| OsCommand::Rmdir(a.into())).boxed(),
        p.clone().prop_map(|a| OsCommand::Stat(a.into())).boxed(),
        (p.clone(), p.clone()).prop_map(|(a, b)| OsCommand::Symlink(a.into(), b.into())).boxed(),
        (p.clone(), -10i64..1_000_000).prop_map(|(a, n)| OsCommand::Truncate(a.into(), n)).boxed(),
        m.prop_map(OsCommand::Umask).boxed(),
        p.prop_map(|a| OsCommand::Unlink(a.into())).boxed(),
        (f, data_strategy()).prop_map(|(fd, data)| OsCommand::Write(fd, data)).boxed(),
        (0u32..5000, 0u32..5000)
            .prop_map(|(u, g)| OsCommand::AddUserToGroup(Uid(u), Gid(g)))
            .boxed(),
    ])
    .boxed()
}

fn ret_strategy() -> BoxedStrategy<ErrorOrValue> {
    Union::new(vec![
        (0usize..Errno::ALL.len())
            .prop_map(|i| ErrorOrValue::Error(Errno::ALL[i]))
            .boxed(),
        Just(ErrorOrValue::Value(RetValue::None)).boxed(),
        (-1_000_000i64..1_000_000)
            .prop_map(|n| ErrorOrValue::Value(RetValue::Num(n)))
            .boxed(),
        data_strategy().prop_map(|b| ErrorOrValue::Value(RetValue::Bytes(b))).boxed(),
        (0i32..100).prop_map(|n| ErrorOrValue::Value(RetValue::Fd(Fd(n)))).boxed(),
        (0i32..100)
            .prop_map(|n| ErrorOrValue::Value(RetValue::DirHandle(DirHandleId(n))))
            .boxed(),
        path_strategy()
            .prop_filter("readdir names never contain newlines for the line format", |s| {
                !s.is_empty()
            })
            .prop_map(|s| ErrorOrValue::Value(RetValue::ReaddirEntry(Some(s))))
            .boxed(),
        Just(ErrorOrValue::Value(RetValue::ReaddirEntry(None))).boxed(),
        path_strategy().prop_map(|s| ErrorOrValue::Value(RetValue::Path(s))).boxed(),
        (0usize..3, 0u64..1_000_000, 1u32..100, mode_strategy(), 0u32..5000, 0u32..5000)
            .prop_map(|(k, size, nlink, mode, uid, gid)| {
                let kind =
                    [FileKind::Regular, FileKind::Directory, FileKind::Symlink][k];
                ErrorOrValue::Value(RetValue::Stat(Box::new(Stat {
                    kind,
                    size,
                    nlink,
                    mode,
                    uid: Uid(uid),
                    gid: Gid(gid),
                })))
            })
            .boxed(),
    ])
    .boxed()
}

fn script_strategy() -> BoxedStrategy<Script> {
    prop_vec(
        Union::new(vec![
            (0u32..4, command_strategy())
                .prop_map(|(pid, cmd)| ScriptStep::Call { pid: Pid(pid + 1), cmd })
                .boxed(),
            (2u32..6, 0u32..5000, 0u32..5000)
                .prop_map(|(pid, uid, gid)| ScriptStep::CreateProcess {
                    pid: Pid(pid),
                    uid: Uid(uid),
                    gid: Gid(gid),
                })
                .boxed(),
            (2u32..6).prop_map(|pid| ScriptStep::DestroyProcess { pid: Pid(pid) }).boxed(),
        ]),
        0..12,
    )
    .prop_map(|steps| {
        let mut s = Script::new("prop___case", "prop");
        s.steps = steps;
        s
    })
    .boxed()
}

/// Traces whose labels come in any order: calls from several processes
/// overlap, and returns may follow another process's call, a lifecycle
/// label, or no call at all.
fn trace_strategy() -> BoxedStrategy<Trace> {
    let label = Union::new(vec![
        (0u32..4, command_strategy())
            .prop_map(|(pid, cmd)| OsLabel::Call(Pid(pid + 1), cmd))
            .boxed(),
        (0u32..4, ret_strategy()).prop_map(|(pid, ret)| OsLabel::Return(Pid(pid + 1), ret)).boxed(),
        (2u32..6, 0u32..5000, 0u32..5000)
            .prop_map(|(pid, uid, gid)| OsLabel::Create(Pid(pid), Uid(uid), Gid(gid)))
            .boxed(),
        (2u32..6).prop_map(|pid| OsLabel::Destroy(Pid(pid))).boxed(),
    ]);
    prop_vec(label, 0..16)
        .prop_map(|labels| {
            let mut t = Trace::new("prop___trace", "prop");
            for label in labels {
                t.push_label(label);
            }
            t
        })
        .boxed()
}

// --- the properties -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse→intern→print: a path string entering through the parser interns
    /// to symbols that resolve back to exactly the original text (including
    /// names needing escapes), and a second parse of the same text reuses the
    /// same symbols — the interner is idempotent through the text format.
    #[test]
    fn path_intern_round_trips(text in path_strategy()) {
        let p = ParsedPath::parse(&text);
        prop_assert_eq!(p.as_str(), text.as_str());
        let again = ParsedPath::parse(&text);
        prop_assert_eq!(p.raw_name(), again.raw_name());
        prop_assert_eq!(p.components(), again.components());
        // Components resolve back to the non-empty slash-separated pieces.
        let expect: Vec<&str> = text.split('/').filter(|c| !c.is_empty()).collect();
        let got: Vec<&str> = p.components().iter().map(|n| n.as_str()).collect();
        prop_assert_eq!(got, expect);
        // And the quoted Display form is what the String printed before the
        // intern refactor: the rendered text formats are unchanged.
        prop_assert_eq!(format!("{p}"), format!("{text:?}"));
    }

    /// Every renderable command round-trips through its display form.
    #[test]
    fn command_display_round_trips(cmd in command_strategy()) {
        let printed = cmd.to_string();
        let reparsed = sibylfs_script::parse::parse_command(&printed, 1)
            .unwrap_or_else(|e| panic!("parse {printed:?}: {e}"));
        prop_assert_eq!(cmd, reparsed);
    }

    /// Every renderable return value round-trips.
    #[test]
    fn return_display_round_trips(ret in ret_strategy()) {
        let printed = ret.to_string();
        let reparsed = sibylfs_script::parse::parse_return(&printed, 1)
            .unwrap_or_else(|e| panic!("parse {printed:?}: {e}"));
        prop_assert_eq!(ret, reparsed);
    }

    /// Whole scripts round-trip: `parse(render(s)) == s`.
    #[test]
    fn script_round_trips(script in script_strategy()) {
        let text = render_script(&script);
        let reparsed = parse_script(&text)
            .unwrap_or_else(|e| panic!("parse rendered script: {e}\n{text}"));
        prop_assert_eq!(script, reparsed);
    }

    /// Whole traces round-trip: `parse(render(t)) == t`, labels and line
    /// numbers alike.
    #[test]
    fn trace_round_trips(trace in trace_strategy()) {
        let text = render_trace(&trace);
        let reparsed = parse_trace(&text)
            .unwrap_or_else(|e| panic!("parse rendered trace: {e}\n{text}"));
        prop_assert_eq!(trace, reparsed);
    }
}

// --- the generated corpus -------------------------------------------------

/// Every script of the quick suite round-trips byte-exactly at the
/// structural level.
#[test]
fn quick_suite_corpus_round_trips() {
    let suite = sibylfs_testgen::generate_suite(sibylfs_testgen::SuiteOptions::quick());
    assert!(suite.len() > 500, "corpus unexpectedly small: {}", suite.len());
    for script in &suite {
        let text = render_script(script);
        let reparsed = parse_script(&text)
            .unwrap_or_else(|e| panic!("{}: parse rendered script: {e}", script.name));
        assert_eq!(script, &reparsed, "script {} does not round-trip", script.name);
        // Rendering is a pure function of the structure: a second render of
        // the reparsed script is byte-identical.
        assert_eq!(text, render_script(&reparsed), "{} renders unstably", script.name);
    }
}

/// Every trace the quick suite produces (on a well-behaved and on a
/// defective configuration) round-trips.
#[test]
fn executed_trace_corpus_round_trips() {
    let suite = sibylfs_testgen::generate_suite(sibylfs_testgen::SuiteOptions::quick());
    for config in ["linux/tmpfs", "linux/sshfs-tmpfs"] {
        let profile = sibylfs_fsimpl::configs::by_name(config).unwrap();
        for script in &suite {
            let trace = sibylfs_exec::execute_script(
                &profile,
                script,
                sibylfs_exec::ExecOptions::default(),
            );
            let text = render_trace(&trace);
            let reparsed = parse_trace(&text)
                .unwrap_or_else(|e| panic!("{config}/{}: parse rendered trace: {e}", script.name));
            let expected: Vec<_> = trace.labels().cloned().collect();
            let actual: Vec<_> = reparsed.labels().cloned().collect();
            assert_eq!(expected, actual, "trace of {} on {config} does not round-trip", script.name);
        }
    }
}
