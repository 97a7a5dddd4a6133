//! Fxmark-style multi-process contention families.
//!
//! Filesystem-concurrency benchmarks (fxmark and its descendants) organise
//! microbenchmarks by *sharing level*: every process hammering one shared
//! object (high contention), or each process working on a private object
//! under a shared parent (low contention). The same axis is exactly what
//! stresses the checker's τ-closure: `n` calls in flight expand to every
//! interleaving unless the closure can prove they commute. These families
//! reproduce that axis in script and trace form:
//!
//! - **drbh** — data read, block, high contention: every process `pread`s
//!   the same block of one shared file, with a writer round mixed in.
//! - **drbl** — data read, block, low contention: every process `pread`s a
//!   block of its own private file.
//! - **create/unlink storm** — every process repeatedly creates and unlinks
//!   its own entry in one shared directory.
//! - **rename storm** — every process flips its own file between two names
//!   in one shared directory. Each rename writes only its own two entries,
//!   so the renames commute and the family reduces like the others.
//!
//! Each family scales along `processes × ops_per_process`.
//!
//! The *script* builders emit ordinary sequential scripts (every call paired
//! with its return), suitable for the executors and the linter. The *trace*
//! builders emit the concurrent form the checker sees from a multi-process
//! capture: per round, every process's call is issued before any return
//! arrives, so `n` calls are in flight when the first return is matched.

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue};
use sibylfs_core::flags::{FileMode, OpenFlags};
use sibylfs_core::types::{Fd, Gid, Pid, Uid, INITIAL_PID};
use sibylfs_script::{Script, Trace};

/// The `processes × ops` scaling knob shared by every family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionOptions {
    /// Number of concurrent processes (including the initial process).
    pub processes: u32,
    /// Operations performed by each process.
    pub ops_per_process: usize,
}

impl ContentionOptions {
    /// A contention workload with the given scale.
    pub fn new(processes: u32, ops_per_process: usize) -> ContentionOptions {
        ContentionOptions { processes, ops_per_process: ops_per_process.max(1) }
    }

    fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        (1..=self.processes.max(1)).map(Pid)
    }

    fn tag(&self) -> String {
        format!("p{}_n{}", self.processes.max(1), self.ops_per_process)
    }
}

/// Bytes read or written per operation.
const BLOCK: usize = 8;

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; BLOCK]
}

/// The distinct per-process data block (so a misattributed read cannot
/// accidentally match).
fn proc_block(pid: Pid) -> Vec<u8> {
    block_of(b'a' + (pid.0 % 26) as u8)
}

fn private_file(pid: Pid) -> String {
    format!("/f{}", pid.0)
}

fn storm_file(pid: Pid) -> String {
    format!("/shared/f{}", pid.0)
}

fn rename_file(pid: Pid, flip: bool) -> String {
    format!("/shared/r{}_{}", pid.0, if flip { "b" } else { "a" })
}

const SHARED: &str = "/shared";
const SHARED_FILE: &str = "/shared_file";

/// All four families at the given scale, in script (sequential) form.
pub fn contention_scripts(opts: ContentionOptions) -> Vec<Script> {
    vec![
        drbh_script(opts),
        drbl_script(opts),
        create_unlink_storm_script(opts),
        rename_storm_script(opts),
    ]
}

/// All four families at the given scale, in concurrent trace form.
pub fn contention_traces(opts: ContentionOptions) -> Vec<Trace> {
    vec![
        drbh_trace(opts),
        drbl_trace(opts),
        create_unlink_storm_trace(opts),
        rename_storm_trace(opts),
    ]
}

fn new_script(family: &str, opts: ContentionOptions) -> Script {
    Script::new(format!("contention___{family}_{}", opts.tag()), "contention")
}

fn spawn_procs(script: &mut Script, opts: ContentionOptions) {
    for pid in opts.pids() {
        if pid != INITIAL_PID {
            script.create_process(pid, Uid(0), Gid(0));
        }
    }
}

/// Shared-file read contention: one process writes a shared file, then every
/// process opens it and repeatedly `pread`s the same block, with one
/// overlapping writer round in the middle.
pub fn drbh_script(opts: ContentionOptions) -> Script {
    let mut s = new_script("drbh", opts);
    s.call(OsCommand::Open(
        SHARED_FILE.into(),
        OpenFlags::O_CREAT | OpenFlags::O_RDWR,
        Some(FileMode::new(0o644)),
    ));
    s.call(OsCommand::Write(Fd(3), block_of(b'x')));
    s.call(OsCommand::Close(Fd(3)));
    spawn_procs(&mut s, opts);
    for pid in opts.pids() {
        let flags =
            if pid == INITIAL_PID { OpenFlags::O_RDWR } else { OpenFlags::O_RDONLY };
        s.call_as(pid, OsCommand::Open(SHARED_FILE.into(), flags, None));
    }
    for op in 0..opts.ops_per_process {
        for pid in opts.pids() {
            if pid == INITIAL_PID && op == opts.ops_per_process / 2 {
                // The writer round: read-write contention on the shared block.
                s.call_as(pid, OsCommand::Pwrite(Fd(3), block_of(b'Z'), 0));
            } else {
                s.call_as(pid, OsCommand::Pread(Fd(3), BLOCK, 0));
            }
        }
    }
    for pid in opts.pids() {
        s.call_as(pid, OsCommand::Close(Fd(3)));
    }
    s
}

/// Private-file read contention: every process creates, fills and repeatedly
/// `pread`s its own file. No two operations touch the same object, so the
/// whole workload commutes.
pub fn drbl_script(opts: ContentionOptions) -> Script {
    let mut s = new_script("drbl", opts);
    spawn_procs(&mut s, opts);
    for pid in opts.pids() {
        s.call_as(
            pid,
            OsCommand::Open(
                private_file(pid).as_str().into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(FileMode::new(0o644)),
            ),
        );
        s.call_as(pid, OsCommand::Write(Fd(3), proc_block(pid)));
    }
    for _ in 0..opts.ops_per_process {
        for pid in opts.pids() {
            s.call_as(pid, OsCommand::Pread(Fd(3), BLOCK, 0));
        }
    }
    for pid in opts.pids() {
        s.call_as(pid, OsCommand::Close(Fd(3)));
    }
    s
}

/// Same-directory create/unlink storm: every process repeatedly creates and
/// unlinks its own entry in one shared directory.
pub fn create_unlink_storm_script(opts: ContentionOptions) -> Script {
    let mut s = new_script("create_unlink_storm", opts);
    s.call(OsCommand::Mkdir(SHARED.into(), FileMode::new(0o777)));
    spawn_procs(&mut s, opts);
    for _ in 0..opts.ops_per_process {
        for pid in opts.pids() {
            s.call_as(
                pid,
                OsCommand::Open(
                    storm_file(pid).as_str().into(),
                    OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                    Some(FileMode::new(0o644)),
                ),
            );
        }
        for pid in opts.pids() {
            s.call_as(pid, OsCommand::Close(Fd(3)));
        }
        for pid in opts.pids() {
            s.call_as(pid, OsCommand::Unlink(storm_file(pid).as_str().into()));
        }
    }
    s
}

/// Same-directory rename storm: every process flips its own file between two
/// names. No two renames touch the same entry or file, so under POR a round
/// of `n` renames tracks `2ⁿ` states rather than every interleaving.
pub fn rename_storm_script(opts: ContentionOptions) -> Script {
    let mut s = new_script("rename_storm", opts);
    s.call(OsCommand::Mkdir(SHARED.into(), FileMode::new(0o777)));
    for pid in opts.pids() {
        s.call(OsCommand::Open(
            rename_file(pid, false).as_str().into(),
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Some(FileMode::new(0o644)),
        ));
        s.call(OsCommand::Close(Fd(3)));
    }
    spawn_procs(&mut s, opts);
    for op in 0..opts.ops_per_process {
        let flip = op % 2 == 0;
        for pid in opts.pids() {
            s.call_as(
                pid,
                OsCommand::Rename(
                    rename_file(pid, !flip).as_str().into(),
                    rename_file(pid, flip).as_str().into(),
                ),
            );
        }
    }
    s
}

/// Trace-building helper: issue every call of the round, then deliver every
/// return, so all calls are in flight when the first return is matched.
fn round(trace: &mut Trace, steps: &[(Pid, OsCommand, ErrorOrValue)]) {
    for (pid, cmd, _) in steps {
        trace.push_label(OsLabel::Call(*pid, cmd.clone()));
    }
    for (pid, _, ret) in steps {
        trace.push_label(OsLabel::Return(*pid, ret.clone()));
    }
}

fn new_trace(family: &str, opts: ContentionOptions) -> Trace {
    let mut t = Trace::new(format!("contention___{family}_{}", opts.tag()), "contention");
    for pid in opts.pids() {
        if pid != INITIAL_PID {
            t.push_label(OsLabel::Create(pid, Uid(0), Gid(0)));
        }
    }
    t
}

fn ok(v: RetValue) -> ErrorOrValue {
    ErrorOrValue::Value(v)
}

/// Concurrent form of [`drbh_script`]. The writer round's returns are
/// ordered readers-first: reads snapshot the file at their τ step while
/// writes apply their data when the return is matched, so every read that
/// returns before the write sees the old block.
pub fn drbh_trace(opts: ContentionOptions) -> Trace {
    let mut t = new_trace("drbh", opts);
    t.push_call_return(
        INITIAL_PID,
        OsCommand::Open(
            SHARED_FILE.into(),
            OpenFlags::O_CREAT | OpenFlags::O_RDWR,
            Some(FileMode::new(0o644)),
        ),
        ok(RetValue::Fd(Fd(3))),
    );
    t.push_call_return(
        INITIAL_PID,
        OsCommand::Write(Fd(3), block_of(b'x')),
        ok(RetValue::Num(BLOCK as i64)),
    );
    t.push_call_return(INITIAL_PID, OsCommand::Close(Fd(3)), ok(RetValue::None));
    let open_round: Vec<_> = opts
        .pids()
        .map(|pid| {
            let flags =
                if pid == INITIAL_PID { OpenFlags::O_RDWR } else { OpenFlags::O_RDONLY };
            (pid, OsCommand::Open(SHARED_FILE.into(), flags, None), ok(RetValue::Fd(Fd(3))))
        })
        .collect();
    round(&mut t, &open_round);
    let writer_op = opts.ops_per_process / 2;
    let mut block = block_of(b'x');
    for op in 0..opts.ops_per_process {
        let mut steps: Vec<_> = opts
            .pids()
            .filter(|pid| !(*pid == INITIAL_PID && op == writer_op))
            .map(|pid| {
                (pid, OsCommand::Pread(Fd(3), BLOCK, 0), ok(RetValue::Bytes(block.clone())))
            })
            .collect();
        if op == writer_op {
            // Writer last: its data lands only when its return is matched.
            block = block_of(b'Z');
            steps.push((
                INITIAL_PID,
                OsCommand::Pwrite(Fd(3), block.clone(), 0),
                ok(RetValue::Num(BLOCK as i64)),
            ));
        }
        round(&mut t, &steps);
    }
    let close_round: Vec<_> = opts
        .pids()
        .map(|pid| (pid, OsCommand::Close(Fd(3)), ok(RetValue::None)))
        .collect();
    round(&mut t, &close_round);
    t
}

/// Concurrent form of [`drbl_script`].
pub fn drbl_trace(opts: ContentionOptions) -> Trace {
    let mut t = new_trace("drbl", opts);
    let open_round: Vec<_> = opts
        .pids()
        .map(|pid| {
            (
                pid,
                OsCommand::Open(
                    private_file(pid).as_str().into(),
                    OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                    Some(FileMode::new(0o644)),
                ),
                ok(RetValue::Fd(Fd(3))),
            )
        })
        .collect();
    round(&mut t, &open_round);
    let write_round: Vec<_> = opts
        .pids()
        .map(|pid| {
            (pid, OsCommand::Write(Fd(3), proc_block(pid)), ok(RetValue::Num(BLOCK as i64)))
        })
        .collect();
    round(&mut t, &write_round);
    for _ in 0..opts.ops_per_process {
        let read_round: Vec<_> = opts
            .pids()
            .map(|pid| {
                (pid, OsCommand::Pread(Fd(3), BLOCK, 0), ok(RetValue::Bytes(proc_block(pid))))
            })
            .collect();
        round(&mut t, &read_round);
    }
    let close_round: Vec<_> = opts
        .pids()
        .map(|pid| (pid, OsCommand::Close(Fd(3)), ok(RetValue::None)))
        .collect();
    round(&mut t, &close_round);
    t
}

/// Concurrent form of [`create_unlink_storm_script`].
pub fn create_unlink_storm_trace(opts: ContentionOptions) -> Trace {
    let mut t = new_trace("create_unlink_storm", opts);
    t.push_call_return(
        INITIAL_PID,
        OsCommand::Mkdir(SHARED.into(), FileMode::new(0o777)),
        ok(RetValue::None),
    );
    for _ in 0..opts.ops_per_process {
        let create_round: Vec<_> = opts
            .pids()
            .map(|pid| {
                (
                    pid,
                    OsCommand::Open(
                        storm_file(pid).as_str().into(),
                        OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                        Some(FileMode::new(0o644)),
                    ),
                    ok(RetValue::Fd(Fd(3))),
                )
            })
            .collect();
        round(&mut t, &create_round);
        let close_round: Vec<_> = opts
            .pids()
            .map(|pid| (pid, OsCommand::Close(Fd(3)), ok(RetValue::None)))
            .collect();
        round(&mut t, &close_round);
        let unlink_round: Vec<_> = opts
            .pids()
            .map(|pid| {
                (pid, OsCommand::Unlink(storm_file(pid).as_str().into()), ok(RetValue::None))
            })
            .collect();
        round(&mut t, &unlink_round);
    }
    t
}

/// Concurrent form of [`rename_storm_script`].
pub fn rename_storm_trace(opts: ContentionOptions) -> Trace {
    let mut t = new_trace("rename_storm", opts);
    t.push_call_return(
        INITIAL_PID,
        OsCommand::Mkdir(SHARED.into(), FileMode::new(0o777)),
        ok(RetValue::None),
    );
    for pid in opts.pids() {
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Open(
                rename_file(pid, false).as_str().into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(FileMode::new(0o644)),
            ),
            ok(RetValue::Fd(Fd(3))),
        );
        t.push_call_return(INITIAL_PID, OsCommand::Close(Fd(3)), ok(RetValue::None));
    }
    for op in 0..opts.ops_per_process {
        let flip = op % 2 == 0;
        let rename_round: Vec<_> = opts
            .pids()
            .map(|pid| {
                (
                    pid,
                    OsCommand::Rename(
                        rename_file(pid, !flip).as_str().into(),
                        rename_file(pid, flip).as_str().into(),
                    ),
                    ok(RetValue::None),
                )
            })
            .collect();
        round(&mut t, &rename_round);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ContentionOptions {
        ContentionOptions::new(3, 2)
    }

    #[test]
    fn families_scale_with_the_knob() {
        let small = contention_scripts(ContentionOptions::new(2, 1));
        let large = contention_scripts(ContentionOptions::new(4, 3));
        assert_eq!(small.len(), large.len());
        for (s, l) in small.iter().zip(&large) {
            assert!(s.call_count() < l.call_count(), "{} did not scale", s.name);
        }
    }

    #[test]
    fn script_and_trace_families_share_names() {
        let scripts = contention_scripts(opts());
        let traces = contention_traces(opts());
        assert_eq!(scripts.len(), traces.len());
        for (s, t) in scripts.iter().zip(&traces) {
            assert_eq!(s.name, t.name);
            assert_eq!(t.group, "contention");
        }
    }

    #[test]
    fn traces_overlap_calls_within_a_round() {
        for t in contention_traces(opts()) {
            let mut in_flight = 0usize;
            let mut max_in_flight = 0usize;
            for label in t.labels() {
                match label {
                    OsLabel::Call(..) => {
                        in_flight += 1;
                        max_in_flight = max_in_flight.max(in_flight);
                    }
                    OsLabel::Return(..) => in_flight -= 1,
                    _ => {}
                }
            }
            assert_eq!(in_flight, 0, "{}: unbalanced calls/returns", t.name);
            assert!(
                max_in_flight >= 3,
                "{}: expected 3 overlapping calls, saw {max_in_flight}",
                t.name
            );
        }
    }
}
