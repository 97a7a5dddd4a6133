//! The host backend's worker processes: a pool of persistent pre-jailed
//! workers, and the one place a worker is forked.
//!
//! Building a jail costs fork + chroot + tempdir creation + teardown —
//! milliseconds of fixed cost around microseconds of actual syscalls. A
//! [`WorkerPool`] pays that cost once per worker: each worker is forked with
//! the script that needed it, chroots, runs that script, and then serves
//! further scripts over the [`protocol`](super::protocol) pipes, *resetting
//! its jail between scripts* instead of being re-forked.
//!
//! ## The jail-reset contract
//!
//! After replying with a trace, and before reading the next request, the
//! worker restores every piece of state a script can dirty:
//!
//! 1. **credentials** — `seteuid(0)`/`setegid(0)`/`setgroups(0)` (scripts
//!    switch effective ids for permission tests);
//! 2. **umask** — back to the initial `0o022`;
//! 3. **working directory** — `fchdir` to the jail-root `O_PATH` descriptor
//!    saved right after the chroot (scripts `chdir` freely, and may even
//!    delete the directory they stand in);
//! 4. **file-system contents** — every entry under `/` is removed by a
//!    recursive unlink walk rooted at that descriptor's directory;
//! 5. **descriptors** — `close_range` over everything except stdio, the two
//!    protocol pipes, and the jail-root fd (virtual-process teardown in
//!    [`run_script_in_jail`](super::run_script_in_jail) already closed the
//!    script's fds and `DIR*` handles; this is the backstop).
//!
//! A worker that cannot complete the reset `_exit`s rather than serve a
//! dirty jail. The parent notices EOF on the next request, discards the
//! worker (`sibylfs_exec_worker_respawns_total`), and runs the script once
//! more on another worker — forked with it if none is idle. Successful
//! per-script resets are counted by `sibylfs_exec_jail_resets_total`.

use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use sibylfs_core::obs;
use sibylfs_core::pool::lock;
use sibylfs_script::{parse_trace, render_trace, Script, Trace};

use super::protocol::{
    decode_exec_request, encode_exec_request, read_frame, write_frame, TAG_ERROR, TAG_EXEC,
    TAG_SANDBOX, TAG_TRACE,
};
use super::{errno_raw, fresh_sandbox_dir, raw};
use crate::{ExecError, ExecOptions};

/// Worker exit codes. The parent never reads them; they only tell someone
/// tracing a worker a clean shutdown from a worker that could not provide a
/// clean jail.
const EXIT_OK: i32 = 0;
const EXIT_SANDBOX: i32 = 3;

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// One live worker process, from the parent's point of view. Dropping it
/// kills and reaps the process and removes its jail.
#[derive(Debug)]
struct Worker {
    pid: i32,
    /// Parent's write end of the request pipe.
    req_wr: OwnedFd,
    /// Parent's read end of the reply pipe.
    rep_rd: OwnedFd,
    /// The jail root on the parent's side of the chroot.
    dir: PathBuf,
}

impl Drop for Worker {
    fn drop(&mut self) {
        // SAFETY: `pid` is a child this process forked and has not yet
        // reaped (only this drop reaps it); `waitpid` writes through a valid
        // `&mut status`. The pipe ends close when the fields drop.
        unsafe {
            raw::kill(self.pid, raw::SIGKILL);
            let mut status = 0;
            raw::waitpid(self.pid, &mut status, 0);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What a worker answered for the script it was given.
enum Reply {
    /// A trace, or a request-level error; either way the worker stays usable.
    Served(Result<Trace, ExecError>),
    /// The worker could not build its jail (`S`, only ever a first reply) and
    /// has exited without running anything.
    Sandbox(String),
    /// The worker died or sent bytes we cannot interpret, so it can no longer
    /// be trusted.
    Broken(String),
}

#[derive(Debug)]
struct PoolState {
    idle: Vec<Worker>,
    /// Workers alive (idle + checked out), plus slots reserved for a spawn.
    /// Bounded by the pool capacity.
    live: usize,
}

/// A lazy, fixed-capacity pool of persistent pre-jailed workers.
///
/// Workers are forked on demand up to the capacity; callers needing a worker
/// when all are busy block until one is returned (or dies). Shared behind an
/// `Arc` by [`HostFs`](super::HostFs), so concurrent callers each check out
/// their own worker.
#[derive(Debug)]
pub(super) struct WorkerPool {
    cap: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl WorkerPool {
    /// Create an empty pool with capacity `workers` (clamped to ≥ 1). No
    /// processes are forked until the first execution.
    pub(super) fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            cap: workers.max(1),
            state: Mutex::new(PoolState { idle: Vec::new(), live: 0 }),
            available: Condvar::new(),
        }
    }

    /// Execute one script. A worker that dies or breaks protocol is discarded
    /// and the script runs once more on another worker, so a single worker
    /// failure costs a fork, not a verdict; if the second worker fails too,
    /// the error names both diagnoses.
    pub(super) fn execute(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        let first = match self.attempt(script, opts) {
            Ok(res) => return res,
            Err(why) => why,
        };
        self.attempt(script, opts).unwrap_or_else(|again| {
            Err(ExecError::Backend {
                script: script.name.clone(),
                message: format!("worker failed ({first}), and so did its replacement ({again})"),
            })
        })
    }

    /// Run `script` once: on an idle worker if there is one, otherwise on a
    /// worker forked with it. The outer `Err` means no trustworthy worker
    /// answered (it could not be started, died, or broke protocol, and was
    /// discarded); the inner result is the script's own outcome.
    fn attempt(
        &self,
        script: &Script,
        opts: ExecOptions,
    ) -> Result<Result<Trace, ExecError>, String> {
        let (worker, reply) = match self.checkout() {
            Some(worker) => {
                let reply = run_on(&worker, script, opts);
                (worker, reply)
            }
            None => {
                let worker = spawn_worker(script, opts).inspect_err(|_| self.release())?;
                let reply = read_reply(&worker, script);
                (worker, reply)
            }
        };
        match reply {
            Reply::Served(res) => {
                // The worker resets its jail after every served script; it
                // is only returned to the pool on a healthy reply.
                obs::m::EXEC_JAIL_RESETS_TOTAL.inc();
                self.checkin(worker);
                Ok(res)
            }
            Reply::Sandbox(why) => {
                self.discard(worker);
                Ok(Err(ExecError::SandboxUnavailable(format!("worker could not chroot ({why})"))))
            }
            Reply::Broken(why) => {
                self.discard(worker);
                obs::m::EXEC_WORKER_RESPAWNS_TOTAL.inc();
                Err(why)
            }
        }
    }

    /// Take an idle worker, or `None` with a slot reserved for the caller to
    /// fork one into; block while every worker is checked out.
    fn checkout(&self) -> Option<Worker> {
        let mut st = lock(&self.state);
        loop {
            if let Some(w) = st.idle.pop() {
                return Some(w);
            }
            if st.live < self.cap {
                st.live += 1;
                return None;
            }
            st = self.available.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn checkin(&self, worker: Worker) {
        lock(&self.state).idle.push(worker);
        self.available.notify_one();
    }

    /// Kill and reap a worker that broke protocol, died or never got a jail;
    /// its slot becomes spawnable again.
    fn discard(&self, worker: Worker) {
        drop(worker);
        self.release();
    }

    /// Give back a slot whose worker is gone (or was never forked).
    fn release(&self) {
        lock(&self.state).live -= 1;
        self.available.notify_one();
    }
}

/// Whether a worker can build its jail here: fork one with an empty script,
/// read its reply and reap it. This bypasses the pool, so no exec counter
/// moves.
pub(super) fn probe() -> bool {
    let script = Script::new("sandbox___probe", "sandbox");
    spawn_worker(&script, ExecOptions::default())
        .is_ok_and(|worker| matches!(read_reply(&worker, &script), Reply::Served(Ok(_))))
}

/// A fresh pipe as `(read end, write end)`.
fn pipe() -> Result<(OwnedFd, OwnedFd), String> {
    let mut fds = [0i32; 2];
    // SAFETY: `fds` is a live array of exactly the two c_ints the kernel
    // writes.
    if unsafe { raw::pipe(fds.as_mut_ptr()) } != 0 {
        return Err(format!("pipe: errno {}", errno_raw()));
    }
    // SAFETY: `pipe` just created both descriptors; nothing else owns them.
    Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
}

/// Fork a worker that chroots into a fresh jail and runs `first` there before
/// it reads any request. `first` reaches the child through the fork itself,
/// so the worker's first reply is already due: the caller reads it next.
/// `Err` means no worker could be started; nothing is left behind.
fn spawn_worker(first: &Script, opts: ExecOptions) -> Result<Worker, String> {
    let (req_rd, req_wr) = pipe()?;
    let (rep_rd, rep_wr) = pipe()?;
    let dir = fresh_sandbox_dir().map_err(|e| format!("sandbox dir: {e}"))?;
    let mut root = dir.as_os_str().as_encoded_bytes().to_vec();
    root.push(0);

    // SAFETY: integer-only FFI call; the child branch immediately enters
    // `worker_loop` and never returns into Rust caller frames.
    let pid = unsafe { raw::fork() };
    if pid < 0 {
        let err = format!("fork: errno {}", errno_raw());
        let _ = std::fs::remove_dir_all(&dir);
        return Err(err);
    }
    if pid == 0 {
        worker_loop(&root, first, opts, req_rd.as_raw_fd(), rep_wr.as_raw_fd());
    }
    // The child's ends close here, so EOF on `rep_rd` means the worker died.
    drop((req_rd, rep_wr));
    Ok(Worker { pid, req_wr, rep_rd, dir })
}

/// Send `script` to an idle worker and read its reply.
fn run_on(worker: &Worker, script: &Script, opts: ExecOptions) -> Reply {
    if !write_frame(worker.req_wr.as_raw_fd(), TAG_EXEC, &encode_exec_request(script, opts)) {
        return Reply::Broken("request write failed (worker gone)".to_string());
    }
    read_reply(worker, script)
}

/// Read the worker's reply to `script`.
fn read_reply(worker: &Worker, script: &Script) -> Reply {
    match read_frame(worker.rep_rd.as_raw_fd()) {
        Some((TAG_TRACE, bytes)) => match parse_trace(&String::from_utf8_lossy(&bytes)) {
            Ok(mut trace) => {
                // The rendered form re-derives the group from the name; pin
                // both to the script's own values.
                trace.name = script.name.clone();
                trace.group = script.group.clone();
                Reply::Served(Ok(trace))
            }
            // An unparseable trace means worker state is suspect, not just
            // this script: discard it.
            Err(e) => Reply::Broken(format!("worker trace unparseable: {e}")),
        },
        Some((TAG_ERROR, msg)) => Reply::Served(Err(ExecError::Backend {
            script: script.name.clone(),
            message: String::from_utf8_lossy(&msg).into_owned(),
        })),
        Some((TAG_SANDBOX, msg)) => Reply::Sandbox(String::from_utf8_lossy(&msg).into_owned()),
        Some((tag, _)) => Reply::Broken(format!("unexpected reply frame tag {tag:#x}")),
        None => Reply::Broken("worker died mid-script".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// A forked worker: chroot into `root`, run `first`, then
/// read-execute-reply-reset until EOF on the request pipe. Never returns.
fn worker_loop(root: &[u8], first: &Script, opts: ExecOptions, req_rd: i32, rep_wr: i32) -> ! {
    // Drop every inherited descriptor but stdio and our two pipe ends: a
    // sibling's pipe end held open here would keep the parent from ever
    // seeing that sibling's EOF.
    close_all_except(&[0, 1, 2, req_rd, rep_wr]);
    // SAFETY: `root` is NUL-terminated by the caller and the `c"…"` literals
    // by construction; all other calls are integer-only.
    let jail_root_fd = unsafe {
        if raw::chdir(root.as_ptr().cast()) != 0
            || raw::chroot(c".".as_ptr().cast()) != 0
            || raw::chdir(c"/".as_ptr().cast()) != 0
        {
            let msg = format!("errno={}", errno_raw());
            write_frame(rep_wr, TAG_SANDBOX, msg.as_bytes());
            exit(EXIT_SANDBOX);
        }
        raw::umask(0o022);
        // The anchor the whole reset contract hangs off: an O_PATH handle on
        // the jail root taken *after* the chroot, so `fchdir` can always get
        // back no matter where (or in what deleted directory) a script left
        // the process.
        let fd = raw::open(
            c"/".as_ptr().cast(),
            raw::O_PATH | raw::O_DIRECTORY | raw::O_CLOEXEC,
            0,
        );
        if fd < 0 {
            let msg = format!("jail root fd: errno={}", errno_raw());
            write_frame(rep_wr, TAG_SANDBOX, msg.as_bytes());
            exit(EXIT_SANDBOX);
        }
        fd
    };

    serve(first, opts, jail_root_fd, req_rd, rep_wr);
    loop {
        let Some((tag, payload)) = read_frame(req_rd) else {
            // EOF: the pool is shutting down.
            exit(EXIT_OK);
        };
        if tag != TAG_EXEC {
            // Protocol violation: die rather than guess (the parent will run
            // the script in flight on another worker).
            exit(EXIT_SANDBOX);
        }
        match decode_exec_request(&payload) {
            Ok((script, opts)) => serve(&script, opts, jail_root_fd, req_rd, rep_wr),
            // The jail was not touched, so the worker stays usable.
            Err(msg) => {
                if !write_frame(rep_wr, TAG_ERROR, msg.as_bytes()) {
                    exit(EXIT_OK);
                }
            }
        }
    }
}

/// Run one script in the jail, reply with its trace, and reset the jail for
/// the next one. The reset comes *after* the reply, overlapping the teardown
/// with the parent's dispatch of the next script. A worker that cannot reply,
/// or cannot restore a pristine jail, exits rather than serve again.
fn serve(script: &Script, opts: ExecOptions, jail_root_fd: i32, req_rd: i32, rep_wr: i32) {
    let rendered = render_trace(&super::run_script_in_jail(script, opts));
    if !write_frame(rep_wr, TAG_TRACE, rendered.as_bytes()) {
        exit(EXIT_OK);
    }
    if !reset_jail(jail_root_fd, req_rd, rep_wr) {
        exit(EXIT_SANDBOX);
    }
}

/// End the worker without unwinding into, or running the atexit handlers of,
/// the parent's state it inherited.
fn exit(code: i32) -> ! {
    // SAFETY: integer-only, never returns.
    unsafe { raw::_exit(code) }
}

/// Restore the pristine-jail invariant between scripts (see the module docs
/// for the full contract). Returns `false` if any step fails, in which case
/// the worker must exit.
fn reset_jail(jail_root_fd: i32, req_rd: i32, rep_wr: i32) -> bool {
    // SAFETY: integer-only FFI calls; `setgroups(0, null)` reads zero
    // elements, for which a null pointer is valid.
    unsafe {
        raw::seteuid(0);
        raw::setegid(0);
        raw::setgroups(0, std::ptr::null());
        raw::umask(0o022);
        if raw::fchdir(jail_root_fd) != 0 {
            return false;
        }
    }
    if !remove_tree_children(b".") {
        return false;
    }
    // Scripts chmod/chown the jail root itself ("/" from their point of
    // view); put it back the way a fresh sandbox directory comes up.
    // SAFETY: the `c"."` literal is NUL-terminated; integer-only otherwise.
    unsafe {
        if raw::chmod(c".".as_ptr().cast(), 0o755) != 0
            || raw::chown(c".".as_ptr().cast(), 0, 0) != 0
        {
            return false;
        }
    }
    close_all_except(&[0, 1, 2, req_rd, rep_wr, jail_root_fd]);
    true
}

/// Recursively delete every entry *under* `dir` (the directory itself
/// survives). Paths are relative to the restored jail-root cwd; running with
/// euid 0 inside the chroot, mode bits cannot get in the way.
fn remove_tree_children(dir: &[u8]) -> bool {
    let mut cdir = dir.to_vec();
    cdir.push(0);
    // SAFETY: `cdir` is a live NUL-terminated buffer; `opendir` copies it.
    let handle = unsafe { raw::opendir(cdir.as_ptr().cast()) };
    if handle.is_null() {
        return false;
    }
    let mut names: Vec<Vec<u8>> = Vec::new();
    loop {
        // SAFETY: `handle` is the live `DIR*` opened above, closed only
        // after this loop.
        let ent = unsafe { raw::readdir(handle) };
        if ent.is_null() {
            break;
        }
        // SAFETY: `ent` is non-null and points into the DIR buffer, valid
        // until the next readdir; `d_name` is NUL-terminated by the kernel.
        let name = unsafe { super::c_str_bytes(&(*ent).d_name) };
        if name == b"." || name == b".." {
            continue;
        }
        names.push(name.to_vec());
    }
    // SAFETY: `handle` is live and closed exactly once.
    unsafe { raw::closedir(handle) };

    for name in names {
        let mut child = dir.to_vec();
        child.push(b'/');
        child.extend_from_slice(&name);
        let mut cchild = child.clone();
        cchild.push(0);
        let mut buf = std::mem::MaybeUninit::<raw::Statx>::zeroed();
        // SAFETY: `cchild` is NUL-terminated and `buf` is a properly-aligned
        // writable `Statx`; neither pointer is retained.
        let rc = unsafe {
            raw::statx(
                raw::AT_FDCWD,
                cchild.as_ptr().cast(),
                raw::AT_SYMLINK_NOFOLLOW,
                raw::STATX_BASIC_STATS,
                buf.as_mut_ptr(),
            )
        };
        if rc != 0 {
            return false;
        }
        // SAFETY: statx returned 0, so the zero-initialised buffer's
        // requested fields are populated.
        let stx = unsafe { buf.assume_init() };
        if u32::from(stx.stx_mode) & raw::S_IFMT == raw::S_IFDIR {
            // SAFETY: `cchild` is a live NUL-terminated buffer.
            if !remove_tree_children(&child) || unsafe { raw::rmdir(cchild.as_ptr().cast()) } != 0
            {
                return false;
            }
        } else {
            // SAFETY: `cchild` is a live NUL-terminated buffer.
            if unsafe { raw::unlink(cchild.as_ptr().cast()) } != 0 {
                return false;
            }
        }
    }
    true
}

/// Close every descriptor except the listed ones, using `close_range` over
/// the gaps between them.
fn close_all_except(keep: &[i32]) {
    let mut keep: Vec<u32> = keep.iter().filter(|&&fd| fd >= 0).map(|&fd| fd as u32).collect();
    keep.sort_unstable();
    keep.dedup();
    let mut next = 0u32;
    for fd in keep {
        if fd > next {
            // SAFETY: integer-only FFI call; best effort (close_range is
            // glibc ≥ 2.34 / kernel ≥ 5.9).
            unsafe { raw::close_range(next, fd - 1, 0) };
        }
        next = fd + 1;
    }
    // SAFETY: integer-only FFI call, as above.
    unsafe { raw::close_range(next, u32::MAX, 0) };
}

#[cfg(test)]
mod tests {
    use super::super::{raw, sandbox_base_dir, HostFs};
    use super::lock;
    use crate::{ExecError, ExecOptions, Executor};
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::obs;
    use sibylfs_core::types::{Fd, Gid, Pid, Uid};
    use sibylfs_script::Script;

    fn pooled_or_skip(workers: usize) -> Option<HostFs> {
        if HostFs::available() {
            Some(HostFs::pooled(workers))
        } else {
            eprintln!("skipping: host sandbox unavailable (need chroot privilege)");
            None
        }
    }

    fn mode(m: u32) -> FileMode {
        FileMode::new(m)
    }

    /// A script that dirties every axis of worker state the reset contract
    /// covers: files and nested directories, open fds and directory handles
    /// (deliberately not closed), a changed cwd (inside a directory that
    /// still exists), a changed umask, and non-root credentials left in
    /// effect at the end.
    fn dirty_script() -> Script {
        let mut s = Script::new("pool___dirty", "pool");
        s.call(OsCommand::Mkdir("/junk".into(), mode(0o700)))
            .call(OsCommand::Mkdir("/junk/nested".into(), mode(0o777)))
            .call(OsCommand::Open(
                "/junk/nested/leak".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(mode(0o666)),
            ))
            .call(OsCommand::Write(Fd(3), b"residue".to_vec()))
            .call(OsCommand::Opendir("/junk".into()))
            .call(OsCommand::Symlink("/junk".into(), "/hole".into()))
            .call(OsCommand::Chdir("/junk/nested".into()))
            .call(OsCommand::Umask(mode(0o077)))
            .create_process(Pid(2), Uid(3000), Gid(3000))
            .call_as(Pid(2), OsCommand::Mkdir("/theirs".into(), mode(0o755)));
        s
    }

    /// A probe that would answer differently on any leaked state: leftover
    /// entries show up in the root readdir, a leaked umask changes the
    /// created file's mode, leaked fds/cwd/credentials change fd numbering
    /// or permissions.
    fn probe_script() -> Script {
        let mut s = Script::new("pool___probe", "pool");
        s.call(OsCommand::Opendir("/".into()))
            .call(OsCommand::Readdir(sibylfs_core::types::DirHandleId(1)))
            .call(OsCommand::Open(
                "/probe".into(),
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Some(mode(0o777)),
            ))
            .call(OsCommand::Stat("/probe".into()))
            .call(OsCommand::Mkdir("/pdir".into(), mode(0o777)))
            .call(OsCommand::Stat("/pdir".into()));
        s
    }

    #[test]
    fn jail_reset_leaves_nothing_observable_for_the_next_script() {
        // One worker, so both scripts run in the same process and the same
        // jail: the probe sees the reset, or the leak. The baseline is the
        // probe as the first script of a freshly forked worker, which never
        // saw a reset.
        let Some(pooled) = pooled_or_skip(1) else { return };
        let opts = ExecOptions::default();

        let baseline = HostFs::pooled(1).execute_script(&probe_script(), opts).unwrap();
        pooled.execute_script(&dirty_script(), opts).unwrap();
        let after_dirty = pooled.execute_script(&probe_script(), opts).unwrap();
        assert_eq!(
            after_dirty, baseline,
            "a probe after a jail-dirtying script must be byte-identical to a fresh jail"
        );
        // And explicitly: the root directory scans empty again.
        match &after_dirty.steps[3].label {
            sibylfs_core::commands::OsLabel::Return(
                _,
                ErrorOrValue::Value(RetValue::ReaddirEntry(None)),
            ) => {}
            other => panic!("root not empty after reset: {other:?}"),
        }
    }

    #[test]
    fn repeated_scripts_on_one_worker_match_a_fresh_worker() {
        let Some(pooled) = pooled_or_skip(1) else { return };
        let opts = ExecOptions::default();
        let mut s = Script::new("mkdir___pool_repeat", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), mode(0o777)))
            .call(OsCommand::Open(
                "/d/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(mode(0o644)),
            ))
            .call(OsCommand::Write(Fd(3), b"x".to_vec()))
            .call(OsCommand::Stat("/d/f".into()));
        let reference = HostFs::pooled(1).execute_script(&s, opts).unwrap();
        for round in 0..5 {
            let t = pooled.execute_script(&s, opts).unwrap();
            assert_eq!(t, reference, "round {round} must not see prior rounds");
        }
    }

    #[test]
    fn pooled_execution_reuses_workers_instead_of_forking() {
        let Some(pooled) = pooled_or_skip(2) else { return };
        let opts = ExecOptions::default();
        let resets0 = sibylfs_core::obs::m::EXEC_JAIL_RESETS_TOTAL.get();
        let mut s = Script::new("mkdir___pool_counter", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), mode(0o777)));
        for _ in 0..6 {
            pooled.execute_script(&s, opts).unwrap();
        }
        assert!(
            sibylfs_core::obs::m::EXEC_JAIL_RESETS_TOTAL.get() >= resets0 + 6,
            "every pooled script rides a jail reset, not a fresh fork"
        );
    }

    #[test]
    fn a_killed_idle_worker_is_respawned_and_the_script_still_runs() {
        let Some(pooled) = pooled_or_skip(1) else { return };
        let opts = ExecOptions::default();
        let s = probe_script();
        let reference = pooled.execute_script(&s, opts).unwrap();
        let idle_pid = || lock(&pooled.pool.state).idle[0].pid;
        let killed = idle_pid();
        // SAFETY: integer-only FFI call on a child the pool forked and has
        // not reaped, so the pid cannot have been reused.
        assert_eq!(unsafe { raw::kill(killed, raw::SIGKILL) }, 0);

        let respawns = obs::m::EXEC_WORKER_RESPAWNS_TOTAL.get();
        let t = pooled.execute_script(&s, opts).unwrap();
        assert_eq!(t, reference, "the script re-runs on a new worker with the same trace");
        assert_eq!(obs::m::EXEC_WORKER_RESPAWNS_TOTAL.get(), respawns + 1);
        assert_ne!(idle_pid(), killed, "the dead worker was replaced");
    }

    #[test]
    fn an_unprivileged_pool_reports_sandbox_unavailable_and_releases_its_slot() {
        if HostFs::available() {
            eprintln!("skipping: host sandbox available (this test needs an unprivileged run)");
            return;
        }
        let pooled = HostFs::pooled(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let calls = std::thread::spawn(move || {
            for _ in 0..2 {
                let _ = tx.send(pooled.execute_script(&probe_script(), ExecOptions::default()));
            }
        });
        for call in 1..=2 {
            // The pool has one slot: had the first call kept it, the second
            // would block forever.
            match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(Err(ExecError::SandboxUnavailable(_))) => {}
                other => panic!("call {call}: expected SandboxUnavailable, got {other:?}"),
            }
        }
        calls.join().unwrap();
        let ours = format!("sibylfs-host-{}-", std::process::id());
        let left: Vec<String> = std::fs::read_dir(sandbox_base_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&ours))
            .collect();
        assert!(left.is_empty(), "jail directories left behind: {left:?}");
    }
}
