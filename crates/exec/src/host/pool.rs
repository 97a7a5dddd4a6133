//! A pool of persistent pre-jailed host worker processes.
//!
//! The cold-fork path pays fork + chroot + tempdir creation + teardown for
//! every script — milliseconds of fixed cost around microseconds of actual
//! syscalls. A [`WorkerPool`] pays that cost once per worker: each worker is
//! forked and chrooted at spawn, then serves many scripts over the
//! [`protocol`](super::protocol) pipes, *resetting its jail between scripts*
//! instead of being re-forked.
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
//! dirty jail; the parent notices EOF on the next request, falls back to a
//! **cold fork** for that script (`sibylfs_exec_cold_forks_total` counts
//! these), and spawns a replacement worker
//! (`sibylfs_exec_worker_respawns_total`). Successful per-script resets are
//! counted by `sibylfs_exec_jail_resets_total`.

use std::path::PathBuf;
use std::sync::{Condvar, Mutex};

use sibylfs_core::obs;
use sibylfs_core::pool::lock;
use sibylfs_script::{parse_trace, render_trace, Script, Trace};

use super::protocol::{
    decode_exec_request, encode_exec_request, read_frame, write_frame, TAG_ERROR, TAG_EXEC,
    TAG_READY, TAG_SANDBOX, TAG_TRACE,
};
use super::{errno_raw, fresh_sandbox_dir, raw, EXIT_OK, EXIT_SANDBOX};
use crate::{ExecError, ExecOptions};

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// One live worker process, from the parent's point of view.
#[derive(Debug)]
struct Worker {
    pid: i32,
    /// Parent's write end of the request pipe; closing it is the graceful
    /// shutdown signal (the worker reads EOF and exits).
    req_wr: i32,
    /// Parent's read end of the reply pipe.
    rep_rd: i32,
    /// The jail root on the parent's side of the chroot.
    dir: PathBuf,
}

#[derive(Debug)]
struct PoolState {
    idle: Vec<Worker>,
    /// Workers alive (idle + checked out). Bounded by the pool capacity.
    live: usize,
}

/// A lazy, fixed-capacity pool of persistent pre-jailed workers.
///
/// Workers are spawned on demand up to the capacity; callers needing a
/// worker when all are busy block until one is returned (or dies). Shared
/// behind an `Arc` by [`HostFs::pooled`](super::HostFs::pooled), so
/// concurrent callers each check out their own worker.
#[derive(Debug)]
pub struct WorkerPool {
    cap: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl WorkerPool {
    /// Create an empty pool with capacity `workers` (clamped to ≥ 1). No
    /// processes are forked until the first execution.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            cap: workers.max(1),
            state: Mutex::new(PoolState { idle: Vec::new(), live: 0 }),
            available: Condvar::new(),
        }
    }

    /// Pool capacity (maximum concurrent worker processes).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Execute one script on a pooled worker. A dead or corrupt worker is
    /// discarded and the script transparently re-runs on a cold fork, so a
    /// single worker failure costs one fork, not a verdict.
    pub(super) fn execute(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        let worker = self.checkout()?;
        match run_on(&worker, script, opts) {
            Ok(res) => {
                // The worker resets its jail after every served script; it
                // is only returned to the pool on a healthy reply.
                obs::m::EXEC_JAIL_RESETS_TOTAL.inc();
                self.checkin(worker);
                res
            }
            Err(why) => {
                self.discard(worker);
                obs::m::EXEC_WORKER_RESPAWNS_TOTAL.inc();
                let _ = why; // the cold-fork result supersedes the diagnosis
                super::cold_execute(script, opts)
            }
        }
    }

    /// Take an idle worker, spawning one if the pool is under capacity;
    /// block while all workers are checked out.
    fn checkout(&self) -> Result<Worker, ExecError> {
        let mut st = lock(&self.state);
        loop {
            if let Some(w) = st.idle.pop() {
                return Ok(w);
            }
            if st.live < self.cap {
                st.live += 1;
                drop(st);
                return spawn_worker().inspect_err(|_| {
                    lock(&self.state).live -= 1;
                    self.available.notify_one();
                });
            }
            st = self.available.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn checkin(&self, worker: Worker) {
        lock(&self.state).idle.push(worker);
        self.available.notify_one();
    }

    /// Force-reap a worker that broke protocol (or died); its slot becomes
    /// spawnable again.
    fn discard(&self, worker: Worker) {
        // SAFETY: `pid` is a child this pool forked and has not yet reaped;
        // the descriptors are owned by `worker` and closed exactly once
        // here. `waitpid` writes through a valid `&mut status`.
        unsafe {
            raw::kill(worker.pid, raw::SIGKILL);
            let mut status = 0;
            raw::waitpid(worker.pid, &mut status, 0);
            raw::close(worker.req_wr);
            raw::close(worker.rep_rd);
        }
        let _ = std::fs::remove_dir_all(&worker.dir);
        lock(&self.state).live -= 1;
        self.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let mut st = lock(&self.state);
        let idle: Vec<Worker> = st.idle.drain(..).collect();
        for w in idle {
            // SAFETY: closing the request pipe makes the worker read EOF and
            // `_exit(0)`; the descriptors are owned by `w` and closed exactly
            // once, and `waitpid` writes through a valid `&mut status`.
            unsafe {
                raw::close(w.req_wr);
                let mut status = 0;
                raw::waitpid(w.pid, &mut status, 0);
                raw::close(w.rep_rd);
            }
            let _ = std::fs::remove_dir_all(&w.dir);
            st.live -= 1;
        }
    }
}

/// Fork one persistent worker and wait for its ready/sandbox handshake.
fn spawn_worker() -> Result<Worker, ExecError> {
    let spawn_err = |message: String| ExecError::Backend {
        script: "<worker-spawn>".to_string(),
        message,
    };
    let dir = fresh_sandbox_dir().map_err(|e| spawn_err(format!("sandbox dir: {e}")))?;
    let mut root = dir.as_os_str().as_encoded_bytes().to_vec();
    root.push(0);

    let mut req = [0i32; 2];
    let mut rep = [0i32; 2];
    // SAFETY: each array is a live buffer of exactly the two c_ints the
    // kernel writes.
    if unsafe { raw::pipe(req.as_mut_ptr()) } != 0 {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(spawn_err(format!("pipe: errno {}", errno_raw())));
    }
    if unsafe { raw::pipe(rep.as_mut_ptr()) } != 0 {
        // SAFETY: both request-pipe ends were just created and are owned here.
        unsafe {
            raw::close(req[0]);
            raw::close(req[1]);
        }
        let _ = std::fs::remove_dir_all(&dir);
        return Err(spawn_err(format!("pipe: errno {}", errno_raw())));
    }

    // SAFETY: integer-only FFI call; the child branch immediately enters
    // `pool_worker_main` and never returns into Rust caller frames.
    let pid = unsafe { raw::fork() };
    if pid < 0 {
        // SAFETY: all four pipe ends were just created and are owned here.
        unsafe {
            for fd in [req[0], req[1], rep[0], rep[1]] {
                raw::close(fd);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        return Err(spawn_err(format!("fork: errno {}", errno_raw())));
    }
    if pid == 0 {
        // SAFETY: the child owns its copies of the parent-side ends and
        // closes each exactly once before entering the serve loop.
        unsafe {
            raw::close(req[1]);
            raw::close(rep[0]);
        }
        pool_worker_main(&root, req[0], rep[1]);
    }

    // SAFETY: the parent owns its copies of the child-side ends and closes
    // each exactly once.
    unsafe {
        raw::close(req[0]);
        raw::close(rep[1]);
    }
    let worker = Worker { pid, req_wr: req[1], rep_rd: rep[0], dir };

    // The worker reports exactly one startup frame: ready, or why not.
    match read_frame(worker.rep_rd) {
        Some((TAG_READY, _)) => Ok(worker),
        Some((TAG_SANDBOX, msg)) => {
            let why = String::from_utf8_lossy(&msg).into_owned();
            reap(worker);
            Err(ExecError::SandboxUnavailable(format!("worker could not chroot ({why})")))
        }
        other => {
            let desc = match other {
                Some((tag, _)) => format!("unexpected startup frame tag {tag:#x}"),
                None => "worker died before handshake".to_string(),
            };
            reap(worker);
            Err(spawn_err(desc))
        }
    }
}

/// Reap a worker that never became usable.
fn reap(worker: Worker) {
    // SAFETY: `pid` is an unreaped child of this process; the descriptors
    // are owned by `worker` and closed exactly once.
    unsafe {
        raw::close(worker.req_wr);
        let mut status = 0;
        raw::waitpid(worker.pid, &mut status, 0);
        raw::close(worker.rep_rd);
    }
    let _ = std::fs::remove_dir_all(&worker.dir);
}

/// One request/reply round-trip. The outer `Err` means the worker can no
/// longer be trusted (died, or sent bytes we cannot interpret) and must be
/// discarded; the inner result is the script's own outcome.
fn run_on(
    worker: &Worker,
    script: &Script,
    opts: ExecOptions,
) -> Result<Result<Trace, ExecError>, String> {
    if !write_frame(worker.req_wr, TAG_EXEC, &encode_exec_request(script, opts)) {
        return Err("request write failed (worker gone)".to_string());
    }
    match read_frame(worker.rep_rd) {
        Some((TAG_TRACE, bytes)) => {
            let text = String::from_utf8_lossy(&bytes);
            match parse_trace(&text) {
                Ok(mut trace) => {
                    // As in the cold path: the rendered form re-derives the
                    // group from the name; pin both to the script's values.
                    trace.name = script.name.clone();
                    trace.group = script.group.clone();
                    Ok(Ok(trace))
                }
                // An unparseable trace means worker state is suspect, not
                // just this script: discard it.
                Err(e) => Err(format!("worker trace unparseable: {e}")),
            }
        }
        Some((TAG_ERROR, msg)) => Ok(Err(ExecError::Backend {
            script: script.name.clone(),
            message: String::from_utf8_lossy(&msg).into_owned(),
        })),
        Some((tag, _)) => Err(format!("unexpected reply frame tag {tag:#x}")),
        None => Err("worker died mid-script".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Serve loop of a persistent worker: chroot once, then
/// read-execute-reply-reset until EOF on the request pipe. Never returns.
fn pool_worker_main(root: &[u8], req_rd: i32, rep_wr: i32) -> ! {
    close_all_except(&[0, 1, 2, req_rd, rep_wr]);
    // SAFETY: `root` is NUL-terminated by the caller and the `c"…"` literals
    // by construction; all other calls are integer-only. `_exit` never
    // returns and skips the parent's atexit state, as a forked worker must.
    let jail_root_fd = unsafe {
        if raw::chdir(root.as_ptr().cast()) != 0
            || raw::chroot(c".".as_ptr().cast()) != 0
            || raw::chdir(c"/".as_ptr().cast()) != 0
        {
            let msg = format!("errno={}", errno_raw());
            write_frame(rep_wr, TAG_SANDBOX, msg.as_bytes());
            raw::_exit(EXIT_SANDBOX);
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
            raw::_exit(EXIT_SANDBOX);
        }
        fd
    };
    if !write_frame(rep_wr, TAG_READY, b"") {
        // SAFETY: integer-only, never returns.
        unsafe { raw::_exit(EXIT_OK) };
    }

    loop {
        let Some((tag, payload)) = read_frame(req_rd) else {
            // EOF: the pool is shutting down.
            // SAFETY: integer-only, never returns.
            unsafe { raw::_exit(EXIT_OK) };
        };
        if tag != TAG_EXEC {
            // Protocol violation: die rather than guess (the parent will
            // cold-fork the script in flight and respawn).
            // SAFETY: integer-only, never returns.
            unsafe { raw::_exit(EXIT_SANDBOX) };
        }
        match decode_exec_request(&payload) {
            Ok((script, opts)) => {
                let trace = super::run_script_in_jail(&script, opts);
                let rendered = render_trace(&trace);
                if !write_frame(rep_wr, TAG_TRACE, rendered.as_bytes()) {
                    // SAFETY: integer-only, never returns.
                    unsafe { raw::_exit(EXIT_OK) };
                }
                // Reset *after* replying, overlapping the teardown with the
                // parent's dispatch of the next script. A worker that cannot
                // restore a pristine jail must never serve again.
                if !reset_jail(jail_root_fd, req_rd, rep_wr) {
                    // SAFETY: integer-only, never returns.
                    unsafe { raw::_exit(EXIT_SANDBOX) };
                }
            }
            Err(msg) => {
                // The jail was not touched, so the worker stays usable.
                if !write_frame(rep_wr, TAG_ERROR, msg.as_bytes()) {
                    // SAFETY: integer-only, never returns.
                    unsafe { raw::_exit(EXIT_OK) };
                }
            }
        }
    }
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
            // glibc ≥ 2.34 / kernel ≥ 5.9, like the cold path's usage).
            unsafe { raw::close_range(next, fd - 1, 0) };
        }
        next = fd + 1;
    }
    // SAFETY: integer-only FFI call, as above.
    unsafe { raw::close_range(next, u32::MAX, 0) };
}

#[cfg(test)]
mod tests {
    use super::super::HostFs;
    use crate::{ExecOptions, Executor};
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};
    use sibylfs_core::flags::{FileMode, OpenFlags};
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
        // jail: the probe sees the reset, or the leak.
        let Some(pooled) = pooled_or_skip(1) else { return };
        let cold = HostFs::new();
        let opts = ExecOptions::default();

        let baseline = cold.execute_script(&probe_script(), opts).unwrap();
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
    fn repeated_scripts_on_one_worker_match_cold_forks() {
        let Some(pooled) = pooled_or_skip(1) else { return };
        let cold = HostFs::new();
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
        let reference = cold.execute_script(&s, opts).unwrap();
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
}
