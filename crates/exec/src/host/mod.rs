//! Real-host POSIX execution backend (Linux only).
//!
//! This is the reproduction's equivalent of the paper's test executor (§6.2):
//! each script runs in a *forked worker process* that chroots into a fresh
//! per-script temporary directory, so every execution starts from an empty
//! file-system namespace and absolute paths (including symlink targets) stay
//! inside the jail. The worker issues genuine libc calls with the script's
//! flags and modes, maps raw errnos back through [`sibylfs_core::errno`], and
//! streams the rendered trace back to the parent over a pipe.
//!
//! ## Sandboxing and privilege
//!
//! Building the jail needs `chroot(2)` (CAP_SYS_CHROOT) and the multi-user
//! permission scripts need to switch effective credentials (CAP_SETUID/
//! CAP_SETGID) and to `chown` to arbitrary ids (CAP_CHOWN) — i.e. the backend
//! wants to run as root, exactly like the paper's harness. Unprivileged runs
//! report [`ExecError::SandboxUnavailable`] and callers (the differential
//! test, the survey) skip the host rows gracefully. [`sandbox_available`]
//! probes this once per process with a throwaway fork+chroot.
//!
//! Inside the jail, the worker emulates the *per-virtual-process* state the
//! model tracks — working directory (a saved `O_PATH` descriptor, restored
//! with `fchdir` before each call, which preserves "deleted cwd" semantics),
//! umask, effective uid/gid plus supplementary groups (switched with
//! `seteuid`/`setegid`, which also drops root's capability overrides so
//! permission checks are genuinely enforced), and the fd / directory-handle
//! tables. Virtual descriptor numbers are allocated monotonically from 3
//! (handles from 1) per process, mirroring the simulator's discipline that
//! the generated scripts rely on; the kernel's real descriptor numbers are an
//! implementation detail the trace never exposes.
//!
//! ## Abstraction mapping
//!
//! One stat field is normalised: the model defines the size of a directory to
//! be 0, while real file systems report block-allocation sizes (4096 on ext4,
//! entry-dependent values on tmpfs). The worker therefore records directory
//! sizes as 0 — the same interpretation step the paper applies when comparing
//! concrete `struct stat` values against the abstract specification state.
//! Every other field (kind, size for files and symlinks, nlink, mode,
//! uid/gid) is reported exactly as the kernel returned it.

// Every unsafe block below carries a `// SAFETY:` justification, and unsafe
// operations inside `unsafe fn` bodies still need their own block.
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel, RetValue, Stat};
use sibylfs_core::errno::Errno;
use sibylfs_core::flags::{FileMode, OpenFlags, SeekWhence};
use sibylfs_core::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid, INITIAL_PID};
use sibylfs_script::{parse_trace, render_trace, Script, ScriptStep, Trace};

use crate::{ExecError, ExecOptions, Executor};

// The backend is split across three modules:
//
// * this one — the raw libc bindings, the jail-side `HostWorld` call
//   dispatcher, and the original cold-fork execution path (one fork+chroot
//   per script, also the pool's fallback);
// * [`protocol`] — the length-prefixed pipe frames a persistent worker
//   speaks to its parent;
// * [`pool`] — the persistent pre-jailed worker pool: fork+chroot once per
//   worker, reset the jail between scripts.
mod pool;
mod protocol;

pub use pool::WorkerPool;

/// Raw libc bindings. The workspace is offline (no `libc` crate), so the
/// handful of symbols the backend needs are declared inline; all are part of
/// glibc's and musl's stable ABI on Linux.
mod raw {
    use std::os::raw::{c_char, c_int, c_uint, c_void};

    /// glibc/musl `struct dirent` on 64-bit Linux.
    #[repr(C)]
    pub struct Dirent {
        pub d_ino: u64,
        pub d_off: i64,
        pub d_reclen: u16,
        pub d_type: u8,
        pub d_name: [c_char; 256],
    }

    /// `struct statx_timestamp` from the kernel uapi (architecture
    /// independent, unlike `struct stat`).
    #[repr(C)]
    pub struct StatxTimestamp {
        pub tv_sec: i64,
        pub tv_nsec: u32,
        pub __reserved: i32,
    }

    /// `struct statx` from the kernel uapi.
    #[repr(C)]
    pub struct Statx {
        pub stx_mask: u32,
        pub stx_blksize: u32,
        pub stx_attributes: u64,
        pub stx_nlink: u32,
        pub stx_uid: u32,
        pub stx_gid: u32,
        pub stx_mode: u16,
        pub __spare0: [u16; 1],
        pub stx_ino: u64,
        pub stx_size: u64,
        pub stx_blocks: u64,
        pub stx_attributes_mask: u64,
        pub stx_atime: StatxTimestamp,
        pub stx_btime: StatxTimestamp,
        pub stx_ctime: StatxTimestamp,
        pub stx_mtime: StatxTimestamp,
        pub stx_rdev_major: u32,
        pub stx_rdev_minor: u32,
        pub stx_dev_major: u32,
        pub stx_dev_minor: u32,
        pub stx_mnt_id: u64,
        pub stx_dio_mem_align: u32,
        pub stx_dio_offset_align: u32,
        pub __spare3: [u64; 12],
    }

    pub const AT_FDCWD: c_int = -100;
    pub const AT_SYMLINK_NOFOLLOW: c_int = 0x100;
    pub const STATX_BASIC_STATS: c_uint = 0x7ff;

    pub const SEEK_SET: c_int = 0;
    pub const SEEK_CUR: c_int = 1;
    pub const SEEK_END: c_int = 2;

    pub const S_IFMT: u32 = 0o170000;
    pub const S_IFDIR: u32 = 0o040000;
    pub const S_IFREG: u32 = 0o100000;
    pub const S_IFLNK: u32 = 0o120000;

    // open(2) flag values. The access-mode bits and the generic flags are
    // identical across Linux architectures; O_DIRECTORY/O_NOFOLLOW differ.
    pub const O_WRONLY: c_int = 0o1;
    pub const O_RDWR: c_int = 0o2;
    pub const O_CREAT: c_int = 0o100;
    pub const O_EXCL: c_int = 0o200;
    pub const O_TRUNC: c_int = 0o1000;
    pub const O_APPEND: c_int = 0o2000;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_SYNC: c_int = 0o4010000;
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const O_PATH: c_int = 0o10000000;
    // The backend is gated to 64-bit targets (the bindings assume 64-bit
    // off_t and the 64-bit struct dirent), so only the aarch64-vs-rest split
    // matters here.
    #[cfg(not(target_arch = "aarch64"))]
    pub const O_DIRECTORY: c_int = 0o200000;
    #[cfg(not(target_arch = "aarch64"))]
    pub const O_NOFOLLOW: c_int = 0o400000;
    #[cfg(target_arch = "aarch64")]
    pub const O_DIRECTORY: c_int = 0o40000;
    #[cfg(target_arch = "aarch64")]
    pub const O_NOFOLLOW: c_int = 0o100000;

    /// `SIGKILL`, for force-reaping a misbehaving pool worker.
    pub const SIGKILL: c_int = 9;

    extern "C" {
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn _exit(status: c_int) -> !;
        pub fn chroot(path: *const c_char) -> c_int;
        pub fn chdir(path: *const c_char) -> c_int;
        pub fn fchdir(fd: c_int) -> c_int;
        pub fn mkdir(path: *const c_char, mode: c_uint) -> c_int;
        pub fn rmdir(path: *const c_char) -> c_int;
        pub fn unlink(path: *const c_char) -> c_int;
        pub fn link(oldpath: *const c_char, newpath: *const c_char) -> c_int;
        pub fn symlink(target: *const c_char, linkpath: *const c_char) -> c_int;
        pub fn readlink(path: *const c_char, buf: *mut c_char, bufsiz: usize) -> isize;
        pub fn rename(oldpath: *const c_char, newpath: *const c_char) -> c_int;
        pub fn open(path: *const c_char, flags: c_int, mode: c_uint) -> c_int;
        pub fn lseek(fd: c_int, offset: i64, whence: c_int) -> i64;
        pub fn pread(fd: c_int, buf: *mut c_void, count: usize, offset: i64) -> isize;
        pub fn pwrite(fd: c_int, buf: *const c_void, count: usize, offset: i64) -> isize;
        pub fn truncate(path: *const c_char, length: i64) -> c_int;
        pub fn chmod(path: *const c_char, mode: c_uint) -> c_int;
        pub fn chown(path: *const c_char, owner: c_uint, group: c_uint) -> c_int;
        pub fn umask(mask: c_uint) -> c_uint;
        pub fn seteuid(euid: c_uint) -> c_int;
        pub fn setegid(egid: c_uint) -> c_int;
        pub fn setgroups(size: usize, list: *const c_uint) -> c_int;
        pub fn statx(
            dirfd: c_int,
            pathname: *const c_char,
            flags: c_int,
            mask: c_uint,
            statxbuf: *mut Statx,
        ) -> c_int;
        pub fn close_range(first: c_uint, last: c_uint, flags: c_int) -> c_int;
        pub fn opendir(name: *const c_char) -> *mut c_void;
        pub fn readdir(dirp: *mut c_void) -> *mut Dirent;
        pub fn rewinddir(dirp: *mut c_void);
        pub fn closedir(dirp: *mut c_void) -> c_int;
        pub fn __errno_location() -> *mut c_int;
    }
}

/// The current thread's errno.
fn errno_raw() -> i32 {
    // SAFETY: `__errno_location` returns a valid, thread-local pointer for
    // the lifetime of the thread; reading it is always defined.
    unsafe { *raw::__errno_location() }
}

/// Map a raw Linux errno to the model's [`Errno`]. The numbers are the
/// asm-generic values shared by every Linux architecture the backend targets.
fn errno_from_raw(raw: i32) -> Errno {
    match raw {
        1 => Errno::EPERM,
        2 => Errno::ENOENT,
        6 => Errno::ENXIO,
        9 => Errno::EBADF,
        11 => Errno::EAGAIN,
        13 => Errno::EACCES,
        16 => Errno::EBUSY,
        17 => Errno::EEXIST,
        18 => Errno::EXDEV,
        20 => Errno::ENOTDIR,
        21 => Errno::EISDIR,
        22 => Errno::EINVAL,
        23 => Errno::ENFILE,
        24 => Errno::EMFILE,
        26 => Errno::ETXTBSY,
        27 => Errno::EFBIG,
        28 => Errno::ENOSPC,
        29 => Errno::ESPIPE,
        30 => Errno::EROFS,
        31 => Errno::EMLINK,
        36 => Errno::ENAMETOOLONG,
        39 => Errno::ENOTEMPTY,
        40 => Errno::ELOOP,
        75 => Errno::EOVERFLOW,
        95 => Errno::EOPNOTSUPP,
        // Anything outside the model's scope (EIO, EDQUOT, …) is reported as
        // EINVAL so it still surfaces as a checkable (and almost certainly
        // deviating) observation rather than aborting the run.
        _ => Errno::EINVAL,
    }
}

/// Translate the model's abstract open flags to the kernel's encoding.
fn raw_open_flags(flags: OpenFlags) -> i32 {
    // The access mode uses the same 2-bit encoding as the kernel; an invalid
    // combination (O_WRONLY|O_RDWR) is passed through untouched so the trace
    // records what the kernel genuinely does with it.
    let mut out = 0;
    if flags.contains(OpenFlags::O_WRONLY) {
        out |= raw::O_WRONLY;
    }
    if flags.contains(OpenFlags::O_RDWR) {
        out |= raw::O_RDWR;
    }
    for (abs, rawv) in [
        (OpenFlags::O_CREAT, raw::O_CREAT),
        (OpenFlags::O_EXCL, raw::O_EXCL),
        (OpenFlags::O_TRUNC, raw::O_TRUNC),
        (OpenFlags::O_APPEND, raw::O_APPEND),
        (OpenFlags::O_DIRECTORY, raw::O_DIRECTORY),
        (OpenFlags::O_NOFOLLOW, raw::O_NOFOLLOW),
        (OpenFlags::O_NONBLOCK, raw::O_NONBLOCK),
        (OpenFlags::O_SYNC, raw::O_SYNC),
        (OpenFlags::O_CLOEXEC, raw::O_CLOEXEC),
    ] {
        // Every flag in the table is a nonzero bit, so `contains` is exact.
        if flags.contains(abs) {
            out |= rawv;
        }
    }
    out
}

/// A NUL-terminated copy of a script path. Script paths are arbitrary
/// strings; one containing an interior NUL cannot reach the kernel, which is
/// indistinguishable from the path not existing.
fn c_path(p: impl AsRef<str>) -> Result<Vec<u8>, Errno> {
    let p = p.as_ref();
    if p.as_bytes().contains(&0) {
        return Err(Errno::ENOENT);
    }
    let mut v = Vec::with_capacity(p.len() + 1);
    v.extend_from_slice(p.as_bytes());
    v.push(0);
    Ok(v)
}

macro_rules! try_cpath {
    ($p:expr) => {
        match c_path($p) {
            Ok(v) => v,
            Err(e) => return ErrorOrValue::Error(e),
        }
    };
}

/// Upper bound on a single `read`/`pread` transfer, so a pathological count
/// in a generated script cannot balloon the worker.
const MAX_TRANSFER: usize = 16 << 20;

/// Per-virtual-process state inside the worker (mirrors the model's
/// per-process state: cwd, umask, credentials, descriptor tables).
struct VProc {
    /// `O_PATH` descriptor on the process's working directory; `fchdir` to it
    /// before each call. Keeps working "deleted cwd" semantics.
    cwd_fd: i32,
    umask: u32,
    uid: u32,
    gid: u32,
    /// Virtual fd numbers are handed out monotonically from 3, as the
    /// simulator does and the generated scripts assume.
    next_fd: i32,
    fds: BTreeMap<i32, i32>,
    next_dh: i32,
    dhs: BTreeMap<i32, *mut std::os::raw::c_void>,
}

/// The whole jail-side world: virtual processes plus the harness's group
/// table (`add_user_to_group`).
struct HostWorld {
    procs: BTreeMap<u32, VProc>,
    /// gid → member uids.
    groups: BTreeMap<u32, BTreeSet<u32>>,
    /// Which virtual process the worker's kernel context (cwd, umask,
    /// credentials, supplementary groups) currently belongs to. Consecutive
    /// calls from the same process skip the seven context syscalls of
    /// [`enter`](HostWorld::enter) — the dominant fixed cost per call on the
    /// pooled path. `Chdir`/`Umask` keep the kernel in sync as they mutate
    /// the process, so they do not invalidate; anything that touches
    /// credentials or group membership behind the kernel's back sets this to
    /// `None`.
    entered: Option<u32>,
}

impl HostWorld {
    fn new() -> HostWorld {
        HostWorld { procs: BTreeMap::new(), groups: BTreeMap::new(), entered: None }
    }

    fn create_process(&mut self, pid: Pid, uid: Uid, gid: Gid) {
        // Regain full privilege to open the jail root regardless of what the
        // previous call ran as.
        // SAFETY: plain FFI calls with no pointer arguments; changing
        // effective credentials cannot violate memory safety, and a failure
        // (unprivileged run) only surfaces as kernel-side EACCES later.
        unsafe {
            raw::seteuid(0);
            raw::setegid(0);
        }
        self.entered = None;
        let root = c_path("/").expect("static path");
        // SAFETY: `root` is a live, NUL-terminated buffer for the duration of
        // the call; `open` does not retain the pointer.
        let cwd_fd = unsafe {
            raw::open(
                root.as_ptr().cast(),
                raw::O_PATH | raw::O_DIRECTORY | raw::O_CLOEXEC,
                0,
            )
        };
        self.procs.insert(
            pid.0,
            VProc {
                cwd_fd,
                umask: 0o022,
                uid: uid.0,
                gid: gid.0,
                next_fd: 3,
                fds: BTreeMap::new(),
                next_dh: 1,
                dhs: BTreeMap::new(),
            },
        );
    }

    fn destroy_process(&mut self, pid: Pid) {
        self.entered = None;
        if let Some(proc) = self.procs.remove(&pid.0) {
            // SAFETY: every fd in `proc.fds` and `proc.cwd_fd` is a real
            // descriptor this process opened and still owns (virtual fds are
            // removed from the map when closed); every pointer in `proc.dhs`
            // is a live `DIR*` from `opendir` that is closed exactly once,
            // here, as the map entry is dropped with the process. The
            // credential calls take no pointers.
            unsafe {
                raw::seteuid(0);
                raw::setegid(0);
                for fd in proc.fds.values() {
                    raw::close(*fd);
                }
                for dh in proc.dhs.values() {
                    raw::closedir(*dh);
                }
                raw::close(proc.cwd_fd);
            }
        }
    }

    /// Switch the worker into the virtual process's execution context:
    /// working directory, umask, supplementary groups, and effective
    /// credentials (in that order — credential changes come last because they
    /// drop the privileges the other steps may need).
    fn enter(&self, proc: &VProc) {
        // SAFETY: `fchdir`/`umask`/credential calls take integers only;
        // `setgroups` reads `groups.len()` u32s from `groups`, which is a
        // live Vec for the duration of the call and not retained.
        unsafe {
            raw::seteuid(0);
            raw::setegid(0);
            raw::fchdir(proc.cwd_fd);
            raw::umask(proc.umask);
            let groups: Vec<u32> = self
                .groups
                .iter()
                .filter(|(_, members)| members.contains(&proc.uid))
                .map(|(gid, _)| *gid)
                .collect();
            raw::setgroups(groups.len(), groups.as_ptr());
            raw::setegid(proc.gid);
            raw::seteuid(proc.uid);
        }
    }

    /// Execute one libc call on behalf of `pid`, returning what the kernel
    /// reports.
    fn call(&mut self, pid: Pid, cmd: &OsCommand) -> ErrorOrValue {
        if !self.procs.contains_key(&pid.0) {
            // Mirrors the simulator: a call from an unknown process never
            // reaches the kernel.
            return ErrorOrValue::Error(Errno::EINVAL);
        }
        if self.entered != Some(pid.0) {
            let proc = &self.procs[&pid.0];
            self.enter(proc);
            self.entered = Some(pid.0);
        }
        match cmd {
            OsCommand::Mkdir(path, mode) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::mkdir(p.as_ptr().cast(), mode.bits()) })
            }
            OsCommand::Rmdir(path) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::rmdir(p.as_ptr().cast()) })
            }
            OsCommand::Unlink(path) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::unlink(p.as_ptr().cast()) })
            }
            OsCommand::Chdir(path) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                if unsafe { raw::chdir(p.as_ptr().cast()) } != 0 {
                    return ErrorOrValue::Error(errno_from_raw(errno_raw()));
                }
                let dot = c_path(".").expect("static path");
                // SAFETY: `dot` is a live NUL-terminated buffer; `open` does
                // not retain it.
                let new_cwd = unsafe {
                    raw::open(
                        dot.as_ptr().cast(),
                        raw::O_PATH | raw::O_DIRECTORY | raw::O_CLOEXEC,
                        0,
                    )
                };
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                if new_cwd >= 0 {
                    // SAFETY: `cwd_fd` is owned by this VProc and immediately
                    // replaced below, so it is closed exactly once.
                    unsafe { raw::close(proc.cwd_fd) };
                    proc.cwd_fd = new_cwd;
                } else {
                    // The kernel cwd moved but the snapshot fd could not be
                    // taken: the cached context no longer matches `cwd_fd`,
                    // so force a full re-enter on the next call.
                    self.entered = None;
                }
                ErrorOrValue::Value(RetValue::None)
            }
            OsCommand::Truncate(path, len) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::truncate(p.as_ptr().cast(), *len) })
            }
            OsCommand::Stat(path) => self.do_stat(path, true),
            OsCommand::Lstat(path) => self.do_stat(path, false),
            OsCommand::Link(src, dst) => {
                let a = try_cpath!(src);
                let b = try_cpath!(dst);
                // SAFETY: `a` and `b` are live NUL-terminated buffers; not retained.
                ok_none(unsafe { raw::link(a.as_ptr().cast(), b.as_ptr().cast()) })
            }
            OsCommand::Symlink(target, path) => {
                let t = try_cpath!(target);
                let p = try_cpath!(path);
                // SAFETY: `t` and `p` are live NUL-terminated buffers; not retained.
                ok_none(unsafe { raw::symlink(t.as_ptr().cast(), p.as_ptr().cast()) })
            }
            OsCommand::Readlink(path) => {
                let p = try_cpath!(path);
                let mut buf = vec![0u8; 4096];
                // SAFETY: `p` is NUL-terminated; `buf` is a live allocation
                // of exactly `buf.len()` writable bytes.
                let n = unsafe {
                    raw::readlink(p.as_ptr().cast(), buf.as_mut_ptr().cast(), buf.len())
                };
                if n < 0 {
                    return ErrorOrValue::Error(errno_from_raw(errno_raw()));
                }
                buf.truncate(n as usize);
                ErrorOrValue::Value(RetValue::Path(String::from_utf8_lossy(&buf).into_owned()))
            }
            OsCommand::Rename(src, dst) => {
                let a = try_cpath!(src);
                let b = try_cpath!(dst);
                // SAFETY: `a` and `b` are live NUL-terminated buffers; not retained.
                ok_none(unsafe { raw::rename(a.as_ptr().cast(), b.as_ptr().cast()) })
            }
            OsCommand::Open(path, flags, mode) => {
                let p = try_cpath!(path);
                let m = mode.map(|m| m.bits()).unwrap_or(0o666);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                let fd = unsafe { raw::open(p.as_ptr().cast(), raw_open_flags(*flags), m) };
                if fd < 0 {
                    return ErrorOrValue::Error(errno_from_raw(errno_raw()));
                }
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                let vfd = proc.next_fd;
                proc.next_fd += 1;
                proc.fds.insert(vfd, fd);
                ErrorOrValue::Value(RetValue::Fd(Fd(vfd)))
            }
            OsCommand::Close(vfd) => {
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                match proc.fds.remove(&vfd.0) {
                    // SAFETY: `fd` was owned by the fd table and has just
                    // been removed from it, so it is closed exactly once.
                    Some(fd) => ok_none(unsafe { raw::close(fd) }),
                    None => ErrorOrValue::Error(Errno::EBADF),
                }
            }
            OsCommand::Lseek(vfd, off, whence) => {
                let Some(fd) = self.real_fd(pid, *vfd) else {
                    return ErrorOrValue::Error(Errno::EBADF);
                };
                let w = match whence {
                    SeekWhence::Set => raw::SEEK_SET,
                    SeekWhence::Cur => raw::SEEK_CUR,
                    SeekWhence::End => raw::SEEK_END,
                };
                // SAFETY: integer-only FFI call on a descriptor we own.
                let n = unsafe { raw::lseek(fd, *off, w) };
                if n < 0 {
                    ErrorOrValue::Error(errno_from_raw(errno_raw()))
                } else {
                    ErrorOrValue::Value(RetValue::Num(n))
                }
            }
            OsCommand::Read(vfd, count) => self.do_read(pid, *vfd, *count, None),
            OsCommand::Pread(vfd, count, off) => self.do_read(pid, *vfd, *count, Some(*off)),
            OsCommand::Write(vfd, data) => self.do_write(pid, *vfd, data, None),
            OsCommand::Pwrite(vfd, data, off) => self.do_write(pid, *vfd, data, Some(*off)),
            OsCommand::Chmod(path, mode) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::chmod(p.as_ptr().cast(), mode.bits()) })
            }
            OsCommand::Chown(path, uid, gid) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; not retained.
                ok_none(unsafe { raw::chown(p.as_ptr().cast(), uid.0, gid.0) })
            }
            OsCommand::Umask(mask) => {
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                let old = proc.umask;
                proc.umask = mask.bits() & 0o777;
                // SAFETY: integer-only FFI call; cannot fail.
                unsafe { raw::umask(proc.umask) };
                ErrorOrValue::Value(RetValue::Num(old as i64))
            }
            OsCommand::AddUserToGroup(uid, gid) => {
                self.groups.entry(gid.0).or_default().insert(uid.0);
                // The entered process's supplementary groups may now be
                // stale; rebuild the kernel context on the next call.
                self.entered = None;
                ErrorOrValue::Value(RetValue::None)
            }
            OsCommand::Opendir(path) => {
                let p = try_cpath!(path);
                // SAFETY: `p` is a live NUL-terminated buffer; `opendir`
                // copies the path and does not retain the pointer.
                let dir = unsafe { raw::opendir(p.as_ptr().cast()) };
                if dir.is_null() {
                    return ErrorOrValue::Error(errno_from_raw(errno_raw()));
                }
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                let vdh = proc.next_dh;
                proc.next_dh += 1;
                proc.dhs.insert(vdh, dir);
                ErrorOrValue::Value(RetValue::DirHandle(DirHandleId(vdh)))
            }
            OsCommand::Readdir(vdh) => {
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                let Some(dir) = proc.dhs.get(&vdh.0).copied() else {
                    return ErrorOrValue::Error(Errno::EBADF);
                };
                loop {
                    // SAFETY: `dir` is a live `DIR*` from `opendir`, owned by
                    // the dh table and not closed until `closedir` removes it.
                    let ent = unsafe { raw::readdir(dir) };
                    if ent.is_null() {
                        return ErrorOrValue::Value(RetValue::ReaddirEntry(None));
                    }
                    // SAFETY: `ent` is non-null (checked above) and points
                    // into the `DIR` buffer, valid until the next readdir on
                    // this handle; `d_name` is NUL-terminated by the kernel.
                    let name = unsafe { c_str_bytes(&(*ent).d_name) };
                    if name == b"." || name == b".." {
                        continue;
                    }
                    return ErrorOrValue::Value(RetValue::ReaddirEntry(Some(
                        String::from_utf8_lossy(name).into_owned(),
                    )));
                }
            }
            OsCommand::Rewinddir(vdh) => {
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                match proc.dhs.get(&vdh.0).copied() {
                    Some(dir) => {
                        // SAFETY: `dir` is a live `DIR*` owned by the table.
                        unsafe { raw::rewinddir(dir) };
                        ErrorOrValue::Value(RetValue::None)
                    }
                    None => ErrorOrValue::Error(Errno::EBADF),
                }
            }
            OsCommand::Closedir(vdh) => {
                let proc = self.procs.get_mut(&pid.0).expect("checked above");
                match proc.dhs.remove(&vdh.0) {
                    Some(dir) => {
                        // SAFETY: `dir` has just been removed from the dh
                        // table, so it is a live `DIR*` closed exactly once.
                        unsafe { raw::closedir(dir) };
                        ErrorOrValue::Value(RetValue::None)
                    }
                    None => ErrorOrValue::Error(Errno::EBADF),
                }
            }
        }
    }

    fn real_fd(&self, pid: Pid, vfd: Fd) -> Option<i32> {
        self.procs.get(&pid.0).and_then(|p| p.fds.get(&vfd.0)).copied()
    }

    fn do_stat(&self, path: &sibylfs_core::path::ParsedPath, follow: bool) -> ErrorOrValue {
        let p = match c_path(path) {
            Ok(v) => v,
            Err(e) => return ErrorOrValue::Error(e),
        };
        let mut buf = std::mem::MaybeUninit::<raw::Statx>::zeroed();
        let flags = if follow { 0 } else { raw::AT_SYMLINK_NOFOLLOW };
        // SAFETY: `p` is NUL-terminated and `buf` is a properly-aligned,
        // writable `Statx` the kernel fills; neither pointer is retained.
        let rc = unsafe {
            raw::statx(
                raw::AT_FDCWD,
                p.as_ptr().cast(),
                flags,
                raw::STATX_BASIC_STATS,
                buf.as_mut_ptr(),
            )
        };
        if rc != 0 {
            return ErrorOrValue::Error(errno_from_raw(errno_raw()));
        }
        // SAFETY: statx returned 0, so the kernel populated every
        // STATX_BASIC_STATS field; the buffer started zeroed, so even
        // padding/unrequested fields are initialised.
        let stx = unsafe { buf.assume_init() };
        let kind = match u32::from(stx.stx_mode) & raw::S_IFMT {
            raw::S_IFDIR => FileKind::Directory,
            raw::S_IFLNK => FileKind::Symlink,
            raw::S_IFREG => FileKind::Regular,
            // Nothing else is creatable through the modelled API; treat any
            // leak from the environment as a regular file.
            _ => FileKind::Regular,
        };
        // Abstraction mapping: the model defines directory sizes to be 0 (see
        // the module docs); every other field is the kernel's answer.
        let size = if kind == FileKind::Directory { 0 } else { stx.stx_size };
        ErrorOrValue::Value(RetValue::Stat(Box::new(Stat {
            kind,
            size,
            nlink: stx.stx_nlink,
            mode: FileMode::new(u32::from(stx.stx_mode)),
            uid: Uid(stx.stx_uid),
            gid: Gid(stx.stx_gid),
        })))
    }

    fn do_read(&mut self, pid: Pid, vfd: Fd, count: usize, offset: Option<i64>) -> ErrorOrValue {
        let Some(fd) = self.real_fd(pid, vfd) else {
            return ErrorOrValue::Error(Errno::EBADF);
        };
        let mut buf = vec![0u8; count.min(MAX_TRANSFER)];
        // SAFETY: `buf` is a live allocation of exactly `buf.len()` writable
        // bytes, and `fd` is a descriptor this process owns.
        let n = match offset {
            None => unsafe { raw::read(fd, buf.as_mut_ptr().cast(), buf.len()) },
            Some(off) => unsafe { raw::pread(fd, buf.as_mut_ptr().cast(), buf.len(), off) },
        };
        if n < 0 {
            return ErrorOrValue::Error(errno_from_raw(errno_raw()));
        }
        buf.truncate(n as usize);
        ErrorOrValue::Value(RetValue::Bytes(buf))
    }

    fn do_write(&mut self, pid: Pid, vfd: Fd, data: &[u8], offset: Option<i64>) -> ErrorOrValue {
        let Some(fd) = self.real_fd(pid, vfd) else {
            return ErrorOrValue::Error(Errno::EBADF);
        };
        // SAFETY: `data` is a live slice of `data.len()` readable bytes, and
        // `fd` is a descriptor this process owns.
        let n = match offset {
            None => unsafe { raw::write(fd, data.as_ptr().cast(), data.len()) },
            Some(off) => unsafe { raw::pwrite(fd, data.as_ptr().cast(), data.len(), off) },
        };
        if n < 0 {
            ErrorOrValue::Error(errno_from_raw(errno_raw()))
        } else {
            ErrorOrValue::Value(RetValue::Num(n as i64))
        }
    }
}

/// Map a zero-return C call to `RV_none`, anything else to the thread errno.
fn ok_none(rc: i32) -> ErrorOrValue {
    if rc == 0 {
        ErrorOrValue::Value(RetValue::None)
    } else {
        ErrorOrValue::Error(errno_from_raw(errno_raw()))
    }
}

/// The bytes of a NUL-terminated `d_name` field.
/// # Safety
///
/// `name` must contain a NUL terminator within its 256 bytes (as the kernel
/// guarantees for `d_name`); the returned slice borrows from `name`.
unsafe fn c_str_bytes(name: &[std::os::raw::c_char; 256]) -> &[u8] {
    let ptr = name.as_ptr().cast::<u8>();
    let mut len = 0;
    // SAFETY: `ptr.add(len)` stays within the 256-byte array because `len`
    // is bounded by the loop condition.
    while len < 256 && unsafe { *ptr.add(len) } != 0 {
        len += 1;
    }
    // SAFETY: the first `len` bytes were just read and are within `name`.
    unsafe { std::slice::from_raw_parts(ptr, len) }
}

/// Worker exit codes (beyond the trace payload on the pipe).
const EXIT_OK: i32 = 0;
const EXIT_SANDBOX: i32 = 3;

/// Execute every step of `script` inside the already-chrooted jail and
/// return the observed trace. All virtual processes are destroyed before
/// returning, so every descriptor and `DIR*` the script opened is closed —
/// a persistent pool worker relies on this as the first half of its
/// between-scripts hygiene (the second half is the jail reset in
/// [`pool`]).
fn run_script_in_jail(script: &Script, opts: ExecOptions) -> Trace {
    let mut world = HostWorld::new();
    let (uid, gid) = if opts.root_user { (Uid(0), Gid(0)) } else { (Uid(1000), Gid(1000)) };
    world.create_process(INITIAL_PID, uid, gid);

    let mut trace = Trace::new(script.name.clone(), script.group.clone());
    for step in &script.steps {
        match step {
            ScriptStep::Call { pid, cmd } => {
                let ret = world.call(*pid, cmd);
                trace.push_call_return(*pid, cmd.clone(), ret);
            }
            ScriptStep::CreateProcess { pid, uid, gid } => {
                world.create_process(*pid, *uid, *gid);
                trace.push_label(OsLabel::Create(*pid, *uid, *gid));
            }
            ScriptStep::DestroyProcess { pid } => {
                world.destroy_process(*pid);
                trace.push_label(OsLabel::Destroy(*pid));
            }
        }
    }
    let pids: Vec<u32> = world.procs.keys().copied().collect();
    for pid in pids {
        world.destroy_process(Pid(pid));
    }
    trace
}

/// Run the script inside the already-forked worker: build the jail, execute
/// every step, stream the rendered trace to `out_fd`, and `_exit`. Never
/// returns.
fn worker_main(root: &[u8], script: &Script, opts: ExecOptions, out_fd: i32) -> ! {
    // SAFETY: runs only in the freshly-forked single-threaded worker.
    // `close_range` takes integers; `root` is NUL-terminated by the caller;
    // the `c"…"` literals are NUL-terminated by construction; `msg` is a live
    // buffer for the duration of the failed-sandbox write; `_exit` never
    // returns and skips atexit handlers, which is exactly what a forked
    // worker that must not run the parent's destructors wants.
    unsafe {
        // Drop every inherited descriptor except stdio and our pipe: a
        // concurrently-forking sibling's pipe write-end held open here would
        // keep that sibling's parent from ever seeing EOF. Best effort —
        // close_range is glibc ≥ 2.34 / kernel ≥ 5.9.
        if out_fd > 3 {
            raw::close_range(3, out_fd as u32 - 1, 0);
        }
        raw::close_range(out_fd as u32 + 1, u32::MAX, 0);
        if raw::chdir(root.as_ptr().cast()) != 0
            || raw::chroot(c".".as_ptr().cast()) != 0
            || raw::chdir(c"/".as_ptr().cast()) != 0
        {
            let msg = format!("!sandbox errno={}\n", errno_raw());
            write_all(out_fd, msg.as_bytes());
            raw::_exit(EXIT_SANDBOX);
        }
        raw::umask(0o022);
    }

    let trace = run_script_in_jail(script, opts);
    let rendered = render_trace(&trace);
    write_all(out_fd, rendered.as_bytes());
    // SAFETY: terminating the worker without unwinding into the parent's
    // state is the whole point; `_exit` takes an integer and never returns.
    unsafe { raw::_exit(EXIT_OK) }
}

fn write_all(fd: i32, mut buf: &[u8]) {
    while !buf.is_empty() {
        // SAFETY: `buf` is a live slice of `buf.len()` readable bytes.
        let n = unsafe { raw::write(fd, buf.as_ptr().cast(), buf.len()) };
        if n <= 0 {
            return;
        }
        buf = &buf[n as usize..];
    }
}

/// Whether the worker sandbox can be built here: probed once per process by
/// forking a throwaway worker that attempts the chroot.
pub fn sandbox_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let Ok(dir) = fresh_sandbox_dir() else { return false };
        let mut ok = false;
        let mut root = dir.as_os_str().as_encoded_bytes().to_vec();
        root.push(0);
        // SAFETY: `root` is NUL-terminated; the child branch calls only
        // async-signal-safe functions (`chdir`/`chroot`/`_exit`) before
        // exiting, and the parent branch passes a valid `&mut status` to
        // `waitpid`.
        unsafe {
            let pid = raw::fork();
            if pid == 0 {
                let rc = if raw::chdir(root.as_ptr().cast()) == 0
                    && raw::chroot(c".".as_ptr().cast()) == 0
                {
                    EXIT_OK
                } else {
                    EXIT_SANDBOX
                };
                raw::_exit(rc);
            }
            if pid > 0 {
                let mut status = 0;
                raw::waitpid(pid, &mut status, 0);
                ok = exit_code(status) == Some(EXIT_OK);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        ok
    })
}

/// Decode a `waitpid` status into an exit code, if the child exited normally.
fn exit_code(status: i32) -> Option<i32> {
    // WIFEXITED / WEXITSTATUS.
    if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    }
}

static SANDBOX_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where jail roots are built: `$TMPDIR` when the user set one, otherwise
/// `/dev/shm` when it is a writable directory (on most distributions the only
/// guaranteed tmpfs mount), otherwise the platform default (`/tmp`).
///
/// Preferring tmpfs is a measured throughput choice, not a nicety: the
/// paper's suite executions run on tmpfs, and on hosts where `/tmp` is
/// disk-backed every syscall a script makes inside the jail pays journalled-
/// filesystem latency — which dominates pooled per-script cost once the
/// fork+chroot setup is amortized away.
fn sandbox_base_dir() -> PathBuf {
    if std::env::var_os("TMPDIR").is_some() {
        return std::env::temp_dir();
    }
    let shm = Path::new("/dev/shm");
    if shm.is_dir() && !shm.metadata().map(|m| m.permissions().readonly()).unwrap_or(true) {
        return shm.to_path_buf();
    }
    std::env::temp_dir()
}

/// A fresh, empty directory to use as a jail root.
fn fresh_sandbox_dir() -> std::io::Result<PathBuf> {
    let dir = sandbox_base_dir().join(format!(
        "sibylfs-host-{}-{}",
        std::process::id(),
        SANDBOX_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale directory from a crashed previous run would leak state into the
    // jail; start clean.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The real-host executor, in one of two modes:
///
/// * **cold-fork** ([`HostFs::new`]) — stateless; every
///   [`Executor::execute_script`] call forks a fresh worker and builds a
///   fresh chroot jail (the original, and the baseline the `exec_pipeline`
///   bench measures against);
/// * **pooled** ([`HostFs::pooled`]) — a shared [`WorkerPool`] of persistent
///   pre-jailed workers; each script is one round-trip over a pipe to an
///   already-chrooted worker that resets its jail between scripts. Workers
///   are spawned lazily, and a dead or corrupt worker triggers a cold-fork
///   fallback for that script plus a respawn for the next.
///
/// Cloning shares the pool, and calls from many threads each check out their
/// own worker process concurrently.
#[derive(Debug, Clone, Default)]
pub struct HostFs {
    pool: Option<std::sync::Arc<WorkerPool>>,
}

impl HostFs {
    /// Create the cold-fork host backend handle (fresh fork+chroot per
    /// script).
    pub fn new() -> HostFs {
        HostFs::default()
    }

    /// Create a host backend over a pool of `workers` persistent pre-jailed
    /// worker processes (clamped to at least 1). Workers are spawned on
    /// first use, so construction succeeds even where the sandbox is
    /// unavailable — the first execution reports
    /// [`ExecError::SandboxUnavailable`] just like the cold-fork mode.
    pub fn pooled(workers: usize) -> HostFs {
        HostFs { pool: Some(std::sync::Arc::new(WorkerPool::new(workers))) }
    }

    /// Whether this handle runs on the persistent worker pool.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// Whether this backend can run here (see [`sandbox_available`]).
    pub fn available() -> bool {
        sandbox_available()
    }
}

impl Executor for HostFs {
    fn backend_name(&self) -> &'static str {
        "host"
    }

    fn config_name(&self) -> String {
        crate::HOST_CONFIG_NAME.to_string()
    }

    fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        let started = std::time::Instant::now();
        let res = match &self.pool {
            Some(pool) => pool.execute(script, opts),
            None => cold_execute(script, opts),
        };
        if res.is_ok() {
            sibylfs_core::obs::m::EXEC_SCRIPTS_TOTAL.inc();
            sibylfs_core::obs::m::EXEC_SCRIPT_NS.record_duration(started.elapsed());
        }
        res
    }
}

/// Execute one script the original way: fork a throwaway worker, build a
/// fresh chroot jail, stream the trace back, tear everything down. Also the
/// pool's per-script fallback when a persistent worker dies.
pub(super) fn cold_execute(script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
    sibylfs_core::obs::m::EXEC_COLD_FORKS_TOTAL.inc();
    let backend_err = |message: String| ExecError::Backend {
        script: script.name.clone(),
        message,
    };
    let dir = fresh_sandbox_dir().map_err(|e| backend_err(format!("sandbox dir: {e}")))?;
    let mut root = dir.as_os_str().as_encoded_bytes().to_vec();
    root.push(0);

    let mut pipe_fds = [0i32; 2];
    // SAFETY: `pipe_fds` is a live array of exactly the two c_ints the
    // kernel writes.
    if unsafe { raw::pipe(pipe_fds.as_mut_ptr()) } != 0 {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(backend_err(format!("pipe: errno {}", errno_raw())));
    }
    let (rd, wr) = (pipe_fds[0], pipe_fds[1]);

    // SAFETY: integer-only FFI call; the child branch immediately enters
    // `worker_main`, which uses only fork-safe operations before `_exit`.
    let child = unsafe { raw::fork() };
    if child < 0 {
        // SAFETY: both pipe ends were just created and are owned here.
        unsafe {
            raw::close(rd);
            raw::close(wr);
        }
        let _ = std::fs::remove_dir_all(&dir);
        return Err(backend_err(format!("fork: errno {}", errno_raw())));
    }
    if child == 0 {
        // SAFETY: the worker owns its copy of the read end; closing it
        // once here leaves only `wr` for the trace stream.
        unsafe { raw::close(rd) };
        worker_main(&root, script, opts, wr);
    }

    // Parent: collect the rendered trace, reap the worker, tear down the
    // jail.
    // SAFETY: the parent owns its copy of the write end and closes it
    // exactly once, so the pipe reports EOF when the worker exits.
    unsafe { raw::close(wr) };
    let mut output = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        // SAFETY: `buf` is a live array of `buf.len()` writable bytes.
        let n = unsafe { raw::read(rd, buf.as_mut_ptr().cast(), buf.len()) };
        if n <= 0 {
            break;
        }
        output.extend_from_slice(&buf[..n as usize]);
    }
    // SAFETY: `rd` is owned here and closed exactly once; `waitpid`
    // writes through a valid `&mut status`.
    unsafe { raw::close(rd) };
    let mut status = 0;
    unsafe { raw::waitpid(child, &mut status, 0) };
    let _ = std::fs::remove_dir_all(&dir);

    match exit_code(status) {
        Some(EXIT_OK) => {}
        Some(EXIT_SANDBOX) => {
            return Err(ExecError::SandboxUnavailable(format!(
                "worker could not chroot ({})",
                String::from_utf8_lossy(&output).trim()
            )));
        }
        other => {
            return Err(backend_err(format!(
                "worker died (exit {:?}, wait status {status})",
                other
            )));
        }
    }

    let text = String::from_utf8_lossy(&output);
    let mut trace = parse_trace(&text)
        .map_err(|e| backend_err(format!("worker trace unparseable: {e}")))?;
    // The on-disk format re-derives the group from the name; pin both to
    // the script's own values.
    trace.name = script.name.clone();
    trace.group = script.group.clone();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::{ErrorOrValue, OsCommand, RetValue};

    fn host_or_skip() -> Option<HostFs> {
        if HostFs::available() {
            Some(HostFs::new())
        } else {
            eprintln!("skipping: host sandbox unavailable (need chroot privilege)");
            None
        }
    }

    fn mode(m: u32) -> FileMode {
        FileMode::new(m)
    }

    #[test]
    fn host_executes_a_basic_script_like_the_sim() {
        let Some(host) = host_or_skip() else { return };
        let mut s = Script::new("mkdir___host_smoke", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), mode(0o777)))
            .call(OsCommand::Open(
                "/d/f".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Some(mode(0o644)),
            ))
            .call(OsCommand::Write(Fd(3), b"hello".to_vec()))
            .call(OsCommand::Lseek(Fd(3), 0, SeekWhence::Set))
            .call(OsCommand::Read(Fd(3), 100))
            .call(OsCommand::Close(Fd(3)))
            .call(OsCommand::Stat("/d/f".into()));
        let host_trace = host.execute_script(&s, ExecOptions::default()).unwrap();
        let sim = crate::SimExecutor::new(
            sibylfs_fsimpl::configs::by_name("linux/ext4").unwrap(),
        );
        let sim_trace = sim.execute_script(&s, ExecOptions::default()).unwrap();
        // The two backends agree label for label on this script.
        let host_labels: Vec<_> = host_trace.labels().cloned().collect();
        let sim_labels: Vec<_> = sim_trace.labels().cloned().collect();
        assert_eq!(host_labels, sim_labels);
    }

    #[test]
    fn host_jails_are_fresh_per_script() {
        let Some(host) = host_or_skip() else { return };
        let mut s = Script::new("mkdir___fresh", "mkdir");
        s.call(OsCommand::Mkdir("/d".into(), mode(0o777)));
        let t1 = host.execute_script(&s, ExecOptions::default()).unwrap();
        let t2 = host.execute_script(&s, ExecOptions::default()).unwrap();
        // If state leaked between jails the second mkdir would report EEXIST.
        assert_eq!(t1, t2);
        match &t1.steps[1].label {
            OsLabel::Return(_, ErrorOrValue::Value(RetValue::None)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn host_enforces_permissions_for_unprivileged_virtual_processes() {
        let Some(host) = host_or_skip() else { return };
        let mut s = Script::new("permissions___host_private", "permissions");
        s.call(OsCommand::Mkdir("/private".into(), mode(0o700)))
            .create_process(Pid(2), Uid(2000), Gid(2000))
            .call_as(
                Pid(2),
                OsCommand::Open(
                    "/private/f".into(),
                    OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                    Some(mode(0o644)),
                ),
            )
            .destroy_process(Pid(2));
        let t = host.execute_script(&s, ExecOptions::default()).unwrap();
        let last_return = t
            .labels()
            .filter_map(|l| match l {
                OsLabel::Return(Pid(2), v) => Some(v.clone()),
                _ => None,
            })
            .last()
            .expect("p2 returned");
        assert_eq!(last_return, ErrorOrValue::Error(Errno::EACCES));
    }

    #[test]
    fn host_deleted_cwd_reports_enoent() {
        let Some(host) = host_or_skip() else { return };
        let mut s = Script::new("open___host_deleted_cwd", "open");
        s.call(OsCommand::Mkdir("/deserted".into(), mode(0o700)))
            .call(OsCommand::Chdir("/deserted".into()))
            .call(OsCommand::Rmdir("/deserted".into()))
            .call(OsCommand::Open(
                "party".into(),
                OpenFlags::O_CREAT | OpenFlags::O_RDONLY,
                Some(mode(0o600)),
            ));
        let t = host.execute_script(&s, ExecOptions::default()).unwrap();
        match &t.steps.last().unwrap().label {
            OsLabel::Return(_, ErrorOrValue::Error(e)) => assert_eq!(*e, Errno::ENOENT),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn virtual_fd_numbers_are_monotonic_like_the_sim() {
        let Some(host) = host_or_skip() else { return };
        let mut s = Script::new("open___host_fd_alloc", "open");
        s.call(OsCommand::Open("a".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))))
            .call(OsCommand::Close(Fd(3)))
            .call(OsCommand::Open("b".into(), OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Some(mode(0o644))));
        let t = host.execute_script(&s, ExecOptions::default()).unwrap();
        let fds: Vec<i32> = t
            .labels()
            .filter_map(|l| match l {
                OsLabel::Return(_, ErrorOrValue::Value(RetValue::Fd(fd))) => Some(fd.0),
                _ => None,
            })
            .collect();
        assert_eq!(fds, vec![3, 4], "virtual fds never reuse closed numbers");
    }
}
