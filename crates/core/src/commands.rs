//! Labels of the SibylFS labelled transition system.
//!
//! The model observes a file system at the libc interface. Every observable
//! event is an [`OsLabel`]: a process calling a libc function
//! ([`OsLabel::Call`]), a value being returned ([`OsLabel::Return`]), process
//! creation and destruction, and the internal τ step. A trace is a sequence of
//! labels (§5 "POSIX API module").

use std::fmt;

use crate::errno::Errno;
use crate::flags::{FileMode, OpenFlags, SeekWhence};
use crate::path::ParsedPath;
use crate::types::{DirHandleId, Fd, FileKind, Gid, Pid, Uid};

/// A single libc file-system call together with its arguments
/// (the `ty_os_command` of the Lem model).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OsCommand {
    /// `chdir(path)`
    Chdir(ParsedPath),
    /// `chmod(path, mode)`
    Chmod(ParsedPath, FileMode),
    /// `chown(path, uid, gid)`
    Chown(ParsedPath, Uid, Gid),
    /// `close(fd)`
    Close(Fd),
    /// `closedir(dh)`
    Closedir(DirHandleId),
    /// `link(src, dst)`
    Link(ParsedPath, ParsedPath),
    /// `lseek(fd, offset, whence)`
    Lseek(Fd, i64, SeekWhence),
    /// `lstat(path)`
    Lstat(ParsedPath),
    /// `mkdir(path, mode)`
    Mkdir(ParsedPath, FileMode),
    /// `open(path, flags, mode)`; `mode` is only meaningful with `O_CREAT`.
    Open(ParsedPath, OpenFlags, Option<FileMode>),
    /// `opendir(path)`
    Opendir(ParsedPath),
    /// `pread(fd, count, offset)`
    Pread(Fd, usize, i64),
    /// `pwrite(fd, data, offset)`
    Pwrite(Fd, Vec<u8>, i64),
    /// `read(fd, count)`
    Read(Fd, usize),
    /// `readdir(dh)`
    Readdir(DirHandleId),
    /// `readlink(path)`
    Readlink(ParsedPath),
    /// `rename(src, dst)`
    Rename(ParsedPath, ParsedPath),
    /// `rewinddir(dh)`
    Rewinddir(DirHandleId),
    /// `rmdir(path)`
    Rmdir(ParsedPath),
    /// `stat(path)`
    Stat(ParsedPath),
    /// `symlink(target, linkpath)` — the target is also stored pre-parsed,
    /// since it ends up spliced by the resolver once the link is followed.
    Symlink(ParsedPath, ParsedPath),
    /// `truncate(path, length)`
    Truncate(ParsedPath, i64),
    /// `umask(mask)` — returns the previous mask.
    Umask(FileMode),
    /// `unlink(path)`
    Unlink(ParsedPath),
    /// `write(fd, data)`
    Write(Fd, Vec<u8>),
    /// Administrative command used by test scripts to populate the
    /// user/group table (the harness's equivalent of `useradd -G`).
    AddUserToGroup(Uid, Gid),
}

impl OsCommand {
    /// The libc function name of the command (used to group tests and
    /// aggregate survey results).
    pub fn name(&self) -> &'static str {
        match self {
            OsCommand::Chdir(..) => "chdir",
            OsCommand::Chmod(..) => "chmod",
            OsCommand::Chown(..) => "chown",
            OsCommand::Close(..) => "close",
            OsCommand::Closedir(..) => "closedir",
            OsCommand::Link(..) => "link",
            OsCommand::Lseek(..) => "lseek",
            OsCommand::Lstat(..) => "lstat",
            OsCommand::Mkdir(..) => "mkdir",
            OsCommand::Open(..) => "open",
            OsCommand::Opendir(..) => "opendir",
            OsCommand::Pread(..) => "pread",
            OsCommand::Pwrite(..) => "pwrite",
            OsCommand::Read(..) => "read",
            OsCommand::Readdir(..) => "readdir",
            OsCommand::Readlink(..) => "readlink",
            OsCommand::Rename(..) => "rename",
            OsCommand::Rewinddir(..) => "rewinddir",
            OsCommand::Rmdir(..) => "rmdir",
            OsCommand::Stat(..) => "stat",
            OsCommand::Symlink(..) => "symlink",
            OsCommand::Truncate(..) => "truncate",
            OsCommand::Umask(..) => "umask",
            OsCommand::Unlink(..) => "unlink",
            OsCommand::Write(..) => "write",
            OsCommand::AddUserToGroup(..) => "add_user_to_group",
        }
    }

    /// All libc function names the model covers (excluding the administrative
    /// harness command), in alphabetical order. Used by the test generator and
    /// the coverage/acceptance reports.
    pub const FUNCTION_NAMES: &'static [&'static str] = &[
        "chdir", "chmod", "chown", "close", "closedir", "link", "lseek", "lstat", "mkdir", "open",
        "opendir", "pread", "pwrite", "read", "readdir", "readlink", "rename", "rewinddir",
        "rmdir", "stat", "symlink", "truncate", "umask", "unlink", "write",
    ];

    /// The path arguments mentioned by the command, in order.
    pub fn paths(&self) -> Vec<&ParsedPath> {
        match self {
            OsCommand::Chdir(p)
            | OsCommand::Chmod(p, _)
            | OsCommand::Chown(p, _, _)
            | OsCommand::Lstat(p)
            | OsCommand::Mkdir(p, _)
            | OsCommand::Open(p, _, _)
            | OsCommand::Opendir(p)
            | OsCommand::Readlink(p)
            | OsCommand::Rmdir(p)
            | OsCommand::Stat(p)
            | OsCommand::Truncate(p, _)
            | OsCommand::Unlink(p) => vec![p],
            OsCommand::Link(a, b) | OsCommand::Rename(a, b) => vec![a, b],
            OsCommand::Symlink(_, p) => vec![p],
            _ => vec![],
        }
    }
}

impl fmt::Display for OsCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsCommand::Chdir(p) => write!(f, "chdir {p}"),
            OsCommand::Chmod(p, m) => write!(f, "chmod {p} {m}"),
            OsCommand::Chown(p, u, g) => write!(f, "chown {p} {} {}", u.0, g.0),
            OsCommand::Close(fd) => write!(f, "close (FD {})", fd.0),
            OsCommand::Closedir(dh) => write!(f, "closedir (DH {})", dh.0),
            OsCommand::Link(a, b) => write!(f, "link {a} {b}"),
            OsCommand::Lseek(fd, off, w) => write!(f, "lseek (FD {}) {off} {w}", fd.0),
            OsCommand::Lstat(p) => write!(f, "lstat {p}"),
            OsCommand::Mkdir(p, m) => write!(f, "mkdir {p} {m}"),
            OsCommand::Open(p, flags, Some(m)) => write!(f, "open {p} {flags} {m}"),
            OsCommand::Open(p, flags, None) => write!(f, "open {p} {flags}"),
            OsCommand::Opendir(p) => write!(f, "opendir {p}"),
            OsCommand::Pread(fd, n, off) => write!(f, "pread (FD {}) {n} {off}", fd.0),
            OsCommand::Pwrite(fd, data, off) => {
                write!(f, "pwrite (FD {}) {:?} {off}", fd.0, String::from_utf8_lossy(data))
            }
            OsCommand::Read(fd, n) => write!(f, "read (FD {}) {n}", fd.0),
            OsCommand::Readdir(dh) => write!(f, "readdir (DH {})", dh.0),
            OsCommand::Readlink(p) => write!(f, "readlink {p}"),
            OsCommand::Rename(a, b) => write!(f, "rename {a} {b}"),
            OsCommand::Rewinddir(dh) => write!(f, "rewinddir (DH {})", dh.0),
            OsCommand::Rmdir(p) => write!(f, "rmdir {p}"),
            OsCommand::Stat(p) => write!(f, "stat {p}"),
            OsCommand::Symlink(t, p) => write!(f, "symlink {t} {p}"),
            OsCommand::Truncate(p, len) => write!(f, "truncate {p} {len}"),
            OsCommand::Umask(m) => write!(f, "umask {m}"),
            OsCommand::Unlink(p) => write!(f, "unlink {p}"),
            OsCommand::Write(fd, data) => {
                write!(f, "write (FD {}) {:?}", fd.0, String::from_utf8_lossy(data))
            }
            OsCommand::AddUserToGroup(u, g) => write!(f, "add_user_to_group {} {}", u.0, g.0),
        }
    }
}

/// The subset of `struct stat` fields tracked by the model.
///
/// Device and inode numbers are implementation details and are not part of
/// the abstract state, and timestamps are neither observed nor modelled
/// (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stat {
    /// The kind of object (regular file, directory, symlink).
    pub kind: FileKind,
    /// Size in bytes; for symlinks, the length of the target path.
    pub size: u64,
    /// Link count.
    pub nlink: u32,
    /// Permission bits.
    pub mode: FileMode,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{kind={}; size={}; nlink={}; mode={}; uid={}; gid={}}}",
            self.kind, self.size, self.nlink, self.mode, self.uid.0, self.gid.0
        )
    }
}

/// A successful return value from a libc call.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RetValue {
    /// The call succeeded and returns nothing of interest (`RV_none`).
    None,
    /// A numeric return (byte counts, offsets, previous umask).
    Num(i64),
    /// The bytes returned by `read`/`pread`.
    Bytes(Vec<u8>),
    /// A `stat` structure.
    Stat(Box<Stat>),
    /// A newly allocated file descriptor.
    Fd(Fd),
    /// A newly allocated directory handle.
    DirHandle(DirHandleId),
    /// One entry returned by `readdir`, or `None` for end-of-directory.
    ReaddirEntry(Option<String>),
    /// The target path returned by `readlink`.
    Path(String),
}

impl fmt::Display for RetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetValue::None => write!(f, "RV_none"),
            RetValue::Num(n) => write!(f, "RV_num({n})"),
            RetValue::Bytes(b) => write!(f, "RV_bytes({:?})", String::from_utf8_lossy(b)),
            RetValue::Stat(st) => write!(f, "RV_stat {st}"),
            RetValue::Fd(fd) => write!(f, "RV_fd({})", fd.0),
            RetValue::DirHandle(dh) => write!(f, "RV_dh({})", dh.0),
            RetValue::ReaddirEntry(Some(name)) => write!(f, "RV_readdir({name:?})"),
            RetValue::ReaddirEntry(None) => write!(f, "RV_readdir_end"),
            RetValue::Path(p) => write!(f, "RV_path({p:?})"),
        }
    }
}

/// Either an error or a successful return value: what an `OS_RETURN` label
/// carries back to the calling process.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorOrValue {
    /// The call failed with the given errno.
    Error(Errno),
    /// The call succeeded with the given value.
    Value(RetValue),
}

impl ErrorOrValue {
    /// Convenience constructor for a successful void return.
    pub fn ok_none() -> ErrorOrValue {
        ErrorOrValue::Value(RetValue::None)
    }

    /// Whether this is an error return.
    pub fn is_error(&self) -> bool {
        matches!(self, ErrorOrValue::Error(_))
    }

    /// The errno, if this is an error return.
    pub fn as_error(&self) -> Option<Errno> {
        match self {
            ErrorOrValue::Error(e) => Some(*e),
            ErrorOrValue::Value(_) => None,
        }
    }
}

impl fmt::Display for ErrorOrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorOrValue::Error(e) => write!(f, "{e}"),
            ErrorOrValue::Value(v) => write!(f, "{v}"),
        }
    }
}

/// A label of the SibylFS labelled transition system (the `os_label` type of
/// the Lem model, §5).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OsLabel {
    /// Process `pid` invokes a libc call.
    Call(Pid, OsCommand),
    /// A value (or error) is returned to process `pid`.
    Return(Pid, ErrorOrValue),
    /// A new process is created with the given pid, user and group.
    Create(Pid, Uid, Gid),
    /// A process is destroyed.
    Destroy(Pid),
    /// An internal transition: the OS/file system processes a pending call.
    Tau,
}

impl OsLabel {
    /// The process the label concerns, if any (τ concerns none).
    pub fn pid(&self) -> Option<Pid> {
        match self {
            OsLabel::Call(pid, _) | OsLabel::Return(pid, _) | OsLabel::Create(pid, _, _)
            | OsLabel::Destroy(pid) => Some(*pid),
            OsLabel::Tau => None,
        }
    }
}

impl fmt::Display for OsLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsLabel::Call(pid, cmd) => write!(f, "{pid}: call {cmd}"),
            OsLabel::Return(pid, rv) => write!(f, "{pid}: return {rv}"),
            OsLabel::Create(pid, uid, gid) => write!(f, "create {pid} {} {}", uid.0, gid.0),
            OsLabel::Destroy(pid) => write!(f, "destroy {pid}"),
            OsLabel::Tau => write!(f, "tau"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_cover_function_list() {
        // Every function name in FUNCTION_NAMES corresponds to a constructible command.
        let samples: Vec<OsCommand> = vec![
            OsCommand::Chdir("/".into()),
            OsCommand::Chmod("/f".into(), FileMode::new(0o644)),
            OsCommand::Chown("/f".into(), Uid(1), Gid(1)),
            OsCommand::Close(Fd(3)),
            OsCommand::Closedir(DirHandleId(1)),
            OsCommand::Link("/a".into(), "/b".into()),
            OsCommand::Lseek(Fd(3), 0, SeekWhence::Set),
            OsCommand::Lstat("/f".into()),
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            OsCommand::Open("/f".into(), OpenFlags::O_CREAT, Some(FileMode::new(0o666))),
            OsCommand::Opendir("/d".into()),
            OsCommand::Pread(Fd(3), 10, 0),
            OsCommand::Pwrite(Fd(3), b"x".to_vec(), 0),
            OsCommand::Read(Fd(3), 10),
            OsCommand::Readdir(DirHandleId(1)),
            OsCommand::Readlink("/s".into()),
            OsCommand::Rename("/a".into(), "/b".into()),
            OsCommand::Rewinddir(DirHandleId(1)),
            OsCommand::Rmdir("/d".into()),
            OsCommand::Stat("/f".into()),
            OsCommand::Symlink("/t".into(), "/s".into()),
            OsCommand::Truncate("/f".into(), 0),
            OsCommand::Umask(FileMode::new(0o022)),
            OsCommand::Unlink("/f".into()),
            OsCommand::Write(Fd(3), b"x".to_vec()),
        ];
        let mut names: Vec<&str> = samples.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let mut expected = OsCommand::FUNCTION_NAMES.to_vec();
        expected.sort_unstable();
        assert_eq!(names, expected);
    }

    #[test]
    fn paths_extraction() {
        let texts: Vec<&str> = OsCommand::Rename("/a".into(), "/b".into())
            .paths()
            .iter()
            .map(|p| p.as_str())
            .collect();
        assert_eq!(texts, vec!["/a", "/b"]);
        let texts: Vec<&str> = OsCommand::Symlink("target".into(), "/s".into())
            .paths()
            .iter()
            .map(|p| p.as_str())
            .collect();
        assert_eq!(texts, vec!["/s"]);
        assert!(OsCommand::Close(Fd(1)).paths().is_empty());
    }

    #[test]
    fn display_forms_are_parsable_looking() {
        let c = OsCommand::Mkdir("emptydir".into(), FileMode::new(0o777));
        assert_eq!(c.to_string(), "mkdir \"emptydir\" 0o777");
        let l = OsLabel::Call(Pid(1), c);
        assert!(l.to_string().starts_with("p1: call mkdir"));
    }

    #[test]
    fn error_or_value_accessors() {
        let e = ErrorOrValue::Error(Errno::ENOENT);
        assert!(e.is_error());
        assert_eq!(e.as_error(), Some(Errno::ENOENT));
        let v = ErrorOrValue::ok_none();
        assert!(!v.is_error());
        assert_eq!(v.as_error(), None);
    }

    #[test]
    fn label_pid() {
        assert_eq!(OsLabel::Tau.pid(), None);
        assert_eq!(OsLabel::Destroy(Pid(4)).pid(), Some(Pid(4)));
    }
}
