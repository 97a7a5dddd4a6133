//! Basic identifier types shared throughout the model.
//!
//! These are deliberately small newtypes so that a process id can never be
//! confused with a user id or a file descriptor, mirroring the distinct
//! abstract types (`ty_pid`, `uid`, `gid`, `ty_fd`, …) of the Lem model.

use std::fmt;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u32);

/// A user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uid(pub u32);

/// A group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gid(pub u32);

/// A per-process file descriptor, as returned by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fd(pub i32);

/// A per-process directory handle, as returned by `opendir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DirHandleId(pub i32);

/// An OS-level open file description reference (the `ty_fid` of the paper).
///
/// Several per-process file descriptors may in principle refer to the same
/// file description; the model keeps the two levels distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fid(pub u64);

/// The kind of a file-system object, as reported by `stat`/`lstat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
    /// A symbolic link.
    Symlink,
}

impl FileKind {
    /// Canonical name used in trace output (`S_IFREG`-style abbreviations).
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Regular => "FILE",
            FileKind::Directory => "DIR",
            FileKind::Symlink => "SYMLINK",
        }
    }
}

impl fmt::Display for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The root user id (`uid 0`); permission checks are bypassed for this user.
pub const ROOT_UID: Uid = Uid(0);
/// The root group id (`gid 0`).
pub const ROOT_GID: Gid = Gid(0);

/// The default process created at the start of every test script.
pub const INITIAL_PID: Pid = Pid(1);

/// Maximum length of a single path component before `ENAMETOOLONG`.
pub const NAME_MAX: usize = 255;
/// Maximum length of a whole path before `ENAMETOOLONG`.
pub const PATH_MAX: usize = 4096;
/// Maximum number of symbolic links followed during resolution before `ELOOP`.
pub const SYMLOOP_MAX: usize = 40;
/// The modelled maximum file size: writes and truncations past this offset
/// fail with `EFBIG` (POSIX's "exceeds the maximum file size" case), exactly
/// as a real file system fails past its `s_maxbytes`.
///
/// The value is deliberately far below any real kernel's limit: both the
/// model's heap and the simulated file systems store file content eagerly, so
/// this bound is also what keeps a fuzzed offset (the exploration engine
/// freely generates `lseek`/`pwrite`/`truncate` at `i64::MAX`) from driving
/// the checker or the simulation into a multi-gigabyte allocation. Static
/// suites stay far below it; only generated stress inputs ever reach it.
pub const MAX_FILE_SIZE: i64 = 1 << 26;
/// Maximum link count of a file before `EMLINK`.
pub const LINK_MAX: u32 = 32_000;

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid:{}", self.0)
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd:{}", self.0)
    }
}

impl fmt::Display for DirHandleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dh:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_ordered_by_inner_value() {
        assert!(Pid(1) < Pid(2));
        assert!(Fd(0) < Fd(3));
        assert!(Uid(0) < Uid(1000));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Pid(3).to_string(), "p3");
        assert_eq!(Fd(7).to_string(), "fd:7");
        assert_eq!(DirHandleId(2).to_string(), "dh:2");
        assert_eq!(FileKind::Directory.to_string(), "DIR");
    }

    #[test]
    fn constants_are_sane() {
        assert_eq!(ROOT_UID, Uid(0));
        const { assert!(SYMLOOP_MAX >= 8) };
        const { assert!(NAME_MAX <= PATH_MAX) };
    }
}
