//! POSIX error numbers used by the SibylFS model.
//!
//! The model never deals in raw integer `errno` values: every error case is a
//! member of [`Errno`]. Only the errors that can arise from the file-system
//! related calls within the model's scope (§1.1 of the paper) are included.
//! Errors that "could happen at any time" (`EIO`, `ENOMEM`, `EINTR`, …) are
//! deliberately excluded, mirroring the paper's §1.2.

use std::fmt;
use std::str::FromStr;

/// A POSIX error code within the scope of the SibylFS model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::upper_case_acronyms)]
pub enum Errno {
    /// Permission denied.
    EACCES,
    /// Resource temporarily unavailable.
    EAGAIN,
    /// Bad file descriptor.
    EBADF,
    /// Device or resource busy (e.g. attempting to remove the root directory).
    EBUSY,
    /// File exists.
    EEXIST,
    /// File too large.
    EFBIG,
    /// Invalid argument.
    EINVAL,
    /// Is a directory.
    EISDIR,
    /// Too many levels of symbolic links.
    ELOOP,
    /// Too many open files in the process.
    EMFILE,
    /// Too many links.
    EMLINK,
    /// Filename too long.
    ENAMETOOLONG,
    /// Too many open files in the system.
    ENFILE,
    /// No such file or directory.
    ENOENT,
    /// No space left on device.
    ENOSPC,
    /// Not a directory.
    ENOTDIR,
    /// Directory not empty.
    ENOTEMPTY,
    /// Function not supported (returned e.g. by old Linux HFS+ for `chmod`).
    EOPNOTSUPP,
    /// Value too large to be stored in data type.
    EOVERFLOW,
    /// Operation not permitted.
    EPERM,
    /// Read-only file system.
    EROFS,
    /// Illegal seek.
    ESPIPE,
    /// Text file busy.
    ETXTBSY,
    /// Cross-device link.
    EXDEV,
    /// No such device or address.
    ENXIO,
}

impl Errno {
    /// All error codes known to the model, in a fixed order.
    pub const ALL: &'static [Errno] = &[
        Errno::EACCES,
        Errno::EAGAIN,
        Errno::EBADF,
        Errno::EBUSY,
        Errno::EEXIST,
        Errno::EFBIG,
        Errno::EINVAL,
        Errno::EISDIR,
        Errno::ELOOP,
        Errno::EMFILE,
        Errno::EMLINK,
        Errno::ENAMETOOLONG,
        Errno::ENFILE,
        Errno::ENOENT,
        Errno::ENOSPC,
        Errno::ENOTDIR,
        Errno::ENOTEMPTY,
        Errno::EOPNOTSUPP,
        Errno::EOVERFLOW,
        Errno::EPERM,
        Errno::EROFS,
        Errno::ESPIPE,
        Errno::ETXTBSY,
        Errno::EXDEV,
        Errno::ENXIO,
    ];

    /// The canonical upper-case name of the error, e.g. `"ENOENT"`.
    pub fn name(self) -> &'static str {
        match self {
            Errno::EACCES => "EACCES",
            Errno::EAGAIN => "EAGAIN",
            Errno::EBADF => "EBADF",
            Errno::EBUSY => "EBUSY",
            Errno::EEXIST => "EEXIST",
            Errno::EFBIG => "EFBIG",
            Errno::EINVAL => "EINVAL",
            Errno::EISDIR => "EISDIR",
            Errno::ELOOP => "ELOOP",
            Errno::EMFILE => "EMFILE",
            Errno::EMLINK => "EMLINK",
            Errno::ENAMETOOLONG => "ENAMETOOLONG",
            Errno::ENFILE => "ENFILE",
            Errno::ENOENT => "ENOENT",
            Errno::ENOSPC => "ENOSPC",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::EOPNOTSUPP => "EOPNOTSUPP",
            Errno::EOVERFLOW => "EOVERFLOW",
            Errno::EPERM => "EPERM",
            Errno::EROFS => "EROFS",
            Errno::ESPIPE => "ESPIPE",
            Errno::ETXTBSY => "ETXTBSY",
            Errno::EXDEV => "EXDEV",
            Errno::ENXIO => "ENXIO",
        }
    }

    /// A short human-readable description of the error.
    pub fn description(self) -> &'static str {
        match self {
            Errno::EACCES => "permission denied",
            Errno::EAGAIN => "resource temporarily unavailable",
            Errno::EBADF => "bad file descriptor",
            Errno::EBUSY => "device or resource busy",
            Errno::EEXIST => "file exists",
            Errno::EFBIG => "file too large",
            Errno::EINVAL => "invalid argument",
            Errno::EISDIR => "is a directory",
            Errno::ELOOP => "too many levels of symbolic links",
            Errno::EMFILE => "too many open files",
            Errno::EMLINK => "too many links",
            Errno::ENAMETOOLONG => "filename too long",
            Errno::ENFILE => "too many open files in system",
            Errno::ENOENT => "no such file or directory",
            Errno::ENOSPC => "no space left on device",
            Errno::ENOTDIR => "not a directory",
            Errno::ENOTEMPTY => "directory not empty",
            Errno::EOPNOTSUPP => "operation not supported",
            Errno::EOVERFLOW => "value too large for data type",
            Errno::EPERM => "operation not permitted",
            Errno::EROFS => "read-only file system",
            Errno::ESPIPE => "illegal seek",
            Errno::ETXTBSY => "text file busy",
            Errno::EXDEV => "cross-device link",
            Errno::ENXIO => "no such device or address",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown errno name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseErrnoError(pub String);

impl fmt::Display for ParseErrnoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown errno name: {}", self.0)
    }
}

impl std::error::Error for ParseErrnoError {}

impl FromStr for Errno {
    type Err = ParseErrnoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Errno::ALL
            .iter()
            .copied()
            .find(|e| e.name() == s)
            .ok_or_else(|| ParseErrnoError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_round_trips_through_from_str() {
        for e in Errno::ALL {
            let parsed: Errno = e.name().parse().unwrap();
            assert_eq!(parsed, *e);
        }
    }

    #[test]
    fn unknown_name_is_an_error() {
        assert!("EWHATEVER".parse::<Errno>().is_err());
        assert!("".parse::<Errno>().is_err());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Errno::ENOENT.to_string(), "ENOENT");
        assert_eq!(Errno::ENOTEMPTY.to_string(), "ENOTEMPTY");
    }

    #[test]
    fn descriptions_are_nonempty_and_distinct_enough() {
        for e in Errno::ALL {
            assert!(!e.description().is_empty());
        }
    }

    #[test]
    fn all_list_has_no_duplicates() {
        let mut names: Vec<_> = Errno::ALL.iter().map(|e| e.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
