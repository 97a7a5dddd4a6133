//! Open flags, file permission modes, and seek whence values.
//!
//! These mirror the corresponding libc concepts but are modelled abstractly:
//! an [`OpenFlags`] value is a set of named flags rather than a raw integer,
//! and a [`FileMode`] is the permission-bit portion of a `mode_t`.

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};
use std::str::FromStr;

/// File access mode requested by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessMode {
    /// `O_RDONLY`
    ReadOnly,
    /// `O_WRONLY`
    WriteOnly,
    /// `O_RDWR`
    ReadWrite,
}

impl AccessMode {
    /// Whether the mode permits reading.
    pub fn readable(self) -> bool {
        matches!(self, AccessMode::ReadOnly | AccessMode::ReadWrite)
    }

    /// Whether the mode permits writing.
    pub fn writable(self) -> bool {
        matches!(self, AccessMode::WriteOnly | AccessMode::ReadWrite)
    }
}

/// The set of `open(2)` flags modelled by SibylFS.
///
/// Internally a bitset; the individual bit values are private and only the
/// named constants below should be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OpenFlags(u32);

impl OpenFlags {
    /// Open read-only (the zero flag; the default access mode).
    pub const O_RDONLY: OpenFlags = OpenFlags(0);
    /// Open write-only.
    pub const O_WRONLY: OpenFlags = OpenFlags(1);
    /// Open for reading and writing.
    pub const O_RDWR: OpenFlags = OpenFlags(2);
    /// Create the file if it does not exist.
    pub const O_CREAT: OpenFlags = OpenFlags(1 << 2);
    /// With `O_CREAT`, fail if the file already exists.
    pub const O_EXCL: OpenFlags = OpenFlags(1 << 3);
    /// Truncate the file to length zero on open.
    pub const O_TRUNC: OpenFlags = OpenFlags(1 << 4);
    /// All writes append to the end of the file.
    pub const O_APPEND: OpenFlags = OpenFlags(1 << 5);
    /// Fail with `ENOTDIR` if the path does not resolve to a directory.
    pub const O_DIRECTORY: OpenFlags = OpenFlags(1 << 6);
    /// Do not follow a symlink in the final path component.
    pub const O_NOFOLLOW: OpenFlags = OpenFlags(1 << 7);
    /// Non-blocking mode (accepted but has no effect within the model scope).
    pub const O_NONBLOCK: OpenFlags = OpenFlags(1 << 8);
    /// Synchronous writes (accepted but has no effect within the model scope).
    pub const O_SYNC: OpenFlags = OpenFlags(1 << 9);
    /// Close-on-exec (accepted but has no effect within the model scope).
    pub const O_CLOEXEC: OpenFlags = OpenFlags(1 << 10);

    /// The empty flag set (equivalent to `O_RDONLY`).
    pub const fn empty() -> OpenFlags {
        OpenFlags(0)
    }

    /// Named flags, used for parsing and printing flag lists.
    pub const NAMED: &'static [(&'static str, OpenFlags)] = &[
        ("O_RDONLY", OpenFlags::O_RDONLY),
        ("O_WRONLY", OpenFlags::O_WRONLY),
        ("O_RDWR", OpenFlags::O_RDWR),
        ("O_CREAT", OpenFlags::O_CREAT),
        ("O_EXCL", OpenFlags::O_EXCL),
        ("O_TRUNC", OpenFlags::O_TRUNC),
        ("O_APPEND", OpenFlags::O_APPEND),
        ("O_DIRECTORY", OpenFlags::O_DIRECTORY),
        ("O_NOFOLLOW", OpenFlags::O_NOFOLLOW),
        ("O_NONBLOCK", OpenFlags::O_NONBLOCK),
        ("O_SYNC", OpenFlags::O_SYNC),
        ("O_CLOEXEC", OpenFlags::O_CLOEXEC),
    ];

    /// Whether every flag in `other` is present in `self`.
    ///
    /// Note that `O_RDONLY` is the zero flag, so `contains(O_RDONLY)` is
    /// always true; use [`OpenFlags::access_mode`] to interrogate the access
    /// mode.
    pub fn contains(self, other: OpenFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Add a flag, returning the combined set.
    pub fn with(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | other.0)
    }

    /// Remove a flag, returning the reduced set.
    pub fn without(self, other: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 & !other.0)
    }

    /// The access mode encoded in the low bits.
    ///
    /// If both `O_WRONLY` and `O_RDWR` are present the combination is invalid;
    /// `None` is returned and the caller decides which error to raise.
    pub fn access_mode(self) -> Option<AccessMode> {
        match self.0 & 0b11 {
            0 => Some(AccessMode::ReadOnly),
            1 => Some(AccessMode::WriteOnly),
            2 => Some(AccessMode::ReadWrite),
            _ => None,
        }
    }

    /// Decompose into the list of named flags present (omitting `O_RDONLY`).
    pub fn to_list(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (name, flag) in OpenFlags::NAMED {
            if flag.0 != 0 && self.contains(*flag) {
                out.push(*name);
            }
        }
        if out.is_empty() {
            out.push("O_RDONLY");
        }
        out
    }
}

impl BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        self.with(rhs)
    }
}

impl fmt::Display for OpenFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.to_list().join(";"))
    }
}

/// Error returned when parsing an unknown open-flag name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlagError(pub String);

impl fmt::Display for ParseFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown open flag: {}", self.0)
    }
}

impl std::error::Error for ParseFlagError {}

impl FromStr for OpenFlags {
    type Err = ParseFlagError;

    /// Parse a single flag name, e.g. `"O_CREAT"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        OpenFlags::NAMED
            .iter()
            .find(|(name, _)| *name == s)
            .map(|(_, f)| *f)
            .ok_or_else(|| ParseFlagError(s.to_string()))
    }
}

/// File permission bits (the low 12 bits of a `mode_t`, including setuid,
/// setgid, and the sticky bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileMode(pub u32);

impl FileMode {
    /// Mask of all permission bits the model tracks.
    pub const MASK: u32 = 0o7777;

    /// Owner read bit.
    pub const S_IRUSR: u32 = 0o400;
    /// Owner write bit.
    pub const S_IWUSR: u32 = 0o200;
    /// Owner execute/search bit.
    pub const S_IXUSR: u32 = 0o100;
    /// Group read bit.
    pub const S_IRGRP: u32 = 0o040;
    /// Group write bit.
    pub const S_IWGRP: u32 = 0o020;
    /// Group execute/search bit.
    pub const S_IXGRP: u32 = 0o010;
    /// Other read bit.
    pub const S_IROTH: u32 = 0o004;
    /// Other write bit.
    pub const S_IWOTH: u32 = 0o002;
    /// Other execute/search bit.
    pub const S_IXOTH: u32 = 0o001;
    /// Sticky bit.
    pub const S_ISVTX: u32 = 0o1000;
    /// Set-group-id bit.
    pub const S_ISGID: u32 = 0o2000;
    /// Set-user-id bit.
    pub const S_ISUID: u32 = 0o4000;

    /// Construct a mode, masking out any bits outside [`FileMode::MASK`].
    pub fn new(bits: u32) -> FileMode {
        FileMode(bits & FileMode::MASK)
    }

    /// The raw permission bits.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether all of the given bits are set.
    pub fn has(self, bits: u32) -> bool {
        self.0 & bits == bits
    }

    /// Apply a umask: clear every bit that is set in `umask`.
    pub fn apply_umask(self, umask: FileMode) -> FileMode {
        FileMode(self.0 & !umask.0 & FileMode::MASK)
    }
}

impl BitAnd for FileMode {
    type Output = FileMode;
    fn bitand(self, rhs: FileMode) -> FileMode {
        FileMode(self.0 & rhs.0)
    }
}

impl BitOr for FileMode {
    type Output = FileMode;
    fn bitor(self, rhs: FileMode) -> FileMode {
        FileMode::new(self.0 | rhs.0)
    }
}

impl Not for FileMode {
    type Output = FileMode;
    fn not(self) -> FileMode {
        FileMode::new(!self.0)
    }
}

impl fmt::Display for FileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0o{:o}", self.0)
    }
}

impl FromStr for FileMode {
    type Err = std::num::ParseIntError;

    /// Parse an octal mode of the form `0o777` or `777`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix("0o").unwrap_or(s);
        u32::from_str_radix(digits, 8).map(FileMode::new)
    }
}

/// The `whence` argument of `lseek`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SeekWhence {
    /// `SEEK_SET`: offset is absolute.
    Set,
    /// `SEEK_CUR`: offset is relative to the current position.
    Cur,
    /// `SEEK_END`: offset is relative to the end of the file.
    End,
}

impl SeekWhence {
    /// The canonical libc constant name.
    pub fn name(self) -> &'static str {
        match self {
            SeekWhence::Set => "SEEK_SET",
            SeekWhence::Cur => "SEEK_CUR",
            SeekWhence::End => "SEEK_END",
        }
    }
}

impl fmt::Display for SeekWhence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SeekWhence {
    type Err = ParseFlagError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "SEEK_SET" => Ok(SeekWhence::Set),
            "SEEK_CUR" => Ok(SeekWhence::Cur),
            "SEEK_END" => Ok(SeekWhence::End),
            other => Err(ParseFlagError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_decoding() {
        assert_eq!(OpenFlags::O_RDONLY.access_mode(), Some(AccessMode::ReadOnly));
        assert_eq!(OpenFlags::O_WRONLY.access_mode(), Some(AccessMode::WriteOnly));
        assert_eq!(OpenFlags::O_RDWR.access_mode(), Some(AccessMode::ReadWrite));
        let invalid = OpenFlags::O_WRONLY | OpenFlags::O_RDWR;
        assert_eq!(invalid.access_mode(), None);
    }

    #[test]
    fn flag_list_round_trip() {
        let flags = OpenFlags::O_CREAT | OpenFlags::O_WRONLY | OpenFlags::O_TRUNC;
        let names = flags.to_list();
        let rebuilt = names
            .iter()
            .map(|n| n.parse::<OpenFlags>().unwrap())
            .fold(OpenFlags::empty(), |a, f| a | f);
        assert_eq!(flags, rebuilt);
    }

    #[test]
    fn rdonly_prints_alone() {
        assert_eq!(OpenFlags::empty().to_list(), vec!["O_RDONLY"]);
        assert_eq!(OpenFlags::empty().to_string(), "[O_RDONLY]");
    }

    #[test]
    fn umask_application() {
        let mode = FileMode::new(0o777);
        let umask = FileMode::new(0o022);
        assert_eq!(mode.apply_umask(umask), FileMode::new(0o755));
        assert_eq!(FileMode::new(0o666).apply_umask(umask), FileMode::new(0o644));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!("0o777".parse::<FileMode>().unwrap(), FileMode::new(0o777));
        assert_eq!("644".parse::<FileMode>().unwrap(), FileMode::new(0o644));
        assert!("zzz".parse::<FileMode>().is_err());
    }

    #[test]
    fn mode_masks_extra_bits() {
        assert_eq!(FileMode::new(0o177777).bits(), 0o7777);
    }

    #[test]
    fn whence_round_trip() {
        for w in [SeekWhence::Set, SeekWhence::Cur, SeekWhence::End] {
            assert_eq!(w.name().parse::<SeekWhence>().unwrap(), w);
        }
    }

    #[test]
    fn readable_writable() {
        assert!(AccessMode::ReadOnly.readable());
        assert!(!AccessMode::ReadOnly.writable());
        assert!(AccessMode::ReadWrite.readable() && AccessMode::ReadWrite.writable());
    }
}
