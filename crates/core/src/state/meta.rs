//! Per-object metadata: ownership, permission bits and timestamps.

use crate::flags::FileMode;
use crate::types::{Gid, Uid};

/// Logical timestamps.
///
/// The model does not track wall-clock time; instead each file-system state
/// carries a logical clock that is advanced on every mutating operation, and
/// timestamps record the clock value at which the corresponding update
/// happened. No observed value carries a timestamp, so these values are
/// never compared against observations (§1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamps {
    /// Last access time.
    pub atime: u64,
    /// Last data modification time.
    pub mtime: u64,
    /// Last status change time.
    pub ctime: u64,
}

impl Timestamps {
    /// Timestamps for a freshly created object at logical time `now`.
    pub fn at(now: u64) -> Timestamps {
        Timestamps { atime: now, mtime: now, ctime: now }
    }

    /// Record an access at logical time `now`.
    pub fn touch_atime(&mut self, now: u64) {
        self.atime = now;
    }

    /// Record a data modification at logical time `now` (also changes ctime).
    pub fn touch_mtime(&mut self, now: u64) {
        self.mtime = now;
        self.ctime = now;
    }

    /// Record a status change at logical time `now`.
    pub fn touch_ctime(&mut self, now: u64) {
        self.ctime = now;
    }
}

/// Metadata attached to every file and directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Meta {
    /// Permission bits.
    pub mode: FileMode,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Logical timestamps.
    pub times: Timestamps,
}

impl Meta {
    /// Metadata for a new object owned by `uid:gid` with the given mode.
    pub fn new(mode: FileMode, uid: Uid, gid: Gid, now: u64) -> Meta {
        Meta { mode, uid, gid, times: Timestamps::at(now) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_updates_expected_fields() {
        let mut t = Timestamps::at(1);
        t.touch_atime(5);
        assert_eq!(t, Timestamps { atime: 5, mtime: 1, ctime: 1 });
        t.touch_mtime(7);
        assert_eq!(t, Timestamps { atime: 5, mtime: 7, ctime: 7 });
        t.touch_ctime(9);
        assert_eq!(t.ctime, 9);
    }

    #[test]
    fn meta_new_records_now() {
        let m = Meta::new(FileMode::new(0o644), Uid(10), Gid(20), 42);
        assert_eq!(m.times.atime, 42);
        assert_eq!(m.uid, Uid(10));
        assert_eq!(m.mode, FileMode::new(0o644));
    }
}
