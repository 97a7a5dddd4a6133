//! The process-wide name interner.
//!
//! Every file-name component (and every raw path string) that enters the
//! model is interned exactly once into an append-only, process-wide table and
//! represented everywhere else as a [`Name`]: a `u32` symbol. The hot paths of
//! the checker — path resolution, directory-entry lookup, state hashing and
//! fingerprint dedup — then compare and hash 4-byte symbols instead of
//! heap-allocated strings.
//!
//! Design (see `crates/core/DESIGN_INTERN.md`):
//!
//! * **Append-only**: a string, once interned, keeps its symbol for the life
//!   of the process. Symbols are never recycled, so `Name` equality is exactly
//!   string equality, across threads, forever.
//! * **Sharded locking**: the string→symbol map is split across 16 shards
//!   keyed by the string's FxHash, so concurrent interning (parallel checking
//!   workers, exploration workers) rarely contends. The symbol→string table
//!   is a single `RwLock<Vec<&'static str>>` that is only write-locked on an
//!   actual *new* interning — reads (resolve-back at output boundaries) take
//!   a read lock and index.
//! * **Leaked storage**: interned strings are leaked (`Box::leak`), giving
//!   `O(1)` resolve-back to a `&'static str` with no lifetime plumbing. The
//!   name universe of any checking/exploration workload is small and bounded,
//!   so this is a deliberate arena, not a leak in the pejorative sense.
//! * **Resolve-back only at output boundaries**: the model, simulator, and
//!   checker work on symbols; [`Name::as_str`] appears only in printers,
//!   diagnostics, and the host-backend FFI layer.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHasher64;

/// An interned string: a dense `u32` symbol.
///
/// Equality and hashing are `u32` operations and agree exactly with equality
/// of the underlying strings. **Ordering is by symbol id** — an arbitrary but
/// fixed total order, *not* lexicographic — which keeps `BTreeMap<Name, _>`
/// lookups on the resolve hot path comparing integers. Anything that needs
/// lexicographic order (dirent listings, diagnostics) sorts by
/// [`Name::as_str`] at the output boundary.
///
/// **Serde caveat**: the derives below are the workspace's no-op stub
/// markers. When real serde is wired in, `Name` MUST get a custom impl
/// serializing its string content (`as_str`) and deserializing via `intern`
/// — raw ids are interning-order-dependent and must never cross the process
/// boundary (DESIGN_INTERN.md, invariant 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Name(u32);

const SHARD_COUNT: usize = 16;

type ShardMap = HashMap<&'static str, u32, BuildHasherDefault<FxHasher64>>;

struct Interner {
    /// string → symbol, sharded by FxHash of the string.
    shards: [RwLock<ShardMap>; SHARD_COUNT],
    /// symbol → string. Append-only; write-locked only when a genuinely new
    /// string is interned.
    strings: RwLock<Vec<&'static str>>,
    /// Serialises appends so ids are dense and published exactly once.
    append: Mutex<()>,
    /// Total bytes of leaked string storage, maintained on the append path.
    /// Read lock-free by [`stats`] — the interner is append-only, so the
    /// counter only ever grows and a racy read is at worst slightly stale.
    bytes: AtomicUsize,
}

impl Interner {
    fn new() -> Interner {
        let interner = Interner {
            shards: std::array::from_fn(|_| RwLock::new(ShardMap::default())),
            strings: RwLock::new(Vec::with_capacity(1024)),
            append: Mutex::new(()),
            bytes: AtomicUsize::new(0),
        };
        // Pre-intern the symbols the resolver compares against so they get
        // known, constant ids (see the associated constants on `Name`).
        for (expected, s) in ["", ".", ".."].iter().enumerate() {
            let id = interner.intern(s).0;
            debug_assert_eq!(id as usize, expected);
        }
        interner
    }

    fn shard_of(s: &str) -> usize {
        let mut h = FxHasher64::default();
        h.write(s.as_bytes());
        (h.finish() as usize) % SHARD_COUNT
    }

    fn intern(&self, s: &str) -> Name {
        let shard = &self.shards[Self::shard_of(s)];
        if let Some(&id) = shard.read().unwrap_or_else(|e| e.into_inner()).get(s) {
            return Name(id);
        }
        // Not present: take the global append lock, then re-check under the
        // shard write lock (another thread may have won the race).
        let _append = self.append.lock().unwrap_or_else(|e| e.into_inner());
        let mut shard = shard.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = shard.get(s) {
            return Name(id);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let mut strings = self.strings.write().unwrap_or_else(|e| e.into_inner());
        assert!(
            u32::try_from(strings.len()).is_ok(),
            "interner overflow: > 4G distinct names"
        );
        let id = strings.len() as u32;
        strings.push(leaked);
        drop(strings);
        self.bytes.fetch_add(leaked.len(), Ordering::Relaxed);
        shard.insert(leaked, id);
        Name(id)
    }

    fn lookup(&self, s: &str) -> Option<Name> {
        let shard = &self.shards[Self::shard_of(s)];
        shard.read().unwrap_or_else(|e| e.into_inner()).get(s).copied().map(Name)
    }

    fn resolve(&self, name: Name) -> &'static str {
        self.strings.read().unwrap_or_else(|e| e.into_inner())[name.0 as usize]
    }

    fn len(&self) -> usize {
        self.strings.read().unwrap_or_else(|e| e.into_inner()).len()
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

impl Name {
    /// The empty string (pre-interned with a constant id).
    pub const EMPTY: Name = Name(0);
    /// The `.` path component.
    pub const DOT: Name = Name(1);
    /// The `..` path component.
    pub const DOTDOT: Name = Name(2);

    /// Intern `s`, returning its stable symbol. Idempotent and thread-safe:
    /// every caller interning an equal string receives an equal symbol.
    pub fn intern(s: &str) -> Name {
        // Fast path for the constants, bypassing the shard probe.
        match s {
            "" => Name::EMPTY,
            "." => Name::DOT,
            ".." => Name::DOTDOT,
            _ => interner().intern(s),
        }
    }

    /// Probe for an already-interned string *without* inserting it. Used when
    /// matching externally observed names (e.g. a `readdir` entry reported by
    /// a real kernel) against interned candidates: a string that was never
    /// interned cannot equal any interned name, and probing keeps observation
    /// garbage out of the table.
    pub fn lookup(s: &str) -> Option<Name> {
        match s {
            "" => Some(Name::EMPTY),
            "." => Some(Name::DOT),
            ".." => Some(Name::DOTDOT),
            _ => interner().lookup(s),
        }
    }

    /// Resolve the symbol back to its string. `O(1)` (a read-locked vector
    /// index); intended for output boundaries — printers, diagnostics, FFI —
    /// not for hot-path comparisons, which should compare symbols directly.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self)
    }

    /// The byte length of the interned string.
    pub fn len(self) -> usize {
        self.as_str().len()
    }

    /// Whether the interned string is empty.
    pub fn is_empty(self) -> bool {
        self == Name::EMPTY
    }

    /// The raw symbol id (exposed for diagnostics and tests).
    pub fn id(self) -> u32 {
        self.0
    }
}

/// A snapshot of the interner's size, for memory accounting in long-lived
/// processes (the `sibylfs serve` stats line, growth budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Number of distinct strings interned so far.
    pub count: usize,
    /// Total bytes of (leaked) string storage those entries hold. Excludes
    /// per-entry map/vec overhead, so it is a lower bound on the memory the
    /// interner pins.
    pub bytes: usize,
}

/// Snapshot the interner's current size. The interner is process-wide and
/// append-only, so both fields grow monotonically over the life of the
/// process; callers watching for runaway growth (e.g. a trace-checking server
/// fed unique path components by many clients) compare snapshots over time.
pub fn stats() -> InternStats {
    let i = interner();
    InternStats { count: i.len(), bytes: i.bytes.load(Ordering::Relaxed) }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::intern(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::intern(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::intern(&s)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        // A string that was never interned cannot equal any symbol.
        Name::lookup(other) == Some(*self)
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// Hash the *string content* of a name (not its symbol id) into `h`.
///
/// Symbol ids depend on interning order, so content hashing is what anything
/// needing a run-independent digest (e.g. corpus fingerprints persisted to
/// disk) must use. In-memory state fingerprints hash symbols directly.
pub fn hash_content<H: Hasher>(name: Name, h: &mut H) {
    name.as_str().hash(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_injective() {
        let a = Name::intern("alpha-test-name");
        let b = Name::intern("alpha-test-name");
        let c = Name::intern("beta-test-name");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha-test-name");
        assert_eq!(c.as_str(), "beta-test-name");
    }

    #[test]
    fn constants_have_fixed_ids() {
        assert_eq!(Name::intern(""), Name::EMPTY);
        assert_eq!(Name::intern("."), Name::DOT);
        assert_eq!(Name::intern(".."), Name::DOTDOT);
        assert_eq!(Name::EMPTY.as_str(), "");
        assert_eq!(Name::DOT.as_str(), ".");
        assert_eq!(Name::DOTDOT.as_str(), "..");
        assert!(Name::EMPTY.is_empty());
        assert_eq!(Name::DOTDOT.len(), 2);
    }

    #[test]
    fn stats_track_count_and_bytes() {
        // Other tests in this binary intern concurrently, so the assertions
        // are monotonic bounds, not exact equalities.
        let before = stats();
        assert!(before.count >= 3, "the three constants are pre-interned");
        let s = "stats-tracking-test-name-abcdefgh";
        let _ = Name::intern(s);
        let after = stats();
        assert!(after.count > before.count);
        assert!(after.bytes >= before.bytes + s.len());
    }

    #[test]
    fn lookup_probes_without_inserting() {
        // Sibling tests intern concurrently, so the global count cannot show
        // whether the probe inserted; a second probe of the same name can.
        let probe = "never-interned-name-xyzzy-12345";
        assert_eq!(Name::lookup(probe), None);
        assert_eq!(Name::lookup(probe), None, "the first probe must not have interned it");
        let n = Name::intern("lookup-after-intern-xyzzy");
        assert_eq!(Name::lookup("lookup-after-intern-xyzzy"), Some(n));
    }

    #[test]
    fn str_comparison_matches_interned_content() {
        let n = Name::intern("cmp-target");
        assert!(n == "cmp-target");
        assert!(n != "cmp-other-never-interned");
        assert_eq!(format!("{n}"), "cmp-target");
        assert_eq!(format!("{n:?}"), "\"cmp-target\"");
    }

    #[test]
    fn non_utf8_safe_escaped_names_round_trip() {
        for s in ["a\nb", "tab\there", "nul\0name", "esc\\\"quote", "u\u{fffd}x"] {
            let n = Name::intern(s);
            assert_eq!(n.as_str(), s);
            assert_eq!(Name::intern(s), n);
        }
    }

    #[test]
    fn symbols_are_stable_and_unique_across_threads() {
        // The interner concurrency contract: many threads hammering the same
        // and disjoint names agree on every symbol, and distinct strings never
        // share one.
        let names: Vec<String> = (0..64).map(|i| format!("conc-name-{i}")).collect();
        let results: Vec<Vec<(String, Name)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let names = &names;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        // Each thread walks the names in a different order.
                        for i in 0..names.len() {
                            let s = &names[(i * 7 + t * 13) % names.len()];
                            out.push((s.clone(), Name::intern(s)));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        // Every thread got the same symbol for the same string…
        let mut canonical: HashMap<String, Name> = HashMap::new();
        for run in &results {
            for (s, n) in run {
                let prev = canonical.insert(s.clone(), *n);
                if let Some(prev) = prev {
                    assert_eq!(prev, *n, "symbol for {s:?} changed across threads");
                }
            }
        }
        // …distinct strings got distinct symbols, and each resolves back.
        let mut seen: HashMap<Name, String> = HashMap::new();
        for (s, n) in canonical {
            assert_eq!(n.as_str(), s);
            if let Some(other) = seen.insert(n, s.clone()) {
                assert_eq!(other, s, "two strings share symbol {n:?}");
            }
        }
    }
}
