//! The exploration corpus: the set of scripts that have earned their place by
//! increasing coverage (or by distinguishing two backends), deduplicated by a
//! fingerprint of their rendered text and persisted with enough header
//! metadata to replay any entry in isolation.
//!
//! ## On-disk layout
//!
//! ```text
//! <corpus-dir>/
//!   explore___w0_i00042_s4fd1….script     # coverage-novel, minimized
//!   seed___open___gap_….script            # the known-hard starting corpus
//!   divergences/
//!     explore___w1_i00007_s9ab2….script   # backend-distinguishing testcase
//! ```
//!
//! Every file is a valid `@type script` file (parsable by `sibylfs exec`)
//! whose comment header records provenance: the base seed, worker and
//! iteration that produced it, the derived per-entry seed, the verdict its
//! trace received, and the coverage keys it was saved for. Comments are
//! ignored by the parser, so the files replay as ordinary scripts.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use sibylfs_core::coverage::CoverageKey;
use sibylfs_script::{render_script, Script};

/// Why an entry is in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A known-hard script the corpus was seeded with.
    Seed,
    /// A minimized script that reached at least one new coverage key.
    Coverage,
    /// A minimized script on which two backends' verdicts differ.
    Divergence,
}

impl EntryKind {
    fn label(self) -> &'static str {
        match self {
            EntryKind::Seed => "seed",
            EntryKind::Coverage => "coverage",
            EntryKind::Divergence => "divergence",
        }
    }
}

/// Provenance of a mutated entry: the chain of seeds that regenerates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The run's base seed (`--seed`).
    pub base_seed: u64,
    /// The worker that produced the entry.
    pub worker: usize,
    /// The worker-local iteration counter.
    pub iter: u64,
    /// `split_seed(split_seed(base_seed, worker), iter)` — the RNG seed of
    /// the mutation that produced this script.
    pub derived_seed: u64,
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The (minimized) script.
    pub script: Script,
    /// Why it was kept.
    pub kind: EntryKind,
    /// Seed chain for mutated entries (`None` for seeds).
    pub provenance: Option<Provenance>,
    /// The coverage keys this entry was saved for.
    pub novel: Vec<CoverageKey>,
    /// Whether the checker accepted the entry's trace when it was saved
    /// (replays must reproduce exactly this verdict).
    pub accepted: bool,
}

/// The shared, fingerprint-deduplicated corpus. Wrapped in a
/// `std::sync::Mutex` by the driver; the structure itself is single-threaded.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    fingerprints: HashSet<u64>,
}

/// FxHash fingerprint of a script's *steps* (the generated name plays no
/// part): cheap, deterministic and stable across runs — two behaviourally
/// identical scripts always collide, whatever they are called. Keys only the
/// dedup set, never persistence.
///
/// The step content is streamed straight into the hasher through a
/// `fmt::Write` adapter: no clone of the step list, no intermediate `String`
/// render, and path symbols are resolved to their *content* (symbol ids are
/// interning-order-dependent and would not be stable across runs).
pub fn fingerprint(script: &Script) -> u64 {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;

    struct HashWrite(sibylfs_core::fxhash::FxHasher64);
    impl std::fmt::Write for HashWrite {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }

    let mut h = HashWrite(sibylfs_core::fxhash::FxHasher64::default());
    for step in &script.steps {
        match step {
            sibylfs_script::ScriptStep::Call { pid, cmd } => {
                let _ = write!(h, "c{}:{cmd};", pid.0);
            }
            sibylfs_script::ScriptStep::CreateProcess { pid, uid, gid } => {
                let _ = write!(h, "+{}:{}:{};", pid.0, uid.0, gid.0);
            }
            sibylfs_script::ScriptStep::DestroyProcess { pid } => {
                let _ = write!(h, "-{};", pid.0);
            }
        }
    }
    h.0.finish()
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert an entry unless a script with the same fingerprint is already
    /// present; `true` if it was added.
    pub fn insert(&mut self, entry: CorpusEntry) -> bool {
        if self.fingerprints.insert(fingerprint(&entry.script)) {
            self.entries.push(entry);
            true
        } else {
            false
        }
    }

    /// Pick a random entry to mutate next (uniform; every entry keeps pulling
    /// its weight — corpus growth is already biased towards novelty).
    pub fn pick(&self, rng: &mut StdRng) -> Option<&CorpusEntry> {
        self.entries.as_slice().choose(rng)
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }
}

/// Render the full corpus file for an entry: the standard script rendering
/// with the provenance header spliced in after the `# Test` line.
pub fn entry_file_text(entry: &CorpusEntry) -> String {
    let rendered = render_script(&entry.script);
    let mut header = String::new();
    match entry.provenance {
        Some(p) => {
            let _ = writeln!(
                header,
                "# explore: kind={} base-seed=0x{:016x} worker={} iter={} derived-seed=0x{:016x}",
                entry.kind.label(),
                p.base_seed,
                p.worker,
                p.iter,
                p.derived_seed
            );
        }
        None => {
            let _ = writeln!(header, "# explore: kind={}", entry.kind.label());
        }
    }
    let _ = writeln!(header, "# verdict: {}", if entry.accepted { "accepted" } else { "deviating" });
    for key in &entry.novel {
        match key {
            CoverageKey::Branch(p) => {
                let _ = writeln!(header, "# novel: branch {p}");
            }
            CoverageKey::Transition { syscall, outcome } => {
                let _ = writeln!(header, "# novel: transition {syscall} {outcome}");
            }
        }
    }
    // Splice after the `# Test` line (always present: entries are named).
    let mut out = String::with_capacity(rendered.len() + header.len());
    let mut spliced = false;
    for line in rendered.lines() {
        out.push_str(line);
        out.push('\n');
        if !spliced && line.starts_with("# Test ") {
            out.push_str(&header);
            spliced = true;
        }
    }
    if !spliced {
        out.push_str(&header);
    }
    out
}

/// The verdict recorded in a persisted corpus file, if any — the replay
/// harness compares a fresh check against this.
pub fn recorded_verdict(file_text: &str) -> Option<bool> {
    for line in file_text.lines() {
        if let Some(v) = line.trim().strip_prefix("# verdict: ") {
            return Some(v == "accepted");
        }
    }
    None
}

/// The coverage keys recorded in a persisted corpus file's `# novel:` lines.
pub fn recorded_novel_keys(file_text: &str) -> Vec<CoverageKey> {
    let mut out = Vec::new();
    for line in file_text.lines() {
        let Some(rest) = line.trim().strip_prefix("# novel: ") else { continue };
        let mut parts = rest.split_whitespace();
        match parts.next() {
            Some("branch") => {
                if let Some(p) = parts.next() {
                    out.push(CoverageKey::Branch(p.to_string()));
                }
            }
            Some("transition") => {
                if let (Some(s), Some(o)) = (parts.next(), parts.next()) {
                    out.push(CoverageKey::Transition {
                        syscall: s.to_string(),
                        outcome: o.to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Persist one entry under `dir` (divergences go to a subdirectory), creating
/// directories as needed. Returns the file path.
pub fn persist_entry(dir: &Path, entry: &CorpusEntry) -> io::Result<PathBuf> {
    let target_dir = match entry.kind {
        EntryKind::Divergence => dir.join("divergences"),
        _ => dir.to_path_buf(),
    };
    std::fs::create_dir_all(&target_dir)?;
    let path = target_dir.join(format!("{}.script", entry.script.name));
    std::fs::write(&path, entry_file_text(entry))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sibylfs_core::commands::OsCommand;
    use sibylfs_core::flags::FileMode;
    use sibylfs_script::parse_script;

    fn entry(name: &str, path: &str) -> CorpusEntry {
        let mut sc = Script::new(name, "explore");
        sc.call(OsCommand::Mkdir(path.into(), FileMode::new(0o777)));
        CorpusEntry {
            script: sc,
            kind: EntryKind::Coverage,
            provenance: Some(Provenance { base_seed: 42, worker: 1, iter: 7, derived_seed: 0xABCD }),
            novel: vec![
                CoverageKey::Branch("mkdir/success".into()),
                CoverageKey::Transition { syscall: "mkdir".into(), outcome: "ok/none".into() },
            ],
            accepted: true,
        }
    }

    #[test]
    fn dedup_is_by_script_content_not_name() {
        let mut c = Corpus::new();
        assert!(c.insert(entry("explore___a", "d")));
        // Same steps, same name → duplicate.
        assert!(!c.insert(entry("explore___a", "d")));
        // Same steps under a different generated name → still a duplicate
        // (a shrunk discovery that lands on an existing script's exact call
        // sequence must not inflate the corpus).
        assert!(!c.insert(entry("explore___b", "d")));
        // Different steps → new.
        assert!(c.insert(entry("explore___a", "e")));
        assert_eq!(c.len(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(c.pick(&mut rng).is_some());
    }

    #[test]
    fn entry_files_parse_as_scripts_and_round_trip_their_metadata() {
        let e = entry("explore___w1_i00007_s000000000000abcd", "d");
        let text = entry_file_text(&e);
        assert!(text.contains("# explore: kind=coverage base-seed=0x000000000000002a worker=1 iter=7"));
        assert!(text.contains("# verdict: accepted"));
        // The parser ignores the metadata comments and recovers the script.
        let parsed = parse_script(&text).unwrap();
        assert_eq!(parsed, e.script);
        assert_eq!(recorded_verdict(&text), Some(true));
        assert_eq!(recorded_novel_keys(&text), e.novel);
    }
}
