//! End-to-end properties of the exploration loop, including the acceptance
//! contract: every corpus entry the engine saves replays deterministically
//! and re-checks with exactly the verdict recorded in its header, and a
//! single-worker run is reproducible bit-for-bit from its base seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sibylfs_check::{check_trace_with_coverage, CheckOptions};
use sibylfs_core::flavor::SpecConfig;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_explore::corpus::{recorded_novel_keys, recorded_verdict};
use sibylfs_explore::{explore, BaselineMode, ExploreOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::parse_script;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sibylfs-explore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().map(|x| x == "script").unwrap_or(false) {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn every_saved_corpus_entry_replays_with_the_recorded_verdict() {
    // linux/sshfs-tmpfs models sshfs's deviations from the model, so its
    // sim-only run also takes the finding path: each finding is saved under
    // divergences/ and replays NOT accepted, as its header records. The
    // 2000-iteration run shrinks a finding to steps the corpus already
    // holds, which must not count as a divergence.
    let inputs = [
        ("linux/tmpfs", 2, 400, BaselineMode::SeedsOnly, false),
        ("linux/sshfs-tmpfs", 1, 400, BaselineMode::SeedsOnly, true),
        ("linux/sshfs-tmpfs", 1, 2000, BaselineMode::QuickSuite, true),
    ];
    for (n, (config, workers, iterations, baseline, must_find)) in inputs.into_iter().enumerate() {
        let dir = scratch_dir(&format!("replay-{n}"));
        let opts = ExploreOptions {
            config: config.to_string(),
            iterations: Some(iterations),
            workers,
            seed: 42,
            baseline,
            corpus_dir: Some(dir.clone()),
            ..ExploreOptions::default()
        };
        let outcome = explore(&opts).unwrap();
        assert!(!outcome.saved.is_empty(), "{config}: nothing was persisted");

        let profile = configs::by_name(&opts.config).unwrap();
        let cfg = SpecConfig::standard(opts.flavor);
        let files = corpus_files(&dir);
        assert!(files.len() >= outcome.saved.len());
        let mut findings = 0;
        for file in &files {
            let text = std::fs::read_to_string(file).unwrap();
            let script = parse_script(&text)
                .unwrap_or_else(|e| panic!("{}: corpus file does not parse: {e}", file.display()));
            let recorded = recorded_verdict(&text)
                .unwrap_or_else(|| panic!("{}: no recorded verdict", file.display()));
            // Replay: re-execute from scratch and re-check. Execution and
            // checking are deterministic, so the verdict must be identical.
            let trace = execute_script(&profile, &script, ExecOptions::default());
            let (checked, cov) = check_trace_with_coverage(&cfg, &trace, CheckOptions::default());
            assert_eq!(
                checked.accepted,
                recorded,
                "{}: replayed verdict differs from the recorded one",
                file.display()
            );
            // Every coverage key the entry was saved for is reproduced.
            for key in recorded_novel_keys(&text) {
                assert!(
                    cov.contains(&key),
                    "{}: replay no longer reaches {key:?}",
                    file.display()
                );
            }
            if file.strip_prefix(&dir).unwrap().starts_with("divergences") {
                assert!(!recorded, "{}: a finding is recorded as accepted", file.display());
                findings += 1;
            }
        }
        assert_eq!(
            outcome.divergences, findings,
            "{config}, {iterations} iterations: divergences counted vs saved"
        );
        if must_find {
            assert!(outcome.divergences > 0, "{config}: the run saved no finding");
            assert!(findings > 0, "{config}: divergences/ is empty");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn single_worker_runs_are_reproducible_bit_for_bit() {
    let run = |tag: &str| {
        let dir = scratch_dir(tag);
        let opts = ExploreOptions {
            iterations: Some(150),
            workers: 1,
            seed: 7,
            baseline: BaselineMode::SeedsOnly,
            corpus_dir: Some(dir.clone()),
            ..ExploreOptions::default()
        };
        explore(&opts).unwrap();
        let files: BTreeMap<String, String> = corpus_files(&dir)
            .into_iter()
            .map(|p| {
                let rel = p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&p).unwrap();
                (rel, text)
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        files
    };
    let a = run("repro-a");
    let b = run("repro-b");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "two identical single-worker runs saved different corpus sets"
    );
    assert_eq!(a, b, "corpus file contents differ between identical runs");

    // A different base seed explores a different corpus.
    let dir = scratch_dir("repro-c");
    let opts = ExploreOptions {
        iterations: Some(150),
        workers: 1,
        seed: 8,
        baseline: BaselineMode::SeedsOnly,
        corpus_dir: Some(dir.clone()),
        ..ExploreOptions::default()
    };
    explore(&opts).unwrap();
    let c: Vec<String> = corpus_files(&dir)
        .into_iter()
        .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_ne!(a.keys().cloned().collect::<Vec<_>>(), c, "seed 7 and seed 8 found identical corpora");
}
