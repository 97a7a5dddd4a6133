//! The trace text format owns call/return pairing: a return that does not
//! directly follow its own call carries its process's `[pN]` tag, so every
//! trace survives `parse_trace(render_trace(t)) == t`, labels and line
//! numbers alike. This suite pins that over
//!
//! * the contention families at 3–8 processes, whose calls overlap,
//! * the full suite's traces on `linux/tmpfs`,
//! * 500 explore mutants of the model-gap scripts,
//! * the model-gap scripts' traces, and
//! * the traces of the golden snapshots, which must also render back to the
//!   committed text byte for byte.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sibylfs::prelude::*;
use sibylfs_explore::mutate::Mutator;
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::sequences::model_gap_scripts;

fn assert_round_trips(trace: &Trace) {
    let text = render_trace(trace);
    let parsed = parse_trace(&text)
        .unwrap_or_else(|e| panic!("{}: rendered trace does not parse: {e}\n{text}", trace.name));
    assert_eq!(&parsed, trace, "{} does not round-trip:\n{text}", trace.name);
}

fn executed(scripts: &[Script]) -> Vec<Trace> {
    let profile = configs::by_name("linux/tmpfs").unwrap();
    scripts.iter().map(|s| execute_script(&profile, s, ExecOptions::default())).collect()
}

#[test]
fn contention_traces_round_trip() {
    for p in 3..=8 {
        for trace in contention_traces(ContentionOptions::new(p, 2)) {
            assert_round_trips(&trace);
        }
    }
}

#[test]
fn full_suite_traces_round_trip() {
    for trace in executed(&generate_suite(SuiteOptions::full())) {
        assert_round_trips(&trace);
    }
}

#[test]
fn explore_mutants_and_model_gap_traces_round_trip() {
    let parents: Vec<Script> = model_gap_scripts().into_iter().map(|(s, _)| s).collect();
    for trace in executed(&parents) {
        assert_round_trips(&trace);
    }
    let mutator = Mutator::new(40);
    let mut rng = StdRng::seed_from_u64(0x7AC3_0F00);
    let mutants: Vec<Script> = (0..500)
        .map(|i| {
            let parent = &parents[i % parents.len()];
            mutator.mutate(parent, &mut rng, format!("explore___mutant_{i:03}"))
        })
        .collect();
    for trace in executed(&mutants) {
        assert_round_trips(&trace);
    }
}

#[test]
fn golden_traces_round_trip_byte_for_byte() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let snapshot = std::fs::read_to_string(&path).unwrap();
        // A snapshot holds the rendered trace, a blank line, then the verdict.
        let start = snapshot.find("@type trace\n").unwrap();
        let len = snapshot[start..].find("\n\n").unwrap() + 1;
        let text = &snapshot[start..start + len];
        let trace = parse_trace(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(render_trace(&trace), text, "{}", path.display());
        assert_round_trips(&trace);
        seen += 1;
    }
    assert!(seen >= 20, "only {seen} golden snapshots");
}
