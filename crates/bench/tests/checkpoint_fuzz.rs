//! Checkpoint-loader robustness, in the parser-corpus style: arbitrary
//! and mutated checkpoint content must restore zero or more cells —
//! never panic, never abort a run — and valid records must round-trip
//! exactly.

use proptest::prelude::*;

use ade_bench::checkpoint::{decode_line, encode_line, Checkpoint};
use ade_bench::figures::Session;
use ade_bench::RunResult;
use ade_interp::{CollOp, ImplKind, Stats};
use ade_workloads::bench::benchmark_by_abbrev;
use ade_workloads::ConfigKind;

fn sample() -> RunResult {
    let bench = benchmark_by_abbrev("BFS").expect("bfs");
    let mut stats = Stats {
        peak_bytes: 4096,
        final_bytes: 128,
        wall_ns: [17, 9001],
        ..Stats::default()
    };
    stats.per_phase[0].bump(ImplKind::HashMap, CollOp::Insert, 42);
    stats.per_phase[1].bump(ImplKind::BitSet, CollOp::IterWord, 7);
    RunResult {
        abbrev: bench.abbrev,
        config: ConfigKind::Ade,
        output: "a|b\\c\nchecksum 9\n".to_string(),
        stats,
        profile: None,
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ade-ckfuzz-{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The line decoder is total: any single line yields `Some` or
    /// `None`, never a panic.
    #[test]
    fn arbitrary_lines_never_panic(line in ".{0,300}") {
        let _ = decode_line(&line);
    }

    /// Field-structured soup: plausible records with corrupted fields
    /// (wrong benchmark, bad numbers, broken escapes, stray
    /// separators) decode to `None` or to a valid record — either way,
    /// no panic and no bogus partial state.
    #[test]
    fn record_like_soup_never_panics(
        fields in prop::collection::vec(
            prop_oneof![
                Just("BFS".to_string()), Just("ade".to_string()),
                Just("memoir".to_string()), Just("NOPE".to_string()),
                Just("4096".to_string()), Just("-1".to_string()),
                Just("1.5".to_string()), Just("".to_string()),
                Just("0.0.1,1.2.3".to_string()), Just("99.99.99".to_string()),
                Just("0.0".to_string()), Just("a\\z".to_string()),
                Just("x\\".to_string()), Just("ok\\n".to_string()),
                ".{0,20}",
            ],
            0..14,
        )
    ) {
        let _ = decode_line(&fields.join("|"));
    }

    /// Mutated real records (truncation plus injected bytes at a char
    /// boundary) never panic; if one still decodes, it decodes to a
    /// well-formed cell for a known benchmark.
    #[test]
    fn mutated_valid_record_never_panics(cut in 0usize..200, insert in ".{0,10}") {
        let base = encode_line(&sample());
        let cut = cut.min(base.len());
        let boundary = (0..=cut).rev().find(|&i| base.is_char_boundary(i)).unwrap_or(0);
        let mut mutated = String::new();
        mutated.push_str(&base[..boundary]);
        mutated.push_str(&insert);
        mutated.push_str(&base[boundary..]);
        if let Some(r) = decode_line(&mutated) {
            prop_assert!(benchmark_by_abbrev(r.abbrev).is_some());
        }
    }

    /// Whole-file robustness: a checkpoint file of arbitrary text
    /// (with or without a valid header) opens, restores only valid
    /// records, and stays usable for appends.
    #[test]
    fn arbitrary_files_open_and_restore(body in ".{0,400}", with_header in any::<bool>()) {
        let path = temp_path("file");
        let mut contents = String::new();
        if with_header {
            contents.push_str("# ade-checkpoint v1 scale=5 trials=1\n");
        }
        contents.push_str(&body);
        std::fs::write(&path, &contents).expect("write fuzz file");
        let (ck, restored) = Checkpoint::open(&path, 5, 1).expect("open never fails on content");
        for r in &restored {
            prop_assert!(benchmark_by_abbrev(r.abbrev).is_some());
        }
        ck.record(&sample());
        let _ = std::fs::remove_file(&path);
    }
}

/// Round-trip: encode → decode is the identity on every field the
/// checkpoint persists.
#[test]
fn valid_records_round_trip() {
    let r = sample();
    let back = decode_line(&encode_line(&r)).expect("round-trips");
    assert_eq!(back.abbrev, r.abbrev);
    assert_eq!(back.config, r.config);
    assert_eq!(back.output, r.output);
    assert_eq!(back.stats.peak_bytes, r.stats.peak_bytes);
    assert_eq!(back.stats.wall_ns, r.stats.wall_ns);
    assert_eq!(back.stats.per_phase, r.stats.per_phase);
}

/// A deliberately nasty corpus: binary junk, half headers, truncated
/// records, oversized numbers. Every file must open, restore nothing
/// bogus, and leave the session runnable (the lenient `reproduce`
/// path).
#[test]
fn corrupt_file_corpus_degrades_to_fresh_runs() {
    let valid = encode_line(&sample());
    let corpus: Vec<String> = vec![
        String::new(),
        "\u{0}\u{1}\u{2}garbage".to_string(),
        "# ade-checkpoint v1 scale=5 trials=1".to_string(),
        "# ade-checkpoint v1 scale=5 trials=1\nBFS|ade|trunc".to_string(),
        format!("# ade-checkpoint v1 scale=5 trials=1\n{}", &valid[..valid.len() / 2]),
        format!("# ade-checkpoint v2 scale=5 trials=1\n{valid}"),
        format!("# ade-checkpoint v1 scale=99 trials=1\n{valid}"),
        format!("# ade-checkpoint v1 scale=5 trials=1\n{valid}\n{valid}\njunk|line"),
        format!("BFS|ade|no|header|at|all\n{valid}"),
        "# ade-checkpoint v1 scale=5 trials=1\nBFS|ade|18446744073709551616|0|0|0|||x"
            .to_string(),
    ];
    for (i, contents) in corpus.iter().enumerate() {
        let path = temp_path(&format!("corpus{i}"));
        std::fs::write(&path, contents).expect("write corpus file");
        // Session-level: attaching the damaged file must not panic or
        // abort, and the session must still run cells.
        let mut session = Session::new(3).include_wall(false).checkpoint(&path);
        let r = session.cell("BFS", ConfigKind::Ade);
        assert!(!r.output.is_empty(), "corpus {i} broke the session");
        let _ = std::fs::remove_file(&path);
    }
}

/// The lenient path's other half: a path that cannot be opened at all
/// (missing directory) warns and runs fresh instead of aborting.
#[test]
fn unopenable_checkpoint_path_degrades_to_fresh_run() {
    let path = std::path::Path::new("/nonexistent-ade-dir/ck.txt");
    let mut session = Session::new(3).include_wall(false).checkpoint(path);
    let r = session.cell("BFS", ConfigKind::Ade);
    assert!(!r.output.is_empty());
}
