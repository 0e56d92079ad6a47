//! The whole paper evaluation, pinned: `reproduce --scale 7 all`
//! renders through `Session::render`, the same function the binary
//! prints, and its text must match `tests/golden/reproduce_all_scale7.txt`
//! byte for byte. Every column is a deterministic function of operation
//! counts and peak memory, identical for every `--jobs` value.

use ade_bench::figures::Session;

const GOLDEN: &str = include_str!("golden/reproduce_all_scale7.txt");

#[test]
fn reproduce_all_at_scale_7_matches_the_golden() {
    let actual = Session::new(7).jobs(2).render(&["all"]);
    let changed: Vec<String> = actual
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .filter(|(_, (a, g))| a != g)
        .map(|(i, (a, g))| format!("  line {}:\n    want {g}\n    got  {a}", i + 1))
        .collect();
    assert!(
        actual == GOLDEN,
        "reproduce all (scale 7) differs from tests/golden/reproduce_all_scale7.txt \
         ({} lines, {} expected):\n{}\nfull text:\n{actual}",
        actual.lines().count(),
        GOLDEN.lines().count(),
        changed.join("\n")
    );
}
