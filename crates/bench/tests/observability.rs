//! Observability must be invisible in the figures: a session with a
//! timeline attached renders the exact same bytes as a plain session,
//! while the timeline carries one complete event per evaluation-matrix
//! cell.

use std::sync::Arc;

use ade_bench::figures::{cells_for_target, Session};
use ade_obs::{json, Timeline};

#[test]
fn fig5_text_is_byte_identical_with_observability_enabled() {
    let mut plain = Session::new(5);
    plain.prewarm(&["fig5"]);
    let expected = plain.fig5_or_6(false);

    let timeline = Arc::new(Timeline::new());
    let mut observed = Session::new(5).jobs(2).timeline(Arc::clone(&timeline));
    observed.prewarm(&["fig5"]);
    assert_eq!(observed.fig5_or_6(false), expected);

    // One complete event per matrix cell, named `<bench>/<config>`.
    let cells = cells_for_target("fig5");
    let events = timeline.events();
    assert_eq!(events.len(), cells.len());
    for (abbrev, kind) in cells {
        let name = format!("{abbrev}/{}", kind.name());
        assert!(
            events.iter().any(|e| e.name == name && e.cat == "cell"),
            "missing timeline event {name}"
        );
    }
    json::validate(&timeline.to_chrome_json()).expect("chrome trace is valid JSON");
}
