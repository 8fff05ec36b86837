//! Behaviour pinned from before the two string-program learners merged.
//!
//! `fixtures/parent_programs.json` was recorded with the code that
//! still had both learners. Each case holds its examples (rows of
//! cells plus the output), a few held-out rows, and:
//!
//! - `transform` (one-column cases only): the program the graph-edge
//!   learner returned, as JSON and `Display`, or `null` when it found
//!   none;
//! - `semantic_outputs`: the outputs on the held-out rows of the
//!   top-ranked program of the derived-column learner that backed
//!   `suggest_transform` and edit generalization, or `null` when it
//!   found none.
//!
//! `origin` names where the inputs come from: `semantic` (that
//! learner's unit tests, each also with its first example alone),
//! `transform` (this crate's unit tests), `t1` (the examples the T1
//! transform sweep teaches), `regression` (a zero-padded code column, a
//! one-example identity, a constant two examples share where a sum
//! fits).

use copycat_transform::{learn, learn_ranked};
use copycat_util::json::{Json, ToJson};

type Examples = Vec<(Vec<String>, String)>;

fn strings(j: &Json) -> Vec<String> {
    j.as_array()
        .expect("array of strings")
        .iter()
        .map(|s| s.as_str().expect("string").to_string())
        .collect()
}

fn examples(case: &Json) -> Examples {
    case["examples"]
        .as_array()
        .expect("examples")
        .iter()
        .map(|pair| {
            (
                strings(&pair[0]),
                pair[1].as_str().expect("output").to_string(),
            )
        })
        .collect()
}

fn cases() -> Vec<Json> {
    let text = include_str!("fixtures/parent_programs.json");
    let doc = Json::parse(text).expect("fixture parses");
    doc["cases"].as_array().expect("cases").to_vec()
}

/// The graph-edge learner returns byte-identically what it returned
/// before, or nothing where it found nothing.
#[test]
fn graph_edge_programs_are_unchanged() {
    let mut checked = 0;
    for case in cases() {
        let Some(expected) = case.get("transform") else {
            continue;
        };
        let name = case["name"].as_str().unwrap_or_default();
        let learned = learn(&examples(&case));
        match (expected, &learned) {
            (Json::Null, None) => {}
            (Json::Null, Some(p)) => panic!("{name}: learned {p} where none was"),
            (_, None) => panic!("{name}: no program learned"),
            (_, Some(p)) => {
                assert_eq!(
                    p.to_json().to_string(),
                    expected["json"].as_str().unwrap(),
                    "{name}"
                );
                assert_eq!(
                    p.to_string(),
                    expected["display"].as_str().unwrap(),
                    "{name}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "only {checked} programs compared");
}

/// The one case where the merged learner's top program generalizes
/// differently, with its held-out outputs now. From the single example
/// `Coconut Creek High School → School` the old learner ranked "token 3
/// from the start" first, which fails on the three-word held-out rows;
/// the merged learner takes the last token (the graph-edge learner's
/// `alpha[-1]` too), because a deep index costs more.
const DIVERGES: &[(&str, &[&str])] = &[("last_token_extraction_one_example", &["Hall", "Library"])];

/// Where the derived-column learner's top program existed, the merged
/// ranked learner's top program agrees with it on the held-out rows,
/// except for the case in [`DIVERGES`].
#[test]
fn derived_column_top_program_generalizes_the_same() {
    let mut checked = 0;
    for case in cases() {
        let Json::Arr(recorded) = &case["semantic_outputs"] else {
            continue;
        };
        let name = case["name"].as_str().unwrap_or_default();
        let expected: Vec<Json> = match DIVERGES.iter().find(|(n, _)| *n == name) {
            Some((_, now)) => now.iter().map(|s| Json::str(*s)).collect(),
            None => recorded.clone(),
        };
        let ranked = learn_ranked(&examples(&case));
        let top = ranked
            .first()
            .unwrap_or_else(|| panic!("{name}: nothing learned"));
        let held_out = case["held_out"].as_array().expect("held_out");
        for (row, want) in held_out.iter().zip(expected) {
            let got = top.apply(&strings(row));
            assert_eq!(got.as_deref(), want.as_str(), "{name}: {top} on {row}");
            checked += 1;
        }
    }
    assert!(checked >= 46, "only {checked} held-out outputs compared");
}
