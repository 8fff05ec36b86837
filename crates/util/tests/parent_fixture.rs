//! JSON parsing pinned from before `Json::parse` went through `ZDoc`.
//!
//! `fixtures/parent_json.jsonl` was recorded with the code that still
//! had a second, owned-tree copy of the grammar behind `Json::parse`.
//! Each line is one input and what `Json::parse` made of it:
//!
//! - `{"origin":…,"input":…,"ok":<the compact serialization>}` when it
//!   parsed;
//! - `{"origin":…,"input":…,"err":<the error text>}` when it did not.
//!
//! `origin` names where the input comes from: `corpus` (the fixed
//! cross-check corpus of the `zjson` unit tests), `unit` (the inputs of
//! the `json` and `zjson` unit tests), `generated` (random trees from
//! the `zjson` round-trip generator, serialized, at a fixed seed),
//! `mutated` (each generated input with one character overwritten) and
//! `edge` (error paths the others miss: bad `\u` escapes, a lone low
//! surrogate, truncated containers, malformed numbers).
//! The inputs are rebuilt here, not read back from the fixture, so the
//! check does not lean on the parser it checks: every line recomputed
//! now must equal the recorded one byte for byte.

use copycat_util::json::{write_escaped, Json};
use copycat_util::rng::{Rng, SeedableRng, StdRng};

const SEED: u64 = 0x4a53_4f4e;
const GENERATED: usize = 300;

/// The `zjson` round-trip generator's value shapes, on a seeded rng.
fn gen_value(rng: &mut StdRng, depth: usize) -> Json {
    match if depth >= 3 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    } {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(rng.gen_range(-10_000i64..10_001) as f64 / 8.0),
        3 => {
            const CHARS: [char; 9] = ['a', 'é', '"', '\\', '\n', '\t', '😀', ' ', 'z'];
            let n = rng.gen_range(0..9);
            Json::Str(
                (0..n)
                    .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                    .collect(),
            )
        }
        4 => {
            let n = rng.gen_range(0..5);
            Json::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..5);
            Json::Obj(
                (0..n)
                    .map(|i| (format!("k{i}"), gen_value(rng, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// Overwrite the character at a random position with one of a few
/// bytes that sit on the grammar's decision points.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    const BYTES: [&str; 12] = ["!", "\"", "\\", ",", ":", "[", "]", "{", "}", "1", "e", " "];
    let mut at = rng.gen_range(0..text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let end = at + text[at..].chars().next().map_or(1, char::len_utf8);
    let mut out = text.to_string();
    out.replace_range(at..end, BYTES[rng.gen_range(0..BYTES.len())]);
    out
}

fn inputs() -> Vec<(&'static str, String)> {
    let corpus = [
        "null",
        "true",
        "false",
        "0",
        "-0",
        "3.25",
        "1e3",
        "-2.5e-2",
        "1e999",
        "\"\"",
        "\"plain\"",
        "\"esc\\n\\t\\\\\\\"\"",
        "\"unicode \\u00e9 and pair \\ud83d\\ude00\"",
        "\"bad pair \\ud83d\\u0041\"",
        "\"truncated \\u00",
        "\"unterminated",
        "[]",
        "[1,2,3]",
        "[ 1 , [2, [3]] , \"x\" ]",
        "{}",
        "{\"a\":1}",
        "{ \"a\" : {\"b\": [true, null]}, \"c\" : \"d\" }",
        "{\"dup\":1,\"dup\":2}",
        "{\"a\":1,}",
        "[1,]",
        "[1 2]",
        "{\"a\" 1}",
        "nully",
        "tru",
        "  42  ",
        "42 trailing",
        "",
        "\u{1f600}",
        "\"tab\tliteral\"",
    ];
    let pretty = r#"{"rows": [["a", 1], ["b", 2]], "n": 2, "empty": [], "eo": {}}"#;
    let mut unit: Vec<String> = [
        "null",
        "true",
        " -1.5e2 ",
        "\"a\\nb\"",
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "nulL",
        "1 2",
        "\"unterminated",
        "\"caf\\u00e9 \\ud83d\\ude00\"",
        r#"{"z": 1, "a": 2, "m": 3}"#,
        pretty,
        "3",
        "-0",
        "1e999",
        "-1e999",
        "1e309",
        "[1e400]",
        "1e-999",
        r#"{"a": [10, 20]}"#,
        r#"[["a", 1], ["b", 2]]"#,
        r#"{"op":"autocomplete","session":"alice","k":3}"#,
        r#"{"a":"x\ny","b":"plain"}"#,
        r#"{ "id" : 1.50 , "arr" : [1, 2] }"#,
        r#"{"op":"render","session":"bob"}"#,
        r#"{"a":[1,2,3,4,5,6,7,8],"b":"with\nescape"}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    unit.push(Json::str("quote \" slash \\ newline \n tab \t ctrl \u{01} ok").to_string());
    // `pretty`'s value, built by hand so the inputs need no parser.
    let row = |k: &str, n: f64| Json::Arr(vec![Json::str(k), Json::Num(n)]);
    let tree = Json::obj(vec![
        ("rows".into(), Json::Arr(vec![row("a", 1.0), row("b", 2.0)])),
        ("n".into(), Json::Num(2.0)),
        ("empty".into(), Json::Arr(vec![])),
        ("eo".into(), Json::obj(vec![])),
    ]);
    unit.push(tree.to_string_pretty());
    for depth in [100, 128, 129, 200, 500] {
        unit.push("[".repeat(depth) + &"]".repeat(depth));
    }

    let edge = [
        "\"\\udc00\"",
        "\"\\u00zz\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\n\"",
        "\"\\",
        "[1,2",
        "{\"a\":1",
        "{\"a\"",
        "{1:2}",
        "1.2.3",
        "-",
        "+1",
        "01",
        ".5",
        "1e",
        "1E+2",
        "\"\\/\\b\\f\\r\"",
        " \t\r\n[ ]\n",
    ];

    let mut out: Vec<(&str, String)> = corpus.iter().map(|s| ("corpus", s.to_string())).collect();
    out.extend(unit.into_iter().map(|s| ("unit", s)));
    out.extend(edge.iter().map(|s| ("edge", s.to_string())));
    let mut rng = StdRng::seed_from_u64(SEED);
    for _ in 0..GENERATED {
        let text = gen_value(&mut rng, 0).to_string();
        let bad = mutate(&mut rng, &text);
        out.push(("generated", text));
        out.push(("mutated", bad));
    }
    out
}

fn line(origin: &str, input: &str) -> String {
    let mut out = format!("{{\"origin\":\"{origin}\",\"input\":");
    write_escaped(&mut out, input);
    match Json::parse(input) {
        Ok(v) => {
            out.push_str(",\"ok\":");
            v.write_compact(&mut out);
        }
        Err(e) => {
            out.push_str(",\"err\":");
            write_escaped(&mut out, &e.to_string());
        }
    }
    out.push('}');
    out
}

/// `Json::parse` accepts, rejects, words its errors and re-serializes
/// exactly as it did before.
#[test]
fn json_parse_is_unchanged() {
    let recorded: Vec<&str> = include_str!("fixtures/parent_json.jsonl").lines().collect();
    let inputs = inputs();
    assert_eq!(
        recorded.len(),
        inputs.len(),
        "fixture and inputs differ in length"
    );
    let mut diffs = Vec::new();
    for ((origin, input), want) in inputs.iter().zip(&recorded) {
        let got = line(origin, input);
        if got != *want {
            diffs.push(format!("  want {want}\n  got  {got}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} lines differ:\n{}",
        diffs.len(),
        inputs.len(),
        diffs.join("\n")
    );
}
