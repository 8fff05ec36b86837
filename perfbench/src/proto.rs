//! Request lines and structural response checks.
//!
//! The program under test receives nothing but these protocol lines;
//! every judgement about a response reads its parsed top-level members,
//! never a substring of the text (a payload can quote `"ok":true`).

use copycat_util::json::Json;
use copycat_util::zjson::{ZDoc, ZRef};

/// JSON-escape one string value.
pub fn esc(s: &str) -> String {
    Json::str(s).to_string()
}

/// A JSON array of strings.
pub fn str_array(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| esc(s)).collect();
    format!("[{}]", quoted.join(","))
}

/// A JSON array of string rows.
pub fn rows_array(rows: &[Vec<String>]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| str_array(&r.iter().map(String::as_str).collect::<Vec<_>>()))
        .collect();
    format!("[{}]", rendered.join(","))
}

/// One request line: `{"id":…,"op":…,"session":…` plus `params`
/// (already-serialized `"key":value` members, possibly empty).
pub fn line(id: u64, op: &str, session: &str, params: &str) -> String {
    let sep = if params.is_empty() { "" } else { "," };
    format!(
        "{{\"id\":{id},\"op\":\"{op}\",\"session\":{}{sep}{params}}}",
        esc(session)
    )
}

/// A parsed response: whether the top-level `ok` member is `true`, the
/// echoed id, and the raw `result` slice.
pub struct Reply {
    pub ok: bool,
    pub id: Option<u64>,
    pub result: String,
}

/// Parse a response line structurally. A line that is not a JSON
/// object reads as a failed reply.
pub fn reply(resp: &str) -> Reply {
    let mut doc = ZDoc::new();
    match doc.parse(resp) {
        Ok(root) => Reply {
            ok: root.get("ok").and_then(|v| v.as_bool()) == Some(true),
            id: root.get("id").and_then(|v| v.as_u64()),
            result: root
                .get("result")
                .map_or(String::new(), |r| r.raw().to_string()),
        },
        Err(_) => Reply {
            ok: false,
            id: None,
            result: String::new(),
        },
    }
}

/// Apply `f` to the parsed `result` member of an `ok` response.
pub fn with_result<R>(resp: &str, f: impl FnOnce(ZRef<'_>) -> Option<R>) -> Option<R> {
    let mut doc = ZDoc::new();
    let root = doc.parse(resp).ok()?;
    if root.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return None;
    }
    f(root.get("result")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_is_read_from_the_top_level_only() {
        let decoy =
            r#"{"id":3,"ok":false,"error":{"kind":"bad_request","message":"{\"ok\":true}"}}"#;
        assert!(!reply(decoy).ok);
        let good = r#"{"id":4,"ok":true,"result":{"n":1}}"#;
        let r = reply(good);
        assert!(r.ok);
        assert_eq!(r.id, Some(4));
        assert_eq!(r.result, r#"{"n":1}"#);
        assert!(!reply("not json").ok);
    }
}
