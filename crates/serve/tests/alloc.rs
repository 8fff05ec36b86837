//! Counting-allocator pin for the zero-copy hot path: a warm request
//! parse — the per-request work `Server::handle_line` does before
//! admission — performs **zero** heap allocations, string payloads
//! included. This file holds exactly one test because the global
//! allocator counts every thread in the process.

use copycat_serve::protocol::Request;
use copycat_util::bench::CountingAlloc;
use copycat_util::zjson::ZDoc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warm_request_parse_is_allocation_free() {
    let line = r#"{"id":42,"op":"autocomplete","session":"tenant-7","values":["140 Main St","555-0192"],"k":3,"deadline_ms":250}"#;
    let mut doc = ZDoc::new();
    // First parses size the node vec; capacity persists across parses.
    for _ in 0..4 {
        let req = Request::parse(&mut doc, line).unwrap();
        assert_eq!(req.id, "42");
    }
    let before = ALLOC.snapshot();
    for _ in 0..100 {
        let req = Request::parse(&mut doc, line).unwrap();
        // Read every field the serve hot path reads.
        assert_eq!(req.session, Some("tenant-7"));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.body.field("k").as_f64(), Some(3.0));
        assert_eq!(req.body.get("id").map(|v| v.raw_span()), Some((6, 8)));
        let mut values = 0;
        for v in req.body.field("values").value().into_iter().flat_map(|v| v.items()) {
            assert!(v.as_str().is_some_and(|s| !s.is_empty()));
            values += 1;
        }
        assert_eq!(values, 2);
    }
    let after = ALLOC.snapshot();
    assert_eq!(
        after.allocs_since(&before),
        0,
        "warm zero-copy request parsing must not allocate"
    );
}
