//! An end-to-end smoke script: one request per request class through
//! the in-process transport, ending in a graceful shutdown.
//!
//! Used three ways: `copycat-serve smoke` (the verify-script hook), the
//! serve test suite (asserts every class round-trips), and as living
//! documentation of a full client conversation.

use crate::protocol::Op;
use crate::server::{Server, ServerConfig};
use copycat_store::{FaultKind, FaultPlan, Fs, SimFs};
use copycat_util::json::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// One request/response exchange from the smoke run.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request class exercised.
    pub op: &'static str,
    /// The request line sent.
    pub request: String,
    /// The response line received.
    pub response: String,
    /// Whether the response was `ok:true`.
    pub ok: bool,
}

fn esc(s: &str) -> String {
    Json::str(s).to_string()
}

fn row_json(row: &[String]) -> String {
    let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
    format!("[{}]", cells.join(","))
}

fn rows_json(rows: &[Vec<String>]) -> String {
    let rendered: Vec<String> = rows.iter().map(|r| row_json(r)).collect();
    format!("[{}]", rendered.join(","))
}

/// Drive one request of every class through `server`, in a realistic
/// order (import two sources, learn, autocomplete, save/load, drain).
///
/// Returns the exchanges; `Err` carries the first exchange that failed
/// when it was required to succeed. The `invalid` class is exercised
/// with a garbage line and is *expected* to fail with `bad_request`.
pub fn run(server: &Server) -> Result<Vec<Exchange>, Box<Exchange>> {
    let mut log: Vec<Exchange> = Vec::new();
    let mut next_id = 0u64;
    let mut call = |op: Op, line: String, must_ok: bool| -> Result<Json, Box<Exchange>> {
        let response = server.handle_line(&line);
        let parsed = Json::parse(&response).expect("server responses parse");
        let ok = parsed["ok"].as_bool() == Some(true);
        let exchange = Exchange { op: op.as_str(), request: line, response, ok };
        let failed = must_ok && !ok;
        log.push(exchange.clone());
        if failed {
            return Err(Box::new(exchange));
        }
        Ok(parsed)
    };
    let mut id = || {
        next_id += 1;
        next_id
    };
    let s = "\"session\":\"smoke\"";

    call(Op::Ping, format!("{{\"id\":{},\"op\":\"ping\"}}", id()), true)?;
    call(
        Op::CreateSession,
        format!("{{\"id\":{},\"op\":\"create_session\",{s}}}", id()),
        true,
    )?;
    let world = call(
        Op::RegisterWorld,
        format!(
            "{{\"id\":{},\"op\":\"register_world\",{s},\"seed\":2009,\"venues\":10}}",
            id()
        ),
        true,
    )?;
    let shelters = rows_of(&world["result"]["shelters"]);
    let contacts = rows_of(&world["result"]["contacts"]);

    // Import source 1: shelters.
    let doc = call(
        Op::OpenDoc,
        format!(
            "{{\"id\":{},\"op\":\"open_doc\",{s},\"name\":\"ShelterSheet\",\
             \"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{}}}",
            id(),
            rows_json(&shelters)
        ),
        true,
    )?;
    let doc_id = doc["result"]["doc"].as_f64().expect("doc id") as u64;
    call(
        Op::Paste,
        format!(
            "{{\"id\":{},\"op\":\"paste\",{s},\"doc\":{doc_id},\"values\":{}}}",
            id(),
            row_json(&shelters[0])
        ),
        true,
    )?;
    call(Op::AcceptRows, format!("{{\"id\":{},\"op\":\"accept_rows\",{s}}}", id()), true)?;
    call(
        Op::NameColumn,
        format!("{{\"id\":{},\"op\":\"name_column\",{s},\"col\":0,\"name\":\"Name\"}}", id()),
        true,
    )?;
    call(
        Op::SetColumnType,
        format!(
            "{{\"id\":{},\"op\":\"set_column_type\",{s},\"col\":2,\"type\":\"PR-City\"}}",
            id()
        ),
        true,
    )?;
    call(
        Op::CommitSource,
        format!("{{\"id\":{},\"op\":\"commit_source\",{s},\"name\":\"Shelters\"}}", id()),
        true,
    )?;

    // Wrap a service in (healthy) fault injection; its virtual latency
    // is charged to deadlines from here on.
    call(
        Op::RegisterFlaky,
        format!(
            "{{\"id\":{},\"op\":\"register_flaky\",{s},\"service\":\"zip_resolver\",\
             \"failure_rate\":0,\"latency_ms\":1,\"seed\":1}}",
            id()
        ),
        true,
    )?;

    // Column auto-completion on the committed source.
    let suggs = call(
        Op::ColumnSuggestions,
        format!("{{\"id\":{},\"op\":\"column_suggestions\",{s}}}", id()),
        true,
    )?;
    let n_suggs = suggs["result"]["suggestions"].as_array().map_or(0, |a| a.len());
    call(
        Op::AcceptColumn,
        format!("{{\"id\":{},\"op\":\"accept_column\",{s},\"index\":0}}", id()),
        n_suggs > 0,
    )?;
    // A fresh suggestion round to reject from.
    call(
        Op::ColumnSuggestions,
        format!("{{\"id\":{},\"op\":\"column_suggestions\",{s}}}", id()),
        true,
    )?;
    call(
        Op::RejectColumn,
        format!("{{\"id\":{},\"op\":\"reject_column\",{s},\"index\":0}}", id()),
        false, // ok only when the second round was non-empty
    )?;

    // Import source 2: contacts (shares venue names with shelters).
    let doc2 = call(
        Op::OpenDoc,
        format!(
            "{{\"id\":{},\"op\":\"open_doc\",{s},\"name\":\"ContactSheet\",\
             \"headers\":[\"Person\",\"Phone\",\"Venue\"],\"rows\":{}}}",
            id(),
            rows_json(&contacts)
        ),
        true,
    )?;
    let doc2_id = doc2["result"]["doc"].as_f64().expect("doc id") as u64;
    call(
        Op::Paste,
        format!(
            "{{\"id\":{},\"op\":\"paste\",{s},\"doc\":{doc2_id},\"values\":{}}}",
            id(),
            row_json(&contacts[0])
        ),
        true,
    )?;
    call(Op::AcceptRows, format!("{{\"id\":{},\"op\":\"accept_rows\",{s}}}", id()), true)?;
    call(
        Op::NameColumn,
        format!("{{\"id\":{},\"op\":\"name_column\",{s},\"col\":2,\"name\":\"Name\"}}", id()),
        true,
    )?;
    call(
        Op::CommitSource,
        format!("{{\"id\":{},\"op\":\"commit_source\",{s},\"name\":\"Contacts\"}}", id()),
        true,
    )?;

    // Query discovery across both sources + feedback on the ranking.
    let queries = call(
        Op::Autocomplete,
        format!(
            "{{\"id\":{},\"op\":\"autocomplete\",{s},\"values\":[{},{}],\"k\":3}}",
            id(),
            esc(&shelters[0][1]),
            esc(&contacts[0][1]),
        ),
        true,
    )?;
    let n_queries = queries["result"]["queries"].as_array().map_or(0, |a| a.len());
    call(
        Op::Feedback,
        format!("{{\"id\":{},\"op\":\"feedback\",{s},\"accept\":0}}", id()),
        n_queries > 0,
    )?;

    call(
        Op::Explain,
        format!("{{\"id\":{},\"op\":\"explain\",{s},\"row\":0}}", id()),
        true,
    )?;
    call(
        Op::Export,
        format!("{{\"id\":{},\"op\":\"export\",{s},\"format\":\"csv\"}}", id()),
        true,
    )?;
    call(Op::Render, format!("{{\"id\":{},\"op\":\"render\",{s}}}", id()), true)?;
    call(
        Op::Health,
        format!("{{\"id\":{},\"op\":\"health\",{s}}}", id()),
        true,
    )?;
    call(
        Op::SessionStats,
        format!("{{\"id\":{},\"op\":\"session_stats\",{s}}}", id()),
        true,
    )?;

    // Snapshot, drop, restore, list.
    let saved = call(
        Op::SaveSession,
        format!("{{\"id\":{},\"op\":\"save_session\",{s}}}", id()),
        true,
    )?;
    let snapshot = saved["result"]["snapshot"].as_str().expect("snapshot").to_string();
    call(
        Op::CloseSession,
        format!("{{\"id\":{},\"op\":\"close_session\",{s}}}", id()),
        true,
    )?;
    call(
        Op::LoadSession,
        format!(
            "{{\"id\":{},\"op\":\"load_session\",{s},\"snapshot\":{}}}",
            id(),
            esc(&snapshot)
        ),
        true,
    )?;
    call(
        Op::ListSessions,
        format!("{{\"id\":{},\"op\":\"list_sessions\"}}", id()),
        true,
    )?;

    // Example-driven transform synthesis: learn a program mapping the
    // contact sheet's venue spelling onto the shelter source, then list
    // the learned edges. These ride at fixed ids past the sequential
    // counter so the exchanges before them keep their identifiers.
    call(
        Op::LearnTransform,
        format!(
            "{{\"id\":96,\"op\":\"learn_transform\",{s},\"from\":\"Contacts\",\
             \"from_col\":\"Name\",\"to\":\"Shelters\",\"to_col\":\"Name\",\
             \"examples\":[[{v0},{v0}],[{v1},{v1}],[{v2},{v2}]]}}",
            v0 = esc(&contacts[0][2]),
            v1 = esc(&contacts[1][2]),
            v2 = esc(&contacts[2][2]),
        ),
        true,
    )?;
    call(
        Op::ListTransforms,
        format!("{{\"id\":97,\"op\":\"list_transforms\",{s}}}"),
        true,
    )?;

    // The synthetic class: garbage must answer bad_request, not hang.
    call(Op::Invalid, "this is not json".to_string(), false)?;

    call(Op::Stats, format!("{{\"id\":{},\"op\":\"stats\"}}", id()), true)?;
    call(Op::Shutdown, format!("{{\"id\":{},\"op\":\"shutdown\"}}", id()), true)?;

    Ok(log)
}

/// Build a default-sized server, run the smoke script, shut down.
pub fn run_default() -> Result<Vec<Exchange>, Box<Exchange>> {
    let server = Server::new(ServerConfig::default());
    let result = run(&server);
    server.shutdown();
    result
}

/// The chaos smoke: a fault-injected session with retries, a circuit
/// breaker, and an equivalent replacement source, proving the serve
/// layer's failover path end to end.
///
/// The zip resolver is made *hard down* so its breaker trips, yet
/// `column_suggestions` must still offer a healthy (non-degraded) Zip
/// completion through the replacement alias, and `health` must report
/// the trip with virtual (never wallclock) backoff.
pub fn run_chaos(server: &Server) -> Result<Vec<Exchange>, Box<Exchange>> {
    let mut log: Vec<Exchange> = Vec::new();
    let mut next_id = 0u64;
    let mut call = |op: Op, line: String, must_ok: bool| -> Result<Json, Box<Exchange>> {
        let response = server.handle_line(&line);
        let parsed = Json::parse(&response).expect("server responses parse");
        let ok = parsed["ok"].as_bool() == Some(true);
        let exchange = Exchange { op: op.as_str(), request: line, response, ok };
        let failed = must_ok && !ok;
        log.push(exchange.clone());
        if failed {
            return Err(Box::new(exchange));
        }
        Ok(parsed)
    };
    let mut id = || {
        next_id += 1;
        next_id
    };
    let s = "\"session\":\"chaos\"";

    call(
        Op::CreateSession,
        format!("{{\"id\":{},\"op\":\"create_session\",{s}}}", id()),
        true,
    )?;
    let world = call(
        Op::RegisterWorld,
        format!(
            "{{\"id\":{},\"op\":\"register_world\",{s},\"seed\":2009,\"venues\":10}}",
            id()
        ),
        true,
    )?;
    let shelters = rows_of(&world["result"]["shelters"]);
    let doc = call(
        Op::OpenDoc,
        format!(
            "{{\"id\":{},\"op\":\"open_doc\",{s},\"name\":\"ShelterSheet\",\
             \"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{}}}",
            id(),
            rows_json(&shelters)
        ),
        true,
    )?;
    let doc_id = doc["result"]["doc"].as_f64().expect("doc id") as u64;
    call(
        Op::Paste,
        format!(
            "{{\"id\":{},\"op\":\"paste\",{s},\"doc\":{doc_id},\"values\":{}}}",
            id(),
            row_json(&shelters[0])
        ),
        true,
    )?;
    call(Op::AcceptRows, format!("{{\"id\":{},\"op\":\"accept_rows\",{s}}}", id()), true)?;
    call(
        Op::SetColumnType,
        format!(
            "{{\"id\":{},\"op\":\"set_column_type\",{s},\"col\":2,\"type\":\"PR-City\"}}",
            id()
        ),
        true,
    )?;
    call(
        Op::CommitSource,
        format!("{{\"id\":{},\"op\":\"commit_source\",{s},\"name\":\"Shelters\"}}", id()),
        true,
    )?;
    // Hard-down primary behind retry + breaker, with a healthy alias.
    call(
        Op::RegisterFlaky,
        format!(
            "{{\"id\":{},\"op\":\"register_flaky\",{s},\"service\":\"zip_resolver\",\
             \"failure_rate\":1,\"latency_ms\":5,\"seed\":7,\"retries\":3,\
             \"breaker_threshold\":4,\"cooldown_ms\":400,\
             \"replacement\":\"zip_backup\"}}",
            id()
        ),
        true,
    )?;
    let suggs = call(
        Op::ColumnSuggestions,
        format!("{{\"id\":{},\"op\":\"column_suggestions\",{s}}}", id()),
        true,
    )?;
    let listed = suggs["result"]["suggestions"].as_array().unwrap_or(&[]);
    let healthy_backup = listed
        .first()
        .map(|e| e["degraded"] == Json::Null && format!("{}", e["label"]).contains("zip_backup"))
        .unwrap_or(false);
    if !healthy_backup {
        return Err(Box::new(log.last().expect("at least one exchange").clone()));
    }
    call(
        Op::AcceptColumn,
        format!("{{\"id\":{},\"op\":\"accept_column\",{s},\"index\":0}}", id()),
        true,
    )?;
    let health = call(
        Op::Health,
        format!("{{\"id\":{},\"op\":\"health\",{s}}}", id()),
        true,
    )?;
    let tripped = health["result"]["tripped"].as_array().map_or(0, |a| a.len());
    let trips = health["result"]["trips"].as_f64().unwrap_or(0.0);
    let backoff = health["result"]["backoff_virtual_ms"].as_f64().unwrap_or(0.0);
    if tripped == 0 || trips < 1.0 || backoff <= 0.0 {
        return Err(Box::new(log.last().expect("health exchange").clone()));
    }
    call(Op::Stats, format!("{{\"id\":{},\"op\":\"stats\"}}", id()), true)?;
    Ok(log)
}

/// Build a default-sized server, run the chaos script, shut down.
pub fn run_chaos_default() -> Result<Vec<Exchange>, Box<Exchange>> {
    let server = Server::new(ServerConfig::default());
    let result = run_chaos(&server);
    server.shutdown();
    result
}

/// Summary of the kill-and-recover smoke.
#[derive(Debug, Clone)]
pub struct RecoverSummary {
    /// Effectful requests journaled before the crash.
    pub journaled: u64,
    /// Records replayed during recovery.
    pub replayed: u64,
    /// Torn WAL tail bytes the recovery discarded (and reported).
    pub torn_bytes: u64,
    /// Interior WAL records quarantined during recovery.
    pub quarantined: u64,
    /// Snapshot generations skipped as corrupt during recovery.
    pub generations_skipped: u64,
    /// Probe requests compared byte-for-byte against the control.
    pub probes: usize,
}

/// What one [`crash_and_compare`] run observed.
struct Crashed {
    /// Each traffic line's response, in order.
    responses: Vec<String>,
    /// Effectful requests journaled before the crash.
    journaled: u64,
    /// The recovered router's `durability` stats.
    durability: Json,
}

/// The kill-and-recover core both durability smokes share: drive
/// `traffic` through a durable router in a scratch directory (every
/// response must be `ok:true`), **crash it** (drop without shutdown),
/// recover from disk, replay `traffic` on a never-crashed control, and
/// diff every probe's answers byte for byte. Fails if recovery
/// replayed nothing. The scratch directory is removed on every path.
fn crash_and_compare(
    tag: &str,
    snapshot_every: u64,
    traffic: &[String],
    probes: &[String],
) -> Result<Crashed, String> {
    use crate::router::{Router, RouterConfig};
    let fs = Fs::real();
    let root = std::env::temp_dir().join(format!("copycat-{tag}-smoke-{}", std::process::id()));
    let _ = fs.remove_dir_all(&root);
    let config = || RouterConfig {
        shards: 2,
        snapshot_every,
        sync_every: 1,
        store_root: Some(root.clone()),
        ..RouterConfig::default()
    };
    let run = || {
        let durable = Router::new(config());
        let mut responses = Vec::with_capacity(traffic.len());
        for line in traffic {
            let resp = durable.handle_line(line);
            if !resp.contains("\"ok\":true") {
                return Err(format!("traffic refused before crash: {line} -> {resp}"));
            }
            responses.push(resp);
        }
        let journaled = durable.stats()["durability"]["appends"].as_f64().unwrap_or(0.0) as u64;
        drop(durable); // crash: no shutdown, no flush

        let recovered = Router::recover(config()).map_err(|e| format!("recovery failed: {e}"))?;
        let durability = recovered.stats()["durability"].clone();
        let control = Router::new(RouterConfig { shards: 2, ..RouterConfig::default() });
        for line in traffic {
            control.handle_line(line);
        }
        for probe in probes {
            let got = recovered.handle_line(probe);
            let want = control.handle_line(probe);
            if got != want {
                return Err(format!(
                    "recovered session diverged on {probe}:\n  recovered: {got}\n  control:   {want}"
                ));
            }
        }
        recovered.shutdown();
        control.shutdown();
        Ok(Crashed { responses, journaled, durability })
    };
    let result = run();
    let _ = fs.remove_dir_all(&root);
    let crashed = result?;
    if crashed.durability["replayed_records"].as_f64().unwrap_or(0.0) == 0.0 {
        return Err("recovery replayed nothing; the WAL never made it to disk".to_string());
    }
    Ok(crashed)
}

/// The kill-and-recover smoke: start a durable router in a scratch
/// directory, inject traffic, **crash it** (drop without shutdown),
/// recover from disk, and diff the recovered session's answers against
/// a never-crashed control — byte for byte. The verify-script hook for
/// the durability layer (`copycat-serve recover`).
pub fn run_recover_default() -> Result<RecoverSummary, String> {
    let s = "\"session\":\"smoke\"";
    let mut lines = vec![
        format!("{{\"id\":1,\"op\":\"create_session\",{s}}}"),
        format!(
            "{{\"id\":2,\"op\":\"open_doc\",{s},\"name\":\"Sheet\",\
             \"headers\":[\"Venue\",\"Street\",\"City\"],\
             \"rows\":[[\"V-0\",\"0 Oak St\",\"CityA\"],[\"V-1\",\"1 Oak St\",\"CityB\"],\
             [\"V-2\",\"2 Oak St\",\"CityA\"]]}}"
        ),
        format!("{{\"id\":3,\"op\":\"paste\",{s},\"doc\":0,\"values\":[\"V-0\",\"0 Oak St\",\"CityA\"]}}"),
        format!("{{\"id\":4,\"op\":\"accept_rows\",{s}}}"),
        format!("{{\"id\":5,\"op\":\"name_column\",{s},\"col\":0,\"name\":\"Venue\"}}"),
        format!("{{\"id\":6,\"op\":\"commit_source\",{s},\"name\":\"Shelters\"}}"),
    ];
    for i in 0..4 {
        lines.push(format!(
            "{{\"id\":{},\"op\":\"autocomplete\",{s},\"values\":[\"0 Oak St\"],\"k\":2}}",
            7 + i
        ));
    }
    let probes = [
        format!("{{\"id\":90,\"op\":\"render\",{s}}}"),
        format!("{{\"id\":91,\"op\":\"export\",{s},\"format\":\"csv\"}}"),
        format!("{{\"id\":92,\"op\":\"session_stats\",{s}}}"),
        format!("{{\"id\":93,\"op\":\"save_session\",{s}}}"),
    ];
    // snapshot_every 4 forces snapshot + WAL-tail recovery.
    let crashed = crash_and_compare("recover", 4, &lines, &probes)?;
    let field = |k: &str| crashed.durability[k].as_f64().unwrap_or(0.0) as u64;
    Ok(RecoverSummary {
        journaled: crashed.journaled,
        replayed: field("replayed_records"),
        torn_bytes: field("torn_bytes"),
        quarantined: field("quarantined_records"),
        generations_skipped: field("generations_skipped"),
        probes: probes.len(),
    })
}

/// Summary of the transform kill-and-recover smoke.
#[derive(Debug, Clone)]
pub struct TransformSummary {
    /// The learned program, rendered.
    pub program: String,
    /// Effectful requests journaled before the crash.
    pub journaled: u64,
    /// Records replayed during recovery.
    pub replayed: u64,
    /// Probe requests compared byte-for-byte against the control.
    pub probes: usize,
}

/// The transforms smoke: two sources whose phone columns disagree on
/// format (so value-overlap association discovery finds nothing), a
/// `learn_transform` that bridges them, the resulting transform edge
/// surfacing as the top column suggestion, an `accept_column` that
/// executes the derive-then-join plan — then a **crash** and a recovery
/// that must answer every probe byte-for-byte like a never-crashed
/// control. The verify-script hook for transform synthesis
/// (`copycat-serve transforms`).
pub fn run_transforms_default() -> Result<TransformSummary, String> {
    let s = "\"session\":\"transforms\"";
    let lines = vec![
        format!("{{\"id\":1,\"op\":\"create_session\",{s}}}"),
        // Directory first: its phones are dashed, the contacts' phones
        // are parenthesized, so no Link edge can bridge them by value.
        format!(
            "{{\"id\":2,\"op\":\"open_doc\",{s},\"name\":\"DirectorySheet\",\
             \"headers\":[\"Venue\",\"Line\"],\
             \"rows\":[[\"V-0\",\"555-010-1000\"],[\"V-1\",\"555-010-1001\"],\
             [\"V-2\",\"555-010-1002\"]]}}"
        ),
        format!("{{\"id\":3,\"op\":\"paste\",{s},\"doc\":0,\"values\":[\"V-0\",\"555-010-1000\"]}}"),
        format!("{{\"id\":4,\"op\":\"accept_rows\",{s}}}"),
        format!("{{\"id\":5,\"op\":\"name_column\",{s},\"col\":1,\"name\":\"Line\"}}"),
        format!("{{\"id\":6,\"op\":\"commit_source\",{s},\"name\":\"Directory\"}}"),
        format!(
            "{{\"id\":7,\"op\":\"open_doc\",{s},\"name\":\"ContactSheet\",\
             \"headers\":[\"Person\",\"Phone\"],\
             \"rows\":[[\"Ada\",\"(555) 010-1000\"],[\"Grace\",\"(555) 010-1001\"],\
             [\"Edsger\",\"(555) 010-1002\"]]}}"
        ),
        format!(
            "{{\"id\":8,\"op\":\"paste\",{s},\"doc\":1,\"values\":[\"Ada\",\"(555) 010-1000\"]}}"
        ),
        format!("{{\"id\":9,\"op\":\"accept_rows\",{s}}}"),
        format!("{{\"id\":10,\"op\":\"name_column\",{s},\"col\":1,\"name\":\"Phone\"}}"),
        format!("{{\"id\":11,\"op\":\"commit_source\",{s},\"name\":\"Contacts\"}}"),
        format!(
            "{{\"id\":12,\"op\":\"learn_transform\",{s},\"from\":\"Contacts\",\
             \"from_col\":\"Phone\",\"to\":\"Directory\",\"to_col\":\"Line\",\
             \"examples\":[[\"(555) 010-1000\",\"555-010-1000\"],\
             [\"(555) 010-1001\",\"555-010-1001\"]]}}"
        ),
        // The learned edge must surface as the top-ranked column
        // suggestion, and its derive-then-join plan must execute on
        // acceptance.
        format!("{{\"id\":13,\"op\":\"column_suggestions\",{s}}}"),
        format!("{{\"id\":14,\"op\":\"accept_column\",{s},\"index\":0}}"),
    ];
    let probes = [
        format!("{{\"id\":90,\"op\":\"list_transforms\",{s}}}"),
        format!("{{\"id\":91,\"op\":\"render\",{s}}}"),
        format!("{{\"id\":92,\"op\":\"export\",{s},\"format\":\"csv\"}}"),
        format!("{{\"id\":93,\"op\":\"session_stats\",{s}}}"),
    ];
    let crashed = crash_and_compare("transform", 6, &lines, &probes)?;
    // Responses line up with the traffic, whose ids count from 1.
    let response = |id: usize| crashed.responses[id - 1].as_str();
    if !response(13).contains("T:Contacts+Directory") {
        return Err(format!("transform edge missing from suggestions: {}", response(13)));
    }
    let parsed =
        Json::parse(response(12)).map_err(|e| format!("learn_transform answer: {e}"))?;
    Ok(TransformSummary {
        program: parsed["result"]["program"].as_str().unwrap_or("").to_string(),
        journaled: crashed.journaled,
        replayed: crashed.durability["replayed_records"].as_f64().unwrap_or(0.0) as u64,
        probes: probes.len(),
    })
}

/// Summary of a [`run_herd`] sweep: many shared-world sessions on one
/// server, with the marginal per-session memory cost measured by
/// differencing allocator snapshots around the bulk creation.
#[derive(Debug, Clone)]
pub struct HerdReport {
    /// Shared-world sessions created.
    pub sessions: usize,
    /// Net live-byte growth per session during the bulk creation.
    pub marginal_bytes_per_session: f64,
    /// Sessions that fit in one GiB at that marginal cost.
    pub sessions_per_gb: f64,
    /// Probe requests answered `ok:true` (render + stats + autocomplete
    /// on a sample of the herd).
    pub probes_ok: u64,
}

/// The 10k-session herd smoke: create `sessions` copy-on-write sessions
/// over one shared world, measure the marginal per-session memory via
/// `snap` (a [`CountingAlloc`](copycat_util::bench::CountingAlloc)
/// snapshot hook installed by the caller's binary), and probe a sample
/// of the herd end to end. Fails if any probe errs or if the marginal
/// cost implies fewer than `floor_sessions_per_gb` sessions per GiB.
pub fn run_herd(
    server: &Server,
    sessions: usize,
    floor_sessions_per_gb: f64,
    snap: &dyn Fn() -> copycat_util::bench::AllocSnapshot,
) -> Result<HerdReport, String> {
    let world = "\"world\":{\"seed\":2009,\"venues\":6}";
    let create = |name: &str| {
        let resp = server
            .handle_line(&format!("{{\"id\":0,\"op\":\"create_session\",\"session\":{},{world}}}", esc(name)));
        if resp.contains("\"ok\":true") { Ok(()) } else { Err(format!("create {name}: {resp}")) }
    };
    // Warm rounds pay the one-time costs (shared world build, scratch
    // pools, registry shards) outside the measured window.
    let warm = 64.min(sessions / 4).max(1);
    for i in 0..warm {
        create(&format!("herd-warm-{i}"))?;
    }
    let before = snap();
    for i in 0..sessions {
        create(&format!("herd-{i}"))?;
    }
    let after = snap();
    let marginal = after.live_growth_since(&before).max(1) as f64 / sessions as f64;
    let sessions_per_gb = (1u64 << 30) as f64 / marginal;

    // Probe a spread of the herd: every session sampled must answer
    // the interactive hot path.
    let mut probes_ok = 0u64;
    let stride = (sessions / 16).max(1);
    for i in (0..sessions).step_by(stride) {
        let s = esc(&format!("herd-{i}"));
        for line in [
            format!("{{\"id\":1,\"op\":\"render\",\"session\":{s}}}"),
            format!("{{\"id\":2,\"op\":\"session_stats\",\"session\":{s}}}"),
            format!("{{\"id\":3,\"op\":\"autocomplete\",\"session\":{s},\"values\":[\"a\"],\"k\":1}}"),
        ] {
            let resp = server.handle_line(&line);
            if !resp.contains("\"ok\":true") {
                return Err(format!("herd probe failed: {line} -> {resp}"));
            }
            probes_ok += 1;
        }
    }
    if sessions_per_gb < floor_sessions_per_gb {
        return Err(format!(
            "marginal session cost too high: {marginal:.0} B/session \
             ({sessions_per_gb:.0} sessions/GiB < floor {floor_sessions_per_gb:.0})"
        ));
    }
    Ok(HerdReport { sessions, marginal_bytes_per_session: marginal, sessions_per_gb, probes_ok })
}

/// Summary of a [`run_crash_storm`] sweep.
#[derive(Debug, Clone)]
pub struct CrashStormReport {
    /// Seed driving the simulated filesystem (torn cuts, bit picks,
    /// crash retention).
    pub seed: u64,
    /// Countable I/O operations in the fault-free workload — the
    /// sweep's injection domain.
    pub workload_ops: u64,
    /// Fault-injected runs executed (kinds × strided injection points).
    pub runs: u64,
    /// Faults that actually fired across all runs.
    pub faults_fired: u64,
    /// Acknowledged effects across all runs (baseline included).
    pub acked: u64,
    /// Acked effects present byte-identically after recovery.
    pub recovered: u64,
    /// Acked effects explicitly reported lost to interior corruption.
    pub quarantined: u64,
    /// Acked effects explicitly reported lost with the torn tail.
    pub tail_lost: u64,
    /// Acked effects neither recovered nor reported — must be zero.
    pub silent_losses: u64,
    /// Probe responses checked across all recoveries.
    pub probes: u64,
}

/// What one kill-and-recover run under a fault plan observed.
struct StormRun {
    acked: u64,
    recovered: u64,
    quarantined: u64,
    tail_lost: u64,
    fired: u64,
    /// Property violations: acked effects that vanished without being
    /// reported, or recovered bytes that differ from what was acked.
    silent: Vec<String>,
    probe_responses: Vec<String>,
}

/// The storm's mutation workload: two sessions, all-journaled request
/// classes, sized so `snapshot_every: 4` crosses two snapshot
/// generations on `storm-a` (compaction + generational fallback are in
/// play at every injection point). Lines are canonical (no whitespace,
/// no `deadline_ms`), so the journaled form is byte-identical to what
/// was sent.
fn storm_workload() -> Vec<String> {
    let a = "\"session\":\"storm-a\"";
    let b = "\"session\":\"storm-b\"";
    let mut lines = vec![
        format!("{{\"id\":1,\"op\":\"create_session\",{a}}}"),
        format!(
            "{{\"id\":2,\"op\":\"open_doc\",{a},\"name\":\"Sheet\",\
             \"headers\":[\"Venue\",\"Street\",\"City\"],\
             \"rows\":[[\"V-0\",\"0 Oak St\",\"CityA\"],[\"V-1\",\"1 Oak St\",\"CityB\"],\
             [\"V-2\",\"2 Oak St\",\"CityA\"]]}}"
        ),
        format!(
            "{{\"id\":3,\"op\":\"paste\",{a},\"doc\":0,\"values\":[\"V-0\",\"0 Oak St\",\"CityA\"]}}"
        ),
        format!("{{\"id\":4,\"op\":\"accept_rows\",{a}}}"),
        format!("{{\"id\":5,\"op\":\"name_column\",{a},\"col\":0,\"name\":\"Venue\"}}"),
        format!("{{\"id\":6,\"op\":\"commit_source\",{a},\"name\":\"Shelters\"}}"),
    ];
    for i in 0..3 {
        lines.push(format!(
            "{{\"id\":{},\"op\":\"autocomplete\",{a},\"values\":[\"{i} Oak St\"],\"k\":2}}",
            7 + i,
        ));
    }
    lines.extend([
        format!("{{\"id\":20,\"op\":\"create_session\",{b}}}"),
        format!(
            "{{\"id\":21,\"op\":\"open_doc\",{b},\"name\":\"ContactSheet\",\
             \"headers\":[\"Person\",\"Venue\"],\
             \"rows\":[[\"Ada\",\"V-0\"],[\"Grace\",\"V-1\"]]}}"
        ),
        format!("{{\"id\":22,\"op\":\"paste\",{b},\"doc\":0,\"values\":[\"Ada\",\"V-0\"]}}"),
        format!("{{\"id\":23,\"op\":\"accept_rows\",{b}}}"),
        format!("{{\"id\":24,\"op\":\"name_column\",{b},\"col\":1,\"name\":\"Venue\"}}"),
        format!("{{\"id\":25,\"op\":\"commit_source\",{b},\"name\":\"People\"}}"),
        format!("{{\"id\":26,\"op\":\"autocomplete\",{b},\"values\":[\"Ada\"],\"k\":2}}"),
    ]);
    lines
}

/// Read-only probes against both storm sessions (deterministic
/// responses, byte-comparable to a never-crashed control).
fn storm_probes() -> Vec<String> {
    ["storm-a", "storm-b"]
        .iter()
        .flat_map(|name| {
            let s = format!("\"session\":\"{name}\"");
            [
                format!("{{\"id\":90,\"op\":\"render\",{s}}}"),
                format!("{{\"id\":91,\"op\":\"export\",{s},\"format\":\"csv\"}}"),
                format!("{{\"id\":92,\"op\":\"session_stats\",{s}}}"),
                format!("{{\"id\":93,\"op\":\"save_session\",{s}}}"),
            ]
        })
        .collect()
}

fn storm_config(fs: &Fs, root: Option<PathBuf>) -> crate::router::RouterConfig {
    crate::router::RouterConfig {
        shards: 1,
        server: ServerConfig { workers: 1, queue_depth: 32, shards: 2 },
        snapshot_every: 4,
        sync_every: 1,
        store_root: root,
        fs: fs.clone(),
        ..crate::router::RouterConfig::default()
    }
}

/// One kill-and-recover run under `plan`: drive the workload through a
/// durable router on a seeded [`SimFs`], kill it (drop, no flush),
/// crash the disk, recover, and check the loss-accounting property per
/// session: the recovered journal must equal the acked history at
/// exactly the sequence numbers the [`copycat_store::RecoveryReport`]
/// says survived — byte for byte — with every other acked effect
/// attributed to a reported loss class (quarantined interior record,
/// or tail at `seq > last_seq`). Returns the run plus the simulated
/// op count (the baseline caller uses it to size the sweep).
fn storm_run(
    seed: u64,
    plan: Vec<FaultPlan>,
    workload: &[String],
    probes: &[String],
    sessions: &[&str],
) -> Result<(StormRun, u64), String> {
    use crate::router::Router;
    let sim = Arc::new(SimFs::with_faults(seed, plan));
    let fs = Fs::sim(Arc::clone(&sim));
    let root = PathBuf::from("/storm");
    let router = Router::new(storm_config(&fs, Some(root.clone())));
    for line in workload {
        // Under an armed fault a request may legitimately fail; what
        // matters is what got *acked*, captured from the journal below.
        let _ = router.handle_line(line);
    }
    let pre: Vec<(String, Vec<String>)> = sessions
        .iter()
        .map(|s| (s.to_string(), router.journal_history(s).unwrap_or_default()))
        .collect();
    drop(router); // kill: no shutdown, no flush
    let ops = sim.op_count();
    sim.crash();
    let recovered = Router::recover(storm_config(&fs, Some(root)))
        .map_err(|e| format!("recovery failed: {e}"))?;
    let reports = recovered.recovery_reports();
    let mut out = StormRun {
        acked: 0,
        recovered: 0,
        quarantined: 0,
        tail_lost: 0,
        fired: sim.fired().len() as u64,
        silent: Vec::new(),
        probe_responses: Vec::new(),
    };
    for (name, acked_lines) in &pre {
        // No report = nothing recovered for the session (e.g. its store
        // never materialized, or its name sidecar was corrupt): every
        // acked effect is then tail-shaped loss against last_seq 0.
        let rep = reports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .unwrap_or_default();
        let acked = acked_lines.len() as u64;
        out.acked += acked;
        if rep.last_seq > acked {
            out.silent.push(format!(
                "session {name}: recovery invented records (last_seq {} > acked {acked})",
                rep.last_seq
            ));
            continue;
        }
        // Seqs are assigned 1:1 with journal pushes, so acked line k
        // carries seq k+1; the report enumerates exactly which survive.
        let expected: Vec<&String> = (1..=rep.last_seq)
            .filter(|s| !rep.quarantined.contains(s))
            .map(|s| &acked_lines[(s - 1) as usize])
            .collect();
        let post = recovered.journal_history(name).unwrap_or_default();
        let identical =
            post.len() == expected.len() && post.iter().zip(&expected).all(|(a, b)| a == *b);
        if !identical {
            out.silent.push(format!(
                "session {name}: recovered journal diverges from acked effects \
                 ({} recovered vs {} expected survivors)",
                post.len(),
                expected.len()
            ));
            continue;
        }
        out.recovered += expected.len() as u64;
        out.quarantined += rep.quarantined.len() as u64;
        out.tail_lost += acked - rep.last_seq;
    }
    for probe in probes {
        let resp = recovered.handle_line(probe);
        if Json::parse(&resp).is_err() {
            return Err(format!("probe answered non-JSON after recovery: {probe} -> {resp}"));
        }
        out.probe_responses.push(resp);
    }
    recovered.shutdown();
    Ok((out, ops))
}

/// The crash-storm property sweep: for **every fault kind at every
/// `stride`-th I/O operation** of the seeded workload, kill the router
/// and recover, asserting zero silent losses — each acked effect is
/// byte-identically present or explicitly accounted in a recovery
/// report. Runs that recovered with zero reported loss must also
/// answer every probe byte-identically to a never-crashed control.
/// `stride: 1` (the `copycat-serve crash-storm` smoke) covers every
/// injection point; tests use a coarser stride.
pub fn run_crash_storm(seed: u64, stride: u64) -> Result<CrashStormReport, String> {
    use crate::router::Router;
    let sessions = ["storm-a", "storm-b"];
    let workload = storm_workload();
    let probes = storm_probes();
    let stride = stride.max(1);

    // The never-crashed control: same workload, ephemeral router.
    let control = Router::new(storm_config(&Fs::real(), None));
    for line in &workload {
        let resp = control.handle_line(line);
        if !resp.contains("\"ok\":true") {
            return Err(format!("control refused workload line: {line} -> {resp}"));
        }
    }
    let control_probes: Vec<String> = probes.iter().map(|p| control.handle_line(p)).collect();
    control.shutdown();

    // Fault-free baseline: defines the sweep domain (op count) and must
    // recover everything, byte-identical to the control.
    let (base, ops) = storm_run(seed, Vec::new(), &workload, &probes, &sessions)?;
    if base.acked != workload.len() as u64 {
        return Err(format!(
            "baseline acked {} of {} workload lines",
            base.acked,
            workload.len()
        ));
    }
    if !base.silent.is_empty() || base.quarantined + base.tail_lost != 0 {
        return Err(format!(
            "fault-free baseline lost effects: quarantined {} tail {} silent {:?}",
            base.quarantined, base.tail_lost, base.silent
        ));
    }
    if base.probe_responses != control_probes {
        return Err("baseline recovery diverged from the never-crashed control".into());
    }

    let mut report = CrashStormReport {
        seed,
        workload_ops: ops,
        runs: 0,
        faults_fired: 0,
        acked: base.acked,
        recovered: base.recovered,
        quarantined: 0,
        tail_lost: 0,
        silent_losses: 0,
        probes: base.probe_responses.len() as u64,
    };
    let mut silent: Vec<String> = Vec::new();
    for kind in FaultKind::ALL {
        let mut at = 1u64;
        while at <= ops {
            let (run, _) = storm_run(
                seed,
                vec![FaultPlan { at_op: at, kind }],
                &workload,
                &probes,
                &sessions,
            )?;
            report.runs += 1;
            report.faults_fired += run.fired;
            report.acked += run.acked;
            report.recovered += run.recovered;
            report.quarantined += run.quarantined;
            report.tail_lost += run.tail_lost;
            report.probes += run.probe_responses.len() as u64;
            if run.silent.is_empty()
                && run.quarantined + run.tail_lost == 0
                && run.probe_responses != control_probes
            {
                silent.push(format!(
                    "{}@op{at}: lossless recovery diverged from the control on probes",
                    kind.name()
                ));
            }
            for s in run.silent {
                silent.push(format!("{}@op{at}: {s}", kind.name()));
            }
            at += stride;
        }
    }
    report.silent_losses = silent.len() as u64;
    if !silent.is_empty() {
        return Err(format!(
            "{} silent loss(es) across the storm; first: {}",
            silent.len(),
            silent[0]
        ));
    }
    Ok(report)
}

fn rows_of(j: &Json) -> Vec<Vec<String>> {
    j.as_array()
        .map(|rows| {
            rows.iter()
                .map(|r| {
                    r.as_array()
                        .map(|cells| {
                            cells
                                .iter()
                                .filter_map(|c| c.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default()
}
