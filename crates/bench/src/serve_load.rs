//! Serve-layer experiments beyond the paper: kill-and-recover (S2),
//! cross-shard routing with live migration (S3), per-session memory
//! (S4) and the many-session herd (S5). Closed-loop throughput of the
//! serving path is perfbench's to measure.
//!
//! The sweeps share one client conversation. Each client owns one
//! session (multi-tenant, so clients never contend on a session lock),
//! performs a fixed warm-up conversation (import two joinable sources),
//! then issues a loop of the interactive hot path: query discovery
//! (`autocomplete`, hitting the query cache after the first round),
//! `render`, and `session_stats`. Clients are closed-loop — one
//! outstanding request each — so the queue never overflows.

use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::{Server, ServerConfig};
use copycat_util::hist::Histogram;
use copycat_util::json::Json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn esc(s: &str) -> String {
    Json::str(s).to_string()
}

/// The per-client warm-up conversation as raw request lines: a session
/// with two committed, joinable sources, tagged so tenants never share
/// values. Also returns the two probe values its autocomplete hot path
/// uses.
fn warm_up_lines(session: &str, tag: &str) -> (Vec<String>, String, String) {
    let s = format!("\"session\":{}", esc(session));
    let rows: Vec<Vec<String>> = (0..4)
        .map(|i| {
            vec![
                format!("Venue-{tag}-{i}"),
                format!("{i} Oak St {tag}"),
                format!("City{}", i % 2),
            ]
        })
        .collect();
    let contacts: Vec<Vec<String>> = (0..4)
        .map(|i| {
            vec![
                format!("Person-{tag}-{i}"),
                format!("555-0{i}-{tag}"),
                format!("Venue-{tag}-{i}"),
            ]
        })
        .collect();
    let rows_json = |rows: &[Vec<String>]| {
        let rendered: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("[{}]", rendered.join(","))
    };
    let mut lines = vec![
        format!("{{\"id\":0,\"op\":\"create_session\",{s}}}"),
        format!(
            "{{\"id\":0,\"op\":\"open_doc\",{s},\"name\":\"Shelters\",\
             \"headers\":[\"Venue\",\"Street\",\"City\"],\"rows\":{}}}",
            rows_json(&rows)
        ),
    ];
    for r in &rows {
        let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
        lines.push(format!(
            "{{\"id\":0,\"op\":\"paste\",{s},\"doc\":0,\"values\":[{}]}}",
            cells.join(",")
        ));
    }
    lines.push(format!("{{\"id\":0,\"op\":\"accept_rows\",{s}}}"));
    lines.push(format!(
        "{{\"id\":0,\"op\":\"name_column\",{s},\"col\":0,\"name\":\"Venue\"}}"
    ));
    lines.push(format!(
        "{{\"id\":0,\"op\":\"commit_source\",{s},\"name\":\"Shelters\"}}"
    ));
    lines.push(format!(
        "{{\"id\":0,\"op\":\"open_doc\",{s},\"name\":\"Contacts\",\
         \"headers\":[\"Person\",\"Phone\",\"Venue\"],\"rows\":{}}}",
        rows_json(&contacts)
    ));
    for r in &contacts {
        let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
        lines.push(format!(
            "{{\"id\":0,\"op\":\"paste\",{s},\"doc\":1,\"values\":[{}]}}",
            cells.join(",")
        ));
    }
    lines.push(format!("{{\"id\":0,\"op\":\"accept_rows\",{s}}}"));
    lines.push(format!(
        "{{\"id\":0,\"op\":\"name_column\",{s},\"col\":2,\"name\":\"Venue\"}}"
    ));
    lines.push(format!(
        "{{\"id\":0,\"op\":\"commit_source\",{s},\"name\":\"Contacts\"}}"
    ));
    (lines, rows[0][1].clone(), contacts[0][1].clone())
}

/// The interactive hot path for one session, as raw request lines.
fn hot_path_lines(session: &str, probes: (&str, &str)) -> Vec<String> {
    let s = format!("\"session\":{}", esc(session));
    vec![
        format!(
            "{{\"id\":1,\"op\":\"autocomplete\",{s},\"values\":[{},{}],\"k\":3}}",
            esc(probes.0),
            esc(probes.1)
        ),
        format!("{{\"id\":2,\"op\":\"render\",{s}}}"),
        format!("{{\"id\":3,\"op\":\"session_stats\",{s}}}"),
    ]
}

/// One kill-and-recover measurement: journal a session under load,
/// crash it (drop without shutdown), time the recovery replay, and
/// verify the recovered session answers like a never-crashed control.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Hot-path requests journaled before the crash.
    pub records: u64,
    /// Snapshot + WAL-truncate cadence during the run.
    pub snapshot_every: u64,
    /// Wall time for the journaled (durable, `sync_every=1`) run.
    pub journal_elapsed: Duration,
    /// Wall time for `Router::recover` (load snapshot + replay tail).
    pub recover_elapsed: Duration,
    /// Records replayed during recovery (snapshot checkpoint + tail).
    pub replayed: u64,
    /// Snapshots taken during the journaled run.
    pub snapshots: u64,
    /// Whether the recovered session answered byte-identically to a
    /// never-crashed control (must always be true).
    pub intact: bool,
}

fn bench_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("copycat-bench-{tag}-{}", std::process::id()))
}

fn stat(j: &Json, section: &str, key: &str) -> u64 {
    j[section][key].as_f64().unwrap_or(0.0) as u64
}

/// Kill-and-recover sweep: for each `(records, snapshot_every)` level,
/// run a durable single-tenant router, crash, recover, and time both
/// sides of the durability bargain.
pub fn run_recovery(levels: &[(u64, u64)]) -> Vec<RecoveryRow> {
    levels
        .iter()
        .map(|&(records, snapshot_every)| {
            let root = bench_root(&format!("recover-{records}-{snapshot_every}"));
            let _ = std::fs::remove_dir_all(&root);
            let config = || RouterConfig {
                shards: 2,
                server: ServerConfig { workers: 2, queue_depth: 64, shards: 8 },
                store_root: Some(root.clone()),
                snapshot_every,
                sync_every: 1,
                ..RouterConfig::default()
            };
            let (warm, a, b) = warm_up_lines("tenant", "r");
            let hot = hot_path_lines("tenant", (&a, &b));
            let durable = Router::new(config());
            for line in &warm {
                durable.handle_line(line);
            }
            let started = Instant::now();
            for i in 0..records {
                durable.handle_line(&hot[(i as usize) % hot.len()]);
            }
            let journal_elapsed = started.elapsed();
            let snapshots = stat(&durable.stats(), "durability", "snapshots");
            drop(durable); // crash: no shutdown, no final flush

            let started = Instant::now();
            let recovered = Router::recover(config()).expect("recovery");
            let recover_elapsed = started.elapsed();
            let replayed = stat(&recovered.stats(), "durability", "replayed_records");

            let control = Router::new(RouterConfig {
                shards: 2,
                server: ServerConfig { workers: 2, queue_depth: 64, shards: 8 },
                ..RouterConfig::default()
            });
            for line in &warm {
                control.handle_line(line);
            }
            for i in 0..records {
                control.handle_line(&hot[(i as usize) % hot.len()]);
            }
            let intact = hot
                .iter()
                .all(|line| recovered.handle_line(line) == control.handle_line(line));
            recovered.shutdown();
            control.shutdown();
            let _ = std::fs::remove_dir_all(&root);
            RecoveryRow {
                records,
                snapshot_every,
                journal_elapsed,
                recover_elapsed,
                replayed,
                snapshots,
                intact,
            }
        })
        .collect()
}

/// One cross-shard level: closed-loop clients against a [`Router`]
/// spreading tenants over `shards` shards, plus the cost of migrating
/// every tenant once at the end.
#[derive(Debug, Clone)]
pub struct CrossShardRow {
    /// In-process serve shards behind the router.
    pub shards: usize,
    /// Concurrent closed-loop clients (one tenant each).
    pub clients: usize,
    /// Timed requests across all clients.
    pub requests: u64,
    /// Responses with `ok:true`.
    pub ok: u64,
    /// Wall time for the timed portion.
    pub elapsed: Duration,
    /// Timed requests per second.
    pub throughput_rps: f64,
    /// Mean wall time to migrate one live tenant to another shard.
    pub migrate_mean_us: u64,
    /// Tenants migrated (always `clients`).
    pub migrations: u64,
}

/// Cross-shard sweep: the closed-loop hot path through the
/// consistent-hash router at several shard counts, ending with a
/// full round of live migrations.
pub fn run_cross_shard(shard_counts: &[usize], clients: usize, requests_per_client: usize) -> Vec<CrossShardRow> {
    shard_counts
        .iter()
        .map(|&shards| {
            let router = Arc::new(Router::new(RouterConfig {
                shards,
                server: ServerConfig {
                    workers: clients.clamp(2, 8),
                    queue_depth: (clients * 2).max(16),
                    shards: 8,
                },
                ..RouterConfig::default()
            }));
            let probes: Vec<(String, String)> = (0..clients)
                .map(|c| {
                    let (lines, a, b) =
                        warm_up_lines(&format!("client-{c}"), &format!("c{c}"));
                    for line in &lines {
                        router.handle_line(line);
                    }
                    (a, b)
                })
                .collect();
            let started = Instant::now();
            let (mut sent, mut ok) = (0u64, 0u64);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let router = Arc::clone(&router);
                        let (a, b) = probes[c].clone();
                        scope.spawn(move || {
                            let script =
                                hot_path_lines(&format!("client-{c}"), (&a, &b));
                            let (mut sent, mut ok) = (0u64, 0u64);
                            for i in 0..requests_per_client {
                                let resp = router.handle_line(&script[i % script.len()]);
                                sent += 1;
                                if resp.contains("\"ok\":true") {
                                    ok += 1;
                                }
                            }
                            (sent, ok)
                        })
                    })
                    .collect();
                for h in handles {
                    let (s, o) = h.join().expect("client thread");
                    sent += s;
                    ok += o;
                }
            });
            let elapsed = started.elapsed();
            // Live-migration round: move every tenant one shard over.
            let mig_started = Instant::now();
            let mut migrations = 0u64;
            for c in 0..clients {
                let name = format!("client-{c}");
                let to = (router.shard_of(&name) + 1) % shards.max(1);
                if router.migrate_session(&name, to).is_ok() {
                    migrations += 1;
                }
            }
            let migrate_mean_us = if migrations > 0 {
                (mig_started.elapsed().as_micros() / migrations as u128) as u64
            } else {
                0
            };
            let row = CrossShardRow {
                shards,
                clients,
                requests: sent,
                ok,
                elapsed,
                throughput_rps: sent as f64 / elapsed.as_secs_f64().max(1e-9),
                migrate_mean_us,
                migrations,
            };
            match Arc::try_unwrap(router) {
                Ok(r) => r.shutdown(),
                Err(_) => unreachable!("clients joined"),
            }
            row
        })
        .collect()
}

/// Marginal per-session memory and per-request allocation cost for one
/// session mode (flat private worlds vs copy-on-write shared worlds).
#[derive(Debug, Clone)]
pub struct MemRow {
    /// `"flat"` (every session owns a private world) or
    /// `"shared_world"` (sessions overlay one frozen `WorldBase`).
    pub mode: &'static str,
    /// Sessions created inside the measured window.
    pub sessions: usize,
    /// Net live-byte growth per session.
    pub marginal_bytes_per_session: f64,
    /// Sessions fitting in one GiB at that marginal cost.
    pub sessions_per_gb: f64,
    /// Heap allocations per warm hot-path request.
    pub allocs_per_request: f64,
}

/// World parameters shared by both memory modes, so flat and shared
/// sessions host byte-identical corpora. Flat cost = ~27 KiB of
/// engine + types + services fixed floor plus ~165 B/venue of corpus;
/// shared-overlay cost (~1.6 KiB) is venue-independent, so the sharing
/// win grows with world size. 48 venues is the production-shaped world
/// the experiment standardizes on.
const MEM_SEED: u64 = 2009;
const MEM_VENUES: usize = 48;

/// The herd is a latency/residency experiment, not a memory-scaling
/// one: it keeps a small world so its hot path stays comparable to the
/// cross-shard sweep's (whose private sources are 4 rows each).
const HERD_VENUES: usize = 6;

fn mem_server() -> Server {
    Server::new(ServerConfig { workers: 2, queue_depth: 64, shards: 64 })
}

/// Create a flat session and build its private world; returns the
/// `register_world` response (it carries the corpus rows).
fn create_flat_world(server: &Server, name: &str, venues: usize) -> String {
    server.handle_line(&format!(
        "{{\"id\":0,\"op\":\"create_session\",\"session\":{}}}",
        esc(name)
    ));
    server.handle_line(&format!(
        "{{\"id\":0,\"op\":\"register_world\",\"session\":{},\
         \"seed\":{MEM_SEED},\"venues\":{venues}}}",
        esc(name)
    ))
}

/// Create a copy-on-write session over the shared `WorldBase`.
fn create_shared_world(server: &Server, name: &str, venues: usize) -> String {
    server.handle_line(&format!(
        "{{\"id\":0,\"op\":\"create_session\",\"session\":{},\
         \"world\":{{\"seed\":{MEM_SEED},\"venues\":{venues}}}}}",
        esc(name)
    ))
}

/// Warm hot-path allocations per request on one session.
fn allocs_per_request(
    server: &Server,
    session: &str,
    probes: (&str, &str),
    snap: &dyn Fn() -> copycat_util::bench::AllocSnapshot,
) -> f64 {
    let script = hot_path_lines(session, probes);
    for _ in 0..8 {
        for line in &script {
            server.handle_line(line);
        }
    }
    let before = snap();
    let rounds = 100usize;
    for _ in 0..rounds {
        for line in &script {
            server.handle_line(line);
        }
    }
    let after = snap();
    after.allocs_since(&before) as f64 / (rounds * script.len()) as f64
}

/// The copy-on-write memory experiment: marginal bytes per session and
/// allocations per warm request, flat private worlds vs shared-world
/// overlays over the *same* world. `snap` must read a process-global
/// [`CountingAlloc`](copycat_util::bench::CountingAlloc) installed by
/// the calling binary; measurements difference live bytes around the
/// bulk session creation, so the process should be otherwise quiescent.
pub fn run_mem(
    flat_sessions: usize,
    shared_sessions: usize,
    snap: &dyn Fn() -> copycat_util::bench::AllocSnapshot,
) -> Vec<MemRow> {
    let gib = (1u64 << 30) as f64;

    // Flat: every session builds and owns a private world.
    let server = mem_server();
    let first = create_flat_world(&server, "flat-warm-0", MEM_VENUES);
    let world = Json::parse(&first).expect("register_world response");
    let street = world["result"]["shelters"][0][1].as_str().expect("street").to_string();
    let phone = world["result"]["contacts"][0][1].as_str().expect("phone").to_string();
    for i in 1..4 {
        create_flat_world(&server, &format!("flat-warm-{i}"), MEM_VENUES);
    }
    let before = snap();
    for i in 0..flat_sessions {
        create_flat_world(&server, &format!("flat-{i}"), MEM_VENUES);
    }
    let after = snap();
    let marginal_flat = after.live_growth_since(&before).max(1) as f64 / flat_sessions as f64;
    let allocs_flat = allocs_per_request(&server, "flat-0", (&street, &phone), snap);
    server.shutdown();

    // Shared: sessions overlay one frozen, memoized world base.
    let server = mem_server();
    for i in 0..32 {
        create_shared_world(&server, &format!("shared-warm-{i}"), MEM_VENUES);
    }
    let before = snap();
    for i in 0..shared_sessions {
        create_shared_world(&server, &format!("shared-{i}"), MEM_VENUES);
    }
    let after = snap();
    let marginal_shared =
        after.live_growth_since(&before).max(1) as f64 / shared_sessions as f64;
    let allocs_shared = allocs_per_request(&server, "shared-0", (&street, &phone), snap);
    server.shutdown();

    vec![
        MemRow {
            mode: "flat",
            sessions: flat_sessions,
            marginal_bytes_per_session: marginal_flat,
            sessions_per_gb: gib / marginal_flat,
            allocs_per_request: allocs_flat,
        },
        MemRow {
            mode: "shared_world",
            sessions: shared_sessions,
            marginal_bytes_per_session: marginal_shared,
            sessions_per_gb: gib / marginal_shared,
            allocs_per_request: allocs_shared,
        },
    ]
}

/// The 10⁴-session herd sweep: one server hosting `sessions`
/// copy-on-write sessions, with the interactive hot path timed over a
/// rotating sample of the herd.
#[derive(Debug, Clone)]
pub struct HerdRow {
    /// Shared-world sessions resident on the server.
    pub sessions: usize,
    /// Wall time to create the whole herd.
    pub create_elapsed: Duration,
    /// Timed hot-path requests over the sample.
    pub requests: u64,
    /// Responses with `ok:true`.
    pub ok: u64,
    /// Wall time for the timed portion.
    pub elapsed: Duration,
    /// Timed requests per second.
    pub throughput_rps: f64,
    /// Client-observed median latency (µs).
    pub p50_us: u64,
    /// Client-observed tail latency (µs).
    pub p99_us: u64,
    /// Net live-byte growth per session during herd creation (0 when
    /// no allocator hook was provided).
    pub marginal_bytes_per_session: f64,
    /// Sessions fitting in one GiB (0 without an allocator hook).
    pub sessions_per_gb: f64,
}

/// Run the herd sweep: create the herd, then drive `clients` closed-loop
/// threads over `probe_sessions` sampled tenants for `rounds` passes of
/// the hot path each.
pub fn run_herd(
    sessions: usize,
    probe_sessions: usize,
    rounds: usize,
    clients: usize,
    snap: Option<&dyn Fn() -> copycat_util::bench::AllocSnapshot>,
) -> HerdRow {
    let server = Arc::new(Server::new(ServerConfig {
        workers: clients.clamp(2, 8),
        queue_depth: (clients * 2).max(16),
        shards: 256,
    }));
    // World probe values, via one flat scratch session over the same
    // seed the herd shares.
    let first = create_flat_world(&server, "scratch", HERD_VENUES);
    let world = Json::parse(&first).expect("register_world response");
    let street = world["result"]["shelters"][0][1].as_str().expect("street").to_string();
    let phone = world["result"]["contacts"][0][1].as_str().expect("phone").to_string();

    let before = snap.map(|s| s());
    let create_started = Instant::now();
    for i in 0..sessions {
        create_shared_world(&server, &format!("herd-{i}"), HERD_VENUES);
    }
    let create_elapsed = create_started.elapsed();
    let marginal = match (before, snap) {
        (Some(b), Some(s)) => s().live_growth_since(&b).max(1) as f64 / sessions as f64,
        _ => 0.0,
    };

    let probe_sessions = probe_sessions.clamp(1, sessions);
    let stride = (sessions / probe_sessions).max(1);
    let hist = Arc::new(Histogram::default());
    let started = Instant::now();
    let (mut sent, mut ok) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                let server = Arc::clone(&server);
                let hist = Arc::clone(&hist);
                let (street, phone) = (street.clone(), phone.clone());
                scope.spawn(move || {
                    let (mut sent, mut ok) = (0u64, 0u64);
                    // Each client owns an interleaved slice of the
                    // sampled tenants.
                    for p in (c..probe_sessions).step_by(clients.max(1)) {
                        let session = format!("herd-{}", p * stride);
                        let script = hot_path_lines(&session, (&street, &phone));
                        // One untimed pass per tenant: the timed loop
                        // measures the steady state, not the first
                        // query-cache fill.
                        for line in &script {
                            server.handle_line(line);
                        }
                        for i in 0..rounds * script.len() {
                            let line = &script[i % script.len()];
                            let start = Instant::now();
                            let resp = server.handle_line(line);
                            hist.record(start.elapsed());
                            sent += 1;
                            if resp.contains("\"ok\":true") {
                                ok += 1;
                            }
                        }
                    }
                    (sent, ok)
                })
            })
            .collect();
        for h in handles {
            let (s, o) = h.join().expect("herd client thread");
            sent += s;
            ok += o;
        }
    });
    let elapsed = started.elapsed();
    let snap_hist = hist.snapshot();
    let row = HerdRow {
        sessions,
        create_elapsed,
        requests: sent,
        ok,
        elapsed,
        throughput_rps: sent as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: snap_hist.p50_us,
        p99_us: snap_hist.p99_us,
        marginal_bytes_per_session: marginal,
        sessions_per_gb: if marginal > 0.0 { (1u64 << 30) as f64 / marginal } else { 0.0 },
    };
    match Arc::try_unwrap(server) {
        Ok(s) => s.shutdown(),
        Err(_) => unreachable!("herd clients joined"),
    }
    row
}

/// Render the recovery rows as a `BENCH_serve.json` section.
pub fn recovery_to_json(rows: &[RecoveryRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("records".into(), Json::Num(r.records as f64)),
                    (
                        "snapshot_every".into(),
                        Json::Num(r.snapshot_every as f64),
                    ),
                    (
                        "journal_elapsed_us".into(),
                        Json::Num(r.journal_elapsed.as_micros() as f64),
                    ),
                    (
                        "recover_us".into(),
                        Json::Num(r.recover_elapsed.as_micros() as f64),
                    ),
                    ("replayed".into(), Json::Num(r.replayed as f64)),
                    ("snapshots".into(), Json::Num(r.snapshots as f64)),
                    ("intact".into(), Json::Bool(r.intact)),
                ])
            })
            .collect(),
    )
}

/// Render the cross-shard rows as a `BENCH_serve.json` section.
pub fn cross_shard_to_json(rows: &[CrossShardRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("shards".into(), Json::Num(r.shards as f64)),
                    ("clients".into(), Json::Num(r.clients as f64)),
                    ("requests".into(), Json::Num(r.requests as f64)),
                    ("ok".into(), Json::Num(r.ok as f64)),
                    (
                        "elapsed_us".into(),
                        Json::Num(r.elapsed.as_micros() as f64),
                    ),
                    ("throughput_rps".into(), Json::Num(r.throughput_rps)),
                    (
                        "migrate_mean_us".into(),
                        Json::Num(r.migrate_mean_us as f64),
                    ),
                    ("migrations".into(), Json::Num(r.migrations as f64)),
                ])
            })
            .collect(),
    )
}

/// Render the memory rows as a `BENCH_serve.json` section:
/// `{"rows": […], "reduction_x": flat/shared marginal ratio}`.
pub fn mem_to_json(rows: &[MemRow]) -> Json {
    let marginal = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode)
            .map(|r| r.marginal_bytes_per_session)
            .unwrap_or(0.0)
    };
    let (flat, shared) = (marginal("flat"), marginal("shared_world"));
    let reduction = if shared > 0.0 { flat / shared } else { 0.0 };
    Json::obj(vec![
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("mode".into(), Json::str(r.mode)),
                            ("sessions".into(), Json::Num(r.sessions as f64)),
                            (
                                "marginal_bytes_per_session".into(),
                                Json::Num(r.marginal_bytes_per_session),
                            ),
                            ("sessions_per_gb".into(), Json::Num(r.sessions_per_gb)),
                            (
                                "allocs_per_request".into(),
                                Json::Num(r.allocs_per_request),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("reduction_x".into(), Json::Num(reduction)),
    ])
}

/// Render the herd row as a `BENCH_serve.json` section.
pub fn herd_to_json(r: &HerdRow) -> Json {
    Json::obj(vec![
        ("sessions".into(), Json::Num(r.sessions as f64)),
        (
            "create_elapsed_us".into(),
            Json::Num(r.create_elapsed.as_micros() as f64),
        ),
        ("requests".into(), Json::Num(r.requests as f64)),
        ("ok".into(), Json::Num(r.ok as f64)),
        ("elapsed_us".into(), Json::Num(r.elapsed.as_micros() as f64)),
        ("throughput_rps".into(), Json::Num(r.throughput_rps)),
        ("p50_us".into(), Json::Num(r.p50_us as f64)),
        ("p99_us".into(), Json::Num(r.p99_us as f64)),
        (
            "marginal_bytes_per_session".into(),
            Json::Num(r.marginal_bytes_per_session),
        ),
        ("sessions_per_gb".into(), Json::Num(r.sessions_per_gb)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_sweep_recovers_intact() {
        let rows = run_recovery(&[(12, 5)]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].intact, "recovered session diverged from control");
        assert!(rows[0].replayed > 0, "something must have been replayed");
        assert!(rows[0].snapshots > 0, "snapshot cadence 5 over 12 records");
        let json = recovery_to_json(&rows).to_string();
        assert!(json.contains("recover_us"));
    }

    #[test]
    fn mem_experiment_produces_both_modes() {
        // No global counting allocator in the test binary: live-growth
        // reads are zero and clamp to the 1-byte guard. The test pins
        // the experiment's *shape* and that both modes run end to end.
        let snap = || copycat_util::bench::AllocSnapshot::default();
        let rows = run_mem(2, 4, &snap);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "flat");
        assert_eq!(rows[1].mode, "shared_world");
        for r in &rows {
            assert!(r.marginal_bytes_per_session >= 0.0);
            assert!(r.sessions_per_gb > 0.0);
        }
        let json = mem_to_json(&rows).to_string();
        assert!(json.contains("reduction_x"));
    }

    #[test]
    fn herd_sweep_produces_clean_runs() {
        let row = run_herd(48, 8, 2, 2, None);
        assert_eq!(row.sessions, 48);
        assert_eq!(row.ok, row.requests, "all herd probes must succeed");
        assert_eq!(row.requests, 8 * 2 * 3, "sample x rounds x script");
        assert!(row.throughput_rps > 0.0);
        let json = herd_to_json(&row).to_string();
        assert!(json.contains("sessions_per_gb"));
    }

    #[test]
    fn cross_shard_sweep_produces_clean_runs() {
        let rows = run_cross_shard(&[1, 2], 2, 12);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.ok, r.requests, "all cross-shard requests must succeed");
            assert_eq!(r.migrations, 2, "every tenant migrates once");
            assert!(r.throughput_rps > 0.0);
        }
        let json = cross_shard_to_json(&rows).to_string();
        assert!(json.contains("migrate_mean_us"));
    }
}
