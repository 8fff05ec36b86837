//! `durable_sessions`: the engine ops of an editing user, but every
//! acknowledged mutation is journaled (WAL append + fsync) by a
//! two-shard router before the reply is released. Each round grows
//! every session to a fixed number of journaled records, then crashes
//! the router (drop without shutdown) and times `Router::recover`. The
//! recovered sessions must match the pre-crash ones exactly.

use crate::client::{Client, Layers, Target, Twins};
use crate::proto::{self, esc, rows_array, str_array};
use crate::stats::Samples;
use crate::{Env, Outcome, Phase};
use copycat_serve::{Op, Router, RouterConfig, Server, ServerConfig};
use copycat_services::World;
use copycat_store::{Fs, SessionStore};
use copycat_util::json::Json;
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::path::Path;
use std::time::Instant;

const SESSIONS_PER_CLIENT: usize = 2;
/// Journaled records each session holds when the router crashes.
const RECORDS: usize = 400;
const SHEET_ROWS: usize = 24;

struct Edited {
    name: String,
    doc: u64,
    sheet: Vec<Vec<String>>,
    phones: Vec<String>,
    records: usize,
    cycle: usize,
}

fn router_config(dir: &Path) -> RouterConfig {
    RouterConfig {
        shards: 2,
        server: ServerConfig {
            workers: 2,
            queue_depth: 16,
            shards: 8,
        },
        store_root: Some(dir.to_path_buf()),
        ..RouterConfig::default()
    }
}

/// One edit cycle: look up a (street, phone) pair, correct the ranking,
/// paste the next sheet row, accept, name the key column, look at the
/// table. Counts the acknowledged mutations in `s.records`.
fn cycle(client: &mut Client<'_>, s: &mut Edited) {
    let row = &s.sheet[s.cycle % s.sheet.len()];
    let phone = &s.phones[s.cycle % s.phones.len()];
    s.cycle += 1;
    let name = s.name.as_str();
    let values = format!("\"values\":[{},{}],\"k\":3", esc(&row[1]), esc(phone));
    let (resp, reply) = client.send(Op::Autocomplete, name, &values);
    s.records += usize::from(reply.ok);
    match proto::with_result(&resp, |r| Some(r.get("queries")?.items().count())) {
        Some(n) if n > 0 => {
            let ok = client
                .send(Op::Feedback, name, &format!("\"accept\":{}", n - 1))
                .1
                .ok;
            s.records += usize::from(ok);
        }
        _ => client
            .rec
            .fail(format!("autocomplete on {name} found no query")),
    }
    let cells: Vec<&str> = row.iter().map(String::as_str).collect();
    let paste = format!("\"doc\":{},\"values\":{}", s.doc, str_array(&cells));
    for (op, params) in [
        (Op::Paste, paste.as_str()),
        (Op::AcceptRows, ""),
        (Op::NameColumn, "\"col\":0,\"name\":\"Venue\""),
    ] {
        s.records += usize::from(client.send(op, name, params).1.ok);
    }
    client.send(Op::Render, name, "");
}

/// Read-only answers that pin a session's whole state.
fn probe(router: &Router, name: &str) -> Vec<String> {
    ["render", "session_stats"]
        .iter()
        .map(|op| proto::line(0, op, name, ""))
        .chain([proto::line(0, "export", name, "\"format\":\"csv\"")])
        .map(|l| router.handle_line(&l))
        .collect()
}

fn durability(stats: &Json, key: &str) -> f64 {
    stats["durability"][key].as_f64().unwrap_or(0.0)
}

/// Replay one session's journal through a bare `SessionStore` with the
/// router's policy (sync every record, checkpoint every 64), timing
/// each store call, then time its recovery.
fn store_replay(history: &[String], dir: &Path, layers: &mut Layers) -> std::io::Result<()> {
    let fs = Fs::real();
    let _ = std::fs::remove_dir_all(dir);
    let mut store = SessionStore::create(&fs, dir)?;
    let every = RouterConfig::default().snapshot_every;
    for (i, record) in history.iter().enumerate() {
        let t = Instant::now();
        store.append(record);
        layers.push("store.append", t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        store.sync()?;
        layers.push("store.sync", t.elapsed().as_nanos() as f64);
        if store.records_since_snapshot() >= every {
            // The router's checkpoint: the history so far as a JSON
            // array of request lines.
            let payload = Json::Arr(
                history[..=i]
                    .iter()
                    .map(|l| Json::str(l.as_str()))
                    .collect(),
            )
            .to_string();
            let t = Instant::now();
            store.snapshot(&payload)?;
            layers.push("store.snapshot", t.elapsed().as_nanos() as f64);
            layers.push("store.snapshot_bytes", payload.len() as f64);
        }
    }
    drop(store);
    let t = Instant::now();
    std::hint::black_box(SessionStore::recover(&fs, dir)?);
    layers.push("store.recover", t.elapsed().as_nanos() as f64);
    std::fs::remove_dir_all(dir)
}

pub fn run(env: &Env, phase: Phase) -> Outcome {
    let world = World::generate(&crate::world_config(env));
    let defaults = RouterConfig::default();
    let mut out = Outcome {
        flush: Some((defaults.sync_every, defaults.snapshot_every)),
        ..Outcome::default()
    };
    let records = if env.small { 40 } else { RECORDS };
    let mut recover_s = Samples::default();
    let mut heap = Samples::default();
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed() < phase.window {
        let dir = env.out_dir.join(format!(
            "store-{}-{}-r{round}",
            std::process::id(),
            u8::from(phase.traced)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (recover, heap_bytes) = run_round(env, phase, &world, &dir, round, records, &mut out);
        recover_s.push(recover);
        heap.push(heap_bytes);
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    out.live_heap_bytes = heap.median() as u64;
    out.extra.insert("recover_s", recover_s.median());
    out.extra.insert("rounds", round as f64);
    out.extra
        .insert("paste_p50_us", out.rec.class("paste").median());
    out
}

/// One round: set up, edit to `records` per session, crash, recover,
/// verify. Returns the recovery time in seconds and the program's live
/// heap bytes at the end of the edit phase.
fn run_round(
    env: &Env,
    phase: Phase,
    world: &World,
    dir: &Path,
    round: usize,
    records: usize,
    out: &mut Outcome,
) -> (f64, f64) {
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    let mut rng = StdRng::seed_from_u64(env.seed ^ (0xd0_0000 + round as u64));
    let world_param = format!(
        "\"world\":{{\"seed\":{},\"venues\":{}}}",
        env.world_seed,
        world.venues.len()
    );

    let start = Instant::now();
    let router = Router::new(router_config(dir));
    let twin_servers = phase.traced.then(|| {
        let config = ServerConfig {
            workers: 2,
            queue_depth: 16,
            shards: 8,
        };
        (Server::new(config.clone()), Server::new(config))
    });
    let twins = twin_servers.as_ref().map(|(e, s)| Twins {
        engine: e,
        shard: Some(s),
    });
    let mut per_client: Vec<Vec<Edited>> = Vec::new();
    for c in 0..crate::CLIENTS {
        let mut client = Client::new(Target::Router(&router), twins, None);
        let mut sessions = Vec::new();
        for i in 0..SESSIONS_PER_CLIENT {
            let name = format!("c{c}-r{round}-s{i}");
            let mut order: Vec<usize> = (0..shelters.len()).collect();
            rng.shuffle(&mut order);
            let sheet: Vec<Vec<String>> = order
                .iter()
                .take(SHEET_ROWS)
                .map(|&i| shelters[i].clone())
                .collect();
            let phones = (0..8)
                .map(|_| contacts[rng.gen_range(0..contacts.len())][1].clone())
                .collect();
            let created = proto::reply(&client.setup("create_session", &name, &world_param)).ok;
            let doc = format!(
                "\"name\":\"Sheet\",\"headers\":[\"Venue\",\"Street\",\"City\"],\"rows\":{}",
                rows_array(&sheet)
            );
            let resp = client.setup("open_doc", &name, &doc);
            let doc = proto::with_result(&resp, |r| r.get("doc")?.as_u64());
            match (created, doc) {
                (true, Some(doc)) => sessions.push(Edited {
                    name,
                    doc,
                    sheet,
                    phones,
                    records: 2,
                    cycle: 0,
                }),
                _ => client.rec.fail(format!("setting up {name} failed: {resp}")),
            }
        }
        out.rec
            .merge(std::mem::take(&mut client.rec).failures_only());
        per_client.push(sessions);
    }
    out.setup_s.push(start.elapsed().as_secs_f64());

    let edit_start = Instant::now();
    let mut clients = std::thread::scope(|scope| {
        let router = &router;
        let handles: Vec<_> = per_client
            .iter_mut()
            .map(|sessions| {
                scope.spawn(move || {
                    let mut client = Client::new(Target::Router(router), twins, phase.tracer());
                    client.rec.block = round;
                    while let Some(s) = sessions
                        .iter_mut()
                        .filter(|s| s.records < records)
                        .min_by_key(|s| s.records)
                    {
                        cycle(&mut client, s);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    out.block_s.push(edit_start.elapsed().as_secs_f64());
    let heap = crate::program_heap_bytes(clients.iter().map(|c| &c.rec).chain([&out.rec])) as f64;
    if phase.traced {
        // Exact allocation counts: one client, nothing else running.
        let client = &mut clients[0];
        client.allocs = Some(Default::default());
        client.tracer = None;
        client.twins = None;
        for s in per_client[0].iter_mut() {
            cycle(client, s);
        }
    }
    for client in clients {
        out.absorb(client);
    }

    // Crash: drop the router without shutdown, then recover.
    let names: Vec<&str> = per_client
        .iter()
        .flatten()
        .map(|s| s.name.as_str())
        .collect();
    let before: Vec<(Option<Vec<String>>, Vec<String>)> = names
        .iter()
        .map(|n| (router.journal_history(n), probe(&router, n)))
        .collect();
    let stats = router.stats();
    drop(router);
    let t = Instant::now();
    let recovered = match Router::recover(router_config(dir)) {
        Ok(r) => r,
        Err(e) => {
            out.rec.fail(format!("recovery failed: {e}"));
            return (t.elapsed().as_secs_f64(), heap);
        }
    };
    let recover = t.elapsed().as_secs_f64();
    for (name, (history, answers)) in names.iter().zip(&before) {
        out.rec.attempted += 1;
        if recovered.journal_history(name) != *history || probe(&recovered, name) != *answers {
            out.rec.fail(format!(
                "recovered session {name} differs from the pre-crash one"
            ));
        }
    }
    let after = recovered.stats();
    recovered.shutdown();
    if let Some((e, s)) = twin_servers {
        e.shutdown();
        s.shutdown();
    }
    if phase.traced {
        for (name, key) in [
            ("store.syncs", "syncs"),
            ("store.bytes_synced", "bytes_synced"),
            ("store.snapshots", "snapshots"),
        ] {
            out.layers.push(name, durability(&stats, key));
        }
        out.layers.push(
            "recover.replayed_records",
            durability(&after, "replayed_records"),
        );
        if let Some(history) = before.first().and_then(|b| b.0.as_ref()) {
            let replay_dir = dir.with_extension("replay");
            if let Err(e) = store_replay(history, &replay_dir, &mut out.layers) {
                out.rec.fail(format!("store replay failed: {e}"));
            }
        }
    }
    (recover, heap)
}
