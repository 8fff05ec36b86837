//! `integration_tasks`: each client repeats the paper's Example 1 on a
//! fresh session: import a sheet from two pasted rows, commit it, find
//! the join with the shared contacts, correct the ranking, add a
//! service column and export. Every `autocomplete` follows a graph
//! change, so the query cache misses and the Steiner search runs; the
//! rest of the time is wrapper learning, association discovery and
//! session create/close.

use crate::client::{Client, Target, Twins};
use crate::proto::{self, esc, rows_array, str_array};
use crate::{Env, Outcome, Phase};
use copycat_serve::{Op, Server, ServerConfig};
use copycat_services::World;
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::time::Instant;

pub const VENUES: usize = 48;
const SHEET_ROWS: usize = 6;
/// Full set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 5;

/// The generated inputs of one task.
struct Task {
    session: String,
    sheet: Vec<Vec<String>>,
    phone: String,
}

fn gen_task(rng: &mut StdRng, world: &World, name: String) -> Task {
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < SHEET_ROWS.min(shelters.len()) {
        let i = rng.gen_range(0..shelters.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let sheet: Vec<Vec<String>> = picked.iter().map(|&i| shelters[i].clone()).collect();
    let phone = contacts[rng.gen_range(0..contacts.len())][1].clone();
    Task {
        session: name,
        sheet,
        phone,
    }
}

fn count(resp: &str, member: &str) -> Option<usize> {
    proto::with_result(resp, |r| Some(r.get(member)?.items().count()))
}

/// Run one task through the closed loop, checking each reply; the
/// next request is chosen from the replies so far, so only requests
/// valid for the session's state are sent.
fn run_task(client: &mut Client<'_>, env: &Env, task: &Task) {
    let start = Instant::now();
    let s = task.session.as_str();
    let world = format!(
        "\"world\":{{\"seed\":{},\"venues\":{}}}",
        env.world_seed,
        env.venues(VENUES)
    );
    let fail = |client: &mut Client<'_>, why: &str| client.rec.fail(format!("task {s}: {why}"));
    if !client.send(Op::CreateSession, s, &world).1.ok {
        return;
    }
    let doc = format!(
        "\"name\":\"Sheet\",\"headers\":[\"Venue\",\"Street\",\"City\"],\"rows\":{}",
        rows_array(&task.sheet)
    );
    let (resp, reply) = client.send(Op::OpenDoc, s, &doc);
    let doc_id = proto::with_result(&resp, |r| r.get("doc")?.as_u64());
    if let (true, Some(doc_id)) = (reply.ok, doc_id) {
        for row in &task.sheet[..2] {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            client.send(
                Op::Paste,
                s,
                &format!("\"doc\":{doc_id},\"values\":{}", str_array(&cells)),
            );
        }
        client.send(Op::AcceptRows, s, "");
        client.send(Op::NameColumn, s, "\"col\":0,\"name\":\"Venue\"");
        client.send(Op::CommitSource, s, "\"name\":\"Mine\"");
        let values = format!(
            "\"values\":[{},{}],\"k\":3",
            esc(&task.sheet[0][1]),
            esc(&task.phone)
        );
        let (resp, _) = client.send(Op::Autocomplete, s, &values);
        match count(&resp, "queries") {
            // The user prefers the last-ranked query: the correction
            // changes edge costs, so the next search cannot be cached.
            Some(n) if n > 0 => {
                client.send(Op::Feedback, s, &format!("\"accept\":{}", n - 1));
                client.send(Op::Autocomplete, s, &values);
            }
            _ => fail(client, "autocomplete found no query"),
        }
        let (resp, _) = client.send(Op::ColumnSuggestions, s, "");
        let columns: Option<Vec<String>> = proto::with_result(&resp, |r| {
            let first = r.get("suggestions")?.items().next()?;
            first
                .get("columns")?
                .items()
                .map(|c| c.as_str().map(str::to_string))
                .collect()
        });
        match columns {
            Some(columns) if !columns.is_empty() => {
                client.send(Op::AcceptColumn, s, "\"index\":0");
                let (resp, _) = client.send(Op::Export, s, "\"format\":\"csv\"");
                let data =
                    proto::with_result(&resp, |r| r.get("data")?.as_str().map(str::to_string));
                let complete = data.is_some_and(|csv| {
                    let header = csv.lines().next().unwrap_or("");
                    task.sheet.iter().all(|row| csv.contains(&row.join(",")))
                        && columns.iter().all(|c| header.split(',').any(|h| h == c))
                });
                if !complete {
                    fail(
                        client,
                        "export lacks the pasted rows or the accepted column",
                    );
                }
            }
            _ => fail(client, "no column suggestion"),
        }
    }
    client.send(Op::CloseSession, s, "");
    client.rec.task_ms.push(start.elapsed().as_secs_f64() * 1e3);
}

pub fn run(env: &Env, phase: Phase) -> Outcome {
    let world = World::generate(&crate::world_config(env));
    let mut out = Outcome::default();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        shards: 8,
    };
    for i in 0..SETUPS {
        // Set-up: a fresh server builds the shared world on the first
        // session, and each client runs one untimed task.
        let start = Instant::now();
        let server = Server::new(config.clone());
        let twin = phase.traced.then(|| Server::new(config.clone()));
        let twins = twin.as_ref().map(|t| Twins {
            engine: t,
            shard: None,
        });
        let mut rng = StdRng::seed_from_u64(env.seed ^ 0x7a5c);
        for c in 0..crate::CLIENTS {
            let mut client = Client::new(Target::Server(&server), twins, None);
            run_task(
                &mut client,
                env,
                &gen_task(&mut rng, &world, format!("warmup-c{c}")),
            );
            out.rec
                .merge(std::mem::take(&mut client.rec).failures_only());
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            // Per client: its input stream and the number of tasks run.
            let states = (0..crate::CLIENTS)
                .map(|c| {
                    (
                        StdRng::seed_from_u64(env.seed ^ (0x7a5c_0000 + c as u64)),
                        c,
                        0,
                    )
                })
                .collect();
            let target = Target::Server(&server);
            crate::run_window(
                phase,
                &mut out,
                target,
                twins,
                states,
                4,
                |client, (rng, c, n)| {
                    run_task(client, env, &gen_task(rng, &world, format!("c{c}-t{n}")));
                    *n += 1;
                },
            );
        }
        server.shutdown();
        if let Some(t) = twin {
            t.shutdown();
        }
    }
    let tasks = &out.rec.task_ms;
    out.extra.insert("task_p50_ms", tasks.quantile(0.5));
    out.extra.insert("task_p99_ms", tasks.quantile(0.99));
    out.extra.insert("tasks", tasks.len() as f64);
    out.extra
        .insert("paste_p50_us", out.rec.class("paste").median());
    out
}
