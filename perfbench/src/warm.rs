//! `warm_autocomplete`: clients re-query warm sessions over one large
//! frozen shared world. The query cache answers every search, so the
//! time sits in plan execution and terminal discovery.

use crate::client::{Client, Target, Twins};
use crate::proto::{self, esc};
use crate::{Env, Outcome, Phase};
use copycat_serve::{Op, Server, ServerConfig};
use copycat_services::World;
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::time::Instant;

pub const VENUES: usize = 1024;
const SESSIONS_PER_CLIENT: usize = 4;
const PAIRS_PER_SESSION: usize = 8;
/// Full set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

/// One session's inputs and the answers it gave during warm-up.
struct Warm {
    name: String,
    /// `(values param, expected autocomplete result)`.
    pairs: Vec<(String, String)>,
    render: String,
    misses: u64,
}

fn cache_counters(resp: &str) -> Option<(u64, u64)> {
    proto::with_result(resp, |r| {
        let c = r.get("query_cache")?;
        Some((c.get("hits")?.as_u64()?, c.get("misses")?.as_u64()?))
    })
}

fn world_param(env: &Env) -> String {
    format!(
        "\"world\":{{\"seed\":{},\"venues\":{}}}",
        env.world_seed,
        env.venues(VENUES)
    )
}

/// Create and warm every session of one client; returns the reference
/// answers.
fn warm_up(client: &mut Client<'_>, env: &Env, world: &World, c: usize) -> Vec<Warm> {
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    let mut rng = StdRng::seed_from_u64(env.seed ^ (0x5eed_0000 + c as u64));
    (0..SESSIONS_PER_CLIENT)
        .map(|i| {
            let name = format!("warm-c{c}-s{i}");
            client.setup("create_session", &name, &world_param(env));
            let pairs = (0..PAIRS_PER_SESSION)
                .map(|_| {
                    let street = &shelters[rng.gen_range(0..shelters.len())][1];
                    let phone = &contacts[rng.gen_range(0..contacts.len())][1];
                    let values = format!("\"values\":[{},{}],\"k\":3", esc(street), esc(phone));
                    let answer = proto::reply(&client.setup("autocomplete", &name, &values)).result;
                    (values, answer)
                })
                .collect();
            let render = proto::reply(&client.setup("render", &name, "")).result;
            let misses =
                cache_counters(&client.setup("session_stats", &name, "")).map_or(0, |c| c.1);
            Warm {
                name,
                pairs,
                render,
                misses,
            }
        })
        .collect()
}

/// One request of the mix: ~70% autocomplete, the rest split between
/// `render` and `session_stats`, each checked against the warm-up.
fn step(client: &mut Client<'_>, rng: &mut StdRng, sessions: &[Warm]) {
    let s = &sessions[rng.gen_range(0..sessions.len())];
    let roll = rng.gen_range(0..100u32);
    if roll < 70 {
        let (values, expected) = &s.pairs[rng.gen_range(0..s.pairs.len())];
        let (_, reply) = client.send(Op::Autocomplete, &s.name, values);
        if reply.ok && reply.result != *expected {
            client.rec.fail(format!(
                "autocomplete on {} drifted from its warm-up answer",
                s.name
            ));
        }
    } else if roll < 85 {
        let (_, reply) = client.send(Op::Render, &s.name, "");
        if reply.ok && reply.result != s.render {
            client.rec.fail(format!(
                "render on {} drifted from its warm-up answer",
                s.name
            ));
        }
    } else {
        let (resp, reply) = client.send(Op::SessionStats, &s.name, "");
        if reply.ok
            && cache_counters(&resp).is_none_or(|(hits, misses)| hits == 0 || misses != s.misses)
        {
            client.rec.fail(format!(
                "session_stats on {}: the query cache missed",
                s.name
            ));
        }
    }
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
        let start = Instant::now();
        let server = Server::new(config.clone());
        let twin = phase.traced.then(|| Server::new(config.clone()));
        let twins = twin.as_ref().map(|t| Twins {
            engine: t,
            shard: None,
        });
        let refs: Vec<Vec<Warm>> = (0..crate::CLIENTS)
            .map(|c| {
                let mut client = Client::new(Target::Server(&server), twins, None);
                warm_up(&mut client, env, &world, c)
            })
            .collect();
        out.setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            let states = refs
                .iter()
                .enumerate()
                .map(|(c, sessions)| {
                    (
                        StdRng::seed_from_u64(env.seed ^ (0xc1_0000 + c as u64)),
                        sessions,
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
                64,
                |client, (rng, sessions)| step(client, rng, sessions),
            );
        }
        server.shutdown();
        if let Some(t) = twin {
            t.shutdown();
        }
    }
    out
}
