//! The session server: admission gate → per-session engine dispatch →
//! metrics, with graceful drain.
//!
//! [`Server::handle_line`] *is* the in-process transport: callers hand
//! it one request line and block for the one response line, and the
//! request runs on the calling thread. The TCP listener
//! ([`crate::tcp`]) is a thin byte pump over the same method, so tests
//! and benches exercise exactly the code a socket client hits.
//!
//! Request lifecycle and where deadlines are checked:
//!
//! 1. **Parse** — failures are counted under the synthetic `invalid`
//!    class and answered `bad_request`.
//! 2. **Admission** — draining servers answer `shutting_down`; with
//!    every run slot taken and the wait list full, `overloaded`. The
//!    deadline starts before admission, so time spent waiting for a
//!    slot counts against the budget.
//! 3. **Slot taken** — expired requests answer `timeout` without
//!    touching any session (also when the budget lapses mid-wait).
//! 4. **Post-lookup** — after the session lock is taken but before the
//!    engine runs.
//! 5. **Post-engine** — after the engine op, with any *virtual* service
//!    latency accrued by [`Flaky`] probes charged to the budget. The
//!    op's effects are kept (a consistent prefix), but the client is
//!    told `timeout`.
//!
//! Every answer also carries an [`Outcome`], decided where the answer
//! is made: the durable router journals exactly the requests that ran.
//!
//! Responses never embed timing, so a given request script produces
//! byte-identical responses whether sessions are driven sequentially or
//! concurrently — the determinism contract the serve tests pin.

use crate::deadline::Deadline;
use crate::metrics::Metrics;
use crate::protocol::{err_response, ok_response, with_request, ErrorKind, Op, Request};
use crate::registry::{SessionRegistry, SessionState};
use copycat_core::{explain, export, CopyCat, WorldBase};
use copycat_document::corpus::contact_sheet;
use copycat_document::{Document, DocumentId};
use copycat_query::{Renamed, Service};
use copycat_services::{Flaky, HealthSnapshot, RetryPolicy, World, WorldConfig};
use copycat_util::hash::FxHashMap;
use copycat_util::json::{Json, JsonError};
use copycat_util::sync::Mutex;
use copycat_util::zjson::ZRef;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, PoisonError};

/// Admission and registry sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests running at once.
    pub workers: usize,
    /// Requests that may wait for a run slot; beyond it requests are
    /// `overloaded`.
    pub queue_depth: usize,
    /// Registry shard count (rounded up to a power of two).
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_depth: 64, shards: 8 }
    }
}

/// Largest world one request may generate. perfbench's 1,024-venue
/// world is the biggest in the tree; without a cap a single
/// `create_session`/`register_world` could exhaust memory.
const MAX_WORLD_VENUES: usize = 65_536;

/// How a request ended, decided where the server answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// It ran and succeeded.
    Ok,
    /// It ran and failed (`bad_request` after partial validation,
    /// `unavailable`, `internal`, a timeout during execution). Its
    /// effects, if any, are a consistent prefix that replay reproduces.
    Failed,
    /// It was turned away before touching any session: overloaded,
    /// draining, unknown session, duplicate create, or a deadline that
    /// lapsed before execution. There is nothing to replay.
    Refused,
}

/// Why an op produced no result. `refused` is set at the refusal site.
struct Failure {
    kind: ErrorKind,
    msg: String,
    refused: bool,
}

impl From<(ErrorKind, String)> for Failure {
    fn from((kind, msg): (ErrorKind, String)) -> Failure {
        Failure { kind, msg, refused: false }
    }
}

fn refuse(kind: ErrorKind, msg: String) -> Failure {
    Failure { kind, msg, refused: true }
}

type OpResult = Result<Json, Failure>;

/// Why the gate turned a request away.
enum Turned {
    Draining,
    Full,
    Expired,
}

#[derive(Default)]
struct Slots {
    running: usize,
    waiting: usize,
    draining: bool,
}

/// The admission gate: at most `workers` requests run at once and at
/// most `queue_depth` more wait for a slot. A request past both limits
/// is refused now rather than joining a backlog whose every entry would
/// miss its deadline anyway.
struct Gate {
    slots: Mutex<Slots>,
    /// Signaled whenever a run slot frees.
    freed: Condvar,
    workers: usize,
    queue_depth: usize,
}

/// A held run slot; dropping it (also while unwinding) frees the slot.
struct Slot<'g>(&'g Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.slots.lock().running -= 1;
        self.0.freed.notify_one();
    }
}

impl Gate {
    /// Take a run slot, waiting for one while the wait list has room
    /// and the deadline has budget left.
    fn admit(&self, deadline: &Deadline) -> Result<Slot<'_>, Turned> {
        let mut slots = self.slots.lock();
        if slots.draining {
            return Err(Turned::Draining);
        }
        if slots.running >= self.workers {
            if slots.waiting >= self.queue_depth {
                return Err(Turned::Full);
            }
            slots.waiting += 1;
            while slots.running >= self.workers && !deadline.expired() {
                slots = match deadline.remaining() {
                    None => self.freed.wait(slots).unwrap_or_else(PoisonError::into_inner),
                    Some(left) => {
                        let woken = self.freed.wait_timeout(slots, left);
                        woken.unwrap_or_else(PoisonError::into_inner).0
                    }
                };
            }
            slots.waiting -= 1;
        }
        if deadline.expired() {
            // Pass on a wake-up this waiter may have consumed, so a
            // freed slot never strands the next waiter.
            self.freed.notify_one();
            return Err(Turned::Expired);
        }
        slots.running += 1;
        Ok(Slot(self))
    }

    /// Turn away every later arrival; admitted requests still finish.
    fn close(&self) {
        self.slots.lock().draining = true;
    }
}

/// The multi-tenant session server.
pub struct Server {
    registry: SessionRegistry,
    metrics: Metrics,
    gate: Gate,
    /// Shared world bases, memoized by `(seed, venues)`: every
    /// `create_session {"world": …}` naming the same config overlays the
    /// same frozen base (see [`WorldBase`]).
    worlds: Mutex<FxHashMap<(u64, usize), Arc<WorldBase>>>,
}

fn bad(e: JsonError) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, e.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn jnum(n: usize) -> Json {
    Json::Num(n as f64)
}

fn jrows(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|c| Json::str(c.as_str())).collect()))
            .collect(),
    )
}

fn jstrings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s.as_str())).collect())
}

fn jtransform(t: &copycat_core::LearnedTransform) -> Json {
    obj(vec![
        ("edge", Json::Num(t.edge.0 as f64)),
        ("from", Json::str(&t.from_source)),
        ("from_col", Json::str(&t.from_col)),
        ("to", Json::str(&t.to_source)),
        ("to_col", Json::str(&t.to_col)),
        ("program", Json::str(&t.program.to_string())),
        ("cost", Json::Num(t.cost)),
        ("coverage", Json::Num(t.coverage)),
    ])
}

fn jhealth(snap: &HealthSnapshot) -> Json {
    obj(vec![
        ("service", Json::str(&snap.service)),
        ("state", Json::str(snap.state.as_str())),
        ("calls", Json::Num(snap.calls as f64)),
        ("failures", Json::Num(snap.failures as f64)),
        ("retries", Json::Num(snap.retries as f64)),
        ("trips", Json::Num(snap.trips as f64)),
        ("short_circuits", Json::Num(snap.short_circuits as f64)),
        ("observed_failure_rate", Json::Num(snap.observed_failure_rate)),
        ("backoff_virtual_ms", Json::Num(snap.backoff_virtual_ms as f64)),
    ])
}


impl Server {
    /// A server with the given sizing. Spawns no threads: every request
    /// runs on the thread that hands it in.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            registry: SessionRegistry::new(config.shards),
            metrics: Metrics::new(),
            gate: Gate {
                slots: Mutex::new(Slots::default()),
                freed: Condvar::new(),
                workers: config.workers.max(1),
                queue_depth: config.queue_depth.max(1),
            },
            worlds: Mutex::new(FxHashMap::default()),
        }
    }

    /// A server with default sizing.
    pub fn with_defaults() -> Server {
        Server::new(ServerConfig::default())
    }

    /// The metrics registry (test/bench introspection).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The session registry (test introspection).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Whether the server has begun draining.
    pub fn draining(&self) -> bool {
        self.gate.slots.lock().draining
    }

    /// Handle one request line on the calling thread and return its
    /// response line. The line parses into this thread's scratch doc.
    ///
    /// This is the in-process transport: every transport funnels here.
    pub fn handle_line(&self, line: &str) -> String {
        with_request(line, |parsed| match parsed {
            Ok(req) => self.handle_request(&req).0,
            Err((id, msg)) => self.answer_unparseable(id, &msg),
        })
    }

    /// Handle one parsed request: its response line plus how it ended.
    pub fn handle_request(&self, req: &Request<'_>) -> (String, Outcome) {
        self.execute(req, |deadline| self.dispatch(req, deadline))
    }

    /// The `bad_request` answer to a line that did not parse as a
    /// request (`id` is the raw id slice, `"null"` when unknown),
    /// counted under the `invalid` class.
    pub fn answer_unparseable(&self, id: &str, msg: &str) -> String {
        self.metrics.admitted(Op::Invalid);
        self.metrics.error(Op::Invalid, 0);
        err_response(id, ErrorKind::BadRequest, msg)
    }

    /// [`handle_line`](Server::handle_line) plus response parsing, for
    /// tests and scripts.
    pub fn handle(&self, line: &str) -> Json {
        // lint:allow(panic-path) test/script convenience on server-produced JSON, not a request path
        Json::parse(&self.handle_line(line)).expect("server responses are valid JSON")
    }

    /// Graceful shutdown: stop admitting. Taking `self` by value means
    /// no request can still be in flight.
    pub fn shutdown(self) {
        self.gate.close();
    }

    /// Admit `req`, run `op` under a run slot, and answer. `shutdown`
    /// bypasses the gate: it must work even when every slot is taken,
    /// and it is what closes admission.
    fn execute(
        &self,
        req: &Request<'_>,
        op: impl FnOnce(&mut Deadline) -> OpResult,
    ) -> (String, Outcome) {
        let kind = req.op;
        let mut deadline = Deadline::starting_now(req.deadline_ms);
        self.metrics.admitted(kind);
        if kind == Op::Shutdown {
            self.gate.close();
            self.metrics.ok(kind, 0);
            let resp = ok_response(req.id, &obj(vec![("draining", Json::Bool(true))]));
            return (resp, Outcome::Ok);
        }
        let _slot = match self.gate.admit(&deadline) {
            Ok(slot) => slot,
            Err(Turned::Draining) => {
                self.metrics.shed(kind);
                let resp = err_response(req.id, ErrorKind::ShuttingDown, "server is draining");
                return (resp, Outcome::Refused);
            }
            Err(Turned::Full) => {
                self.metrics.overloaded(kind);
                let msg = "admission queue full; retry";
                return (err_response(req.id, ErrorKind::Overloaded, msg), Outcome::Refused);
            }
            Err(Turned::Expired) => {
                self.metrics.timeout(kind, deadline.spent_us());
                let msg = "deadline exceeded while queued";
                return (err_response(req.id, ErrorKind::Timeout, msg), Outcome::Refused);
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&mut deadline)));
        let spent = deadline.spent_us();
        match result {
            Ok(Ok(_)) if deadline.expired() => {
                self.metrics.timeout(kind, spent);
                let resp =
                    err_response(req.id, ErrorKind::Timeout, "deadline exceeded during execution");
                (resp, Outcome::Failed)
            }
            Ok(Ok(json)) => {
                self.metrics.ok(kind, spent);
                (ok_response(req.id, &json), Outcome::Ok)
            }
            Ok(Err(failure)) => {
                if failure.kind == ErrorKind::Timeout {
                    self.metrics.timeout(kind, spent);
                } else {
                    self.metrics.error(kind, spent);
                }
                let outcome = if failure.refused { Outcome::Refused } else { Outcome::Failed };
                (err_response(req.id, failure.kind, &failure.msg), outcome)
            }
            Err(_) => {
                self.metrics.error(kind, spent);
                (err_response(req.id, ErrorKind::Internal, "handler panicked"), Outcome::Failed)
            }
        }
    }

    /// The memoized shared base for one world config. Built under the
    /// lock so racing creates observe one `Arc` identity.
    fn shared_world(&self, config: &WorldConfig) -> Arc<WorldBase> {
        let mut worlds = self.worlds.lock();
        Arc::clone(
            worlds
                .entry((config.seed, config.venues))
                .or_insert_with(|| Arc::new(WorldBase::synthetic(config))),
        )
    }

    /// Run a session-scoped op under the session lock, charging any
    /// virtual service latency the op accrued to the request deadline.
    fn with_session<F>(&self, req: &Request, deadline: &mut Deadline, f: F) -> OpResult
    where
        F: FnOnce(&mut SessionState) -> OpResult,
    {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        let session = self
            .registry
            .get(name)
            .map_err(|_| refuse(ErrorKind::NoSuchSession, format!("no session named {name:?}")))?;
        let mut state = session.state.lock();
        if deadline.expired() {
            let msg = "deadline exceeded awaiting session".to_string();
            return Err(refuse(ErrorKind::Timeout, msg));
        }
        let virtual_before = state.virtual_latency_ms();
        let result = f(&mut state);
        let accrued = state.virtual_latency_ms().saturating_sub(virtual_before);
        deadline.charge_virtual_ms(accrued);
        result
    }

    fn dispatch(&self, req: &Request, deadline: &mut Deadline) -> OpResult {
        match req.op {
            Op::Ping => Ok(obj(vec![("pong", Json::Bool(true))])),
            Op::CreateSession => self.create_session(req),
            Op::LoadSession => self.load_session(req),
            Op::CloseSession => self.close_session(req),
            Op::ListSessions => Ok(obj(vec![(
                "sessions",
                jstrings(&self.registry.names()),
            )])),
            Op::Stats => Ok(self.stats()),
            Op::SaveSession => self.with_session(req, deadline, |s| {
                Ok(obj(vec![("snapshot", Json::str(&s.engine.save_session_json()))]))
            }),
            Op::OpenDoc => self.with_session(req, deadline, |s| open_doc(req, s)),
            Op::Paste => self.with_session(req, deadline, |s| paste(req, s)),
            Op::AcceptRows => self.with_session(req, deadline, |s| {
                Ok(obj(vec![("accepted", jnum(s.engine.accept_suggested_rows()))]))
            }),
            Op::NameColumn => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let name = req.str_param("name").map_err(bad)?;
                Ok(obj(vec![("renamed", Json::Bool(s.engine.name_column(col, name)))]))
            }),
            Op::SetColumnType => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let ty = req.str_param("type").map_err(bad)?;
                Ok(obj(vec![("set", Json::Bool(s.engine.set_column_type(col, ty)))]))
            }),
            Op::CommitSource => self.with_session(req, deadline, |s| {
                let name = req.str_param("name").map_err(bad)?;
                Ok(obj(vec![("rows", jnum(s.engine.commit_source(name)))]))
            }),
            Op::RegisterWorld => self.with_session(req, deadline, |s| register_world(req, s)),
            Op::RegisterFlaky => self.with_session(req, deadline, |s| register_flaky(req, s)),
            Op::ColumnSuggestions => self.with_session(req, deadline, |s| {
                s.last_suggestions = s.engine.column_suggestions();
                let tripped = s.engine.health().tripped_services();
                if s.last_suggestions.is_empty() && !tripped.is_empty() {
                    return Err((
                        ErrorKind::Unavailable,
                        format!("no completions; services down: {}", tripped.join(", ")),
                    )
                        .into());
                }
                let listed: Vec<Json> = s
                    .last_suggestions
                    .iter()
                    .enumerate()
                    .map(|(i, sg)| {
                        obj(vec![
                            ("index", jnum(i)),
                            ("label", Json::str(&sg.label)),
                            ("cost", Json::Num(sg.cost)),
                            (
                                "degraded",
                                sg.degraded
                                    .as_deref()
                                    .map_or(Json::Null, Json::str),
                            ),
                            (
                                "columns",
                                Json::Arr(
                                    sg.new_fields
                                        .iter()
                                        .map(|f| Json::str(&f.name))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("suggestions", Json::Arr(listed))]))
            }),
            Op::AcceptColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                let sugg = s.last_suggestions.get(i).cloned().ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no suggestion at index {i}"))
                })?;
                s.engine.accept_column(&sugg);
                s.last_suggestions.clear();
                Ok(obj(vec![("accepted", jnum(i))]))
            }),
            Op::RejectColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                let sugg = s.last_suggestions.get(i).cloned().ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no suggestion at index {i}"))
                })?;
                s.engine.reject_column(&sugg);
                Ok(obj(vec![("rejected", jnum(i))]))
            }),
            Op::Autocomplete => self.with_session(req, deadline, |s| {
                let values = req.strings_param("values").map_err(bad)?;
                let k = req.body.field("k").as_f64().map_or(3, |v| v as usize);
                s.last_queries = s.engine.discover_queries_for_tuple(&values, k);
                let listed: Vec<Json> = s
                    .last_queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        obj(vec![
                            ("index", jnum(i)),
                            ("cost", Json::Num(q.cost)),
                            (
                                "degraded",
                                q.degraded
                                    .as_deref()
                                    .map_or(Json::Null, Json::str),
                            ),
                            (
                                "sources",
                                Json::Arr(
                                    q.plan.sources().iter().map(|n| Json::str(*n)).collect(),
                                ),
                            ),
                            (
                                "columns",
                                Json::Arr(
                                    q.result
                                        .schema()
                                        .names()
                                        .iter()
                                        .map(|n| Json::str(*n))
                                        .collect(),
                                ),
                            ),
                            ("rows", jnum(q.result.len())),
                        ])
                    })
                    .collect();
                Ok(obj(vec![("queries", Json::Arr(listed))]))
            }),
            Op::Feedback => self.with_session(req, deadline, |s| {
                let accept = req.usize_param("accept").map_err(bad)?;
                let reject: Vec<usize> = match req.body.get("reject") {
                    Some(v) if v.is_arr() => v
                        .items()
                        .map(|v| {
                            v.as_f64().map(|n| n as usize).ok_or_else(|| {
                                (ErrorKind::BadRequest, "\"reject\" must hold numbers".to_string())
                            })
                        })
                        .collect::<Result<_, _>>()?,
                    None => (0..s.last_queries.len()).filter(|&i| i != accept).collect(),
                    Some(_) => {
                        let msg = "\"reject\" must be an array".to_string();
                        return Err((ErrorKind::BadRequest, msg).into());
                    }
                };
                let accepted = s.last_queries.get(accept).cloned().ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no query at index {accept}"))
                })?;
                let rejected: Vec<_> = reject
                    .iter()
                    .filter(|&&i| i != accept)
                    .filter_map(|&i| s.last_queries.get(i))
                    .collect();
                let constraints = s.engine.prefer_query(&accepted, &rejected);
                Ok(obj(vec![("constraints", jnum(constraints))]))
            }),
            Op::Explain => self.with_session(req, deadline, |s| {
                let row = req.usize_param("row").map_err(bad)?;
                let tab = s.engine.workspace().active();
                let e = explain::explain_row(tab, row).ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no row {row} in the active tab"))
                })?;
                Ok(obj(vec![
                    ("queries", jstrings(&e.queries)),
                    ("sources", jstrings(&e.sources)),
                    ("alternatives", jnum(e.alternatives.len())),
                    ("text", Json::str(&explain::render(&e))),
                ]))
            }),
            Op::Export => self.with_session(req, deadline, |s| {
                let format = req.str_param("format").map_err(bad)?;
                let tab = s.engine.workspace().active();
                let data = match format {
                    "csv" => export::to_csv(tab),
                    "json" => export::to_json(tab),
                    "xml" => export::to_xml(tab),
                    other => {
                        return Err((
                            ErrorKind::BadRequest,
                            format!("unknown format {other:?} (csv|json|xml)"),
                        )
                            .into())
                    }
                };
                Ok(obj(vec![("format", Json::str(format)), ("data", Json::str(&data))]))
            }),
            Op::Render => self.with_session(req, deadline, |s| {
                Ok(obj(vec![("text", Json::str(&s.engine.render()))]))
            }),
            Op::Health => self.with_session(req, deadline, |s| {
                let snaps = s.engine.health_snapshots();
                let services: Vec<Json> = snaps.iter().map(jhealth).collect();
                Ok(obj(vec![
                    ("services", Json::Arr(services)),
                    (
                        "tripped",
                        jstrings(&s.engine.health().tripped_services()),
                    ),
                    (
                        "retries",
                        Json::Num(s.engine.health().total_retries() as f64),
                    ),
                    ("trips", Json::Num(s.engine.health().total_trips() as f64)),
                    (
                        "backoff_virtual_ms",
                        Json::Num(s.engine.health().backoff_virtual_ms() as f64),
                    ),
                ]))
            }),
            Op::SessionStats => self.with_session(req, deadline, |s| {
                let cache = s.engine.query_cache_stats();
                Ok(obj(vec![
                    (
                        "query_cache",
                        obj(vec![
                            ("hits", Json::Num(cache.hits as f64)),
                            ("misses", Json::Num(cache.misses as f64)),
                            ("invalidations", Json::Num(cache.invalidations as f64)),
                        ]),
                    ),
                    ("undo_depth", jnum(s.engine.undo_depth())),
                    ("relations", jnum(s.engine.catalog().relation_names().len())),
                    ("graph_version", Json::Num(s.engine.graph().version() as f64)),
                    (
                        "health",
                        obj(vec![
                            ("retries", Json::Num(s.engine.health().total_retries() as f64)),
                            ("trips", Json::Num(s.engine.health().total_trips() as f64)),
                            (
                                "backoff_virtual_ms",
                                Json::Num(s.engine.health().backoff_virtual_ms() as f64),
                            ),
                        ]),
                    ),
                ]))
            }),
            Op::LearnTransform => self.with_session(req, deadline, |s| {
                let from = req.str_param("from").map_err(bad)?;
                let from_col = req.str_param("from_col").map_err(bad)?;
                let to = req.str_param("to").map_err(bad)?;
                let to_col = req.str_param("to_col").map_err(bad)?;
                let pairs = rows_param(req, "examples")?;
                let examples: Vec<(String, String)> = pairs
                    .iter()
                    .map(|p| match p.as_slice() {
                        [i, o] => Ok((i.clone(), o.clone())),
                        _ => Err((
                            ErrorKind::BadRequest,
                            "\"examples\" must hold [input, output] pairs".to_string(),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                let learned = s
                    .engine
                    .learn_transform(from, from_col, to, to_col, &examples)
                    .ok_or_else(|| {
                        (
                            ErrorKind::BadRequest,
                            format!(
                                "no consistent transform from {from}.{from_col} \
                                 to {to}.{to_col}"
                            ),
                        )
                    })?;
                Ok(jtransform(&learned))
            }),
            Op::ListTransforms => self.with_session(req, deadline, |s| {
                let listed: Vec<Json> =
                    s.engine.list_transforms().iter().map(jtransform).collect();
                Ok(obj(vec![("transforms", Json::Arr(listed))]))
            }),
            // Answered before admission; dispatch never sees them.
            Op::Shutdown | Op::Invalid => Err((
                ErrorKind::Internal,
                format!("{:?} must not reach dispatch", req.op),
            )
                .into()),
        }
    }

    fn create_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        // With a `"world"` object the session is a copy-on-write overlay
        // over the memoized shared base for that config — kilobytes of
        // marginal state instead of a rebuilt corpus. Without one it is
        // a flat, private engine (the pre-CoW behavior, byte-for-byte).
        let exists =
            |_| refuse(ErrorKind::SessionExists, format!("session {name:?} already exists"));
        match req.body.get("world") {
            None => {
                self.registry.create(name, CopyCat::new()).map_err(exists)?;
                Ok(obj(vec![("session", Json::str(name))]))
            }
            Some(w) if w.is_obj() => {
                let config = world_config(w)?;
                let base = self.shared_world(&config);
                let session =
                    self.registry.create(name, CopyCat::with_base(&base)).map_err(exists)?;
                session.state.lock().world = Some(base.world());
                Ok(obj(vec![
                    ("session", Json::str(name)),
                    (
                        "world",
                        obj(vec![
                            ("seed", Json::Num(config.seed as f64)),
                            ("venues", jnum(config.venues)),
                            ("shared", Json::Bool(true)),
                        ]),
                    ),
                ]))
            }
            Some(_) => {
                Err((ErrorKind::BadRequest, "\"world\" must be an object".to_string()).into())
            }
        }
    }

    fn load_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        let snapshot = req.str_param("snapshot").map_err(bad)?;
        let engine = CopyCat::load_session_json(snapshot)
            .map_err(|e| (ErrorKind::BadRequest, format!("bad snapshot: {e}")))?;
        let relations = engine.catalog().relation_names().len();
        self.registry.replace(name, engine);
        Ok(obj(vec![
            ("session", Json::str(name)),
            ("relations", jnum(relations)),
        ]))
    }

    fn close_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        self.registry
            .remove(name)
            .map_err(|_| refuse(ErrorKind::NoSuchSession, format!("no session named {name:?}")))?;
        Ok(obj(vec![("closed", Json::str(name))]))
    }

    fn stats(&self) -> Json {
        let mut cache = copycat_core::CacheStats::default();
        let mut sessions = 0usize;
        let (mut retries, mut trips, mut backoff_ms, mut tripped) = (0u64, 0u64, 0u64, 0usize);
        self.registry.for_each(|s| {
            let state = s.state.lock();
            let c = state.engine.query_cache_stats();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.invalidations += c.invalidations;
            let h = state.engine.health();
            retries += h.total_retries();
            trips += h.total_trips();
            backoff_ms += h.backoff_virtual_ms();
            tripped += h.tripped_services().len();
            sessions += 1;
        });
        Json::obj(vec![
            ("server".to_string(), self.metrics.snapshot_json()),
            ("sessions".to_string(), jnum(sessions)),
            (
                "query_cache".to_string(),
                Json::obj(vec![
                    ("hits".to_string(), Json::Num(cache.hits as f64)),
                    ("misses".to_string(), Json::Num(cache.misses as f64)),
                    (
                        "invalidations".to_string(),
                        Json::Num(cache.invalidations as f64),
                    ),
                ]),
            ),
            (
                "health".to_string(),
                Json::obj(vec![
                    ("retries".to_string(), Json::Num(retries as f64)),
                    ("trips".to_string(), Json::Num(trips as f64)),
                    (
                        "backoff_virtual_ms".to_string(),
                        Json::Num(backoff_ms as f64),
                    ),
                    ("tripped_services".to_string(), jnum(tripped)),
                ]),
            ),
        ])
    }
}

fn open_doc(req: &Request, s: &mut SessionState) -> OpResult {
    let name = req.str_param("name").map_err(bad)?;
    let headers = req.strings_param("headers").map_err(bad)?;
    let rows = rows_param(req, "rows")?;
    let sheet = contact_sheet(name, &headers, rows);
    let DocumentId(id) = s.engine.open(Document::Sheet(sheet));
    Ok(obj(vec![("doc", jnum(id as usize))]))
}

fn paste(req: &Request, s: &mut SessionState) -> OpResult {
    let doc = req.usize_param("doc").map_err(bad)?;
    let doc = u32::try_from(doc)
        .map_err(|_| (ErrorKind::BadRequest, format!("no document {doc}: ids fit in u32")))?;
    let values = req.strings_param("values").map_err(bad)?;
    let suggested = s.engine.paste_example(DocumentId(doc), &values);
    Ok(obj(vec![("suggested", jnum(suggested))]))
}

/// The `{"seed", "venues"}` world config shared by `create_session`'s
/// `"world"` object and `register_world`; more than
/// [`MAX_WORLD_VENUES`] venues is a `bad_request`.
fn world_config(params: ZRef<'_>) -> Result<WorldConfig, (ErrorKind, String)> {
    let mut config = WorldConfig::default();
    if let Some(seed) = params.field("seed").as_f64() {
        config.seed = seed as u64;
    }
    if let Some(venues) = params.field("venues").as_f64() {
        if venues > MAX_WORLD_VENUES as f64 {
            return Err((
                ErrorKind::BadRequest,
                format!("\"venues\" must be at most {MAX_WORLD_VENUES}"),
            ));
        }
        config.venues = (venues as usize).max(1);
    }
    Ok(config)
}

fn register_world(req: &Request, s: &mut SessionState) -> OpResult {
    let config = world_config(req.body)?;
    let world = Arc::new(World::generate(&config));
    s.engine.register_world_services(&world);
    let services: Vec<String> = s.engine.catalog().service_names();
    // The generated rows go back to the client so a remote tester can
    // paste world-consistent data without sharing memory with us.
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    s.world = Some(world);
    Ok(obj(vec![
        ("services", jstrings(&services)),
        ("shelters", jrows(&shelters)),
        ("contacts", jrows(&contacts)),
    ]))
}

fn register_flaky(req: &Request, s: &mut SessionState) -> OpResult {
    let name = req.str_param("service").map_err(bad)?;
    let failure_rate = req.body.field("failure_rate").as_f64().unwrap_or(0.0);
    let latency_ms = req.body.field("latency_ms").as_f64().unwrap_or(0.0).max(0.0) as u64;
    let seed = req.body.field("seed").as_f64().unwrap_or(1.0) as u64;
    let inner: Arc<dyn Service> = s
        .engine
        .catalog()
        .service(name)
        .ok_or_else(|| (ErrorKind::BadRequest, format!("no service named {name:?}")))?;
    // An equivalent replacement source can be registered alongside: the
    // *un-faulted* service under an alias, available for failover.
    let replacement = req.body.field("replacement").as_str().map(str::to_string);
    if let Some(alias) = &replacement {
        s.engine
            .register_service(Arc::new(Renamed::new(alias.clone(), Arc::clone(&inner))));
    }
    let flaky = Arc::new(Flaky::new(inner, failure_rate, latency_ms, seed));
    // With `retries` (or breaker tuning) the fault-injected service is
    // additionally wrapped in the retry + circuit-breaker layer; its
    // backoff is charged as virtual latency via the health registry.
    let retries = req.body.field("retries").as_f64().map(|v| v as u32);
    let threshold = req.body.field("breaker_threshold").as_f64().map(|v| v as u32);
    let cooldown = req.body.field("cooldown_ms").as_f64().map(|v| v as u64);
    let resilient = retries.is_some() || threshold.is_some() || cooldown.is_some();
    if resilient {
        let mut policy = RetryPolicy::default();
        if let Some(r) = retries {
            policy.max_attempts = r.max(1);
        }
        if let Some(t) = threshold {
            policy.breaker_threshold = t.max(1);
        }
        if let Some(c) = cooldown {
            policy.cooldown_ms = c;
        }
        s.engine
            .register_resilient(Arc::clone(&flaky) as Arc<dyn Service>, policy);
    } else {
        s.engine.register_service(Arc::clone(&flaky) as Arc<dyn Service>);
    }
    s.probes.push(flaky);
    Ok(obj(vec![
        ("wrapped", Json::str(name)),
        ("latency_ms", Json::Num(latency_ms as f64)),
        ("failure_rate", Json::Num(failure_rate)),
        ("resilient", Json::Bool(resilient)),
        (
            "replacement",
            replacement.map_or(Json::Null, |r| Json::str(&r)),
        ),
    ]))
}

fn rows_param(req: &Request, key: &str) -> Result<Vec<Vec<String>>, (ErrorKind, String)> {
    let arr = req
        .body
        .get(key)
        .ok_or_else(|| bad(JsonError::new(format!("missing field {key:?}"))))?;
    if !arr.is_arr() {
        return Err((ErrorKind::BadRequest, format!("{key:?} must be an array")));
    }
    arr.items()
        .map(|row| {
            if !row.is_arr() {
                return Err((
                    ErrorKind::BadRequest,
                    format!("{key:?} must hold arrays of strings"),
                ));
            }
            row.items()
                .map(|c| {
                    c.as_str().map(str::to_string).ok_or_else(|| {
                        (ErrorKind::BadRequest, format!("{key:?} cells must be strings"))
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_util::zjson::ZDoc;

    #[test]
    fn a_panicking_op_answers_internal_and_frees_its_slot() {
        let server = Server::new(ServerConfig { workers: 1, queue_depth: 1, shards: 1 });
        let mut doc = ZDoc::new();
        let req = Request::parse(&mut doc, r#"{"id":1,"op":"ping"}"#).unwrap();
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let (resp, outcome) = server.execute(&req, |_| panic!("injected op failure"));
        std::panic::set_hook(prev_hook);
        let parsed = Json::parse(&resp).unwrap();
        assert_eq!(parsed["error"]["kind"].as_str(), Some("internal"), "{resp}");
        assert_eq!(outcome, Outcome::Failed);
        // One run slot: had the panic leaked it, this request would wait
        // out its deadline instead of running.
        let next = server.handle(r#"{"id":2,"op":"ping","deadline_ms":1000}"#);
        assert_eq!(next["ok"].as_bool(), Some(true), "{next}");
        assert_eq!(server.metrics().grand_responses(), server.metrics().grand_total());
    }
}
