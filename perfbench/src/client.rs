//! One closed-loop client: sends a request line, waits for the reply,
//! records the latency, and — in a traced run — times the layers the
//! request crosses.
//!
//! The layer timings of a traced run come from *twins*: sessions on
//! separate probe servers that receive exactly the primary's request
//! stream and so hold identical state. The primary call is timed as it
//! is; the twins re-run the same request piecewise through the layers'
//! public functions. The engine twin executes the engine-bound ops
//! (autocomplete, paste, commit_source, column_suggestions) by calling
//! the engine directly, exactly as the server's dispatch does, so its
//! state never drifts from the primary's; the shard twin (router
//! workloads only) times the bare `Server::handle_line` that the
//! router's journaling wraps.

use crate::proto::{self, Reply};
use crate::stats::Samples;
use crate::trace::Tracer;
use copycat_core::autocomplete::search_trees_banned;
use copycat_core::CopyCat;
use copycat_document::DocumentId;
use copycat_graph::NodeId;
use copycat_query::exec::execute_reported;
use copycat_serve::{Op, Request, Router, Server};
use copycat_util::zjson::ZDoc;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Where a client's requests go.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    Server(&'a Server),
    Router(&'a Router),
}

impl Target<'_> {
    pub fn handle_line(&self, line: &str) -> String {
        match self {
            Target::Server(s) => s.handle_line(line),
            Target::Router(r) => r.handle_line(line),
        }
    }
}

/// The probe servers of a traced run.
#[derive(Clone, Copy)]
pub struct Twins<'a> {
    pub engine: &'a Server,
    /// Present when the primary is a router.
    pub shard: Option<&'a Server>,
}

/// Client-observed outcomes of the timed window.
#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The block (time slice or round) new samples belong to. Metrics
    /// are computed per block and the median across blocks is reported,
    /// so a disturbance confined to one block does not move them.
    pub block: usize,
    /// Latency samples in µs by class, then block: `request` (every
    /// request), `autocomplete`, `read` (render, session_stats,
    /// export), `mutation` (ops the router journals), `paste`.
    pub us: BTreeMap<&'static str, Vec<Samples>>,
    /// Whole integration tasks, ms.
    pub task_ms: Samples,
}

impl Recorder {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    fn record(&mut self, op: Op, us: f64) {
        self.attempted += 1;
        let block = self.block;
        let mut put = |class| {
            let blocks = self.us.entry(class).or_default();
            if blocks.len() <= block {
                blocks.resize_with(block + 1, Samples::default);
            }
            blocks[block].push(us);
        };
        put("request");
        match op {
            Op::Autocomplete => put("autocomplete"),
            Op::Render | Op::SessionStats | Op::Export => put("read"),
            _ => {}
        }
        if op == Op::Paste {
            put("paste");
        }
        if op.mutates() {
            put("mutation");
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        for (k, blocks) in other.us {
            let mine = self.us.entry(k).or_default();
            if mine.len() < blocks.len() {
                mine.resize_with(blocks.len(), Samples::default);
            }
            for (m, b) in mine.iter_mut().zip(&blocks) {
                m.extend(b);
            }
        }
        self.task_ms.extend(&other.task_ms);
    }

    /// Only the failures, each counted as one attempt (set-up requests
    /// are checked but not timed).
    pub fn failures_only(self) -> Recorder {
        Recorder {
            attempted: self.failed,
            failed: self.failed,
            first_failure: self.first_failure,
            ..Recorder::default()
        }
    }

    /// Heap bytes held by the recorded samples, so that heap figures
    /// can leave out the benchmark's own bookkeeping.
    pub fn heap_bytes(&self) -> u64 {
        let blocks: u64 = self.us.values().flatten().map(Samples::heap_bytes).sum();
        blocks + self.task_ms.heap_bytes()
    }

    /// Every sample of a class, all blocks together.
    pub fn class(&self, name: &str) -> Samples {
        let mut all = Samples::default();
        for b in self.us.get(name).into_iter().flatten() {
            all.extend(b);
        }
        all
    }

    /// The median across blocks of `f` applied to each non-empty block
    /// of a class; 0 when the class has no samples.
    pub fn per_block(&self, name: &str, f: impl Fn(usize, &Samples) -> f64) -> f64 {
        let mut values = Samples::default();
        for (i, b) in self.us.get(name).into_iter().flatten().enumerate() {
            if b.len() > 0 {
                values.push(f(i, b));
            }
        }
        values.median()
    }
}

/// Per-layer quantities gathered by a traced run (ns unless noted).
#[derive(Default)]
pub struct Layers {
    pub q: BTreeMap<&'static str, Samples>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.q.entry(name).or_default().push(v);
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.q {
            self.q.entry(k).or_default().extend(&v);
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.q.get(name).map_or(0.0, Samples::mean)
    }
}

pub struct Client<'a> {
    pub target: Target<'a>,
    pub twins: Option<Twins<'a>>,
    pub tracer: Option<Tracer>,
    /// When set, every request's allocation count is recorded by class
    /// instead of tracing it (run single-threaded for exact counts).
    pub allocs: Option<BTreeMap<&'static str, Samples>>,
    pub rec: Recorder,
    pub layers: Layers,
    next_id: u64,
    doc: ZDoc,
}

impl<'a> Client<'a> {
    pub fn new(target: Target<'a>, twins: Option<Twins<'a>>, tracer: Option<Tracer>) -> Self {
        Client {
            target,
            twins,
            tracer,
            allocs: None,
            rec: Recorder::default(),
            layers: Layers::default(),
            next_id: 1,
            doc: ZDoc::new(),
        }
    }

    /// Send an untimed set-up request to the target and every twin.
    pub fn setup(&mut self, op: &str, session: &str, params: &str) -> String {
        let line = proto::line(0, op, session, params);
        self.mirror(&line);
        self.target.handle_line(&line)
    }

    /// Keep the twins' state equal to the primary's.
    fn mirror(&self, line: &str) {
        if let Some(t) = self.twins {
            t.engine.handle_line(line);
            if let Some(shard) = t.shard {
                shard.handle_line(line);
            }
        }
    }

    /// Send one timed request and wait for its reply. A reply that is
    /// not `ok` or echoes the wrong id is counted as failed here; the
    /// caller checks the content of `ok` replies.
    pub fn send(&mut self, op: Op, session: &str, params: &str) -> (String, Reply) {
        let id = self.next_id;
        self.next_id += 1;
        let line = proto::line(id, op.as_str(), session, params);
        let (resp, us) = if self.allocs.is_some() {
            self.counted(op, &line)
        } else if self.tracer.is_some() {
            self.traced(id, &line)
        } else {
            let start = Instant::now();
            let resp = self.target.handle_line(&line);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            self.mirror(&line);
            (resp, us)
        };
        self.rec.record(op, us);
        let reply = proto::reply(&resp);
        if !reply.ok || reply.id != Some(id) {
            self.rec
                .fail(format!("{} on {session}: {resp}", op.as_str()));
        }
        (resp, reply)
    }

    fn counted(&mut self, op: Op, line: &str) -> (String, f64) {
        let window = crate::ALLOC.count();
        let start = Instant::now();
        let resp = self.target.handle_line(line);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        let n = window.allocs() as f64;
        drop(window);
        let class = match op {
            Op::Autocomplete => Some("alloc.autocomplete"),
            Op::Render => Some("alloc.render"),
            Op::Paste => Some("alloc.paste"),
            Op::Feedback => Some("alloc.feedback"),
            _ => None,
        };
        if let (Some(class), Some(map)) = (class, self.allocs.as_mut()) {
            map.entry(class).or_default().push(n);
        }
        (resp, us)
    }

    fn traced(&mut self, id: u64, line: &str) -> (String, f64) {
        let twins = self.twins.expect("a traced client has twins");
        let target = self.target;
        let Client {
            tracer,
            doc,
            layers,
            ..
        } = self;
        let tr = tracer.as_mut().expect("traced");
        let root = tr.open("request", id, None);
        let (parsed, _) = tr.time("protocol.parse", root, || Request::parse(doc, line).is_ok());
        let (resp, primary_ns, handle_ns) = match target {
            Target::Server(s) => {
                let (resp, ns) = tr.time("server.handle", root, || s.handle_line(line));
                (resp, ns, ns)
            }
            Target::Router(r) => {
                let (resp, router_ns) = tr.time("router.handle", root, || r.handle_line(line));
                let shard = twins.shard.expect("router workloads have a shard twin");
                let (_, shard_ns) = tr.time("server.handle", root, || shard.handle_line(line));
                (resp, router_ns, shard_ns)
            }
        };
        let mut probed = None;
        if parsed {
            if let Some(req) = Request::rejoin(doc, line) {
                if target_is_router(target) && req.op.mutates() {
                    layers.push("router.journal", primary_ns as f64 - handle_ns as f64);
                }
                probed = engine_probe(tr, root, twins.engine, &req, layers);
            }
        }
        tr.close(root);
        match probed {
            Some(engine_ns) => layers.push("server.overhead", handle_ns as f64 - engine_ns as f64),
            None => {
                twins.engine.handle_line(line);
            }
        }
        (resp, primary_ns as f64 / 1e3)
    }
}

fn target_is_router(t: Target<'_>) -> bool {
    matches!(t, Target::Router(_))
}

/// The source-graph nodes of the relations holding each value: the
/// terminal rule `CopyCat::discover_queries_for_tuple` applies (first
/// relation in catalog order that holds the value).
fn terminals_of(engine: &CopyCat, values: &[&str]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for v in values {
        for name in engine.catalog().relation_names() {
            let Some(rel) = engine.catalog().relation(&name) else {
                continue;
            };
            if rel
                .tuples()
                .iter()
                .any(|t| t.values.iter().any(|c| c.as_text() == *v))
            {
                if let Some(node) = engine.graph().node_by_name(&name) {
                    if !out.contains(&node) {
                        out.push(node);
                    }
                }
                break;
            }
        }
    }
    out
}

/// Run an engine-bound request on the engine twin through the layers'
/// public functions, under spans. Returns the engine call's duration
/// (ns), or `None` when the op is not engine-bound (the caller then
/// forwards the line to the twin unchanged).
fn engine_probe(
    tr: &mut Tracer,
    root: usize,
    twin: &Server,
    req: &Request<'_>,
    layers: &mut Layers,
) -> Option<u64> {
    if !matches!(
        req.op,
        Op::Autocomplete | Op::Paste | Op::CommitSource | Op::ColumnSuggestions
    ) {
        return None;
    }
    let name = req.session?;
    let lock = tr.open("registry.lock_wait", tr.spans[root].request, Some(root));
    let session = twin.registry().get(name).ok()?;
    let mut st = session.state.lock();
    layers.push("registry.lock_wait", tr.close(lock) as f64);
    let engine_ns = match req.op {
        Op::Autocomplete => {
            let values = req.strings_param("values").ok()?;
            let k = req.body.field("k").as_f64().map_or(3, |v| v as usize);
            let before = st.engine.query_cache_stats();
            let (queries, discover_ns) = tr.time("engine.discover", root, || {
                st.engine.discover_queries_for_tuple(&values, k)
            });
            let after = st.engine.query_cache_stats();
            layers.cache_hits += after.hits - before.hits;
            layers.cache_misses += after.misses - before.misses;
            let mut search_ns = 0;
            if after.misses > before.misses {
                let terminals = terminals_of(&st.engine, &values);
                let graph = st.engine.graph();
                search_ns = tr
                    .time("steiner.search", root, || {
                        black_box(search_trees_banned(graph, &terminals, k, &[]))
                    })
                    .1;
            }
            let (mut exec_ns, mut rows) = (0, 0);
            for q in &queries {
                let label = format!("Q:{}", q.plan);
                let catalog = st.engine.catalog();
                let (out, ns) = tr.time("exec.run", root, || {
                    black_box(execute_reported(&q.plan, catalog, &label))
                });
                exec_ns += ns;
                rows += out.map_or(0, |(rel, _)| rel.len());
            }
            layers.push("engine.discover", discover_ns as f64);
            layers.push("steiner.search", search_ns as f64);
            layers.push("exec.run", exec_ns as f64);
            layers.push("exec.rows_out", rows as f64);
            layers.push(
                "engine.terminals",
                discover_ns as f64 - search_ns as f64 - exec_ns as f64,
            );
            st.last_queries = queries;
            discover_ns
        }
        Op::Paste => {
            let doc = req.usize_param("doc").ok()?;
            let values = req.strings_param("values").ok()?;
            let (_, ns) = tr.time("extract.paste", root, || {
                st.engine.paste_example(DocumentId(doc as u32), &values)
            });
            layers.push("extract.paste", ns as f64);
            ns
        }
        Op::CommitSource => {
            let source = req.str_param("name").ok()?;
            let (_, ns) = tr.time("assoc.commit", root, || st.engine.commit_source(source));
            layers.push("assoc.commit", ns as f64);
            ns
        }
        _ => {
            let (suggestions, ns) =
                tr.time("suggest.columns", root, || st.engine.column_suggestions());
            st.last_suggestions = suggestions;
            layers.push("suggest.columns", ns as f64);
            ns
        }
    };
    Some(engine_ns)
}
