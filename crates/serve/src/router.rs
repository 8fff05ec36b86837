//! Durable sessions behind a consistent-hash shard router.
//!
//! The [`Router`] fronts N in-process [`Server`] shards. Session names
//! hash onto a vnode ring, so each tenant consistently lands on one
//! shard; adding shards moves only the sessions whose ring interval
//! changed. On top of placement it layers *durability by replay*:
//!
//! * Every **effectful** request (a class that [`Op::mutates`], whose
//!   [`Outcome`] says it ran) is journaled to the session's
//!   [`SessionStore`] — an append-only WAL plus periodic snapshots —
//!   **before the response is released** to the caller. A response you
//!   received is a response that survives a crash (when
//!   `sync_every == 1`); effects whose ack never reached you may be
//!   lost, which is exactly the at-most-once contract a client must
//!   already handle.
//! * Recovery ([`Router::recover`]) loads each session's snapshot,
//!   replays the WAL tail through the owning shard, and resumes. The
//!   protocol is deterministic by construction (responses carry no
//!   timing; engines are seeded), so a replayed session is
//!   *byte-identical* to the one that crashed — the property the
//!   kill-and-recover tests pin.
//! * The journaled line is the request body with `deadline_ms`
//!   stripped: a deadline raced against the wall clock at execution
//!   time must not race again (and possibly differently) at replay.
//!
//! The snapshot payload is the session's *replay checkpoint*: the full
//! journaled history, each request line followed by `'\n'`
//! (`logged_line` writes canonical JSON, which escapes every newline
//! inside a string, so a line never contains a raw one). The journal
//! keeps its history in exactly that form and the store frames it like
//! any WAL record, so a checkpoint is written verbatim and split back
//! into lines on recovery — never encoded or parsed as JSON. That makes
//! snapshot+tail recovery and live migration the same operation —
//! [`Router::migrate_session`] drains the session (its per-session
//! journal lock serializes every request), checkpoints, replays the
//! checkpoint's lines on the target shard, and repoints the ring
//! override.
//!
//! Lock order: the per-session journal lock is taken *before* the
//! shard executes, and held across execute → journal append → fsync.
//! That single lock guarantees WAL order equals execution order and
//! that no second request for the same session can be acked ahead of
//! an earlier one's durability. Different sessions proceed in
//! parallel — the lock is per-name.

use crate::protocol::{ok_response, with_request, Op, Request};
use crate::server::{Outcome, Server, ServerConfig};
use copycat_store::{Fs, RecoveryReport, SessionStore, StoreStats};
use copycat_util::hash::{FxHashMap, FxHasher};
use copycat_util::json::{self, Json};
use copycat_util::sync::Mutex;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing and durability knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// In-process serve shards.
    pub shards: usize,
    /// Per-shard server sizing.
    pub server: ServerConfig,
    /// Root directory for session stores; `None` = ephemeral (no
    /// durability, placement and migration still work).
    pub store_root: Option<PathBuf>,
    /// Snapshot + compact the WAL after this many records since the
    /// last checkpoint.
    pub snapshot_every: u64,
    /// Group-commit width: fsync after this many journaled records.
    /// `1` = strict ack durability (every acked effect survives a
    /// crash); larger values trade the tail of un-synced acks for
    /// fewer fsyncs.
    pub sync_every: u64,
    /// Filesystem every store I/O goes through: [`Fs::real`] in
    /// production, a seeded [`copycat_store::SimFs`] in fault tests.
    pub fs: Fs,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            server: ServerConfig::default(),
            store_root: None,
            snapshot_every: 64,
            sync_every: 1,
            fs: Fs::real(),
        }
    }
}

impl RouterConfig {
    /// An ephemeral (no-durability) router with `shards` shards.
    pub fn ephemeral(shards: usize) -> RouterConfig {
        RouterConfig { shards, ..RouterConfig::default() }
    }

    /// A durable router journaling under `root`.
    pub fn durable(shards: usize, root: impl Into<PathBuf>) -> RouterConfig {
        RouterConfig { shards, store_root: Some(root.into()), ..RouterConfig::default() }
    }
}

/// Ring vnodes per shard (more = smoother balance).
const VNODES: usize = 16;

/// Snapshot + compact once this many bytes have been synced to a
/// session's WAL since its last checkpoint — the record-size-blind
/// bound on log growth (`snapshot_every` alone lets huge records grow
/// the log without limit).
const MAX_WAL_BYTES: u64 = 1 << 20;

/// One session's durability state, guarded as a unit by its own mutex:
/// holding it serializes execute → append → sync for that session.
struct SessionJournal {
    /// Every journaled request line since session creation, each
    /// followed by `'\n'` — the replay checkpoint, and verbatim the
    /// snapshot payload.
    lines: String,
    /// The on-disk WAL + snapshot pair (`None` on ephemeral routers).
    store: Option<SessionStore>,
    /// Journaled records not yet fsynced (group commit).
    pending_sync: u64,
}

/// What a [`Router::migrate_session`] call moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Source shard index.
    pub from: usize,
    /// Target shard index.
    pub to: usize,
    /// Checkpoint length replayed onto the target.
    pub replayed: usize,
}

/// A consistent-hash router over N serve shards with per-session
/// WAL + snapshot durability. See the module docs for the contract.
pub struct Router {
    shards: Vec<Server>,
    /// Sorted `(ring point, shard)` pairs.
    ring: Vec<(u64, usize)>,
    /// Migration overrides: session name → shard, consulted before
    /// the ring.
    placed: Mutex<FxHashMap<String, usize>>,
    sessions: Mutex<FxHashMap<String, Arc<Mutex<SessionJournal>>>>,
    config: RouterConfig,
    migrations: AtomicU64,
    replayed_records: AtomicU64,
    /// Sessions whose recovery failed outright (state left on disk,
    /// session not resumed).
    recovery_failures: AtomicU64,
    /// Journal fsyncs that returned an error (the batch stays buffered
    /// and retries with the next record).
    sync_failures: AtomicU64,
    /// Checkpoint installs that returned an error (the WAL keeps
    /// growing until one succeeds).
    snapshot_failures: AtomicU64,
    /// Per-session recovery reports from the last [`Router::recover`]
    /// (session name → typed loss accounting); `stats()` totals them.
    recovery_reports: Mutex<Vec<(String, RecoveryReport)>>,
}

fn hash64(s: &str) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

fn build_ring(shards: usize) -> Vec<(u64, usize)> {
    let mut ring: Vec<(u64, usize)> = (0..shards)
        .flat_map(|s| (0..VNODES).map(move |v| (hash64(&format!("shard-{s}/vnode-{v}")), s)))
        .collect();
    ring.sort_unstable();
    ring
}

/// The journaled form of a request: its body with the `deadline_ms`
/// envelope stripped, so replay cannot re-race the wall clock. The
/// line is re-serialized canonically (same bytes `Json` would emit).
fn logged_line(req: &Request) -> String {
    let mut out = String::with_capacity(req.body.raw().len());
    if req.body.is_obj() {
        out.push('{');
        let mut first = true;
        for (k, v) in req.body.entries() {
            if k == "deadline_ms" {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            json::write_escaped(&mut out, k);
            out.push(':');
            v.write(&mut out);
        }
        out.push('}');
    } else {
        req.body.write(&mut out);
    }
    out
}

/// The journaled lines a checkpoint holds, in journal order.
fn checkpoint_lines(checkpoint: &str) -> impl Iterator<Item = &str> {
    checkpoint.split_terminator('\n')
}

/// On-disk directory for one session: a sanitized prefix for humans
/// plus the full-name hash for uniqueness (two names that sanitize
/// identically still get distinct directories).
fn session_dir(root: &Path, name: &str) -> PathBuf {
    let mut sanitized: String = name
        .chars()
        .take(40)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if sanitized.is_empty() {
        sanitized.push('s');
    }
    root.join(format!("{sanitized}-{:08x}", hash64(name) & 0xffff_ffff))
}

/// Sidecar recording the raw session name (directory names are lossy).
const NAME_FILE: &str = "name";

impl Router {
    /// A router with fresh shards and an empty ring placement.
    pub fn new(config: RouterConfig) -> Router {
        let shards = (0..config.shards.max(1))
            .map(|_| Server::new(config.server.clone()))
            .collect::<Vec<_>>();
        let ring = build_ring(shards.len());
        Router {
            shards,
            ring,
            placed: Mutex::new(FxHashMap::default()),
            sessions: Mutex::new(FxHashMap::default()),
            config,
            migrations: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
            recovery_failures: AtomicU64::new(0),
            sync_failures: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            recovery_reports: Mutex::new(Vec::new()),
        }
    }

    /// Rebuild a router from whatever `config.store_root` holds: for
    /// every session directory, load the newest verifiable snapshot
    /// generation, replay it plus the WAL tail through the owning
    /// shard, and resume with the store positioned to keep appending.
    /// Torn tails, quarantined interior records, and skipped snapshot
    /// generations are recorded per session (see
    /// [`recovery_reports`](Router::recovery_reports); `stats()` totals
    /// them), never fatal. A
    /// session whose recovery fails outright is skipped — its state
    /// stays on disk for inspection — and counted; one rotten tenant
    /// must not take the router down.
    pub fn recover(config: RouterConfig) -> std::io::Result<Router> {
        let router = Router::new(config);
        let Some(root) = router.config.store_root.clone() else {
            return Ok(router);
        };
        let fs = router.config.fs.clone();
        if !fs.exists(&root) {
            return Ok(router);
        }
        let mut dirs: Vec<PathBuf> = fs.list_dirs(&root)?;
        dirs.sort(); // deterministic recovery order
        for dir in dirs {
            let Ok(name_bytes) = fs.read(&dir.join(NAME_FILE)) else {
                continue; // not a session directory
            };
            let Ok(name) = String::from_utf8(name_bytes) else {
                continue;
            };
            // The sidecar itself can be a casualty (a short write left a
            // truncated name). The directory name embeds the full-name
            // hash, so a name that doesn't map back to its own directory
            // is corrupt — resurrecting the session under a wrong name
            // would be a silent identity swap. Count it as a failed
            // recovery and leave the state on disk.
            if session_dir(&root, &name) != dir {
                // relaxed: monotone recovery counter, stats() only
                router.recovery_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let (store, recovery) = match SessionStore::recover(&fs, &dir) {
                Ok(pair) => pair,
                Err(_) => {
                    // relaxed: monotone recovery counter, stats() only
                    router.recovery_failures.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let mut lines = recovery.snapshot.unwrap_or_default();
            for line in &recovery.tail {
                lines.push_str(line);
                lines.push('\n');
            }
            let shard = router.ring_shard(&name);
            let mut replayed = 0u64;
            for line in checkpoint_lines(&lines) {
                let _ = router.shards[shard].handle_line(line);
                replayed += 1;
            }
            router
                .replayed_records
                // relaxed: monotone recovery counter, stats() only
                .fetch_add(replayed, Ordering::Relaxed);
            router.recovery_reports.lock().push((name.clone(), recovery.report));
            router.sessions.lock().insert(
                name,
                Arc::new(Mutex::new(SessionJournal {
                    lines,
                    store: Some(store),
                    pending_sync: 0,
                })),
            );
        }
        Ok(router)
    }

    /// Per-session typed loss accounting from the last
    /// [`recover`](Router::recover), in recovery order.
    pub fn recovery_reports(&self) -> Vec<(String, RecoveryReport)> {
        self.recovery_reports.lock().clone()
    }

    /// The journaled history for one session — the exact replay
    /// checkpoint, in WAL order (test/verification introspection; the
    /// crash-storm sweep diffs this byte-for-byte against what it
    /// acked).
    pub fn journal_history(&self, name: &str) -> Option<Vec<String>> {
        let entry = { self.sessions.lock().get(name).map(Arc::clone) };
        entry.map(|e| checkpoint_lines(&e.lock().lines).map(str::to_string).collect())
    }

    /// The shards themselves (test/bench introspection).
    pub fn shard(&self, i: usize) -> &Server {
        &self.shards[i]
    }

    /// Where `name` currently lives: a migration override if one
    /// exists, otherwise its ring interval.
    pub fn shard_of(&self, name: &str) -> usize {
        if let Some(&s) = self.placed.lock().get(name) {
            return s;
        }
        self.ring_shard(name)
    }

    fn ring_shard(&self, name: &str) -> usize {
        let h = hash64(name);
        let i = match self.ring.binary_search(&(h, usize::MAX)) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }

    fn journal_entry(&self, name: &str) -> Arc<Mutex<SessionJournal>> {
        let mut map = self.sessions.lock();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(SessionJournal {
                lines: String::new(),
                store: None,
                pending_sync: 0,
            }))
        }))
    }

    /// Handle one request line, blocking until its response line —
    /// the same contract as [`Server::handle_line`], with placement
    /// and durability layered on. The line is parsed once, here; shards
    /// get the parsed request.
    pub fn handle_line(&self, line: &str) -> String {
        with_request(line, |parsed| match parsed {
            Ok(req) => self.route(&req),
            // Shard 0 gives the identical bad_request answer (and its
            // `invalid` metrics class).
            Err((id, msg)) => self.shards[0].answer_unparseable(id, &msg),
        })
    }

    fn route(&self, req: &Request<'_>) -> String {
        match req.op {
            Op::Shutdown => {
                for s in &self.shards {
                    let _ = s.handle_request(req);
                }
                return ok_response(
                    req.id,
                    &Json::obj(vec![("draining".into(), Json::Bool(true))]),
                );
            }
            Op::ListSessions => {
                let mut names: Vec<String> =
                    self.shards.iter().flat_map(|s| s.registry().names()).collect();
                names.sort();
                let listed = Json::Arr(names.iter().map(|n| Json::str(n.as_str())).collect());
                return ok_response(req.id, &Json::obj(vec![("sessions".into(), listed)]));
            }
            Op::Stats => return ok_response(req.id, &self.stats()),
            _ => {}
        }
        let Some(name) = req.session else {
            // Session-less ops (ping) are stateless; any shard answers.
            return self.shards[0].handle_request(req).0;
        };
        // Every session-scoped op serializes on the journal lock: it
        // orders the WAL like execution, and it is what `migrate_session`
        // drains against (reads included — a read racing a migration
        // must not land on the vacated shard).
        let journal = self.journal_entry(name);
        let mut j = journal.lock();
        let shard_idx = self.shard_of(name);
        let (resp, outcome) = self.shards[shard_idx].handle_request(req);
        if req.op == Op::CloseSession {
            if outcome == Outcome::Ok {
                // A durably *closed* session: remove its journal and
                // its on-disk state (idempotent), and forget overrides.
                if let Some(root) = &self.config.store_root {
                    let _ = SessionStore::destroy(&self.config.fs, &session_dir(root, name));
                }
                j.lines.clear();
                j.store = None;
                self.sessions.lock().remove(name);
                self.placed.lock().remove(name);
            }
            return resp;
        }
        if req.op.mutates() && outcome != Outcome::Refused {
            let logged = logged_line(req);
            j.lines.push_str(&logged);
            j.lines.push('\n');
            if let Some(root) = self.config.store_root.clone() {
                self.journal_durably(name, &root, &mut j, &logged);
            }
        }
        resp
    }

    /// Append one record to the session's store — creating it on the
    /// first record — group-commit per `sync_every`, and checkpoint
    /// per `snapshot_every`. Called with the journal lock held, after
    /// execution, before the response is released: the write-ahead is
    /// of the *acknowledgment*, not the execution.
    fn journal_durably(
        &self,
        name: &str,
        root: &Path,
        j: &mut SessionJournal,
        logged: &str,
    ) {
        if j.store.is_none() {
            let dir = session_dir(root, name);
            match SessionStore::create(&self.config.fs, &dir) {
                Ok(store) => {
                    // Durable on purpose: a crash that truncated an
                    // unsynced sidecar would leave the session's WAL
                    // unrecoverable (the name no longer hashes back to
                    // its directory). One fsync per session creation.
                    let _ = self.config.fs.write_sync(&dir.join(NAME_FILE), name.as_bytes());
                    j.store = Some(store);
                }
                Err(_) => return, // ephemeral fallback; never fail the request
            }
        }
        let Some(store) = j.store.as_mut() else { return };
        store.append(logged);
        j.pending_sync += 1;
        if j.pending_sync >= self.config.sync_every.max(1) {
            // On failure the batch stays in the WAL's group-commit
            // buffer and `pending_sync` stays up, so the very next
            // journaled record retries the whole batch.
            if store.sync().is_ok() {
                j.pending_sync = 0;
            } else {
                // relaxed: monotone failure counter, stats() only
                self.sync_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if store.records_since_snapshot() >= self.config.snapshot_every.max(1)
            || store.wal_bytes_since_snapshot() >= MAX_WAL_BYTES
        {
            if store.snapshot(&j.lines).is_ok() {
                j.pending_sync = 0;
            } else {
                // The WAL keeps every record; the next journaled
                // record re-trips the trigger and retries.
                // relaxed: monotone failure counter, stats() only
                self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// [`handle_line`](Router::handle_line) plus response parsing.
    pub fn handle(&self, line: &str) -> Json {
        // lint:allow(panic-path) test/script convenience on router-produced JSON, not a request path
        Json::parse(&self.handle_line(line)).expect("router responses are valid JSON")
    }

    /// Move a live session to another shard: **drain** (the journal
    /// lock blocks every request for this session), **checkpoint**
    /// (durable consistency point when a store exists), **transfer**
    /// (replay the checkpoint on the target shard), **resume** (repoint
    /// the placement override and release the lock).
    pub fn migrate_session(&self, name: &str, to: usize) -> Result<MigrationReport, String> {
        if to >= self.shards.len() {
            return Err(format!("no shard {to} (router has {})", self.shards.len()));
        }
        let journal = self.journal_entry(name);
        let mut guard = journal.lock();
        let j = &mut *guard;
        let from = self.shard_of(name);
        if j.lines.is_empty() {
            return Err(format!("no journaled session named {name:?}"));
        }
        if from == to {
            return Ok(MigrationReport { from, to, replayed: 0 });
        }
        if let Some(store) = j.store.as_mut() {
            store
                .snapshot(&j.lines)
                .map_err(|e| format!("checkpoint failed: {e}"))?;
            j.pending_sync = 0;
        }
        let mut replayed = 0;
        for line in checkpoint_lines(&j.lines) {
            let _ = self.shards[to].handle_line(line); // lint:allow(lock-order) false re-acquire from the Router::handle_line name merge; shards never lock router journals
            replayed += 1;
        }
        // Vacate the source copy. Direct registry call: migration is an
        // administrative move, not a journaled protocol event.
        let _ = self.shards[from].registry().remove(name);
        self.placed.lock().insert(name.to_string(), to);
        // relaxed: monotone stat; no reader reconciles it against state
        self.migrations.fetch_add(1, Ordering::Relaxed);
        Ok(MigrationReport { from, to, replayed })
    }

    /// Merged router-level stats: placement, durability accounting,
    /// and every shard's own metrics snapshot under `"shards"`.
    pub fn stats(&self) -> Json {
        let mut sessions = 0usize;
        let mut durable = StoreStats::default();
        let mut with_store = 0usize;
        {
            let map = self.sessions.lock();
            for entry in map.values() {
                let j = entry.lock();
                sessions += 1;
                if let Some(store) = &j.store {
                    let s = store.stats();
                    with_store += 1;
                    durable.appends += s.appends;
                    durable.snapshots += s.snapshots;
                    durable.sync.syncs += s.sync.syncs;
                    durable.sync.records_synced += s.sync.records_synced;
                    durable.sync.bytes_synced += s.sync.bytes_synced;
                    durable.sync.sync_micros += s.sync.sync_micros;
                }
            }
        }
        // Recovery totals are sums over the per-session reports.
        let recovery: [(&str, u64); 5] = {
            let reports = self.recovery_reports.lock();
            let total = |f: fn(&RecoveryReport) -> u64| reports.iter().map(|(_, r)| f(r)).sum();
            [
                ("recovered_sessions", reports.len() as u64),
                ("torn_bytes", total(|r| r.torn_tail_bytes)),
                ("quarantined_records", total(|r| r.quarantined.len() as u64)),
                ("quarantined_bytes", total(|r| r.quarantined_bytes)),
                ("generations_skipped", total(|r| r.generations_skipped)),
            ]
        };
        // relaxed: stats snapshots of monotone counters
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut durability: Vec<(&str, u64)> = vec![
            ("stores", with_store as u64),
            ("appends", durable.appends),
            ("snapshots", durable.snapshots),
            ("syncs", durable.sync.syncs),
            ("records_synced", durable.sync.records_synced),
            ("bytes_synced", durable.sync.bytes_synced),
            ("replayed_records", counter(&self.replayed_records)),
        ];
        durability.extend(recovery);
        durability.extend([
            ("recovery_failures", counter(&self.recovery_failures)),
            ("sync_failures", counter(&self.sync_failures)),
            ("snapshot_failures", counter(&self.snapshot_failures)),
        ]);
        let shard_stats: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("sessions".into(), Json::Num(s.registry().len() as f64)),
                    ("metrics".into(), s.metrics().snapshot_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("shards".into(), Json::Arr(shard_stats)),
            ("sessions".into(), Json::Num(sessions as f64)),
            (
                "placement".into(),
                Json::obj(vec![
                    ("ring_points".into(), Json::Num(self.ring.len() as f64)),
                    (
                        "overrides".into(),
                        Json::Num(self.placed.lock().len() as f64),
                    ),
                    ("migrations".into(), Json::Num(counter(&self.migrations) as f64)),
                ]),
            ),
            (
                "durability".into(),
                Json::obj(
                    durability
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Graceful shutdown: flush every journal, then drain every shard.
    /// Dropping a `Router` *without* calling this is the crash
    /// simulation the recovery tests use — buffered (un-synced)
    /// journal records are lost, synced ones survive.
    pub fn shutdown(self) {
        {
            let map = self.sessions.lock();
            for entry in map.values() {
                let mut j = entry.lock();
                if let Some(store) = j.store.as_mut() {
                    let _ = store.sync();
                }
                j.pending_sync = 0;
            }
        }
        for s in self.shards {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_util::zjson::ZDoc;

    #[test]
    fn ring_lookup_is_consistent_and_total() {
        let r = Router::new(RouterConfig::ephemeral(4));
        for i in 0..200 {
            let name = format!("tenant-{i}");
            let a = r.shard_of(&name);
            let b = r.shard_of(&name);
            assert_eq!(a, b, "placement is a function of the name");
            assert!(a < 4);
        }
        // With vnodes, 200 tenants should not all collapse onto one
        // shard.
        let mut counts = [0usize; 4];
        for i in 0..200 {
            counts[r.shard_of(&format!("tenant-{i}"))] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "all shards used: {counts:?}");
    }

    #[test]
    fn growing_the_ring_moves_only_an_interval_fraction() {
        let small = Router::new(RouterConfig::ephemeral(4));
        let big = Router::new(RouterConfig::ephemeral(5));
        let moved = (0..400)
            .filter(|i| {
                let name = format!("tenant-{i}");
                small.shard_of(&name) != big.shard_of(&name)
            })
            .count();
        // Consistent hashing: ~1/5 of keys move when a fifth shard
        // joins; naive modulo would move ~4/5. Allow generous slack.
        assert!(moved < 200, "only an interval moved, not the world: {moved}/400");
        small.shutdown();
        big.shutdown();
    }

    #[test]
    fn deadline_is_stripped_from_the_journal() {
        let mut doc = ZDoc::new();
        let req = Request::parse(
            &mut doc,
            r#"{"id":9,"op":"paste","session":"s","doc":0,"values":["a"],"deadline_ms":250}"#,
        )
        .unwrap();
        let logged = logged_line(&req);
        assert!(!logged.contains("deadline_ms"), "{logged}");
        assert!(logged.contains("\"values\""), "{logged}");
        // And the journaled line is still a parseable request.
        let mut redoc = ZDoc::new();
        assert!(Request::parse(&mut redoc, &logged).is_ok());
    }

    #[test]
    fn session_dirs_are_unique_even_when_sanitization_collides() {
        let root = Path::new("/tmp/x");
        let a = session_dir(root, "a/b");
        let b = session_dir(root, "a.b");
        assert_ne!(a, b);
        assert!(a.file_name().unwrap().to_str().unwrap().starts_with("a_b-"));
    }

    #[test]
    fn checkpoint_lines_split_the_journal_back_into_lines() {
        let lines = [
            r#"{"op":"create_session","session":"s"}"#,
            r#"{"op":"paste","session":"s","values":["a\nb","c"]}"#,
        ];
        let checkpoint: String = lines.iter().flat_map(|l| [*l, "\n"]).collect();
        assert_eq!(checkpoint_lines(&checkpoint).collect::<Vec<_>>(), lines);
        assert_eq!(checkpoint_lines("").count(), 0);
    }
}
