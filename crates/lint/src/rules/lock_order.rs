//! `lock-order` and `guard-across-blocking` — the deadlock pass over
//! the symbol index's guards.
//!
//! Phase 2 derives, per crate, a directed graph over lock *classes*
//! (see [`crate::index::receiver_class`] naming): an edge `A → B`
//! means some non-test function acquires `B` — directly, or
//! transitively through the intra-crate call graph — while holding a
//! guard on `A`. Four finding shapes come out:
//!
//! 1. **Cycles** (`lock-order`): `A → B` and `B → … → A` both exist —
//!    two threads taking the classes in opposite orders can deadlock.
//!    Every edge participating in a cycle is reported at its
//!    acquisition site, with the call-path provenance attached.
//! 2. **Re-entry** (`lock-order`): a guard on `A` is still live when
//!    `A` is acquired again (directly or via a callee) and at least
//!    one side is exclusive — guaranteed self-deadlock on the
//!    non-reentrant `util::sync` shims (read→read is allowed).
//! 3. **Direct guard-across-blocking** (`guard-across-blocking`): a
//!    guard binding is still live at one of its function's own
//!    blocking calls (`send`/`try_send`/`recv`, or a zero-argument
//!    `join()` — `lines.join("\n")` is not a thread join). A blocked
//!    peer can need the held lock, e.g. the drainer of a full bounded
//!    channel. One finding per guard; `drop(guard)` or the end of its
//!    block ends its liveness, and a temporary guard
//!    (`map.read().len()`) is no binding.
//! 4. **Interprocedural guard-across-blocking**: a call made under a
//!    live guard reaches a blocking call somewhere down the call chain.
//!
//! Closures passed to `spawn(…)` are functions of their own in the
//! index, so their guards are checked too. `crates/util` is exempt from
//! the lock-order and interprocedural checks — it *implements* the
//! lock primitives, and its internals are covered by their own
//! property tests — but not from direct guard-across-blocking.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::index::SymbolIndex;
use crate::rules::TreeRule;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose lock usage is the primitive layer itself.
const EXEMPT_CRATES: [&str; 1] = ["util"];

/// The rule name of the guard-across-blocking findings.
pub const GUARD_ACROSS_BLOCKING: &str = "guard-across-blocking";

/// One recorded order edge `from → to` with its site and provenance.
struct Edge {
    file: String,
    line: u32,
    provenance: Vec<String>,
}

/// The rule.
pub struct LockOrder;

impl TreeRule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn check(&self, index: &SymbolIndex, graph: &CallGraph, out: &mut Vec<Finding>) {
        // (crate, from class, to class) → first recorded edge.
        let mut edges: BTreeMap<(String, String, String), Edge> = BTreeMap::new();
        for (fi, f) in index.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let exempt = EXEMPT_CRATES.contains(&f.crate_name.as_str());
            let file = index.files[f.file].path.clone();
            for g in &f.guards {
                let in_range = |tok: usize| tok >= g.live.0 && tok < g.live.1;
                if let Some(b) = f.blocking.iter().find(|b| in_range(b.tok)) {
                    out.push(Finding::new(
                        GUARD_ACROSS_BLOCKING,
                        file.clone(),
                        b.line,
                        format!(
                            ".{}( while guard `{}` (acquired line {}) is live — a blocking \
                             call under a lock can deadlock against channel backpressure; \
                             drop the guard first",
                            b.name, g.name, g.line
                        ),
                    ));
                }
                if exempt {
                    continue;
                }
                // Direct acquisitions under the guard.
                for l in &f.locks {
                    if !in_range(l.tok) {
                        continue;
                    }
                    if l.class == g.class {
                        if l.exclusive || g.exclusive {
                            out.push(Finding::new(
                                self.name(),
                                file.clone(),
                                l.line,
                                format!(
                                    "lock `{}` acquired again while guard `{}` (line {}) already \
                                     holds it — self-deadlock on non-reentrant locks",
                                    l.class, g.name, g.line
                                ),
                            ));
                        }
                    } else {
                        edges
                            .entry((f.crate_name.clone(), g.class.clone(), l.class.clone()))
                            .or_insert_with(|| Edge {
                                file: file.clone(),
                                line: l.line,
                                provenance: vec![index.fn_site(f)],
                            });
                    }
                }
                // Calls under the guard: what the callee can acquire or
                // block on counts as happening here.
                for c in &f.calls {
                    if !in_range(c.tok) {
                        continue;
                    }
                    // One report per call site and lock class: a name
                    // resolving to several defs is one diagnosis.
                    let mut blocked_reported = false;
                    let mut classes_reported: BTreeSet<&str> = BTreeSet::new();
                    for &callee in graph.resolve(&f.crate_name, &c.name) {
                        if callee == fi {
                            continue;
                        }
                        if graph.can_block[callee] && !blocked_reported {
                            blocked_reported = true;
                            let mut prov = vec![index.fn_site(f)];
                            prov.extend(graph.block_chain(index, callee));
                            out.push(Finding {
                                rule: GUARD_ACROSS_BLOCKING,
                                file: file.clone(),
                                line: c.line,
                                message: format!(
                                    "call to {}() while guard `{}` (class `{}`, line {}) is live \
                                     reaches a blocking send/recv/join down the call chain; \
                                     drop the guard first",
                                    c.name, g.name, g.class, g.line
                                ),
                                provenance: prov,
                            });
                        }
                        for (class, exclusive) in graph.reachable_locks[callee].iter() {
                            if !classes_reported.insert(class.as_str()) {
                                continue;
                            }
                            let mut prov = vec![index.fn_site(f)];
                            prov.extend(graph.lock_chain(index, callee, class));
                            if *class == g.class {
                                if *exclusive || g.exclusive {
                                    out.push(Finding {
                                        rule: self.name(),
                                        file: file.clone(),
                                        line: c.line,
                                        message: format!(
                                            "call to {}() while guard `{}` holds `{}` (line {}) \
                                             re-acquires the same lock class down the call \
                                             chain — self-deadlock on non-reentrant locks",
                                            c.name, g.name, g.class, g.line
                                        ),
                                        provenance: prov,
                                    });
                                }
                            } else {
                                edges
                                    .entry((
                                        f.crate_name.clone(),
                                        g.class.clone(),
                                        class.clone(),
                                    ))
                                    .or_insert_with(|| Edge {
                                        file: file.clone(),
                                        line: c.line,
                                        provenance: prov,
                                    });
                            }
                        }
                    }
                }
            }
        }
        // Cycle detection per crate over the class graph.
        let mut adj: BTreeMap<&str, BTreeMap<&str, BTreeSet<&str>>> = BTreeMap::new();
        for (krate, from, to) in edges.keys() {
            adj.entry(krate).or_default().entry(from).or_default().insert(to);
        }
        for ((krate, from, to), edge) in &edges {
            let Some(crate_adj) = adj.get(krate.as_str()) else { continue };
            if let Some(back) = path_between(crate_adj, to, from) {
                let cycle: Vec<&str> =
                    std::iter::once(from.as_str()).chain(back.iter().copied()).collect();
                out.push(Finding {
                    rule: self.name(),
                    file: edge.file.clone(),
                    line: edge.line,
                    message: format!(
                        "lock-order cycle in crate `{krate}`: {} — two threads taking these \
                         locks in opposite orders can deadlock; pick one global order",
                        cycle.join(" -> "),
                    ),
                    provenance: edge.provenance.clone(),
                });
            }
        }
    }
}

/// BFS path `from → … → to` over the class adjacency, inclusive of
/// both endpoints. `None` if unreachable.
fn path_between<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(at) = queue.pop_front() {
        if at == to {
            let mut path = vec![at];
            let mut cur = at;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(at).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, at);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::analyze_source;

    #[test]
    fn opposing_orders_across_functions_are_a_cycle() {
        let src = "impl R {\n\
                   fn close(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn stats(&self) {\n  let map = self.sessions.lock();\n  self.journal.lock();\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert!(
            found.iter().filter(|f| f.rule == "lock-order").count() >= 2,
            "both edges of the cycle report: {found:?}"
        );
        assert!(found.iter().any(|f| f.message.contains("journal -> sessions")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "impl R {\n\
                   fn a(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn b(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   }";
        assert!(analyze_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn reentry_through_a_callee_is_flagged_with_provenance() {
        let src = "impl R {\n\
                   fn outer(&self) {\n  let g = self.sessions.lock();\n  self.inner();\n}\n\
                   fn inner(&self) {\n  self.sessions.lock();\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "lock-order");
        assert!(found[0].message.contains("re-acquires the same lock class"));
        assert!(found[0].provenance.iter().any(|p| p.contains("fn inner")));
    }

    #[test]
    fn read_read_reentry_is_allowed_but_write_read_is_not() {
        let rr = "fn f(&self) {\n  let g = self.map.read();\n  self.map.read();\n}";
        assert!(analyze_source("crates/query/src/x.rs", rr).is_empty());
        let wr = "fn f(&self) {\n  let g = self.map.write();\n  self.map.read();\n}";
        let found = analyze_source("crates/query/src/x.rs", wr);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("self-deadlock"));
    }

    #[test]
    fn blocking_via_callee_upgrades_guard_across_blocking() {
        let src = "impl W {\n\
                   fn publish(&self) {\n  let g = self.state.lock();\n  self.fanout();\n}\n\
                   fn fanout(&self) {\n  self.tx.send(1);\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "guard-across-blocking");
        assert!(found[0].provenance.iter().any(|p| p.contains("fn fanout")));
    }

    #[test]
    fn guard_live_across_send_fires() {
        let src = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let g = m.lock();\n  \
                   tx.send(*g);\n}";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "guard-across-blocking");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn drop_before_send_and_inner_scope_pass() {
        let dropped = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let g = m.lock();\n  \
                       let v = *g;\n  drop(g);\n  tx.send(v);\n}";
        assert!(analyze_source("crates/serve/src/x.rs", dropped).is_empty());
        let scoped = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let v = { let g = m.lock(); *g };\n  \
                      tx.send(v);\n}";
        assert!(analyze_source("crates/serve/src/x.rs", scoped).is_empty());
    }

    #[test]
    fn temporary_guards_and_rwlock_variants() {
        let temp = "fn f(m: &RwLock<Map>) -> usize { let n = m.read().len();\n  n }";
        assert!(analyze_source("crates/serve/src/x.rs", temp).is_empty());
        let write = "fn f(m: &RwLock<u8>, rx: &Receiver<u8>) {\n  let mut g = m.write();\n  \
                     *g = rx.recv().unwrap_or(0);\n}";
        let found = analyze_source("crates/core/src/x.rs", write);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "guard-across-blocking");
    }

    #[test]
    fn join_under_guard_fires() {
        let src = "fn f(m: &Mutex<u8>, h: JoinHandle<()>) {\n  let g = m.lock();\n  \
                   let _ = h.join();\n}";
        assert_eq!(analyze_source("crates/graph/src/x.rs", src).len(), 1);
    }

    #[test]
    fn string_join_under_guard_passes() {
        let src = "fn f(m: &Mutex<Vec<String>>) -> String {\n  let lines = m.lock();\n  \
                   lines.join(\"\\n\")\n}";
        assert!(analyze_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn direct_blocking_is_checked_in_util_and_in_spawned_closures() {
        let src = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let g = m.lock();\n  \
                   tx.send(*g);\n}";
        let found = analyze_source("crates/util/src/sync.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "guard-across-blocking");
        let spawned = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  \
                       std::thread::scope(|s| {\n    s.spawn(|| {\n      \
                       let g = m.lock();\n      tx.send(*g);\n    });\n  });\n}";
        let found = analyze_source("crates/query/src/x.rs", spawned);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("guard-across-blocking", 5));
    }

    #[test]
    fn util_crate_is_exempt_and_tests_are_skipped() {
        let src = "fn close(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn stats(&self) {\n  let map = self.sessions.lock();\n  self.journal.lock();\n}";
        assert!(analyze_source("crates/util/src/sync.rs", src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        assert!(analyze_source("crates/serve/src/x.rs", &in_test).is_empty());
    }
}
