//! Steiner search behaviour pinned from before SPCSH moved onto the
//! exact solver's attachment pass.
//!
//! `fixtures/parent_steiner.jsonl` was recorded with the code that still
//! had a separate hash-set-and-`BinaryHeap` SPCSH and a thread-parallel
//! top-k branch. Each line is one case: how to rebuild the graph
//! (`family`, `nodes`, `extra`, `seed`), its terminals, the SPCSH prune
//! quantile, a ban set, and the trees the search returned:
//!
//! - `spcsh`: the SPCSH tree over the graph minus the pruned and the
//!   banned edges, retried without the pruned ones when that disconnects
//!   the terminals;
//! - `exact`: the exact optimum avoiding the ban (`null` when the DP
//!   table would be too large for a debug-build test);
//! - `top5`: the edge sequences of `top_k_steiner_banned` with k = 5
//!   (`null` past a smaller size limit).
//!
//! Families: `e3` (the E3 generator: a random backbone plus 2n cross
//! edges, costs in 0.5–2.0, 10–600 nodes, 2–12 terminals), `a3` (the A3
//! generator at 80 and 240 nodes with 3n cross edges and prune
//! quantiles 0.3–1.0) and `ties` (every edge at the default cost, so
//! shortest paths and optima tie everywhere). Every graph appears once
//! with an empty ban and once banning some of its unbanned SPCSH and
//! exact tree edges. Each line recomputed now must equal the recorded
//! one byte for byte.

use copycat_graph::{
    spcsh, steiner_exact, top_k_steiner_banned, EdgeId, EdgeKind, NodeId, SourceGraph,
    SteinerTree,
};
use copycat_query::Schema;
use copycat_util::json::Json;
use copycat_util::rng::{Rng, SeedableRng, StdRng};

/// DP cells (`nodes * 2^terminals`) up to which the exact tree is recorded.
const EXACT_CELLS: usize = 1 << 18;
/// DP cells up to which the top-5 enumeration is recorded.
const TOP_K_CELLS: usize = 1 << 14;

/// The graph families' generator, shared by the recorder and the check.
fn build(
    family: &str,
    nodes: usize,
    extra: usize,
    seed: u64,
    k: usize,
) -> (SourceGraph, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = SourceGraph::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| g.add_relation(format!("s{i}"), Schema::of(&["X", "Y"])))
        .collect();
    let join = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
    let ties = family == "ties";
    let edge = |g: &mut SourceGraph, rng: &mut StdRng, a: usize, b: usize| {
        if ties {
            g.add_edge(ids[a], ids[b], join());
        } else {
            g.add_edge_with_cost(ids[a], ids[b], join(), rng.gen_range(0.5..2.0));
        }
    };
    for i in 1..nodes {
        let j = rng.gen_range(0..i);
        edge(&mut g, &mut rng, i, j);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b {
            edge(&mut g, &mut rng, a, b);
        }
    }
    let mut terminals: Vec<NodeId> =
        (0..k).map(|i| ids[i * (nodes - 1) / (k - 1).max(1)]).collect();
    terminals.dedup();
    while terminals.len() < k {
        let cand = ids[rng.gen_range(0..nodes)];
        if !terminals.contains(&cand) {
            terminals.push(cand);
        }
    }
    (g, terminals)
}

/// SPCSH over the graph minus `banned`.
fn spcsh_of(g: &SourceGraph, t: &[NodeId], q: f64, banned: &[EdgeId]) -> Option<SteinerTree> {
    spcsh(g, t, q, banned)
}

fn ids(edges: &[EdgeId]) -> String {
    let parts: Vec<String> = edges.iter().map(|e| e.0.to_string()).collect();
    format!("[{}]", parts.join(","))
}

fn tree(t: &Option<SteinerTree>) -> String {
    match t {
        Some(t) => format!("{{\"edges\":{},\"cost\":\"{:?}\"}}", ids(&t.edges), t.cost),
        None => "null".into(),
    }
}

/// One fixture line for a graph, a quantile and a ban.
fn line(
    family: &str,
    nodes: usize,
    extra: usize,
    seed: u64,
    k: usize,
    q: f64,
    banned: &[EdgeId],
) -> String {
    let (g, t) = build(family, nodes, extra, seed, k);
    let cells = nodes << t.len();
    let sp = spcsh_of(&g, &t, q, banned);
    let exact = if cells > EXACT_CELLS {
        "null".to_string()
    } else if banned.is_empty() {
        tree(&steiner_exact(&g, &t))
    } else {
        tree(&top_k_steiner_banned(&g, &t, 1, banned).into_iter().next())
    };
    let top5 = if cells > TOP_K_CELLS {
        "null".to_string()
    } else {
        let seqs: Vec<String> =
            top_k_steiner_banned(&g, &t, 5, banned).iter().map(|t| ids(&t.edges)).collect();
        format!("[{}]", seqs.join(","))
    };
    let terms: Vec<String> = t.iter().map(|n| n.0.to_string()).collect();
    format!(
        "{{\"family\":\"{family}\",\"nodes\":{nodes},\"extra\":{extra},\"seed\":{seed},\"k\":{k},\
         \"terminals\":[{}],\"quantile\":{q:?},\"banned\":{},\"spcsh\":{sp},\"exact\":{exact},\
         \"top5\":{top5}}}",
        terms.join(","),
        ids(banned),
        sp = tree(&sp),
    )
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key} in {j}"))
}

#[test]
fn steiner_trees_match_the_parent_recording() {
    let text = include_str!("fixtures/parent_steiner.jsonl");
    let mut checked = 0;
    let mut banned_cases = 0;
    for recorded in text.lines() {
        let j = Json::parse(recorded).expect("fixture line parses");
        let family = j.get("family").and_then(Json::as_str).expect("family");
        let banned: Vec<EdgeId> = j
            .get("banned")
            .and_then(Json::as_array)
            .expect("banned")
            .iter()
            .map(|e| EdgeId(e.as_f64().expect("edge id") as u32))
            .collect();
        let now = line(
            family,
            num(&j, "nodes") as usize,
            num(&j, "extra") as usize,
            num(&j, "seed") as u64,
            num(&j, "k") as usize,
            num(&j, "quantile"),
            &banned,
        );
        assert_eq!(now, recorded);
        checked += 1;
        banned_cases += usize::from(!banned.is_empty());
    }
    assert!(checked >= 150, "only {checked} cases compared");
    assert!(banned_cases >= 70, "only {banned_cases} banned cases compared");
}
