//! E3 — Steiner-search scale-up (§4.2): exact top-k for small graphs,
//! SPCSH for larger ones. We measure wall time and approximation quality
//! as the graph and terminal set grow; the paper's qualitative claim is
//! that the exact algorithm is fine at CopyCat scale ("the number of
//! sources is often relatively small") while SPCSH's pruning buys
//! scaling.

use crate::gen::{random_graph, GraphSpec};
use copycat_graph::{spcsh, steiner_exact};
use copycat_util::json::Json;
use std::time::{Duration, Instant};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Nodes in the graph.
    pub nodes: usize,
    /// Terminals.
    pub terminals: usize,
    /// Exact solve time (None when skipped as infeasible).
    pub exact_time: Option<Duration>,
    /// SPCSH solve time.
    pub spcsh_time: Duration,
    /// SPCSH cost / exact cost (1.0 = optimal; None without exact).
    pub cost_ratio: Option<f64>,
}

/// Largest terminal count the E3 sweep runs the exact algorithm at. The
/// flat-array DP completes k=14 at 60 nodes in well under a second;
/// `MAX_EXACT_TERMINALS` (16) is the hard ceiling.
pub const EXACT_TERMINAL_SWEEP_LIMIT: usize = 14;

/// Sweep graph sizes at fixed terminal count, and terminal counts at a
/// fixed size. Returns (size sweep, terminal sweep).
pub fn run(sizes: &[usize], terminal_counts: &[usize]) -> (Vec<E3Row>, Vec<E3Row>) {
    let size_sweep = sizes.iter().map(|&n| measure(n, 4, true)).collect();
    let term_sweep = terminal_counts
        .iter()
        .map(|&k| measure(60, k, k <= EXACT_TERMINAL_SWEEP_LIMIT))
        .collect();
    (size_sweep, term_sweep)
}

/// Machine-readable form of a sweep, one object per row (the
/// `BENCH_steiner.json` schema: `{nodes, terminals, exact_us, spcsh_us,
/// ratio}`, with `null` where the exact solve was skipped).
pub fn rows_to_json(rows: &[E3Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("nodes".into(), Json::Num(r.nodes as f64)),
                    ("terminals".into(), Json::Num(r.terminals as f64)),
                    (
                        "exact_us".into(),
                        r.exact_time
                            .map(|d| Json::Num(d.as_secs_f64() * 1e6))
                            .unwrap_or(Json::Null),
                    ),
                    ("spcsh_us".into(), Json::Num(r.spcsh_time.as_secs_f64() * 1e6)),
                    ("ratio".into(), r.cost_ratio.map(Json::Num).unwrap_or(Json::Null)),
                ])
            })
            .collect(),
    )
}

fn measure(nodes: usize, terminals: usize, run_exact: bool) -> E3Row {
    let (g, t) = random_graph(
        &GraphSpec { nodes, extra_edges: nodes * 2, seed: nodes as u64 * 31 + terminals as u64 },
        terminals,
    );
    let (exact_time, exact_cost) = if run_exact {
        let start = Instant::now();
        let tree = steiner_exact(&g, &t).expect("backbone keeps it connected");
        (Some(start.elapsed()), Some(tree.cost))
    } else {
        (None, None)
    };
    let start = Instant::now();
    let approx = spcsh(&g, &t, 0.8, &[]).expect("connected");
    let spcsh_time = start.elapsed();
    E3Row {
        nodes,
        terminals,
        exact_time,
        spcsh_time,
        cost_ratio: exact_cost.map(|c| approx.cost / c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spcsh_within_guarantee_and_scales() {
        let (sizes, terms) = run(&[20, 60], &[2, 6]);
        for row in sizes.iter().chain(terms.iter()) {
            if let Some(r) = row.cost_ratio {
                assert!(
                    (1.0..=2.0 + 1e-9).contains(&r),
                    "ratio {r} out of the 2(1-1/k) guarantee at n={}",
                    row.nodes
                );
            }
        }
    }

    #[test]
    fn json_rows_carry_the_schema() {
        let (sizes, terms) = run(&[20], &[2, 15]);
        let all: Vec<E3Row> = sizes.into_iter().chain(terms).collect();
        let j = rows_to_json(&all);
        let text = j.to_string();
        let parsed = Json::parse(&text).expect("round-trips");
        let arr = parsed.as_array().expect("array");
        assert_eq!(arr.len(), 3);
        for row in arr {
            for field in ["nodes", "terminals", "exact_us", "spcsh_us", "ratio"] {
                assert!(row.get(field).is_some(), "missing {field} in {text}");
            }
        }
        // k=15 exceeds the sweep limit: exact skipped, encoded as null.
        assert!(matches!(arr[2].get("exact_us"), Some(Json::Null)), "{text}");
    }

    #[test]
    fn exact_blows_up_in_terminals_not_nodes() {
        // The DW table is 2^k * n: doubling k should cost far more than
        // doubling n. Compare DP table sizes as a proxy (time is noisy in
        // CI-like environments).
        let t_8 = measure(60, 8, true).exact_time.unwrap();
        let t_2 = measure(60, 2, true).exact_time.unwrap();
        assert!(t_8 >= t_2, "k=8 ({t_8:?}) should not be faster than k=2 ({t_2:?})");
    }
}
