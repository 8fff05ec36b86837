//! E3 timing bench: exact Dreyfus–Wagner vs SPCSH across graph sizes and
//! terminal counts (regenerates the scale-up table's timing columns),
//! plus scratch reuse across solves and top-k branching on a
//! terminal-heavy subproblem.

use copycat_bench::gen::{random_graph, GraphSpec};
use copycat_graph::{spcsh, steiner_exact, steiner_exact_in, top_k_steiner, SteinerScratch};
use copycat_util::bench::Harness;

fn bench_size_sweep(c: &mut Harness) {
    let mut group = c.benchmark_group("e3/size_sweep_k4");
    for nodes in [10usize, 40, 160, 600] {
        let (g, t) = random_graph(
            &GraphSpec { nodes, extra_edges: nodes * 2, seed: nodes as u64 },
            4,
        );
        group.bench_function(format!("exact/{nodes}"), |b| {
            b.iter(|| steiner_exact(&g, &t).expect("connected").cost)
        });
        group.bench_function(format!("spcsh/{nodes}"), |b| {
            b.iter(|| spcsh(&g, &t, 0.8, &[]).expect("connected").cost)
        });
    }
    group.finish();
}

fn bench_terminal_sweep(c: &mut Harness) {
    let mut group = c.benchmark_group("e3/terminal_sweep_n60");
    group.sample_size(10);
    for k in [2usize, 6, 10, 12] {
        let (g, t) = random_graph(&GraphSpec { nodes: 60, extra_edges: 120, seed: k as u64 }, k);
        group.bench_function(format!("exact/{k}"), |b| {
            b.iter(|| steiner_exact(&g, &t).expect("connected").cost)
        });
        group.bench_function(format!("spcsh/{k}"), |b| {
            b.iter(|| spcsh(&g, &t, 0.8, &[]).expect("connected").cost)
        });
    }
    group.finish();
}

fn bench_scratch_reuse(c: &mut Harness) {
    // Same solve with and without a session-held scratch: isolates the
    // allocation overhead a search session amortizes away.
    let (g, t) = random_graph(&GraphSpec { nodes: 60, extra_edges: 120, seed: 8 }, 8);
    let mut group = c.benchmark_group("e3/exact_n60_k8");
    group.sample_size(10);
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| steiner_exact(&g, &t).expect("connected").cost)
    });
    let mut scratch = SteinerScratch::new();
    group.bench_function("scratch_reuse", |b| {
        b.iter(|| steiner_exact_in(&g, &t, &mut scratch).expect("connected").cost)
    });
    group.finish();
}

fn bench_top_k(c: &mut Harness) {
    let (g, t) = random_graph(&GraphSpec { nodes: 30, extra_edges: 60, seed: 5 }, 3);
    c.bench_function("e3/top5_exact_n30", |b| {
        b.iter(|| top_k_steiner(&g, &t, 5).len())
    });
    // Lawler branching with 8 terminals: each child solve is a 2^8-mask DP.
    let (g2, t2) = random_graph(&GraphSpec { nodes: 60, extra_edges: 120, seed: 9 }, 8);
    let mut group = c.benchmark_group("e3/top5_n60_k8");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| top_k_steiner(&g2, &t2, 5).len()));
    group.finish();
}

copycat_util::bench_main!(bench_size_sweep, bench_terminal_sweep, bench_scratch_reuse, bench_top_k);
