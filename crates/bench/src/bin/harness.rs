//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p copycat-bench --bin harness [e1|e2|…|a3|all]`
//!
//! Selected sections run concurrently on scoped threads (they share no
//! state); outputs are buffered per section and printed in the canonical
//! e1..a3 order, so the report reads identically to a serial run.

use copycat_bench::table::{dur, f1, f3, TextTable};
use copycat_bench::{
    ablations, chaos_sweep, e1_keystrokes, e2_feedback, e3_steiner, e4_structure, e5_column,
    e6_semantic, e7_linkage, e8_figure4, fault_recovery, serve_load, transform_sweep,
};
use copycat_util::json::Json;
use copycat_util::bench::CountingAlloc;
use std::fmt::Write;

/// Counting allocator for the S4 memory experiment (marginal bytes per
/// session, allocations per request). Delegates to `System`; the cost
/// is two relaxed increments per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn section_e1() -> String {
    let mut out = String::new();
    writeln!(out, "== E1: keystroke savings (paper: Karma saved ~75%) ==\n").unwrap();
    let rows = e1_keystrokes::run(20);
    let mut t = TextTable::new(&["task", "manual", "scp", "savings %"]);
    for r in &rows {
        t.row(vec![r.task.clone(), f1(r.manual), f1(r.scp), f1(r.savings_pct)]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    writeln!(
        out,
        "mean savings: {:.1}%  (paper: ~75%)\n",
        e1_keystrokes::mean_savings(&rows)
    )
    .unwrap();
    out
}

fn section_e2() -> String {
    let mut out = String::new();
    writeln!(out, "== E2a: feedback items until the preferred query ranks first ==").unwrap();
    writeln!(
        out,
        "   (paper: \"as little as one item of feedback for a single query\")\n"
    )
    .unwrap();
    let a = e2_feedback::run_e2a(30);
    let mut t = TextTable::new(&["converged/trials", "mean feedback", "% <=1 item", "max"]);
    t.row(vec![
        format!("{}/{}", a.converged, a.trials),
        f3(a.mean_feedback),
        f1(a.pct_one),
        a.max_feedback.to_string(),
    ]);
    writeln!(out, "{}", t.render()).unwrap();

    writeln!(out, "== E2b: query-family generalization vs training queries ==").unwrap();
    writeln!(
        out,
        "   (paper: \"feedback on 10 queries to learn rankings for an entire family\")\n"
    )
    .unwrap();
    let b = e2_feedback::run_e2b(&[0, 1, 2, 5, 10, 15], 30);
    let mut t = TextTable::new(&["queries trained on", "held-out top-1 accuracy %"]);
    for (k, acc) in &b.curve {
        t.row(vec![k.to_string(), f1(*acc)]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

/// The sweeps behind both the E3 table and `BENCH_steiner.json`.
const E3_SIZES: &[usize] = &[10, 20, 40, 80, 160, 300, 600];
const E3_TERMINALS: &[usize] = &[2, 4, 6, 8, 10, 12, 14];

fn section_e3() -> String {
    let mut out = String::new();
    writeln!(out, "== E3: Steiner search scale-up (exact vs SPCSH) ==\n").unwrap();
    let (sizes, terms) = e3_steiner::run(E3_SIZES, E3_TERMINALS);
    let mut t = TextTable::new(&["nodes", "terminals", "exact time", "spcsh time", "cost ratio"]);
    for r in sizes.iter().chain(terms.iter()) {
        t.row(vec![
            r.nodes.to_string(),
            r.terminals.to_string(),
            r.exact_time.map(dur).unwrap_or_else(|| "-".into()),
            dur(r.spcsh_time),
            r.cost_ratio.map(f3).unwrap_or_else(|| "-".into()),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

/// `harness -- e3-json`: the E3 sweep as machine-readable JSON rows on
/// stdout, nothing else (consumed by `scripts/bench_json.sh`).
fn e3_json() -> String {
    let (sizes, terms) = e3_steiner::run(E3_SIZES, E3_TERMINALS);
    let all: Vec<e3_steiner::E3Row> = sizes.into_iter().chain(terms).collect();
    e3_steiner::rows_to_json(&all).to_string()
}

fn section_e4() -> String {
    let mut out = String::new();
    writeln!(out, "== E4: row auto-completion quality vs pasted examples ==").unwrap();
    writeln!(
        out,
        "   (paper: well-structured pages need one example; complex pages more)\n"
    )
    .unwrap();
    let rows = e4_structure::run(3, 5);
    let mut t = TextTable::new(&["setting", "examples", "precision", "recall", "F1"]);
    for r in &rows {
        t.row(vec![
            r.setting.clone(),
            r.examples.to_string(),
            f3(r.precision),
            f3(r.recall),
            f3(r.f1),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn section_e5() -> String {
    let mut out = String::new();
    writeln!(out, "== E5: column-completion ranking vs distractor sources ==\n").unwrap();
    let rows = e5_column::run(&[0, 5, 10, 20]);
    let mut t = TextTable::new(&["distractors", "hit@1", "hit@3", "MRR", "zip value accuracy"]);
    for r in &rows {
        t.row(vec![
            r.distractors.to_string(),
            r.hit_at_1.to_string(),
            r.hit_at_3.to_string(),
            f3(r.reciprocal_rank),
            f3(r.value_accuracy),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn section_e6() -> String {
    let mut out = String::new();
    writeln!(out, "== E6: semantic-type recognition vs training size ==\n").unwrap();
    let rows = e6_semantic::run(&[1, 2, 5, 10, 20, 50], 6);
    let mut t = TextTable::new(&["training values/type", "cross-source top-1 accuracy %"]);
    for r in &rows {
        t.row(vec![r.train_size.to_string(), f1(r.accuracy)]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    writeln!(
        out,
        "same-session transfer (user-defined type, source A -> B): {:.1}%\n",
        e6_semantic::same_session_transfer(20)
    )
    .unwrap();
    out
}

fn section_e7() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== E7: record-linkage F1, learned combination vs single heuristics ==\n"
    )
    .unwrap();
    let rows = e7_linkage::run(&[1, 2, 3], 5);
    let mut t = TextTable::new(&["matcher", "edits=1", "edits=2", "edits=3"]);
    let matchers: Vec<String> = {
        let mut m: Vec<String> = rows.iter().map(|r| r.matcher.clone()).collect();
        m.dedup();
        m.truncate(8);
        m
    };
    for m in matchers {
        let f1_at = |e: usize| {
            rows.iter()
                .find(|r| r.matcher == m && r.edits == e)
                .map(|r| f3(r.f1))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![m.clone(), f1_at(1), f1_at(2), f1_at(3)]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn section_e8() -> String {
    let mut out = String::new();
    writeln!(out, "== E8: Figure 4 reconstruction ==\n").unwrap();
    let r = e8_figure4::run();
    writeln!(out, "{}", r.graph).unwrap();
    writeln!(out, "chosen query: {}", r.plan).unwrap();
    writeln!(out, "rows: {}   zip accuracy: {:.3}", r.rows, r.zip_accuracy).unwrap();
    writeln!(out, "\nsample explanation:\n{}", r.explanation).unwrap();
    out
}

// The serve sweeps behind both the serve section and `BENCH_serve.json`.

/// Per-client requests in the cross-shard sweep.
const SERVE_REQUESTS_PER_CLIENT: usize = 600;
/// Kill-and-recover levels: (journaled records, snapshot cadence).
const SERVE_RECOVERY_LEVELS: &[(u64, u64)] = &[(100, 16), (400, 64), (400, 8)];
/// Cross-shard sweep: shard counts at a fixed client count.
const SERVE_SHARD_COUNTS: &[usize] = &[1, 2, 4];
const SERVE_SHARD_CLIENTS: usize = 4;
/// S4 memory experiment: sessions created inside the measured window.
const MEM_FLAT_SESSIONS: usize = 64;
const MEM_SHARED_SESSIONS: usize = 512;
/// S5 herd: resident copy-on-write sessions, sampled tenants, hot-path
/// rounds per sampled tenant, and closed-loop clients.
const HERD_SESSIONS: usize = 10_000;
const HERD_PROBE_SESSIONS: usize = 256;
const HERD_ROUNDS: usize = 4;
const HERD_CLIENTS: usize = 4;

fn section_serve() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== S2: kill-and-recover (durable router, sync_every=1, crash = drop) ==\n"
    )
    .unwrap();
    let rows = serve_load::run_recovery(SERVE_RECOVERY_LEVELS);
    let mut t = TextTable::new(&[
        "records",
        "snapshot every",
        "journal time",
        "recover time",
        "replayed",
        "snapshots",
        "intact",
    ]);
    for r in &rows {
        t.row(vec![
            r.records.to_string(),
            r.snapshot_every.to_string(),
            dur(r.journal_elapsed),
            dur(r.recover_elapsed),
            r.replayed.to_string(),
            r.snapshots.to_string(),
            if r.intact { "yes".into() } else { "NO".into() },
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();

    writeln!(
        out,
        "== S3: cross-shard routing + live migration ({SERVE_SHARD_CLIENTS} clients) ==\n"
    )
    .unwrap();
    let rows = serve_load::run_cross_shard(
        SERVE_SHARD_COUNTS,
        SERVE_SHARD_CLIENTS,
        SERVE_REQUESTS_PER_CLIENT,
    );
    let mut t = TextTable::new(&[
        "shards",
        "requests",
        "throughput rps",
        "migrate mean",
        "migrations",
    ]);
    for r in &rows {
        t.row(vec![
            r.shards.to_string(),
            r.requests.to_string(),
            format!("{:.0}", r.throughput_rps),
            dur(std::time::Duration::from_micros(r.migrate_mean_us)),
            r.migrations.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();

    writeln!(
        out,
        "== S4: copy-on-write memory (flat private worlds vs shared WorldBase) ==\n"
    )
    .unwrap();
    let rows = serve_load::run_mem(MEM_FLAT_SESSIONS, MEM_SHARED_SESSIONS, &|| ALLOC.snapshot());
    let mut t = TextTable::new(&[
        "mode",
        "sessions",
        "marginal B/session",
        "sessions/GiB",
        "allocs/request",
    ]);
    for r in &rows {
        t.row(vec![
            r.mode.to_string(),
            r.sessions.to_string(),
            format!("{:.0}", r.marginal_bytes_per_session),
            format!("{:.0}", r.sessions_per_gb),
            format!("{:.1}", r.allocs_per_request),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    writeln!(
        out,
        "   (live-byte diffs; run `harness serve` alone for quiescent numbers)\n"
    )
    .unwrap();

    writeln!(
        out,
        "== S5: {HERD_SESSIONS}-session herd (copy-on-write, {HERD_CLIENTS} clients over a \
         {HERD_PROBE_SESSIONS}-tenant sample) ==\n"
    )
    .unwrap();
    let h = serve_load::run_herd(
        HERD_SESSIONS,
        HERD_PROBE_SESSIONS,
        HERD_ROUNDS,
        HERD_CLIENTS,
        Some(&|| ALLOC.snapshot()),
    );
    let mut t = TextTable::new(&[
        "sessions",
        "create time",
        "requests",
        "throughput rps",
        "p50",
        "p99",
        "B/session",
    ]);
    t.row(vec![
        h.sessions.to_string(),
        dur(h.create_elapsed),
        h.requests.to_string(),
        format!("{:.0}", h.throughput_rps),
        dur(std::time::Duration::from_micros(h.p50_us)),
        dur(std::time::Duration::from_micros(h.p99_us)),
        format!("{:.0}", h.marginal_bytes_per_session),
    ]);
    writeln!(out, "{}", t.render()).unwrap();
    out
}

/// `harness -- serve-json`: the serve sweeps as machine-readable JSON on
/// stdout (consumed by `scripts/bench_json.sh` into `BENCH_serve.json`):
/// `{"recovery": […], "cross_shard": […], "mem": {…}, "herd": {…}}`.
/// Runs serially, so the S4/S5 live-byte measurements are quiescent.
fn serve_json() -> String {
    let recovery = serve_load::run_recovery(SERVE_RECOVERY_LEVELS);
    let cross = serve_load::run_cross_shard(
        SERVE_SHARD_COUNTS,
        SERVE_SHARD_CLIENTS,
        SERVE_REQUESTS_PER_CLIENT,
    );
    let mem = serve_load::run_mem(MEM_FLAT_SESSIONS, MEM_SHARED_SESSIONS, &|| ALLOC.snapshot());
    let herd = serve_load::run_herd(
        HERD_SESSIONS,
        HERD_PROBE_SESSIONS,
        HERD_ROUNDS,
        HERD_CLIENTS,
        Some(&|| ALLOC.snapshot()),
    );
    copycat_util::json::Json::obj(vec![
        ("recovery".into(), serve_load::recovery_to_json(&recovery)),
        (
            "cross_shard".into(),
            serve_load::cross_shard_to_json(&cross),
        ),
        ("mem".into(), serve_load::mem_to_json(&mem)),
        ("herd".into(), serve_load::herd_to_json(&herd)),
    ])
    .to_string()
}

/// The sweep behind both the F1 table and `BENCH_faults.json`.
const FAULT_RATES: &[f64] = &[0.0, 0.1, 0.3, 0.6, 1.0];

fn section_faults() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== F1: fault tolerance (failure rate x resilience mode, virtual time) ==\n"
    )
    .unwrap();
    let rows = chaos_sweep::run(FAULT_RATES);
    let mut t = TextTable::new(&[
        "failure rate",
        "mode",
        "completeness",
        "degraded",
        "virtual ms",
        "retries",
        "trips",
    ]);
    for r in &rows {
        t.row(vec![
            f1(r.rate * 100.0) + "%",
            r.mode.to_string(),
            f3(r.completeness),
            if r.degraded { "yes".into() } else { "no".into() },
            r.virtual_ms.to_string(),
            r.retries.to_string(),
            r.trips.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();

    writeln!(
        out,
        "== F2: recovery under storage faults (crash storm on SimFs) ==\n"
    )
    .unwrap();
    let rows = fault_recovery::run(STORM_SEED, STORM_STRIDES);
    let mut t = TextTable::new(&[
        "stride",
        "runs",
        "fired",
        "acked",
        "recovered",
        "quarantined",
        "tail lost",
        "silent",
        "mean run",
    ]);
    for r in &rows {
        t.row(vec![
            r.stride.to_string(),
            r.runs.to_string(),
            r.faults_fired.to_string(),
            r.acked.to_string(),
            r.recovered.to_string(),
            r.quarantined.to_string(),
            r.tail_lost.to_string(),
            r.silent_losses.to_string(),
            format!("{} us", r.mean_run_us),
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    let o = fault_recovery::run_overhead(OVERHEAD_RECORDS, OVERHEAD_SYNC_EVERY);
    writeln!(
        out,
        "StoreFs trait overhead: {} records / {} fsyncs, {} via trait vs {} via std::fs \
         (ratio {:.2})\n",
        o.records,
        o.syncs,
        dur(o.via_trait),
        dur(o.via_std),
        o.ratio
    )
    .unwrap();
    out
}

/// The crash-storm sweep behind both the F2 table and the
/// `recovery_under_fault` section: seed plus injection strides (1 =
/// every I/O op; coarser strides show loss accounting is stable as
/// coverage thins).
const STORM_SEED: u64 = 0xC1D9;
const STORM_STRIDES: &[u64] = &[1, 3, 7];

/// The `StoreFs`-vs-`std::fs` overhead loop: enough records and fsyncs
/// for the timing to be sync-dominated on both sides.
const OVERHEAD_RECORDS: u64 = 2048;
const OVERHEAD_SYNC_EVERY: u64 = 64;

/// `harness -- faults-json`: machine-readable JSON on stdout (consumed
/// by `scripts/bench_json.sh` into `BENCH_faults.json`): the F1 chaos
/// sweep under `"f1"` plus the storage-fault recovery sweep and the
/// real-fs overhead guard under `"recovery_under_fault"`.
fn faults_json() -> String {
    let f1 = chaos_sweep::rows_to_json(&chaos_sweep::run(FAULT_RATES));
    let rows = fault_recovery::run(STORM_SEED, STORM_STRIDES);
    let overhead = fault_recovery::run_overhead(OVERHEAD_RECORDS, OVERHEAD_SYNC_EVERY);
    Json::obj(vec![
        ("f1".into(), f1),
        (
            "recovery_under_fault".into(),
            fault_recovery::to_json(&rows, &overhead),
        ),
    ])
    .to_string()
}

/// The sweep behind both the T1 table and `BENCH_transform.json`.
const TRANSFORM_SIZES: &[usize] = &[10, 30];

fn section_transforms() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== T1: transform synthesis (messy-format world, service-only vs learned) ==\n"
    )
    .unwrap();
    let rows = transform_sweep::run(TRANSFORM_SIZES);
    let mut t = TextTable::new(&[
        "venues",
        "mode",
        "completeness",
        "learn ms",
        "suggest ms",
        "amortized ms/row",
        "program",
    ]);
    for r in &rows {
        t.row(vec![
            r.venues.to_string(),
            r.mode.to_string(),
            f3(r.completeness),
            f3(r.learn_ms),
            f3(r.suggest_ms),
            f3(r.amortized_ms),
            if r.program.is_empty() { "-".into() } else { r.program.clone() },
        ]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

/// `harness -- transforms-json`: the T1 sweep as machine-readable JSON
/// on stdout (consumed by `scripts/bench_json.sh` into
/// `BENCH_transform.json`).
fn transforms_json() -> String {
    transform_sweep::rows_to_json(&transform_sweep::run(TRANSFORM_SIZES)).to_string()
}

fn section_a1() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== A1: conjunction-of-all-predicates default vs single predicate ==\n"
    )
    .unwrap();
    let r = ablations::run_a1();
    let mut t = TextTable::new(&["join strategy", "result rows", "precision"]);
    t.row(vec![
        "conjunction (default)".into(),
        r.conjunction.0.to_string(),
        f3(r.conjunction.1),
    ]);
    t.row(vec![
        "worst single predicate".into(),
        r.single.0.to_string(),
        f3(r.single.1),
    ]);
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn section_a2() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== A2: structure-learner expert ablation (1 example, hard tiers) ==\n"
    )
    .unwrap();
    let rows = ablations::run_a2(3);
    let mut t = TextTable::new(&["disabled expert", "mean F1"]);
    for r in &rows {
        t.row(vec![r.disabled.clone(), f3(r.f1)]);
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn section_a3() -> String {
    let mut out = String::new();
    writeln!(out, "== A3: SPCSH prune-quantile sweep ==\n").unwrap();
    let mut t = TextTable::new(&["nodes", "prune quantile", "mean time", "mean cost ratio"]);
    for nodes in [80, 240] {
        for r in ablations::run_a3(&[0.3, 0.5, 0.7, 0.9, 1.0], 5, nodes) {
            t.row(vec![
                r.nodes.to_string(),
                format!("{:.1}", r.quantile),
                dur(r.time),
                f3(r.cost_ratio),
            ]);
        }
    }
    writeln!(out, "{}", t.render()).unwrap();
    out
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if which.iter().any(|w| w == "e3-json") {
        println!("{}", e3_json());
        return;
    }
    if which.iter().any(|w| w == "serve-json") {
        println!("{}", serve_json());
        return;
    }
    if which.iter().any(|w| w == "faults-json") {
        println!("{}", faults_json());
        return;
    }
    if which.iter().any(|w| w == "transforms-json") {
        println!("{}", transforms_json());
        return;
    }
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);

    const SECTIONS: &[(&str, fn() -> String)] = &[
        ("e1", section_e1),
        ("e2", section_e2),
        ("e3", section_e3),
        ("e4", section_e4),
        ("e5", section_e5),
        ("e6", section_e6),
        ("e7", section_e7),
        ("e8", section_e8),
        ("serve", section_serve),
        ("faults", section_faults),
        ("transforms", section_transforms),
        ("a1", section_a1),
        ("a2", section_a2),
        ("a3", section_a3),
    ];
    let selected: Vec<&(&str, fn() -> String)> =
        SECTIONS.iter().filter(|(name, _)| want(name)).collect();

    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = selected.iter().map(|(_, f)| scope.spawn(f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment section panicked"))
            .collect()
    });
    for out in outputs {
        print!("{out}");
    }
}
