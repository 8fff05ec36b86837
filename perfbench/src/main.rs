//! Seeded closed-loop benchmark of the CopyCat serving stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_autocomplete --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (several
//! times; the median is `setup_s`), then runs two closed-loop clients
//! for the window: a client sends its next request line only after the
//! reply to the previous one, as a user waits for a suggestion before
//! pasting again. Every reply is checked. The last stdout line is the
//! result object; the lines before it carry the run metadata and the
//! workload's own figures. With `--trace 1` the window is split: an
//! untraced half, then a traced half whose spans give the per-layer
//! metrics and are written to `perfbench/out/`.

mod alloc;
mod client;
mod durable;
mod proto;
mod stats;
mod tasks;
mod trace;
mod warm;

use client::{Client, Layers, Recorder};
use copycat_services::WorldConfig;
use stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Span, Tracer};

#[global_allocator]
static ALLOC: alloc::GatedAlloc = alloc::GatedAlloc::new();

pub const WORKLOADS: [&str; 3] = ["warm_autocomplete", "integration_tasks", "durable_sessions"];

/// Closed-loop client threads per workload (the build box has 2 cores).
pub const CLIENTS: usize = 2;

/// What every workload of one run shares.
pub struct Env {
    pub workload: &'static str,
    pub seed: u64,
    pub world_seed: u64,
    pub out_dir: PathBuf,
    /// Self-test scale: tiny sessions, short histories.
    pub small: bool,
}

impl Env {
    /// World size: `full`, or a tiny world at self-test scale.
    pub fn venues(&self, full: usize) -> usize {
        if self.small {
            12
        } else {
            full
        }
    }
}

/// One measured window.
#[derive(Clone, Copy)]
pub struct Phase {
    pub traced: bool,
    pub window: Duration,
    pub epoch: Instant,
}

impl Phase {
    pub fn tracer(&self) -> Option<Tracer> {
        self.traced.then(|| Tracer::new(self.epoch))
    }
}

/// Everything one window produced.
#[derive(Default)]
pub struct Outcome {
    pub rec: Recorder,
    pub layers: Layers,
    pub setup_s: Samples,
    /// Seconds the clients were sending, per block.
    pub block_s: Vec<f64>,
    pub live_heap_bytes: u64,
    pub spans: Vec<Span>,
    pub allocs: BTreeMap<&'static str, Samples>,
    /// Workload-specific figures (printed, not gated).
    pub extra: BTreeMap<&'static str, f64>,
    /// Durability settings of a router workload.
    pub flush: Option<(u64, u64)>,
}

impl Outcome {
    pub fn absorb(&mut self, client: Client<'_>) {
        self.rec.merge(client.rec);
        self.layers.merge(client.layers);
        if let Some(tr) = client.tracer {
            let base = self.spans.len();
            self.spans.extend(tr.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        for (k, v) in client.allocs.unwrap_or_default() {
            self.allocs.entry(k).or_default().extend(&v);
        }
    }
}

fn run_workload(env: &Env, phase: Phase) -> Outcome {
    match env.workload {
        "warm_autocomplete" => warm::run(env, phase),
        "integration_tasks" => tasks::run(env, phase),
        _ => durable::run(env, phase),
    }
}

pub fn world_config(env: &Env) -> WorldConfig {
    let venues = match env.workload {
        "warm_autocomplete" => warm::VENUES,
        _ => tasks::VENUES,
    };
    WorldConfig {
        seed: env.world_seed,
        venues: env.venues(venues),
        ..WorldConfig::default()
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or(format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of `path`, from `statfs(2)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    }
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux and starts with the
    // 8-byte `f_type`; the buffer is larger than the struct.
    let mut buf = [0u64; 32];
    // SAFETY: `cpath` is a NUL-terminated string that outlives the call,
    // and `buf` is a writable, 8-aligned buffer larger than `struct
    // statfs`, so the kernel's write stays inside it.
    if unsafe { statfs(cpath.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return "unknown".into();
    }
    match buf[0] {
        0xEF53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x6969 => "nfs".into(),
        0x2FC1_2FC1 => "zfs".into(),
        0x6573_5546 => "fuse".into(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn fs_type(_path: &Path) -> String {
    "unknown".into()
}

/// Write `metrics` as a JSON object body, every value with all digits.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// Live heap bytes of the program: the allocator's figure less the
/// samples the benchmark holds in `recorders`.
pub fn program_heap_bytes<'r>(recorders: impl IntoIterator<Item = &'r Recorder>) -> u64 {
    let own: u64 = recorders.into_iter().map(Recorder::heap_bytes).sum();
    alloc::live_heap_bytes().saturating_sub(own)
}

/// Blocks a time-based window is cut into.
pub const BLOCKS: usize = 5;

/// Run one closed-loop client per state for the phase's window, each
/// calling `step` on its own state until the deadline. In a traced
/// phase, client 0 then runs `alloc_steps` more steps alone, counting
/// each request's allocations exactly.
pub fn run_window<'a, S: Send>(
    phase: Phase,
    out: &mut Outcome,
    target: client::Target<'a>,
    twins: Option<client::Twins<'a>>,
    states: Vec<S>,
    alloc_steps: usize,
    step: impl Fn(&mut Client<'a>, &mut S) + Sync,
) {
    let window = phase.window.as_secs_f64();
    let block_len = window / BLOCKS as f64;
    let step = &step;
    let started = Instant::now();
    let mut clients: Vec<(Client<'a>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                scope.spawn(move || {
                    let mut client = Client::new(target, twins, phase.tracer());
                    loop {
                        let elapsed = started.elapsed().as_secs_f64();
                        if elapsed >= window {
                            break;
                        }
                        client.rec.block = ((elapsed / block_len) as usize).min(BLOCKS - 1);
                        step(&mut client, &mut state);
                    }
                    (client, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.block_s = vec![block_len; BLOCKS];
    out.block_s[BLOCKS - 1] = started.elapsed().as_secs_f64() - block_len * (BLOCKS - 1) as f64;
    out.live_heap_bytes = program_heap_bytes(clients.iter().map(|(c, _)| &c.rec));
    if phase.traced {
        let (client, state) = &mut clients[0];
        client.allocs = Some(BTreeMap::new());
        client.tracer = None;
        client.twins = None;
        for _ in 0..alloc_steps {
            step(client, state);
        }
    }
    for (client, _) in clients {
        out.absorb(client);
    }
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    // Each figure is computed per block and the median across blocks
    // is reported.
    let p50 = |class: &str| o.rec.per_block(class, |_, s| s.median());
    let rate = o.rec.per_block("request", |b, s| {
        s.len() as f64 / o.block_s.get(b).copied().unwrap_or(f64::MAX)
    });
    vec![
        ("setup_s", o.setup_s.median(), "s"),
        ("throughput_rps", rate, "1/s"),
        ("autocomplete_p50_us", p50("autocomplete"), "us"),
        ("read_p50_us", p50("read"), "us"),
        // Mutating requests mix cheap and costly ops, so a quantile
        // can sit in the gap between them; the mean cannot.
        (
            "mutation_mean_us",
            o.rec.per_block("mutation", |_, s| s.mean()),
            "us",
        ),
        (
            "live_heap_mib",
            o.live_heap_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ]
}

fn per_layer(
    traced: &Outcome,
    untraced: &Outcome,
    world_build_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans = trace::mean_self_us(&traced.spans);
    let span = |n: &str| spans.get(n).copied().unwrap_or(0.0);
    let l = &traced.layers;
    let us = |n: &str| l.mean(n) / 1e3;
    let lookups = (l.cache_hits + l.cache_misses).max(1) as f64;
    let alloc = |n: &str| traced.allocs.get(n).map_or(0.0, Samples::median);
    let mean = |o: &Outcome| o.rec.class("request").mean();
    vec![
        ("protocol.parse_us", span("protocol.parse"), "us"),
        ("server.handle_us", span("server.handle"), "us"),
        ("server.overhead_us", us("server.overhead"), "us"),
        ("registry.lock_wait_us", span("registry.lock_wait"), "us"),
        ("engine.discover_us", span("engine.discover"), "us"),
        ("engine.terminals_us", us("engine.terminals"), "us"),
        ("cache.hits", l.cache_hits as f64, "count"),
        ("cache.misses", l.cache_misses as f64, "count"),
        ("cache.hit_ratio", l.cache_hits as f64 / lookups, "ratio"),
        ("steiner.search_us", us("steiner.search"), "us"),
        ("exec.run_us", us("exec.run"), "us"),
        ("exec.rows_out", l.mean("exec.rows_out"), "rows"),
        ("extract.paste_us", span("extract.paste"), "us"),
        ("assoc.commit_us", span("assoc.commit"), "us"),
        ("suggest.columns_us", span("suggest.columns"), "us"),
        ("world.build_s", world_build_s, "s"),
        ("router.journal_us", us("router.journal"), "us"),
        ("store.append_us", us("store.append"), "us"),
        ("store.sync_us", us("store.sync"), "us"),
        ("store.snapshot_us", us("store.snapshot"), "us"),
        (
            "store.snapshot_bytes",
            l.mean("store.snapshot_bytes"),
            "bytes",
        ),
        ("store.recover_us", us("store.recover"), "us"),
        ("store.syncs", l.mean("store.syncs"), "count"),
        ("store.bytes_synced", l.mean("store.bytes_synced"), "bytes"),
        ("store.snapshots", l.mean("store.snapshots"), "count"),
        (
            "recover.replayed_records",
            l.mean("recover.replayed_records"),
            "count",
        ),
        ("alloc.autocomplete", alloc("alloc.autocomplete"), "count"),
        ("alloc.render", alloc("alloc.render"), "count"),
        ("alloc.paste", alloc("alloc.paste"), "count"),
        ("alloc.feedback", alloc("alloc.feedback"), "count"),
        (
            "trace.overhead_pct",
            (mean(traced) / mean(untraced).max(1e-9) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Median wall time of building the workload's shared world base.
fn world_build_s(env: &Env) -> f64 {
    let config = world_config(env);
    let mut s = Samples::default();
    for _ in 0..3 {
        let start = Instant::now();
        std::hint::black_box(copycat_core::WorldBase::synthetic(&config));
        s.push(start.elapsed().as_secs_f64());
    }
    s.median()
}

/// The run's metadata, so two reports can be shown to be like-for-like.
fn meta_json(env: &Env, args: &Args, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (sync_every, snapshot_every) = o
        .flush
        .map_or(("null".to_string(), "null".to_string()), |(a, b)| {
            (a.to_string(), b.to_string())
        });
    let world = world_config(env);
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": \"{profile}\", \"git_commit\": \"{}\", \
         \"clients\": {}, \"world_seed\": {}, \"world_venues\": {}, \"sync_every\": {sync_every}, \
         \"snapshot_every\": {snapshot_every}, \"store_fs\": \"{}\", \"timer_resolution_ns\": {}}}}}",
        env.workload,
        env.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        CLIENTS,
        world.seed,
        world.venues,
        fs_type(&env.out_dir),
        trace::timer_resolution_ns(),
    )
}

fn extra_json(o: &Outcome) -> String {
    let mut fields: Vec<(&str, f64, &str)> = o.extra.iter().map(|(k, v)| (*k, *v, "")).collect();
    for class in o.rec.us.keys() {
        let all = o.rec.class(class);
        fields.push((class, all.len() as f64, "samples"));
        fields.push((class, all.quantile(0.99), "p99_us"));
    }
    fields.push(("blocks", o.block_s.len() as f64, ""));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v, tag)| {
            if tag.is_empty() {
                format!("\"{k}\": {v:?}")
            } else {
                format!("\"{k}.{tag}\": {v}")
            }
        })
        .collect();
    format!("{{\"workload_figures\": {{{}}}}}", body.join(", "))
}

/// Run one invocation; returns the final result line.
fn run(args: &Args, small: bool) -> Result<String, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let env = Env {
        workload: args.workload,
        seed: args.seed,
        world_seed: 1 + args.seed % 1_000_003,
        out_dir,
        small,
    };
    let window = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let (main, metrics, spans_ok) = if args.trace {
        let half = window / 2;
        let untraced = run_workload(
            &env,
            Phase {
                traced: false,
                window: half,
                epoch,
            },
        );
        let traced = run_workload(
            &env,
            Phase {
                traced: true,
                window: half,
                epoch,
            },
        );
        let resolution = trace::timer_resolution_ns();
        let reconciled = trace::reconcile(&traced.spans, resolution);
        let path = env
            .out_dir
            .join(format!("trace-{}-{}.jsonl", env.workload, env.seed));
        std::fs::write(&path, trace::to_jsonl(&traced.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let metrics = per_layer(&traced, &untraced, world_build_s(&env));
        let mut main = traced;
        main.rec.merge(untraced.rec);
        (main, metrics, reconciled.map(|_| ()))
    } else {
        let o = run_workload(
            &env,
            Phase {
                traced: false,
                window,
                epoch,
            },
        );
        let metrics = end_to_end(&o);
        (o, metrics, Ok(()))
    };
    println!("{}", meta_json(&env, args, &main));
    println!("{}", extra_json(&main));
    if let Some(why) = &main.rec.first_failure {
        eprintln!("perfbench: first failed check: {why}");
    }
    if let Err(why) = &spans_ok {
        eprintln!("perfbench: trace reconciliation failed: {why}");
    }
    let correct = main.rec.failed == 0 && spans_ok.is_ok();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        main.rec.attempted.max(1),
        main.rec.failed,
        metrics_json(&metrics)
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args, false));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_util::json::Json;

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn listed(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = spec[section].as_array().expect("metric list");
        names
            .iter()
            .map(|m| m["name"].as_str().expect("name").to_string())
            .collect()
    }

    /// A tiny run of every workload, untraced and traced: every check
    /// passes, the trace reconciles, and exactly the listed metrics are
    /// printed.
    fn check(workload: &'static str) {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 0.4,
                trace,
            };
            let line = run(&args, true).expect("run");
            let result = Json::parse(&line).expect("result line is JSON");
            assert_eq!(
                result["correct"].as_bool(),
                Some(true),
                "{workload} trace={trace}: {line}"
            );
            assert_eq!(
                result["failed"].as_f64(),
                Some(0.0),
                "{workload} trace={trace}: {line}"
            );
            let printed: Vec<String> = result["metrics"]
                .as_object()
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(printed, listed(section), "{workload} trace={trace}");
        }
    }

    #[test]
    fn warm_autocomplete_self_test() {
        check("warm_autocomplete");
    }

    #[test]
    fn integration_tasks_self_test() {
        check("integration_tasks");
    }

    #[test]
    fn durable_sessions_self_test() {
        check("durable_sessions");
    }
}
