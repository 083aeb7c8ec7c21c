//! The repo benchmark: four whole-stack workloads measured end to end in
//! host time, and a traced run that attributes the time to the layers.
//! `benchmark/run.sh` builds and runs this; `benchmark/README.md` says
//! what each workload and metric is for.

mod host;
mod report;
mod spans;
mod stack;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{json_metrics, json_numbers, json_string, ratio, result_line, Metrics};
use spans::{span, Span};
use stack::{Rep, RepCfg, Sizes, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Timed reps per end-to-end run, whatever `--seconds` says.
const MIN_TIMED_REPS: usize = 5;
/// Untraced reps the traced run times first, as the overhead baseline.
const TRACED_BASE_REPS: usize = 2;

const USAGE: &str = "usage: bench --workload <fabric_fwd|ewo_replay|sro_conn|fault_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n       \
                     bench --self-test [--out-dir DIR]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 13,
        seconds: 12.0,
        trace: false,
        self_test: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(if self_test(&args.out_dir) { 0 } else { 1 });
    }
    let workload = args.workload.expect("checked by parse_args");
    let sizes = Sizes::nominal();
    let cfg = RepCfg {
        seed: args.seed,
        sizes: &sizes,
        traced: false,
        sabotage: false,
        out_dir: &args.out_dir,
    };
    if args.trace {
        traced_run(workload, &cfg);
    } else {
        end_to_end_run(workload, &cfg, args.seconds);
    }
}

/// Who measured: git sha and rustc from `run.sh`, the rest from `/proc`.
fn host_json() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"git_sha\":{},\"rustc\":{},\"nproc\":{},\"cpu_model\":{}}}",
        json_string(&env("BENCH_GIT_SHA")),
        json_string(&env("BENCH_RUSTC")),
        host::nproc(),
        json_string(&host::cpu_model())
    )
}

/// Operations checked and failed over `reps`. Reps of one invocation run
/// the same inputs, so differing digests fail the whole workload.
fn verdict(reps: &[&Rep]) -> (u64, u64) {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if reps.iter().any(|r| r.digest != reps[0].digest) {
        eprintln!("state digests differ between reps of one invocation");
        return (attempted, attempted);
    }
    (attempted, failed)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// End-to-end run: one discarded warm-up rep, then timed reps until
/// `seconds` have been measured, at least [`MIN_TIMED_REPS`] of them.
/// Every metric is the median over the timed reps. No spans are recorded.
fn end_to_end_run(w: Workload, cfg: &RepCfg<'_>, seconds: f64) {
    let warm_up = stack::run_rep(w, cfg);
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(stack::run_rep(w, cfg));
    }
    let timed_s: Vec<f64> = reps.iter().map(|r| secs(r.timed_ns)).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| secs(r.setup_ns)).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.pkts as f64 / secs(r.timed_ns))
        .collect();
    let pkts = reps[0].pkts;

    let mut m = Metrics::default();
    m.timed(
        "pkts_per_s",
        "pkts/s",
        pkts as f64 / stats::median(&timed_s),
    );
    m.timed("peak_rss_mb", "MB", host::peak_rss_mb());
    m.timed("setup_s", "s", stats::median(&setup_s));

    let all: Vec<&Rep> = std::iter::once(&warm_up).chain(&reps).collect();
    let (attempted, failed) = verdict(&all);
    println!(
        "{{\"workload\":{},\"mode\":\"end_to_end\",\"seed\":{},\"timed_reps\":{},\
         \"pkts_per_rep\":{},\"metrics\":{},\"iqr\":{{\"pkts_per_s\":{},\"setup_s\":{}}},\
         \"timed_s\":{},\"setup_s\":{},\"digest\":\"{:016x}\",\"host\":{}}}",
        json_string(w.name()),
        cfg.seed,
        reps.len(),
        pkts,
        json_metrics(&m.0, false),
        stats::iqr(&rates),
        stats::iqr(&setup_s),
        json_numbers(&timed_s),
        json_numbers(&setup_s),
        reps[0].digest,
        host_json()
    );
    println!("{}", result_line(attempted, failed, &m.0));
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

/// Traced run: untraced reps for the baseline, then one rep with the
/// span recorder and the allocation counter on, then the ladder and the
/// kernel loops. Prints every per-layer metric and writes the spans to
/// `<out-dir>/trace-<workload>.json`.
fn traced_run(w: Workload, cfg: &RepCfg<'_>) {
    stack::run_rep(w, cfg);
    let base: Vec<Rep> = (0..TRACED_BASE_REPS)
        .map(|_| stack::run_rep(w, cfg))
        .collect();

    let traced_cfg = RepCfg {
        traced: true,
        ..*cfg
    };
    spans::start();
    let allocs_before = host::alloc_totals();
    let traced = span("bench.rep", || stack::run_rep(w, &traced_cfg));
    let allocs_after = host::alloc_totals();
    let mut kernels = Metrics::default();
    span("bench.kernels", || {
        let head = stack::replay_kernels(cfg, &mut kernels);
        span("bench.ladder", || {
            stack::ladder(&head, cfg.seed, &mut kernels)
        });
        stack::wire_kernels(cfg, &head, &mut kernels);
        stack::pisa_kernels(cfg, &mut kernels);
        stack::nf_kernels(cfg, &mut kernels);
    });
    let all_spans = spans::finish();
    // Spans are in start order: the traced rep's come before the kernels'.
    let rep_spans = all_spans
        .iter()
        .position(|s| s.name == "bench.kernels")
        .map_or(&all_spans[..], |kernels_at| &all_spans[..kernels_at]);

    let allocs = (
        allocs_after.0 - allocs_before.0,
        allocs_after.1 - allocs_before.1,
    );
    let mut m = per_layer_metrics(&base, &traced, rep_spans, allocs);
    m.0.extend(kernels.0);

    let trace_file = cfg.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::create_dir_all(cfg.out_dir).expect("create the benchmark's out directory");
    let traced_rep = 1 + TRACED_BASE_REPS;
    std::fs::write(
        &trace_file,
        spans::chrome_trace(&all_spans, w.name(), traced_rep),
    )
    .expect("write the trace file");

    let self_ms: Vec<String> = spans::self_ns_by_layer(rep_spans)
        .iter()
        .map(|(layer, ns)| format!("{}:{}", json_string(layer), *ns as f64 / 1e6))
        .collect();
    let all: Vec<&Rep> = base.iter().chain(std::iter::once(&traced)).collect();
    let (attempted, failed) = verdict(&all);
    println!(
        "{{\"workload\":{},\"mode\":\"traced\",\"seed\":{},\"per_layer\":{},\
         \"rep_self_ms_by_layer\":{{{}}},\"rep_ms\":{},\"rep_timed_ms\":{},\
         \"spans\":{},\"trace_file\":{},\"digest\":\"{:016x}\",\"host\":{}}}",
        json_string(w.name()),
        cfg.seed,
        json_metrics(&m.0, true),
        self_ms.join(","),
        rep_spans.first().map_or(0.0, |s| s.dur_ns() as f64 / 1e6),
        traced.timed_ns as f64 / 1e6,
        all_spans.len(),
        json_string(&trace_file.to_string_lossy()),
        traced.digest,
        host_json()
    );
    println!("{}", result_line(attempted, failed, &m.0));
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

/// The per-layer metrics of the workload itself; the ladder and the
/// kernel loops add theirs. Counts come from the traced rep (they equal
/// the untraced reps' or the digests differ), host times per event and
/// per packet from the untraced reps.
fn per_layer_metrics(
    base: &[Rep],
    traced: &Rep,
    rep_spans: &[Span],
    (allocs, alloc_bytes): (u64, u64),
) -> Metrics {
    let c = &traced.counts;
    let pkts = traced.pkts;
    let base_timed: Vec<f64> = base.iter().map(|r| r.timed_ns as f64).collect();
    let base_cpu: Vec<f64> = base.iter().map(|r| r.timed_cpu_ns as f64).collect();
    let base_timed_ns = stats::median(&base_timed);
    let total = |name| spans::total_ns(rep_spans, name);

    let mut m = Metrics::default();
    m.exact("simnet.events", "count", c.events as f64);
    m.exact("simnet.events_per_pkt", "ratio", ratio(c.events, pkts));
    m.timed("simnet.ns_per_event", "ns", base_timed_ns / c.events as f64);
    m.exact("simnet.peak_queue_depth", "count", c.peak_queue as f64);
    m.timed(
        "simnet.inject_ns_per_pkt",
        "ns",
        ratio(
            total("simnet.inject") + total("core.inject"),
            traced.injected,
        ),
    );
    m.exact(
        "simnet.wire_bytes_per_pkt",
        "B",
        ratio(c.delivered_bytes, pkts),
    );
    m.exact(
        "simnet.drop_share",
        "ratio",
        ratio(c.dropped_frames, c.delivered_frames + c.dropped_frames),
    );
    m.exact(
        "simnet.delivered_frames",
        "count",
        c.delivered_frames as f64,
    );
    m.exact("simnet.fault_events", "count", c.fault_events as f64);

    m.exact(
        "wire.packet_size_bytes",
        "B",
        stack::packet_size_bytes() as f64,
    );

    m.exact(
        "pisa.punt_share",
        "ratio",
        ratio(c.punts, c.pipeline_packets),
    );
    m.exact(
        "pisa.recirc_per_pkt",
        "ratio",
        ratio(c.recircs, c.pipeline_packets),
    );

    m.timed("core.build_ms", "ms", total("core.build") as f64 / 1e6);
    m.timed("core.settle_ms", "ms", total("core.settle") as f64 / 1e6);
    m.timed(
        "core.run_ns_per_event",
        "ns",
        ratio(
            total("core.run_until") + total("core.run_for") + total("core.oracle_run"),
            c.events,
        ),
    );
    m.exact(
        "core.mirror_pkts_per_pkt",
        "ratio",
        ratio(c.mirror_packets, pkts),
    );
    m.exact("core.sync_pkts", "count", c.sync_packets as f64);
    m.exact(
        "core.merge_applied_share",
        "ratio",
        ratio(c.merge_applied, c.merge_entries),
    );
    m.exact("core.cp_jobs_per_pkt", "ratio", ratio(c.cp_jobs, pkts));
    m.exact(
        "core.write_sends_per_job",
        "ratio",
        ratio(c.cp_write_sends, c.cp_jobs),
    );
    m.exact("core.cp_retries", "count", c.cp_retries as f64);
    m.exact("core.cp_jobs_shed", "count", c.cp_jobs_shed as f64);
    m.exact(
        "core.reads_forwarded_share",
        "ratio",
        ratio(c.reads_forwarded, c.nf_reads),
    );
    m.exact(
        "core.sim_write_p50_us",
        "us",
        c.sim_write_p50_ns as f64 / 1e3,
    );
    m.exact(
        "core.sim_write_p99_us",
        "us",
        c.sim_write_p99_ns as f64 / 1e3,
    );
    m.exact("core.consensus_msgs", "count", c.consensus_msgs as f64);
    m.exact("core.leader_changes", "count", c.leader_changes as f64);
    m.exact(
        "core.oracle_violations",
        "count",
        c.oracle_violations as f64,
    );
    m.exact(
        "obs.records_per_pkt",
        "ratio",
        ratio(c.observer_records, pkts),
    );

    m.exact("replay.ring_stalls", "count", c.ring_stalls as f64);
    m.exact(
        "replay.ring_max_occupancy",
        "count",
        c.ring_max_occupancy as f64,
    );

    m.timed(
        "host.cpu_ns_per_pkt",
        "ns",
        stats::median(&base_cpu) / pkts as f64,
    );
    m.timed("host.allocs_per_pkt", "count", ratio(allocs, pkts));
    m.timed("host.alloc_bytes_per_pkt", "B", ratio(alloc_bytes, pkts));
    m.timed(
        "trace.overhead_pct",
        "%",
        (traced.timed_ns as f64 / base_timed_ns - 1.0) * 100.0,
    );
    m
}

/// Self-test at tiny sizes: every workload passes its own correctness
/// check, fails it when handed a sabotaged reference, and gives one
/// digest whichever way a replay is driven.
fn self_test(out_dir: &Path) -> bool {
    let sizes = Sizes::tiny();
    let mut ok = true;
    for w in Workload::ALL {
        let cfg = RepCfg {
            seed: 13,
            sizes: &sizes,
            traced: false,
            sabotage: false,
            out_dir,
        };
        let clean = stack::run_rep(w, &cfg);
        let pieces = stack::run_rep(
            w,
            &RepCfg {
                traced: true,
                ..cfg
            },
        );
        let sabotaged = stack::run_rep(
            w,
            &RepCfg {
                sabotage: true,
                ..cfg
            },
        );
        let checks = [
            ("clean rep passes", clean.failed == 0 && clean.attempted > 0),
            ("traced rep passes", pieces.failed == 0),
            ("one digest both ways", clean.digest == pieces.digest),
            ("same exact counts both ways", clean.counts == pieces.counts),
            ("sabotaged reference is caught", sabotaged.failed > 0),
        ];
        for (what, passed) in checks {
            println!(
                "self-test {:<12} {:<32} {}",
                w.name(),
                what,
                if passed { "ok" } else { "FAILED" }
            );
            ok &= passed;
        }
    }
    ok
}
