//! Capture workloads into `.swtrace` binary flow traces.
//!
//! Two sources, one sink:
//!
//! ```text
//! # Synthesize a CAIDA-style heavy-tail trace (streams to disk, memory
//! # bounded by concurrent flows — millions of flows are fine):
//! cargo run -p swishmem-bench --release --bin capture -- \
//!     --synth --flows 1000000 --seed 7 --out big.swtrace
//!
//! # Record a live deployment's ingress stream through the capture tap:
//! cargo run -p swishmem-bench --release --bin capture -- \
//!     --run --seed 7 --out run.swtrace
//! ```
//!
//! A summary of the capture (records, bytes, clock span) is appended to
//! `results/E24_capture.json` unless `--json` overrides the path. A
//! malformed value or an unknown flag prints usage and exits 2.

use std::io::BufWriter;
use std::str::FromStr;

use swishmem::prelude::*;
use swishmem_bench::json::Json;
use swishmem_bench::scenarios::replay_deployment;
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_replay::{
    capture_deployment_trace, synth_to_writer, SynthConfig, TraceMeta, TraceRecord, TraceWriter,
};

/// Drive a FlowGen workload through the replay deployment with the
/// capture tap armed and return the taped ingress stream.
fn record_live_run(seed: u64, flows_per_sec: f64) -> Vec<TraceRecord> {
    let mut dep = replay_deployment(seed);
    let tap = dep.attach_capture(1 << 22);

    let router = EcmpRouter::new(3, RoutingMode::EcmpStable);
    let sched = FlowGen::new(
        FlowGenConfig {
            flow_rate: flows_per_sec,
            ..FlowGenConfig::default()
        },
        seed,
    )
    .generate(&router);
    let base = SimTime(dep.now().0 + 1_000_000);
    let n_hosts = dep.host_ids().len();
    for p in &sched {
        let t = SimTime(base.0 + p.time.nanos()).max(dep.now());
        let from = p.pkt.flow.src_port as usize % n_hosts;
        dep.inject(t, p.ingress % 3, from, p.pkt);
    }
    dep.run_for(SimDuration::millis(30));
    let (records, skipped) = capture_deployment_trace(&dep, &tap);
    eprintln!(
        "live run: {} scheduled, {} captured, {} skipped (non-ingress)",
        sched.len(),
        records.len(),
        skipped
    );
    records
}

fn write_records(path: &str, records: &[TraceRecord], meta: TraceMeta) -> (u64, TraceMeta) {
    let file = std::fs::File::create(path).expect("create output trace");
    let mut w = TraceWriter::new(BufWriter::new(file), meta).expect("write superblock");
    for r in records {
        w.push(*r).expect("records must be time-sorted");
    }
    let n = w.len();
    let (_, meta) = w.finish().expect("finalize trace");
    (n, meta)
}

fn usage(msg: &str) -> ! {
    eprintln!("capture: {msg}");
    eprintln!("usage: capture --synth [--flows N] [--clients N] [--servers N] [--ingress N]");
    eprintln!(
        "                       [--duration-ns N] [--udp] [--seed S] [--out PATH] [--json PATH]"
    );
    eprintln!("       capture --run [--rate F] [--seed S] [--out PATH] [--json PATH]");
    std::process::exit(2)
}

/// `flag`'s value parsed as a `T`, or usage and exit 2.
fn parse<T: FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} {v} is not a valid value")))
}

fn main() {
    let (mut synth, mut run) = (false, false);
    let mut out = "capture.swtrace".to_string();
    let mut json_path = "results/E24_capture.json".to_string();
    let mut seed = 1u64;
    let mut cfg = SynthConfig {
        flows: 100_000,
        clients: 4_096,
        servers: 256,
        ingress: 4,
        ..SynthConfig::default()
    };
    let mut duration = None;
    let mut rate = 10_000.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--synth" => synth = true,
            "--run" => run = true,
            "--out" => out = value(),
            "--json" => json_path = value(),
            "--seed" => seed = parse(&flag, &value()),
            "--flows" => cfg.flows = parse(&flag, &value()),
            "--clients" => cfg.clients = parse(&flag, &value()),
            "--servers" => cfg.servers = parse(&flag, &value()),
            "--ingress" => cfg.ingress = parse(&flag, &value()),
            "--duration-ns" => duration = Some(parse(&flag, &value())),
            "--udp" => cfg.tcp = false,
            "--rate" => rate = parse(&flag, &value()),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if synth == run {
        usage("pick one of --synth and --run");
    }
    if cfg.flows == 0 || cfg.ingress == 0 {
        usage("--flows and --ingress must be at least 1");
    }
    if rate.is_nan() || rate <= 0.0 {
        usage(&format!("--rate {rate} must be positive"));
    }

    let (source, count, meta) = if synth {
        cfg.duration = duration.unwrap_or(cfg.flows.max(10_000) * 100);
        let file = std::fs::File::create(&out).expect("create output trace");
        let meta_in = TraceMeta {
            flow_hint: cfg.flows,
            ..TraceMeta::new(cfg.ingress, seed, "synth")
        };
        let mut w = TraceWriter::new(BufWriter::new(file), meta_in).expect("write superblock");
        let n = synth_to_writer(&cfg, seed, &mut w).expect("synthesis");
        let (_, meta) = w.finish().expect("finalize trace");
        ("synth", n, meta)
    } else {
        let records = record_live_run(seed, rate);
        let (n, meta) = write_records(&out, &records, TraceMeta::new(3, seed, "live-run"));
        ("live-run", n, meta)
    };
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "captured {count} records ({bytes} bytes) from {source} -> {out} \
         [clock {}..{} ns]",
        meta.clock_base_ns, meta.clock_end_ns
    );

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let summary = Json::obj(vec![
        ("source", Json::str(source)),
        ("out", Json::str(&out)),
        ("seed", Json::from(seed)),
        ("records", Json::from(count)),
        ("bytes", Json::from(bytes)),
        ("ingress_count", Json::from(u64::from(meta.ingress_count))),
        ("clock_base_ns", Json::from(meta.clock_base_ns)),
        ("clock_end_ns", Json::from(meta.clock_end_ns)),
    ]);
    std::fs::write(&json_path, format!("{}\n", summary.pretty())).expect("write summary json");
    eprintln!("summary -> {json_path}");
}
