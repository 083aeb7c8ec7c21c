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
//! `results/E24_capture.json` unless `--json` overrides the path.

use std::io::BufWriter;

use swishmem::prelude::*;
use swishmem::{NfDecision, RegisterSpec, SharedState};
use swishmem_bench::json::Json;
use swishmem_nf::workload::{EcmpRouter, FlowGen, FlowGenConfig, RoutingMode};
use swishmem_replay::{
    capture_deployment_trace, synth_to_writer, SynthConfig, TraceMeta, TraceRecord, TraceWriter,
};

struct CountNf;

impl swishmem::NfApp for CountNf {
    fn process(
        &mut self,
        pkt: &DataPacket,
        _ingress: NodeId,
        st: &mut dyn SharedState,
    ) -> NfDecision {
        st.add(0, u32::from(pkt.flow.dst) % 256, 1);
        NfDecision::Forward {
            dst: NodeId(HOST_BASE),
            pkt: *pkt,
        }
    }
}

/// Drive a FlowGen workload through a 3-switch deployment with the
/// capture tap armed and return the taped ingress stream.
fn record_live_run(seed: u64, flows_per_sec: f64) -> Vec<TraceRecord> {
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(seed)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CountNf));
    dep.settle();
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = get("--out").unwrap_or_else(|| "capture.swtrace".to_string());
    let json_path = get("--json").unwrap_or_else(|| "results/E24_capture.json".to_string());
    let seed: u64 = get("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);

    let (source, count, meta) = if has("--synth") {
        let flows: u64 = get("--flows")
            .and_then(|s| s.parse().ok())
            .unwrap_or(100_000);
        let cfg = SynthConfig {
            flows,
            clients: get("--clients")
                .and_then(|s| s.parse().ok())
                .unwrap_or(4_096),
            servers: get("--servers").and_then(|s| s.parse().ok()).unwrap_or(256),
            ingress: get("--ingress").and_then(|s| s.parse().ok()).unwrap_or(4),
            duration: get("--duration-ns")
                .and_then(|s| s.parse().ok())
                .unwrap_or(flows.max(10_000) * 100),
            tcp: !has("--udp"),
            ..SynthConfig::default()
        };
        let file = std::fs::File::create(&out).expect("create output trace");
        let meta_in = TraceMeta {
            flow_hint: flows,
            ..TraceMeta::new(cfg.ingress, seed, "synth")
        };
        let mut w = TraceWriter::new(BufWriter::new(file), meta_in).expect("write superblock");
        let n = synth_to_writer(&cfg, seed, &mut w).expect("synthesis");
        let (_, meta) = w.finish().expect("finalize trace");
        ("synth", n, meta)
    } else if has("--run") {
        let rate: f64 = get("--rate")
            .and_then(|s| s.parse().ok())
            .unwrap_or(10_000.0);
        let records = record_live_run(seed, rate);
        let (n, meta) = write_records(&out, &records, TraceMeta::new(3, seed, "live-run"));
        ("live-run", n, meta)
    } else {
        eprintln!("usage: capture (--synth [--flows N] | --run [--rate F])");
        eprintln!("               [--seed S] [--out PATH.swtrace] [--json PATH]");
        std::process::exit(2);
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
