//! Replay `.swtrace` flow traces through the protocol deployment or the
//! leaf-spine fabric, and run the oracle-armed scenario packs.
//!
//! ```text
//! # Stream a trace through the protocol deployment (ring ingest,
//! # backpressure accounting, deterministic digest):
//! cargo run -p swishmem-bench --release --bin replay -- \
//!     --trace big.swtrace --seed 7 --speedup 4
//!
//! # Replay through the leaf-spine fabric (count-min leaves, relay
//! # spines; the digest is a pure function of the trace):
//! cargo run -p swishmem-bench --release --bin replay -- \
//!     --trace big.swtrace --leafspine 16x4
//!
//! # Run the scenario packs (all five + sabotage negative):
//! cargo run -p swishmem-bench --release --bin replay -- --packs [--quick]
//! ```
//!
//! A JSON report lands in `results/E24_replay.json` (override with
//! `--json`). Exits nonzero if a scenario pack fails its gates.

use std::io::BufReader;

use swishmem::prelude::*;
use swishmem::{NfDecision, RegisterSpec, SharedState};
use swishmem_bench::json::Json;
use swishmem_bench::leafspine::{run_leaf_spine, trace_to_leaf_spine, LeafSpineSpec};
use swishmem_replay::{
    replay_digest, replay_trace, run_pack, PackConfig, PackKind, ReplayConfig, Sabotage,
    TraceReader,
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

fn proto_replay(trace: &str, seed: u64, cfg: &ReplayConfig) -> Json {
    let file = std::fs::File::open(trace).unwrap_or_else(|e| panic!("open {trace}: {e}"));
    let mut reader =
        TraceReader::new(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {trace}: {e}"));
    let mut dep = DeploymentBuilder::new(3)
        .hosts(2)
        .seed(seed)
        .register(RegisterSpec::ewo_counter(0, "cnt", 256))
        .build(|_| Box::new(CountNf));
    dep.settle();
    let start = SimTime(dep.now().0 + 1_000_000);
    let stats = replay_trace(&mut dep, &mut reader, &ReplayConfig { start, ..*cfg })
        .unwrap_or_else(|e| panic!("replay {trace}: {e}"));
    dep.run_for(SimDuration::millis(10));
    let digest = replay_digest(&dep, 256);
    eprintln!(
        "proto replay: {} records, {} stalls (max occupancy {}), {:.0} records/s, digest {digest:016x}",
        stats.records, stats.stalls, stats.max_occupancy, stats.records_per_sec
    );
    Json::obj(vec![
        ("mode", Json::str("proto")),
        ("records", Json::from(stats.records)),
        ("injected", Json::from(stats.injected)),
        ("stalls", Json::from(stats.stalls)),
        ("max_occupancy", Json::from(stats.max_occupancy)),
        ("records_per_sec", Json::Num(stats.records_per_sec)),
        ("digest", Json::str(format!("{digest:016x}"))),
    ])
}

fn leafspine_replay(trace: &str, spec: LeafSpineSpec) -> Json {
    let file = std::fs::File::open(trace).unwrap_or_else(|e| panic!("open {trace}: {e}"));
    let mut reader =
        TraceReader::new(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {trace}: {e}"));
    let records = reader
        .read_all()
        .unwrap_or_else(|e| panic!("read {trace}: {e}"));
    let injections = trace_to_leaf_spine(&spec, &records);
    let o = run_leaf_spine(spec, &injections);
    eprintln!(
        "leaf-spine replay ({}x{}): {} events, digest {:016x}, {:.0} events/s",
        spec.leaves,
        spec.spines,
        o.events,
        o.digest,
        o.wall_events_per_sec()
    );
    Json::obj(vec![
        ("mode", Json::str("leafspine")),
        ("leaves", Json::from(u64::from(spec.leaves))),
        ("spines", Json::from(u64::from(spec.spines))),
        ("records", Json::from(records.len())),
        ("events", Json::from(o.events)),
        ("digest", Json::str(format!("{:016x}", o.digest))),
        ("wall_events_per_sec", Json::Num(o.wall_events_per_sec())),
    ])
}

fn run_packs(seed: u64, quick: bool, only: Option<&str>) -> (Json, bool) {
    let mut reports = Vec::new();
    let mut all_pass = true;
    for kind in PackKind::ALL {
        if let Some(name) = only {
            if kind.name() != name {
                continue;
            }
        }
        let r = run_pack(&PackConfig::new(kind, seed, quick));
        eprintln!(
            "pack {:<13} {} ({} records, {} stalls){}",
            r.name,
            if r.pass { "PASS" } else { "FAIL" },
            r.records,
            r.stalls,
            if r.pass {
                String::new()
            } else {
                format!(" {:?}", r.violations)
            }
        );
        all_pass &= r.pass;
        reports.push(r);
    }
    // The negative control: a sabotaged feed must fail.
    if only.is_none() {
        let sab = run_pack(&PackConfig {
            sabotage: Some(Sabotage::DuplicateFlowRecord),
            ..PackConfig::new(PackKind::FlashCrowd, seed, quick)
        });
        eprintln!(
            "pack flash_crowd (sabotaged) {} — expected FAIL",
            if sab.pass { "PASS" } else { "FAIL" }
        );
        all_pass &= !sab.pass;
        reports.push(sab);
    }
    let json = Json::Arr(
        reports
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("pack", Json::str(r.name)),
                    ("pass", Json::Bool(r.pass)),
                    ("records", Json::from(r.records)),
                    ("stalls", Json::from(r.stalls)),
                    (
                        "violations",
                        Json::Arr(r.violations.iter().map(Json::str).collect()),
                    ),
                    (
                        "measures",
                        Json::obj(
                            r.measures
                                .iter()
                                .map(|(k, v)| (*k, Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    (json, all_pass)
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
    let seed: u64 = get("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let json_path = get("--json").unwrap_or_else(|| "results/E24_replay.json".to_string());
    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut ok = true;

    if let Some(trace) = get("--trace") {
        if let Some(dims) = get("--leafspine") {
            let spec = LeafSpineSpec::parse(&format!("leaf-spine:{dims}"))
                .unwrap_or_else(|| panic!("bad --leafspine {dims:?} (want <L>x<S>)"));
            sections.push(("leafspine", leafspine_replay(&trace, spec)));
        } else {
            let cfg = ReplayConfig {
                speedup: get("--speedup").and_then(|s| s.parse().ok()).unwrap_or(1.0),
                batch: get("--batch").and_then(|s| s.parse().ok()).unwrap_or(512),
                ring_capacity: get("--ring").and_then(|s| s.parse().ok()).unwrap_or(4096),
                ..ReplayConfig::default()
            };
            sections.push(("proto", proto_replay(&trace, seed, &cfg)));
        }
    }
    if has("--packs") || get("--pack").is_some() {
        let (json, pass) = run_packs(seed, has("--quick"), get("--pack").as_deref());
        ok &= pass;
        sections.push(("packs", json));
    }
    if sections.is_empty() {
        eprintln!("usage: replay --trace PATH [--leafspine LxS | --speedup F --batch N --ring N]");
        eprintln!("       replay --packs [--quick] [--pack NAME] [--seed S] [--json PATH]");
        std::process::exit(2);
    }

    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let report = Json::obj(sections);
    std::fs::write(&json_path, format!("{}\n", report.pretty())).expect("write report json");
    eprintln!("report -> {json_path}");
    if !ok {
        eprintln!("replay: a scenario pack failed its gates");
        std::process::exit(1);
    }
}
