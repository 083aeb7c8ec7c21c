//! Replay `.swtrace` flow traces through the SwiShmem replay deployment,
//! and run the oracle-armed scenario packs.
//!
//! ```text
//! # Stream a trace through the replay deployment (ring ingest,
//! # backpressure accounting, deterministic digest):
//! cargo run -p swishmem-bench --release --bin replay -- \
//!     --trace big.swtrace --seed 7 --speedup 4
//!
//! # Run the scenario packs (all five + sabotage negative):
//! cargo run -p swishmem-bench --release --bin replay -- --packs [--quick]
//! ```
//!
//! A JSON report lands in `results/E24_replay.json` (override with
//! `--json`). Exits nonzero if a scenario pack fails its gates; a
//! malformed value, a `--speedup` that is not positive, or an unknown
//! flag prints usage and exits 2.

use std::io::BufReader;
use std::str::FromStr;

use swishmem::prelude::*;
use swishmem_bench::json::Json;
use swishmem_bench::scenarios::replay_deployment;
use swishmem_replay::{
    replay_digest, replay_trace, run_pack, PackConfig, PackKind, ReplayConfig, Sabotage,
    TraceReader,
};

fn proto_replay(trace: &str, seed: u64, cfg: &ReplayConfig) -> Json {
    let file = std::fs::File::open(trace).unwrap_or_else(|e| panic!("open {trace}: {e}"));
    let mut reader =
        TraceReader::new(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {trace}: {e}"));
    let mut dep = replay_deployment(seed);
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

fn run_packs(seed: u64, quick: bool, only: Option<PackKind>) -> (Json, bool) {
    let mut reports = Vec::new();
    let mut all_pass = true;
    for kind in PackKind::ALL {
        if only.is_some_and(|k| k != kind) {
            continue;
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

fn usage(msg: &str) -> ! {
    eprintln!("replay: {msg}");
    eprintln!(
        "usage: replay --trace PATH [--speedup F] [--batch N] [--ring N] [--seed S] [--json PATH]"
    );
    eprintln!("       replay --packs [--quick] [--pack NAME] [--seed S] [--json PATH]");
    std::process::exit(2)
}

/// `flag`'s value parsed as a `T`, or usage and exit 2.
fn parse<T: FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} {v} is not a valid value")))
}

fn main() {
    let mut seed = 1u64;
    let mut json_path = "results/E24_replay.json".to_string();
    let mut trace = None;
    let mut cfg = ReplayConfig::default();
    let (mut packs, mut quick, mut only) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--trace" => trace = Some(value()),
            "--speedup" => cfg.speedup = parse(&flag, &value()),
            "--batch" => cfg.batch = parse(&flag, &value()),
            "--ring" => cfg.ring_capacity = parse(&flag, &value()),
            "--seed" => seed = parse(&flag, &value()),
            "--json" => json_path = value(),
            "--packs" => packs = true,
            "--quick" => quick = true,
            "--pack" => {
                let v = value();
                only = Some(PackKind::parse(&v).unwrap_or_else(|| usage(&format!("no pack {v}"))));
                packs = true;
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if cfg.speedup.is_nan() || cfg.speedup <= 0.0 {
        usage(&format!("--speedup {} must be positive", cfg.speedup));
    }

    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut ok = true;
    if let Some(trace) = trace {
        sections.push(("proto", proto_replay(&trace, seed, &cfg)));
    }
    if packs {
        let (json, pass) = run_packs(seed, quick, only);
        ok &= pass;
        sections.push(("packs", json));
    }
    if sections.is_empty() {
        usage("nothing to do");
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
