//! The `capture` and `replay` command lines: a malformed value, a
//! `--speedup` that is not positive, or an unknown flag prints usage and
//! exits 2 instead of running with a default in its place.

use std::process::{Command, Output};

const CAPTURE: &str = env!("CARGO_BIN_EXE_capture");
const REPLAY: &str = env!("CARGO_BIN_EXE_replay");

fn tmp(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

/// Synthesize a 2,000-flow trace at `seed` into `s<seed>.swtrace` and
/// return its bytes.
fn synth(seed: &str) -> Vec<u8> {
    let out = tmp(&format!("s{seed}.swtrace"));
    let json = format!("{out}.json");
    let synth = ["--synth", "--flows", "2000", "--seed", seed];
    let o = run(
        CAPTURE,
        &[&synth[..], &["--out", &out, "--json", &json]].concat(),
    );
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    std::fs::read(out).expect("trace written")
}

fn assert_usage(bin: &str, args: &[&str]) {
    let o = run(bin, args);
    let err = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains("usage:"), "{args:?}: {err}");
}

#[test]
fn capture_rejects_a_bad_value_and_an_unknown_flag() {
    assert_ne!(synth("7"), synth("1"));
    let (out, json) = (tmp("bad.swtrace"), tmp("bad.json"));
    let _ = std::fs::remove_file(&out);
    let base = ["--synth", "--out", &out, "--json", &json];
    for args in [
        ["--seed", "7x"],
        ["--flows", "0"],
        ["--rate", "0"],
        ["--run", "--udp"],
        ["--bogus", "1"],
    ] {
        assert_usage(CAPTURE, &[&base[..], &args].concat());
    }
    assert!(
        !std::path::Path::new(&out).exists(),
        "no trace on a usage error"
    );
}

#[test]
fn replay_rejects_a_bad_value_a_bad_speedup_and_an_unknown_flag() {
    synth("3");
    let (trace, json) = (tmp("s3.swtrace"), tmp("replay.json"));
    let base = ["--trace", &trace, "--json", &json];
    let ok = run(REPLAY, &[&base[..], &["--speedup", "4"]].concat());
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    for args in [
        ["--seed", "7x"],
        ["--batch", "-1"],
        ["--speedup", "0"],
        ["--speedup", "-2"],
        ["--speedup", "NaN"],
        ["--pack", "nope"],
        ["--shards", "4"],
    ] {
        assert_usage(REPLAY, &[&base[..], &args].concat());
    }
}
