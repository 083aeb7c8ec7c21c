//! CLI driver: runs the paper-reproduction experiments and prints the
//! regenerated tables (optionally exporting JSON).
//!
//! Usage: `experiments [--quick] [--json PATH] [--list] [--only ID]...
//! [ID]...` — `--list` prints the known ids and exits; `--only e19`
//! (repeatable) and bare positional ids both select a subset.

use swishmem_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--list" => {}
            "--json" => i += 1,
            "--only" => {
                if let Some(v) = args.get(i + 1) {
                    selected.push(v.to_lowercase());
                }
                i += 1;
            }
            a if !a.starts_with("--") => selected.push(a.to_lowercase()),
            _ => {}
        }
        i += 1;
    }

    let all = experiments::all();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in &all {
            println!("{id}");
        }
        eprintln!("companion bin (cargo run -p swishmem-bench --release --bin <name>): explain");
        return;
    }
    let known: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    let to_run: Vec<_> = if selected.is_empty() {
        all
    } else {
        all.into_iter()
            .filter(|(id, _)| selected.iter().any(|s| s == id))
            .collect()
    };
    if to_run.is_empty() {
        eprintln!("no matching experiments; known ids: {}", known.join(" "));
        std::process::exit(2);
    }

    println!(
        "SwiShmem reproduction experiments ({} mode)",
        if quick { "quick" } else { "full" }
    );
    let mut results = Vec::new();
    for (id, run) in to_run {
        eprintln!("running {id} ...");
        let started = std::time::Instant::now();
        let res = run(quick);
        eprintln!("  {id} done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{}", res.render());
        results.push(res);
    }
    if let Some(path) = json_path {
        let json = swishmem_bench::table::results_to_json(&results);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}
