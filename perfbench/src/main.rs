// lint:allow(forbid-unsafe) `launch` must call libc's `wait4` to read a child's resource usage; the unsafety is confined to that one call in launch.rs
//! `perfbench-trace` — the compiled half of the sweep benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! perfbench-trace spec --workload NAME --seed N [--tiny] --dir DIR
//! perfbench-trace setup SPEC.json...
//! perfbench-trace trace materialized --records OUT.jsonl --tables OUT.txt SPEC.json...
//! perfbench-trace trace sliced --chunk C --shards M --work-dir DIR --records OUT.jsonl
//!                 --spool DIR SPEC.json
//! perfbench-trace launch [--stdout FILE] [--stderr FILE] -- PROGRAM ARGS...
//! ```
//!
//! `spec` writes a workload's spec files for a workload seed and prints
//! their paths, one per line. `setup` times the set-up a sweep pays before
//! its first engine round — spec load, `plan()`, and a `TopologyKind`
//! build of every network. It repeats the set-up in [`SETUP_BATCHES`]
//! batches of at least [`SETUP_BATCH_S`] seconds each (and at least one
//! set-up), and prints the median of the batches' mean set-up times as JSON. The batches average over the
//! host's second-scale speed swings, which a median of single millisecond
//! set-ups would jump between.
//! `trace` runs the traced mirror (see [`mirror`]) and prints its spans
//! and counts as JSON. `launch` runs one command and prints its wall time,
//! CPU time and peak RSS as JSON (see [`launch`]).

#![deny(unsafe_code)]

mod launch;
mod mirror;
mod workloads;

use radio_bench::scenario::ScenarioSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up batches per `setup` run.
const SETUP_BATCHES: usize = 5;

/// Least seconds per set-up batch.
const SETUP_BATCH_S: f64 = 0.3;

/// Parsed flags: `--flag value` pairs, `--switch`es and positionals.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            if switches.contains(&a.as_str()) {
                parsed.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = iter.next().ok_or_else(|| format!("{a} requires a value"))?;
                parsed.values.push((a.clone(), v.clone()));
            } else {
                parsed.positionals.push(a.clone());
            }
        }
        Ok(parsed)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag)
            .ok_or_else(|| format!("{flag} is required"))
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} requires a number, got {v}"))
        })
    }
}

/// Reads and parses one spec file.
fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("{}: invalid ScenarioSpec: {e}", path.display()))
}

fn load_specs(paths: &[String]) -> Result<Vec<ScenarioSpec>, String> {
    if paths.is_empty() {
        return Err("no spec files given".to_string());
    }
    paths.iter().map(|p| load_spec(Path::new(p))).collect()
}

fn cmd_spec(args: &Args) -> Result<String, String> {
    let workload = args.required("--workload")?;
    let seed: u64 = args.number("--seed", 0)?;
    let dir = PathBuf::from(args.required("--dir")?);
    let specs = workloads::specs(workload, seed, args.switches.iter().any(|s| s == "--tiny"))?;
    let mut out = String::new();
    for spec in &specs {
        let path = dir.join(format!("{}.json", spec.id));
        let json = serde_json::to_string_pretty(spec).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push_str(&format!("{}\n", path.display()));
    }
    Ok(out)
}

/// One set-up: load the specs, plan them, and build every unit's network.
/// Returns the networks built and their reliable-graph edge slots.
fn set_up(paths: &[String]) -> Result<(u64, u64), String> {
    let (mut nets, mut edge_slots) = (0u64, 0u64);
    for spec in load_specs(paths)? {
        for unit in spec.plan() {
            let mut rng = StdRng::seed_from_u64(unit.net_seed);
            let net = spec.topologies[unit.topo]
                .kind
                .build_with(&mut rng)
                .map_err(|e| format!("{}: unit {unit:?}: {e}", spec.id))?;
            nets += 1;
            edge_slots += net.g_csr().edge_slots() as u64;
            std::hint::black_box(net);
        }
    }
    Ok((nets, edge_slots))
}

fn cmd_setup(args: &Args) -> Result<String, String> {
    let mut means = Vec::new();
    let mut counts = (0, 0);
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t.elapsed().as_secs_f64() < SETUP_BATCH_S {
            counts = set_up(&args.positionals)?;
            reps += 1;
        }
        means.push(t.elapsed().as_secs_f64() / f64::from(reps));
    }
    means.sort_by(f64::total_cmp);
    let mid = means.len() / 2;
    let median = if means.len() % 2 == 1 {
        means[mid]
    } else {
        (means[mid - 1] + means[mid]) / 2.0
    };
    Ok(format!(
        "{{\"setup_s\": {median}, \"batches\": {}, \"nets\": {}, \"edge_slots\": {}}}\n",
        means.len(),
        counts.0,
        counts.1
    ))
}

fn cmd_trace(args: &Args) -> Result<String, String> {
    let (mode, spec_paths) = args
        .positionals
        .split_first()
        .ok_or("trace needs a mode: materialized or sliced")?;
    let specs = load_specs(spec_paths)?;
    let records = Path::new(args.required("--records")?);
    let trace = match mode.as_str() {
        "materialized" => {
            mirror::run_materialized(&specs, records, Path::new(args.required("--tables")?))?
        }
        "sliced" => {
            let [spec] = &specs[..] else {
                return Err("sliced mode takes exactly one spec".to_string());
            };
            let chunk: u64 = args.number("--chunk", 0)?;
            let shards: u64 = args.number("--shards", 0)?;
            if chunk == 0 || shards == 0 {
                return Err("--chunk and --shards must be positive".to_string());
            }
            mirror::run_sliced(
                spec,
                chunk,
                shards,
                Path::new(args.required("--work-dir")?),
                records,
                Path::new(args.required("--spool")?),
            )?
        }
        other => return Err(format!("unknown trace mode {other}")),
    };
    serde_json::to_string(&trace)
        .map(|json| json + "\n")
        .map_err(|e| e.to_string())
}

fn cmd_launch(args: &Args, command: &[String]) -> Result<String, String> {
    let (program, rest) = command
        .split_first()
        .ok_or("launch needs a command after --")?;
    let usage = launch::launch(
        program,
        rest,
        args.value("--stdout").map(Path::new),
        args.value("--stderr").map(Path::new),
    )
    .map_err(|e| format!("{program}: {e}"))?;
    Ok(format!(
        "{{\"wall_s\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \"code\": {}}}\n",
        usage.wall_s, usage.cpu_s, usage.peak_rss_mb, usage.code
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench-trace spec|setup|trace|launch ... (see the source header)");
        return ExitCode::from(2);
    };
    // `launch` passes everything after `--` through untouched.
    let (rest, command) = match rest.iter().position(|a| a == "--") {
        Some(i) => (&rest[..i], &rest[i + 1..]),
        None => (rest, &[][..]),
    };
    let result = Args::parse(rest, &["--tiny"]).and_then(|a| match cmd.as_str() {
        "launch" => cmd_launch(&a, command),
        "spec" => cmd_spec(&a),
        "setup" => cmd_setup(&a),
        "trace" => cmd_trace(&a),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-trace {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
