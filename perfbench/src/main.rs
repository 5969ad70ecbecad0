//! End-to-end benchmark of the mempersp analyst paths.
//!
//! ```text
//! perfbench --workload <hpcg_session|gentrace_scan> --seed N --seconds S --trace 0|1
//! perfbench spread --workload W --runs N [--seconds S] [--first-seed N] [--trace 0|1]
//! perfbench overhead --workload W [--seed N] [--seconds S]
//! perfbench expect --workload W [--seed N]
//! ```
//!
//! A run builds the `mempersp` binary from the surrounding checkout,
//! sets the workload's store up, and times the analyst session over
//! it. The last line of standard output is one JSON object: the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`),
//! with the operations attempted and failed. See `README.md`.

mod layers;
mod oracle;
mod outputs;
mod proc;
mod program;
mod serve;
mod session;
mod stats;

use session::{Outcome, Scale, Workload, END_TO_END};
use std::path::PathBuf;
use std::process::{exit, Command};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <hpcg_session|gentrace_scan> --seed N --seconds S --trace 0|1\n       \
         perfbench spread --workload W --runs N [--seconds S] [--first-seed N] [--trace 0|1]\n       \
         perfbench overhead --workload W [--seed N] [--seconds S]\n       \
         perfbench expect --workload W [--seed N]"
    );
    exit(2);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        workload: Workload::HpcgSession,
        seed: 1,
        seconds: 30.0,
        trace: false,
        runs: 10,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        let bad = || -> ! {
            eprintln!("bad value {v:?} for {flag}");
            usage()
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(v).unwrap_or_else(|| bad())),
            "--seed" | "--first-seed" => a.seed = v.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--runs" => a.runs = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| bad()),
            _ => usage(),
        }
    }
    a.workload = workload.unwrap_or_else(|| usage());
    a
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spread") => spread(&parse_args(&args[1..])),
        Some("overhead") => overhead(&parse_args(&args[1..])),
        Some("expect") => {
            let a = parse_args(&args[1..]);
            let bin = build_program();
            let dir = work_dir(a.workload);
            let text = session::expectations(a.workload, Scale::FULL, a.seed, &bin, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            match text {
                Ok(t) => print!("{t}"),
                Err(e) => {
                    eprintln!("expect: {e}");
                    exit(1);
                }
            }
        }
        _ => bench(&parse_args(&args)),
    }
}

fn build_program() -> PathBuf {
    program::build().unwrap_or_else(|e| {
        eprintln!("building mempersp: {e}");
        exit(1);
    })
}

/// A fresh private directory for one run's files, inside the checkout.
fn work_dir(w: Workload) -> PathBuf {
    let dir = program::checkout_root().join(".bench_work").join(format!(
        "{}-{}",
        w.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        exit(1);
    });
    dir
}

fn bench(a: &Args) {
    let bin = build_program();
    let dir = work_dir(a.workload);
    let result = session::run(
        a.workload,
        Scale::FULL,
        a.seed,
        a.seconds,
        a.trace,
        &bin,
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }
    match result {
        Ok(out) => report(a, &out),
        Err(e) => {
            eprintln!("{}: {e}", a.workload.name());
            exit(1);
        }
    }
}

fn report(a: &Args, out: &Outcome) {
    println!("host: {}", out.host);
    println!("rounds: {} timed in {} s", out.rounds, a.seconds);
    if let Some(steal) = out.steal_s {
        println!("steal: {steal:.2} s of CPU time taken by the hypervisor during the timed rounds");
    }
    for (kind, (attempted, failed)) in &out.ops.by_kind {
        println!("ops {kind}: attempted {attempted}, failed {failed}");
    }
    for e in &out.ops.errors {
        println!("FAILED {e}");
    }
    let e2e = out.end_to_end();
    if let Some(rss) = out.samples.get("peak_rss_bytes") {
        let cli = stats::median(rss).unwrap_or(0.0);
        println!(
            "peak RSS: largest CLI child {cli} bytes (median over rounds), service {} bytes",
            out.server_rss
        );
    }
    for (name, unit) in END_TO_END {
        let n = out.samples.get(name).map_or(0, Vec::len);
        let v = e2e
            .get(name)
            .map_or("missing".to_string(), |v| format!("{v}"));
        let n = if n > 0 {
            format!(" (median of n={n})")
        } else {
            String::new()
        };
        println!("{name}: {v} {unit}{n}");
    }
    println!(
        "e2e: {}",
        metrics_json(
            END_TO_END
                .iter()
                .filter_map(|(n, u)| Some((*n, *u, *e2e.get(n)?)))
        )
    );

    let (attempted, failed) = out.ops.totals();
    let metrics: Vec<(&str, &str, f64)> = match &out.layers {
        Some(l) => {
            for (name, unit) in layers::PER_LAYER {
                println!(
                    "{name}: {} {unit}",
                    l.get(name).map_or("missing".into(), f64::to_string)
                );
            }
            layers::PER_LAYER
                .iter()
                .filter_map(|(n, u)| Some((*n, *u, *l.get(n)?)))
                .collect()
        }
        None => END_TO_END
            .iter()
            .filter_map(|(n, u)| Some((*n, *u, *e2e.get(n)?)))
            .collect(),
    };
    let expected = if a.trace {
        layers::PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    let correct = metrics.len() == expected && metrics.iter().all(|m| m.2.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    );
}

fn metrics_json<'a>(m: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> String {
    let parts: Vec<String> = m
        .into_iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Run this benchmark as a child and return its last JSON line and the
/// `e2e:` line.
fn child_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<(serde_json::Value, String)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = text.lines().last()?;
    let e2e = text
        .lines()
        .find_map(|l| l.strip_prefix("e2e: "))?
        .to_string();
    Some((serde_json::from_str(last).ok()?, e2e))
}

fn metric_values(v: &serde_json::Value) -> Vec<(String, f64)> {
    v.as_object()
        .map(|o| {
            o.iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Repeat a workload over consecutive seeds and print each metric's
/// median, quartiles, interquartile spread and min/max ratio.
fn spread(a: &Args) {
    let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut shares = Vec::new();
    for i in 0..a.runs {
        let seed = a.seed + i as u64;
        let Some((v, _)) = child_run(a.workload, seed, a.seconds, a.trace) else {
            eprintln!("run with seed {seed} printed no result");
            exit(1);
        };
        let attempted = v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0);
        let failed = v.get("failed").and_then(|x| x.as_u64()).unwrap_or(0);
        shares.push(format!("{failed}/{attempted}"));
        let metrics = v.get("metrics").map(metric_values).unwrap_or_default();
        let listed: Vec<String> = metrics.iter().map(|(k, x)| format!("{k}={x:.6}")).collect();
        eprintln!(
            "seed {seed}: correct {:?}, failed {failed}/{attempted}: {}",
            v.get("correct"),
            listed.join(" ")
        );
        for (k, x) in metrics {
            values.entry(k).or_default().push(x);
        }
    }
    println!(
        "{} runs of {} ({} s, trace {}), failed/attempted: {}",
        a.runs,
        a.workload.name(),
        a.seconds,
        a.trace,
        shares.join(" ")
    );
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "q1", "median", "q3", "iqr/med", "max/min"
    );
    for (k, v) in &values {
        let (q1, med, q3) = stats::quartiles_exclusive(v).unwrap_or((v[0], v[0], v[0]));
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rel = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
        let ratio = if lo > 0.0 { hi / lo } else { f64::NAN };
        println!("{k:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {rel:>8.4} {ratio:>8.4}");
    }
}

/// One untraced and one traced run on the same seed: the difference
/// of their end-to-end medians is the traced run's overhead. Prints
/// the traced run's per-layer metrics too.
fn overhead(a: &Args) {
    let runs: Vec<(serde_json::Value, Vec<(String, f64)>)> = [false, true]
        .into_iter()
        .map(|trace| {
            let (last, e2e) =
                child_run(a.workload, a.seed, a.seconds, trace).unwrap_or_else(|| {
                    eprintln!("run (trace {trace}) printed no result");
                    exit(1);
                });
            (
                last,
                serde_json::from_str(&e2e)
                    .map(|v| metric_values(&v))
                    .unwrap_or_default(),
            )
        })
        .collect();
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "metric", "untraced", "traced", "change"
    );
    for ((name, plain), (_, traced)) in runs[0].1.iter().zip(&runs[1].1) {
        println!(
            "{name:<28} {plain:>14.6} {traced:>14.6} {:>8.2}%",
            100.0 * (traced - plain) / plain
        );
    }
    for (name, v) in runs[1]
        .0
        .get("metrics")
        .map(metric_values)
        .unwrap_or_default()
    {
        println!("{name:<28} {v:>14.6}");
    }
}
