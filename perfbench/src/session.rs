//! One benchmark run: set-up, an untimed warm-up round, timed rounds
//! of the analyst session (every CLI path, then one pass of the serve
//! script), each output checked against the oracles.

use crate::layers;
use crate::oracle::{self, Pred, Rec, ENTER, EXIT, PEBS, SAMP};
use crate::outputs;
use crate::proc;
use crate::serve::{self, Server};
use crate::stats::{median, tail};
use mempersp_bench::gentrace::GenConfig;
use mempersp_hpcg::HpcgConfig;
use mempersp_store::{StoreReader, StoreWriter, DEFAULT_CHUNK_BYTES};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// HPCG problem of `hpcg_session` (`run --nx --iters --cores`).
    pub hpcg_nx: usize,
    pub hpcg_iters: u64,
    pub hpcg_cores: usize,
    /// Synthetic trace of `gentrace_scan`.
    pub gen_events: u64,
    pub gen_cores: usize,
}

impl Scale {
    /// The benchmark's inputs.
    pub const FULL: Scale = Scale {
        hpcg_nx: 16,
        hpcg_iters: 3,
        hpcg_cores: 2,
        gen_events: 400_000,
        gen_cores: 4,
    };
    /// Scaled down, for the benchmark's own tests.
    #[cfg(test)]
    pub const SMALL: Scale = Scale {
        hpcg_nx: 8,
        hpcg_iters: 2,
        hpcg_cores: 2,
        gen_events: 20_000,
        gen_cores: 4,
    };

    /// The HPCG configuration `mempersp run --workload hpcg` builds.
    pub fn hpcg(&self) -> HpcgConfig {
        HpcgConfig {
            nx: self.hpcg_nx,
            max_iters: self.hpcg_iters as usize,
            mg_levels: if self.hpcg_nx % 8 == 0 && self.hpcg_nx >= 16 {
                4
            } else {
                3
            },
            group_allocations: true,
            use_mg: true,
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repeats of the sub-second CLI block in every round.
const FAST_REPEATS: usize = 2;
/// Calls in one pass of the selective `query` script: every template
/// in every one of its strata.
const SELECTIVE_CALLS: usize = 6 * CLI_STRATA;
/// Slices of the trace the selective `query` script is spread over.
const CLI_STRATA: usize = 4;
/// Slices of the trace that selective windows and page offsets are
/// spread over.
const STRATA: usize = 8;
/// Events one selective call matches (fewer when the whole trace holds
/// fewer): the CLI prints only counts, so its calls take wide windows,
/// several milliseconds of scan each, against about one of process
/// start.
const CLI_MATCHES: usize = 16384;
/// Per round: selective queries, pages, memo-missing folds (each
/// repeated once later in the round, as a memo hit).
const SERVE_QUERIES: usize = 6 * STRATA;
/// Events one selective `/v1/query` returns (fewer when the whole trace
/// holds fewer): enough that writing them, some milliseconds, outweighs
/// the connection's fixed cost.
const SERVE_MATCHES: usize = 1536;
const SERVE_PAGES: usize = 6;
const SERVE_FOLDS: usize = 4;
const PAGE_LIMIT: usize = 100;
/// Distinct fold `points` values cycled through. Larger than the
/// service's default memo capacity (64), so a repeated value has been
/// evicted by the time it comes round again and misses.
const POINTS_CYCLE: usize = 97;
/// Salt of the selective `query` script's generator.
const SELECTIVE_SALT: u64 = 0x5e1e_c71e;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HpcgSession,
    GentraceScan,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::HpcgSession, Workload::GentraceScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HpcgSession => "hpcg_session",
            Workload::GentraceScan => "gentrace_scan",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn gen_config(self, scale: Scale, seed: u64) -> Option<GenConfig> {
        (self == Workload::GentraceScan).then_some(GenConfig {
            events: scale.gen_events,
            cores: scale.gen_cores,
            seed,
        })
    }
}

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("info_s", "s"),
    ("objects_s", "s"),
    ("fold_s", "s"),
    ("profile_s", "s"),
    ("query_full_s", "s"),
    ("query_selective_s", "s"),
    ("query_json_s", "s"),
    ("convert_s", "s"),
    ("store_bytes", "bytes"),
    ("peak_rss_bytes", "bytes"),
    ("serve_rps", "1/s"),
    ("serve_query_p50_s", "s"),
    ("serve_page_p50_s", "s"),
    ("serve_fold_p50_s", "s"),
];

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What the oracle expects of every output, computed once per run.
pub struct Expect {
    pub recs: Vec<Rec>,
    pub region_names: Vec<String>,
    pub kinds: BTreeMap<String, u64>,
    pub objects: Vec<(u64, u64)>,
    pub profile: (u64, BTreeMap<u32, (u64, u64)>),
    pub instances: BTreeMap<(u32, u32), u64>,
    pub reuse: Option<(u64, u64)>,
    span: (u64, u64),
    cores: u32,
    /// Objects, most sampled first.
    object_ids: Vec<u32>,
    /// Indices of `recs` in time order.
    by_time: Vec<u32>,
}

impl Expect {
    pub fn new(recs: Vec<Rec>, region_names: Vec<String>) -> Expect {
        let r = oracle::reuse(&recs, 0, 64);
        let mut samples: BTreeMap<u32, u64> = BTreeMap::new();
        for r in recs.iter().filter(|r| r.kind == PEBS) {
            if let Some(o) = r.object {
                *samples.entry(o).or_default() += 1;
            }
        }
        let mut object_ids: Vec<u32> = samples.keys().copied().collect();
        object_ids.sort_by_key(|o| std::cmp::Reverse(samples[o]));
        let mut by_time: Vec<u32> = (0..recs.len() as u32).collect();
        by_time.sort_by_key(|&k| recs[k as usize].cycles);
        Expect {
            kinds: oracle::kind_counts(&recs),
            objects: oracle::object_load_stores(&recs),
            profile: oracle::profile(&recs),
            instances: oracle::instances(&recs),
            reuse: r.typical().map(|d| (d, r.reuses)),
            span: (
                recs.iter().map(|r| r.cycles).min().unwrap_or(0),
                recs.iter().map(|r| r.cycles).max().unwrap_or(0),
            ),
            cores: recs.iter().map(|r| r.core + 1).max().unwrap_or(1),
            object_ids,
            by_time,
            recs,
            region_names,
        }
    }

    fn region_id(&self, name: &str) -> Option<u32> {
        self.region_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32)
    }

    /// Selective predicate number `i`, matching about `want` events:
    /// template `i % 6` picks the filter (a core, kinds, an object),
    /// stratum `i / 6` of `strata` equal slices of the filter's matches
    /// picks, with a seeded offset inside it, the match the time window
    /// opens at, and the window closes at the `want`-th match from there
    /// (or spans the trace when it holds no more). Every seed thus
    /// spreads the same kinds of query evenly over the trace, each
    /// returning about as many events, so the work of a script hardly
    /// depends on the seed.
    pub fn selective(&self, rng: &mut Rng, i: usize, strata: usize, want: usize) -> Pred {
        let stratum = i / 6 % strata;
        let core = (stratum % self.cores as usize) as u32;
        let mut p = match i % 6 {
            0 => Pred::default(),
            1 => Pred {
                cores: Some(vec![core]),
                ..Pred::default()
            },
            2 => Pred {
                kinds: Some(vec![PEBS]),
                cores: Some(vec![core]),
                ..Pred::default()
            },
            3 => Pred {
                object: (!self.object_ids.is_empty())
                    .then(|| self.object_ids[stratum % self.object_ids.len()]),
                ..Pred::default()
            },
            4 => Pred {
                kinds: Some(vec![ENTER, EXIT]),
                ..Pred::default()
            },
            _ => Pred {
                kinds: Some(vec![SAMP]),
                cores: Some(vec![core]),
                ..Pred::default()
            },
        };
        let hits: Vec<u64> = self
            .by_time
            .iter()
            .map(|&k| &self.recs[k as usize])
            .filter(|r| p.matches(r))
            .map(|r| r.cycles)
            .collect();
        let want = want.max(1);
        p.time = Some(if hits.len() <= want {
            self.span
        } else {
            let room = hits.len() - want;
            let slot = (room / strata).max(1) as u64;
            let j = ((slot * stratum as u64 + rng.below(slot)) as usize).min(room);
            (hits[j], hits[j + want - 1])
        });
        p
    }

    fn matching(&self, p: &Pred) -> Vec<Rec> {
        self.recs.iter().filter(|r| p.matches(r)).cloned().collect()
    }
}

/// Attempted and failed operations per kind, with the first few
/// failure messages.
#[derive(Default)]
pub struct Ops {
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
    pub errors: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, kind: &'static str, result: Result<(), String>) -> bool {
        let e = self.by_kind.entry(kind).or_default();
        e.0 += 1;
        match result {
            Ok(()) => true,
            Err(msg) => {
                e.1 += 1;
                if self.errors.len() < 20 {
                    self.errors.push(format!("{kind}: {msg}"));
                }
                false
            }
        }
    }

    pub fn totals(&self) -> (u64, u64) {
        self.by_kind
            .values()
            .fold((0, 0), |(a, f), (x, y)| (a + x, f + y))
    }
}

/// The timing samples of one metric.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What a run hands back to the printer.
pub struct Outcome {
    pub ops: Ops,
    pub samples: Samples,
    pub store_bytes: u64,
    /// Peak RSS of the service processes.
    pub server_rss: u64,
    pub serve_requests: u64,
    pub serve_secs: f64,
    pub host: String,
    pub rounds: usize,
    /// CPU time the hypervisor took from this machine during the timed
    /// rounds (all CPUs), when the kernel reports it.
    pub steal_s: Option<f64>,
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

impl Outcome {
    /// Every end-to-end metric that has a value.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        for (name, _) in END_TO_END {
            let v = match name {
                "store_bytes" => Some(self.store_bytes as f64),
                // The largest CLI child of a round, median over rounds.
                // (The service's peak depends on how its concurrent
                // requests overlap; the traced run reports it.)
                "serve_rps" => {
                    (self.serve_secs > 0.0).then(|| self.serve_requests as f64 / self.serve_secs)
                }
                _ => self.samples.get(name).and_then(|s| median(s)),
            };
            if let Some(v) = v {
                m.insert(name, v);
            }
        }
        m
    }
}

struct Run<'a> {
    workload: Workload,
    scale: Scale,
    seed: u64,
    bin: &'a Path,
    dir: PathBuf,
    store: PathBuf,
    ops: Ops,
    samples: Samples,
    /// Largest CLI child of the current round.
    round_rss: u64,
    /// Peak RSS of the service processes.
    server_rss: u64,
    serve_requests: u64,
    serve_secs: f64,
    /// Hash and line count of the `query --json` output the oracle
    /// validated in the warm-up round.
    json_ref: Option<(u64, usize)>,
    cli_preds: Vec<(Pred, BTreeMap<String, u64>)>,
    folds_done: usize,
    /// Client-side latency of every timed request, by kind.
    latencies: BTreeMap<&'static str, Vec<f64>>,
    /// The serve script of the last round, replayed in-process by
    /// the traced run.
    last_script: Vec<ServeReq>,
}

/// Run `workload` for `seconds` of timed rounds. `dir` is the run's
/// private working directory, removed by the caller.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    bin: &Path,
    dir: &Path,
) -> io::Result<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = Run::new(workload, scale, seed, bin, dir)?;
    let repo = dir.join("repo");

    let began = Instant::now();
    let phase = |name: &str| eprintln!("[{:7.2} s] {name}", began.elapsed().as_secs_f64());
    // Set-up: write the store and bring the service up over it,
    // several times; the last service stays up for the session.
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let built = run
            .build_store()
            .and_then(|()| Server::start(bin, &repo, nproc).map_err(|e| format!("serve: {e}")));
        let secs = start.elapsed().as_secs_f64();
        let Some(s) = run.ok("setup", built) else {
            continue;
        };
        run.samples.entry("setup_s").or_default().push(secs);
        if rep + 1 < SETUP_REPS {
            match s.stop() {
                Ok(r) => run.server_rss = run.server_rss.max(r.maxrss_bytes),
                Err(e) => {
                    run.ops
                        .record("setup", Err(format!("stopping the service: {e}")));
                }
            }
        } else {
            server = Some(s);
        }
    }
    let Some(server) = server else {
        return Err(io::Error::other(format!(
            "set-up failed: {:?}",
            run.ops.errors
        )));
    };
    phase("set-up done");
    let store_bytes = std::fs::metadata(&run.store)?.len();
    let fsck = proc::run(
        Command::new(bin).arg("fsck").arg(&run.store),
        proc::Stdout::Capture,
    );
    run.ops.record(
        "fsck",
        match fsck {
            Ok(o) if o.ok() && o.stdout_text().contains("\nclean:") => Ok(()),
            Ok(o) => Err(format!("fsck not clean: {}", o.stdout_text())),
            Err(e) => Err(e.to_string()),
        },
    );
    let reader = StoreReader::open(&run.store)?;
    let region_names = reader.header().region_names.clone();
    let host = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"nproc\":{nproc},\"simd\":\"{}\",\"mmap\":{},\
         \"store_bytes\":{store_bytes},\"events\":{},\"chunks\":{}}}",
        workload.name(),
        mempersp_store::simd_level_name(),
        reader.is_mmap(),
        reader.num_events(),
        reader.chunks().len(),
    );
    drop(reader);

    // The oracle's records: straight from the generator, or (HPCG,
    // which only the simulator can produce) from one `query --json`
    // whose records the HPCG structure checks validate first.
    let mut expect = workload.gen_config(scale, seed).map(|cfg| {
        Expect::new(
            cfg.events().map(|e| Rec::of_event(&e)).collect(),
            region_names.clone(),
        )
    });
    phase("generator records");
    let json_recs = run.warm_json(expect.as_ref());
    phase("query --json records");
    let expect = match expect.take() {
        Some(e) => e,
        None => {
            let recs = json_recs.unwrap_or_default();
            let checked = hpcg_structure(&recs, &region_names, scale);
            run.ops.record("hpcg_structure", checked);
            Expect::new(recs, region_names)
        }
    };
    let mut rng = Rng::new(seed ^ SELECTIVE_SALT);
    run.cli_preds = (0..SELECTIVE_CALLS)
        .map(|t| {
            let p = expect.selective(&mut rng, t, CLI_STRATA, CLI_MATCHES);
            let want = oracle::kind_counts(expect.recs.iter().filter(|r| p.matches(r)));
            (p, want)
        })
        .collect();

    phase("oracle ready");
    // Warm-up (untimed, fully checked), then whole timed rounds.
    run.round(&expect, &server, 0, false);
    phase("warm-up round done");
    let steal_before = steal_ticks();
    let start = Instant::now();
    let mut rounds = 0;
    // Whole rounds; another one starts while it would end closer to
    // `seconds` than stopping now does.
    loop {
        rounds += 1;
        run.round(&expect, &server, rounds, true);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rounds as f64 >= seconds {
            break;
        }
    }

    phase("timed rounds done");
    let steal_s = steal_ticks()
        .zip(steal_before)
        .map(|(b, a)| (b - a) as f64 / 100.0);
    let mut layer_metrics = if traced {
        let input = layers::Input {
            scale,
            gen: workload.gen_config(scale, seed),
            store: &run.store,
            scratch: &run.dir,
            repo: &repo,
            preds: run.cli_preds.iter().map(|(p, _)| p.clone()).collect(),
            script: &run.last_script,
            client_p50: run
                .latencies
                .iter()
                .filter_map(|(k, v)| Some((*k, median(v)?)))
                .collect(),
        };
        Some(layers::measure(&input)?)
    } else {
        None
    };

    phase("layers done");
    let stopped = server.stop();
    match stopped {
        Ok(r) => {
            run.server_rss = run.server_rss.max(r.maxrss_bytes);
            if let Some(l) = layer_metrics.as_mut() {
                l.insert("server.peak_rss_bytes", r.maxrss_bytes as f64);
            }
            run.ops.record(
                "serve_stop",
                if r.code == Some(0) {
                    Ok(())
                } else {
                    Err(format!("exit {:?}", r.code))
                },
            );
        }
        Err(e) => {
            run.ops.record("serve_stop", Err(e.to_string()));
        }
    }
    for (kind, v) in &run.latencies {
        let tail = tail(v).map_or(String::new(), |(l, t)| format!(", {l} {t:.6} s"));
        println!(
            "serve {kind}: median {:.6} s{tail} (n={})",
            median(v).unwrap_or(0.0),
            v.len()
        );
    }
    Ok(Outcome {
        ops: run.ops,
        samples: run.samples,
        store_bytes,
        server_rss: run.server_rss,
        serve_requests: run.serve_requests,
        serve_secs: run.serve_secs,
        host,
        rounds,
        steal_s,
        layers: layer_metrics,
    })
}

/// The oracle's expected outputs for `workload` at `seed`, as text:
/// what every check of a run compares against, regenerated from the
/// workload's inputs.
pub fn expectations(
    workload: Workload,
    scale: Scale,
    seed: u64,
    bin: &Path,
    dir: &Path,
) -> io::Result<String> {
    let mut run = Run::new(workload, scale, seed, bin, dir)?;
    run.build_store().map_err(io::Error::other)?;
    let names = StoreReader::open(&run.store)?.header().region_names.clone();
    let x = match workload.gen_config(scale, seed) {
        Some(cfg) => Expect::new(cfg.events().map(|e| Rec::of_event(&e)).collect(), names),
        None => {
            let recs = run
                .warm_json(None)
                .ok_or_else(|| io::Error::other(format!("{:?}", run.ops.errors)))?;
            hpcg_structure(&recs, &names, scale).map_err(io::Error::other)?;
            Expect::new(recs, names)
        }
    };
    let mut s = format!("events {}\nkinds {:?}\n", x.recs.len(), x.kinds);
    s += &format!("reuse (typical lines, reuses) {:?}\n", x.reuse);
    s += &format!("objects (loads, stores) {:?}\n", x.objects);
    s += &format!("profile total {}\n", x.profile.0);
    for (id, name) in x.region_names.iter().enumerate() {
        let id = id as u32;
        s += &format!(
            "region {name}: instances {} profile (self, inclusive) {:?}\n",
            oracle::region_instances(&x.instances, id),
            x.profile.1.get(&id)
        );
    }
    let mut rng = Rng::new(seed ^ SELECTIVE_SALT);
    for t in 0..SELECTIVE_CALLS {
        let p = x.selective(&mut rng, t, CLI_STRATA, CLI_MATCHES);
        let want = oracle::kind_counts(x.recs.iter().filter(|r| p.matches(r)));
        s += &format!("query {}: {want:?}\n", p.cli_args().join(" "));
    }
    Ok(s)
}

/// HPCG structure derived from the run's configuration:
/// `CG_iteration` instances per core equal `--iters`, and every
/// region's ENTERs and EXITs balance on every core.
pub fn hpcg_structure(recs: &[Rec], names: &[String], scale: Scale) -> Result<(), String> {
    let cg = names
        .iter()
        .position(|n| n == "CG_iteration")
        .ok_or("no CG_iteration region")? as u32;
    let inst = oracle::instances(recs);
    for core in 0..scale.hpcg_cores as u32 {
        let n = inst.get(&(cg, core)).copied().unwrap_or(0);
        if n != scale.hpcg_iters {
            return Err(format!(
                "core {core}: {n} CG_iteration instances, expected {}",
                scale.hpcg_iters
            ));
        }
    }
    for ((region, core), (enter, exit)) in oracle::enter_exit(recs) {
        if enter != exit {
            return Err(format!(
                "region {region} core {core}: {enter} ENTER vs {exit} EXIT"
            ));
        }
    }
    Ok(())
}

/// The `steal` column of `/proc/stat`'s `cpu` line, in clock ticks
/// (1/100 s).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// One request of the serve script.
#[derive(Clone)]
pub struct ServeReq {
    pub kind: &'static str,
    pub path: &'static str,
    pub body: String,
    /// Expected records: the oracle's matches, or its page slice.
    expect_recs: Option<(usize, Vec<Rec>)>,
    /// Fold `points` (the memo key that varies).
    points: usize,
}

impl<'a> Run<'a> {
    fn new(
        workload: Workload,
        scale: Scale,
        seed: u64,
        bin: &'a Path,
        dir: &Path,
    ) -> io::Result<Run<'a>> {
        let repo = dir.join("repo");
        std::fs::create_dir_all(&repo)?;
        Ok(Run {
            workload,
            scale,
            seed,
            bin,
            dir: dir.to_path_buf(),
            store: repo.join("trace.mps"),
            ops: Ops::default(),
            samples: Samples::new(),
            round_rss: 0,
            server_rss: 0,
            serve_requests: 0,
            serve_secs: 0.0,
            json_ref: None,
            cli_preds: Vec::new(),
            folds_done: 0,
            latencies: BTreeMap::new(),
            last_script: Vec::new(),
        })
    }

    fn ok<T>(&mut self, kind: &'static str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ops.record(kind, Ok(()));
                Some(v)
            }
            Err(e) => {
                self.ops.record(kind, Err(e));
                None
            }
        }
    }

    fn build_store(&mut self) -> Result<(), String> {
        let _ = std::fs::remove_file(&self.store);
        match self.workload.gen_config(self.scale, self.seed) {
            Some(cfg) => {
                let w = || -> io::Result<()> {
                    let mut w = StoreWriter::with_threads(&self.store, DEFAULT_CHUNK_BYTES, 1)?;
                    for e in cfg.events() {
                        w.append(&e)?;
                    }
                    w.finish(&cfg.header()).map(|_| ())
                };
                w().map_err(|e| format!("writing the synthetic store: {e}"))
            }
            None => {
                let sc = self.scale;
                let o = self.cli(
                    &["run", "--workload", "hpcg"],
                    |c| {
                        c.args([
                            "--nx",
                            &sc.hpcg_nx.to_string(),
                            "--iters",
                            &sc.hpcg_iters.to_string(),
                        ])
                        .args([
                            "--cores",
                            &sc.hpcg_cores.to_string(),
                            "-o",
                        ]);
                    },
                    proc::Stdout::Capture,
                    true,
                )?;
                o.ok()
                    .then_some(())
                    .ok_or_else(|| format!("run failed: {}", o.stderr))
            }
        }
    }

    /// Run one CLI command. `store_last` appends the store path after
    /// `extra`'s arguments (the `-o` of `run`).
    fn cli(
        &mut self,
        args: &[&str],
        extra: impl FnOnce(&mut Command),
        stdout: proc::Stdout<'_>,
        store_last: bool,
    ) -> Result<proc::Outcome, String> {
        let mut c = Command::new(self.bin);
        c.args(args);
        if !store_last {
            c.arg(&self.store);
        }
        extra(&mut c);
        if store_last {
            c.arg(&self.store);
        }
        let o = proc::run(&mut c, stdout).map_err(|e| format!("spawn: {e}"))?;
        self.round_rss = self.round_rss.max(o.maxrss_bytes);
        Ok(o)
    }

    /// Run a CLI path, check its output, and on success keep its time
    /// as a sample of `metric` when `timed`.
    fn timed_cli(
        &mut self,
        op: &'static str,
        args: &[&str],
        extra: impl FnOnce(&mut Command),
        timed: bool,
        check: impl FnOnce(&str) -> Result<(), String>,
    ) -> Option<f64> {
        let r = self
            .cli(args, extra, proc::Stdout::Capture, false)
            .and_then(|o| {
                if !o.ok() {
                    return Err(format!("exit {:?}: {}", o.code, o.stderr.trim()));
                }
                check(&o.stdout_text()).map(|()| o.secs)
            });
        let secs = self.ok(op, r)?;
        timed.then_some(secs)
    }

    fn sample(&mut self, metric: &'static str, v: Option<f64>) {
        if let Some(v) = v {
            self.samples.entry(metric).or_default().push(v);
        }
    }

    /// `query --json` of the whole trace; returns its records parsed,
    /// checked against the generator when there is one. Called once,
    /// before the warm-up round; later calls only compare the output's
    /// hash with this validated one.
    fn warm_json(&mut self, expect: Option<&Expect>) -> Option<Vec<Rec>> {
        let o = self.cli(
            &["query"],
            |c| {
                c.arg("--json");
            },
            proc::Stdout::Capture,
            false,
        );
        let parsed = o.and_then(|o| {
            if !o.ok() {
                return Err(format!("exit {:?}: {}", o.code, o.stderr));
            }
            self.json_ref = Some(proc::fnv(&o.stdout));
            let text = std::str::from_utf8(&o.stdout).map_err(|e| e.to_string())?;
            let recs: Result<Vec<Rec>, String> = text.lines().map(Rec::of_json_line).collect();
            let recs = recs?;
            if let Some(e) = expect {
                if recs != e.recs {
                    return Err("query --json records differ from the generator's events".into());
                }
            }
            Ok(recs)
        });
        self.ok("query_json", parsed)
    }

    fn round(&mut self, x: &Expect, server: &Server, round: usize, timed: bool) {
        let n_events = x.recs.len() as u64;
        self.round_rss = 0;

        // The warm-up leaves `info` out: it reads nothing the other
        // commands have not brought into the page cache, and it is
        // the slowest call of a round.
        let t = if !timed {
            None
        } else {
            self.timed_cli(
                "info",
                &["info"],
                |_| {},
                timed,
                |out| {
                    let (events, reuse) =
                        outputs::info_fields(out).ok_or("unparsable info output")?;
                    if events != n_events {
                        return Err(format!("info: {events} events, oracle {n_events}"));
                    }
                    if reuse != x.reuse {
                        return Err(format!("info reuse {reuse:?}, oracle {:?}", x.reuse));
                    }
                    Ok(())
                },
            )
        };
        self.sample("info_s", t);

        let t = self.convert();
        if timed {
            self.sample("convert_s", t);
        }

        for _ in 0..if timed { FAST_REPEATS } else { 1 } {
            let out = self.dir.join("query.jsonl");
            let r = self.cli(
                &["query"],
                |c| {
                    c.arg("--json");
                },
                proc::Stdout::File(&out),
                false,
            );
            let json_ref = self.json_ref;
            let r = r.and_then(|o| {
                if !o.ok() {
                    return Err(format!("exit {:?}: {}", o.code, o.stderr));
                }
                let got = proc::fnv(&std::fs::read(&out).map_err(|e| e.to_string())?);
                // Removed for the same reason as `convert`'s outputs.
                let _ = std::fs::remove_file(&out);
                if Some(got) != json_ref || got.1 != x.recs.len() {
                    return Err("query --json output differs from the validated one".into());
                }
                Ok(o.secs)
            });
            let t = self.ok("query_json", r);
            if timed {
                self.sample("query_json_s", t);
            }

            let t = self.timed_cli(
                "objects",
                &["objects"],
                |_| {},
                timed,
                |out| match outputs::object_rows(out) {
                    Some(rows) if rows == x.objects => Ok(()),
                    rows => Err(format!("objects rows {rows:?}, oracle {:?}", x.objects)),
                },
            );
            self.sample("objects_s", t);

            let t = self.timed_cli(
                "fold",
                &["fold"],
                |c| {
                    c.args(["--regions", "all"]);
                },
                timed,
                |out| check_fold(&outputs::fold_lines(out), x),
            );
            self.sample("fold_s", t);

            let t = self.timed_cli(
                "profile",
                &["profile"],
                |_| {},
                timed,
                |out| {
                    let (total, rows) = outputs::profile_rows(out).ok_or("unparsable profile")?;
                    let (want_total, want_rows) = &x.profile;
                    if total != *want_total
                        || rows.len() != want_rows.values().filter(|r| r.1 > 0).count()
                    {
                        return Err(format!("profile: {total} samples / {} rows", rows.len()));
                    }
                    for (name, got) in rows {
                        let id = x.region_id(&name).ok_or(format!("unknown region {name}"))?;
                        if want_rows.get(&id) != Some(&got) {
                            return Err(format!(
                                "profile {name}: {got:?} vs {:?}",
                                want_rows.get(&id)
                            ));
                        }
                    }
                    Ok(())
                },
            );
            self.sample("profile_s", t);

            let t = self.timed_cli(
                "query_full",
                &["query"],
                |_| {},
                timed,
                |out| match outputs::query_counts(out) {
                    Some((n, k)) if n == n_events && k == x.kinds => Ok(()),
                    got => Err(format!("query counts {got:?}")),
                },
            );
            self.sample("query_full_s", t);

            let mut pass = Some(0.0);
            for (p, want) in self.cli_preds.clone() {
                let want_total: u64 = want.values().sum();
                let t = self.timed_cli(
                    "query_selective",
                    &["query"],
                    |c| {
                        c.args(p.cli_args());
                    },
                    true,
                    |out| match outputs::query_counts(out) {
                        Some((n, k)) if n == want_total && k == want => Ok(()),
                        got => Err(format!("{p:?}: counts {got:?}, oracle {want:?}")),
                    },
                );
                pass = pass.zip(t).map(|(a, b)| a + b);
            }
            if timed {
                self.sample("query_selective_s", pass);
            }
        }

        self.serve_pass(x, server, round, timed);
        if timed {
            self.samples
                .entry("peak_rss_bytes")
                .or_default()
                .push(self.round_rss as f64);
        }
    }

    /// store -> .prv -> store; the round trip must be byte-identical.
    fn convert(&mut self) -> Option<f64> {
        let prv = self.dir.join("convert.prv");
        let back = self.dir.join("convert.mps");
        let r = self
            .cli(
                &["convert"],
                |c| {
                    c.arg("-o").arg(&prv).arg("--force");
                },
                proc::Stdout::Capture,
                false,
            )
            .and_then(|a| {
                let mut c = Command::new(self.bin);
                c.arg("convert")
                    .arg(&prv)
                    .arg("-o")
                    .arg(&back)
                    .arg("--force");
                let b = proc::run(&mut c, proc::Stdout::Capture).map_err(|e| e.to_string())?;
                self.round_rss = self.round_rss.max(b.maxrss_bytes);
                if !a.ok() || !b.ok() {
                    return Err(format!("convert failed: {} {}", a.stderr, b.stderr));
                }
                let same = std::fs::read(&back).map_err(|e| e.to_string())?
                    == std::fs::read(&self.store).map_err(|e| e.to_string())?;
                // Removed, not overwritten next round: the page cache
                // drops an unlinked file's unwritten pages, so no
                // writeback of this round's outputs lands in the next
                // round's timings.
                let _ = std::fs::remove_file(&prv);
                let _ = std::fs::remove_file(&back);
                if !same {
                    return Err("store -> .prv -> store is not byte-identical".into());
                }
                Ok(a.secs + b.secs)
            });
        self.ok("convert", r)
    }

    /// This round's serve script: selective queries, pages,
    /// memo-missing folds and their repeats.
    fn script(&mut self, x: &Expect, round: usize) -> Vec<ServeReq> {
        let n = x.recs.len();
        let mut rng = Rng::new(self.seed ^ ((round as u64) << 32) ^ 0x1234_5677);
        let mut v = Vec::new();
        for q in 0..SERVE_QUERIES {
            // Every round draws new offsets in the same strata.
            let p = x.selective(&mut rng, q, STRATA, SERVE_MATCHES);
            let want = x.matching(&p);
            v.push(ServeReq {
                kind: "query",
                path: "/v1/query",
                body: format!("{{\"trace\":\"trace.mps\",\"query\":{}}}", p.json()),
                expect_recs: Some((want.len(), want)),
                points: 0,
            });
        }
        for k in 0..SERVE_PAGES {
            let stratum = ((k + SERVE_PAGES * round) % STRATA) as u64;
            let slot = (n.saturating_sub(PAGE_LIMIT) / STRATA) as u64;
            let offset = (slot * stratum + rng.below(slot)) as usize;
            let end = (offset + PAGE_LIMIT).min(n);
            v.push(ServeReq {
                kind: "page",
                path: "/v1/query",
                body: format!(
                    "{{\"trace\":\"trace.mps\",\"limit\":{PAGE_LIMIT},\"offset\":{offset}}}"
                ),
                expect_recs: Some((n, x.recs[offset..end].to_vec())),
                points: 0,
            });
        }
        let fold = |kind, points| ServeReq {
            kind,
            path: "/v1/fold",
            body: format!("{{\"trace\":\"trace.mps\",\"points\":{points}}}"),
            expect_recs: None,
            points,
        };
        let misses: Vec<usize> = (0..SERVE_FOLDS)
            .map(|i| 16 + (self.folds_done + i) % POINTS_CYCLE)
            .collect();
        self.folds_done += SERVE_FOLDS;
        v.extend(misses.iter().map(|&p| fold("fold_miss", p)));
        v.extend(misses.iter().map(|&p| fold("fold_hit", p)));
        v
    }

    /// One pass of the serve script by one closed-loop client (the
    /// next request goes out when the previous one has been answered),
    /// a phase per request kind: selective queries, pages, folds that
    /// miss the memo, then the same folds again, which hit it.
    fn serve_pass(&mut self, x: &Expect, server: &Server, round: usize, timed: bool) {
        let script = self.script(x, round);
        let mut memo: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let start = Instant::now();
        for req in &script {
            let t0 = Instant::now();
            let resp = serve::request(&server.addr, "POST", req.path, &req.body);
            let secs = t0.elapsed().as_secs_f64();
            let checked = resp
                .map_err(|e| e.to_string())
                .and_then(|r| check_response(req, &r, x, &mut memo));
            let (op, metric) = match req.kind {
                "query" => ("serve_query", Some("serve_query_p50_s")),
                "page" => ("serve_page", Some("serve_page_p50_s")),
                "fold_miss" => ("serve_fold_miss", Some("serve_fold_p50_s")),
                _ => ("serve_fold_hit", None),
            };
            if self.ops.record(op, checked) && timed {
                self.latencies.entry(req.kind).or_default().push(secs);
                if let Some(m) = metric {
                    self.samples.entry(m).or_default().push(secs);
                }
            }
        }
        if timed {
            self.serve_requests += script.len() as u64;
            self.serve_secs += start.elapsed().as_secs_f64();
        }
        self.last_script = script;
    }
}

fn check_fold(lines: &BTreeMap<String, outputs::FoldLine>, x: &Expect) -> Result<(), String> {
    if lines.len() != x.region_names.len() {
        return Err(format!(
            "{} fold lines for {} regions",
            lines.len(),
            x.region_names.len()
        ));
    }
    for (name, line) in lines {
        let id = x.region_id(name).ok_or(format!("unknown region {name}"))?;
        let want = oracle::region_instances(&x.instances, id);
        match line {
            Ok((used, rejected)) if used + rejected == want => {}
            Ok((used, rejected)) => {
                return Err(format!(
                    "{name}: {used} used + {rejected} rejected, oracle {want} instances"
                ))
            }
            Err(e) => return Err(format!("{name} not folded: {e}")),
        }
    }
    Ok(())
}

/// Check one service response against the oracle. `memo` keeps this
/// client's memo-missing fold bodies by `points`, which the later
/// memo hits must repeat byte for byte.
fn check_response(
    req: &ServeReq,
    r: &serve::Resp,
    x: &Expect,
    memo: &mut BTreeMap<usize, Vec<u8>>,
) -> Result<(), String> {
    if r.status != 200 {
        return Err(format!(
            "status {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ));
    }
    let text = std::str::from_utf8(&r.body).map_err(|_| "body is not UTF-8")?;
    let v = serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if let Some((total, want)) = &req.expect_recs {
        let got_total = v.get("total_matched").and_then(|t| t.as_u64());
        if got_total != Some(*total as u64) {
            return Err(format!("total_matched {got_total:?}, oracle {total}"));
        }
        let events = v
            .get("events")
            .and_then(|e| e.as_array())
            .ok_or("no events array")?;
        let got: Result<Vec<Rec>, String> = events.iter().map(Rec::of_json).collect();
        if got? != *want {
            return Err(format!("events differ from the oracle's for {}", req.body));
        }
        return Ok(());
    }
    let expect_memo = if req.kind == "fold_miss" {
        "miss"
    } else {
        "hit"
    };
    if r.memo.as_deref() != Some(expect_memo) {
        return Err(format!("X-Memo {:?}, expected {expect_memo}", r.memo));
    }
    if req.kind == "fold_hit" {
        return match memo.get(&req.points) {
            Some(b) if *b == r.body => Ok(()),
            _ => Err("memo-hit body differs from the memo-miss body".into()),
        };
    }
    let regions = v
        .get("regions")
        .and_then(|e| e.as_array())
        .ok_or("no regions array")?;
    if regions.len() != x.region_names.len() {
        return Err(format!(
            "{} folded regions, expected {}",
            regions.len(),
            x.region_names.len()
        ));
    }
    for reg in regions {
        let name = reg
            .get("region")
            .and_then(|n| n.as_str())
            .ok_or("region without name")?;
        let id = x.region_id(name).ok_or(format!("unknown region {name}"))?;
        let used = reg.get("instances_used").and_then(|n| n.as_u64());
        let rejected = reg.get("instances_rejected").and_then(|n| n.as_u64());
        let want = oracle::region_instances(&x.instances, id);
        match used.zip(rejected) {
            Some((u, j)) if u + j == want => {}
            got => {
                return Err(format!(
                    "{name}: used/rejected {got:?}, oracle {want} instances"
                ))
            }
        }
    }
    memo.insert(req.points, r.body.clone());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both workloads, scaled down, through set-up, warm-up, a timed
    /// round and the traced pass: every check passes and every metric
    /// gets a value.
    #[test]
    fn scaled_down_sessions_pass_every_check() {
        let bin = crate::program::build().expect("build mempersp");
        for w in Workload::ALL {
            let dir = std::env::temp_dir().join(format!(
                "perfbench-session-{}-{}",
                w.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let out = run(w, Scale::SMALL, 7, 0.01, true, &bin, &dir).expect("session runs");
            std::fs::remove_dir_all(&dir).unwrap();
            let (attempted, failed) = out.ops.totals();
            assert_eq!(failed, 0, "{}: {:?}", w.name(), out.ops.errors);
            assert!(attempted > 100);
            assert_eq!(out.end_to_end().len(), END_TO_END.len(), "{}", w.name());
            let layers = out.layers.expect("traced run");
            assert_eq!(layers.len(), layers::PER_LAYER.len());
            assert!(layers["store.materialize_s"] > 0.0);
            assert_eq!(layers["run.events"] > 0.0, w == Workload::HpcgSession);
        }
    }

    /// A selective window holds the wanted number of its filter's
    /// matches (a few more where events share an endpoint's cycle), or
    /// spans the trace when the filter matches no more than that.
    #[test]
    fn selective_windows_match_the_wanted_events() {
        let cfg = GenConfig {
            events: 20_000,
            cores: 4,
            seed: 3,
        };
        let x = Expect::new(cfg.events().map(|e| Rec::of_event(&e)).collect(), vec![]);
        let mut rng = Rng::new(11);
        for want in [1, 500, 50_000] {
            for i in 0..6 * STRATA {
                let p = x.selective(&mut rng, i, STRATA, want);
                let got = x.matching(&p).len();
                let filter = Pred {
                    time: None,
                    ..p.clone()
                };
                let total = x.recs.iter().filter(|r| filter.matches(r)).count();
                if total <= want {
                    assert_eq!((got, p.time), (total, Some(x.span)), "{p:?}");
                } else {
                    assert!(got >= want && got <= want + want / 10 + 2, "{p:?}: {got}");
                }
            }
        }
    }

    #[test]
    fn hpcg_structure_flags_a_missing_iteration() {
        let names = vec!["CG_iteration".to_string()];
        let rec = |kind, core, cycles| Rec {
            cycles,
            core,
            kind,
            region: 0,
            object: None,
            is_store: false,
            addr: 0,
            stack: vec![],
        };
        let mut recs = Vec::new();
        for core in 0..2 {
            for i in 0..3 {
                recs.push(rec(ENTER, core, i * 10));
                recs.push(rec(EXIT, core, i * 10 + 5));
            }
        }
        assert_eq!(hpcg_structure(&recs, &names, Scale::FULL), Ok(()));
        recs.pop();
        assert!(hpcg_structure(&recs, &names, Scale::FULL).is_err());
    }
}
