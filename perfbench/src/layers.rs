//! The traced run's per-layer pass: each layer's public functions,
//! called and timed from here. Spans live in memory until the pass
//! ends; nothing inside the program is instrumented.

use crate::oracle::Pred;
use crate::session::{Scale, ServeReq};
use crate::stats::median;
use mempersp_bench::gentrace::GenConfig;
use mempersp_core::{flat_profile, object_stats, sampled_reuse_histogram, Machine, MachineConfig};
use mempersp_extrae::json::event_to_json;
use mempersp_extrae::trace_format::{load_trace, save_trace};
use mempersp_extrae::{EventClass, ObjectId, Query, Trace};
use mempersp_folding::{
    collect_instances_multi, fold_regions, fold_regions_source, pool_all, RegionInstance,
    RegionRequest,
};
use mempersp_hpcg::HpcgWorkload;
use mempersp_server::http::{read_request, write_response};
use mempersp_server::router::{handle, App};
use mempersp_store::codec_v4::decode_events_v4;
use mempersp_store::{lz, Compression, MpsSource, StoreReader, StoreWriter, DEFAULT_CHUNK_BYTES};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Passes per traced run; time metrics are their medians.
const PASSES: usize = 3;

/// Per-layer metrics: name, unit. Counts come from the last pass.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("run.simulate_s", "s"),
    ("run.accesses", "count"),
    ("run.events", "count"),
    ("store.write_s", "s"),
    ("store.raw_bytes", "bytes"),
    ("store.stored_bytes", "bytes"),
    ("store.lz_chunks", "count"),
    ("store.open_s", "s"),
    ("store.verify_s", "s"),
    ("store.inflate_s", "s"),
    ("store.decode_s", "s"),
    ("store.select_s", "s"),
    ("store.materialize_s", "s"),
    ("store.chunks_skipped", "count"),
    ("store.payload_bytes_decoded", "bytes"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("extrae.prv_parse_s", "s"),
    ("extrae.prv_write_s", "s"),
    ("extrae.json_s", "s"),
    ("fold.instances_s", "s"),
    ("fold.pool_s", "s"),
    ("fold.engine_s", "s"),
    ("fold.scan_s", "s"),
    ("fold.instances", "count"),
    ("fold.samples", "count"),
    ("analysis.reuse_s", "s"),
    ("analysis.objects_s", "s"),
    ("analysis.profile_s", "s"),
    ("analysis.pebs_samples", "count"),
    ("server.parse_s", "s"),
    ("server.query_handle_s", "s"),
    ("server.page_handle_s", "s"),
    ("server.fold_handle_s", "s"),
    ("server.write_s", "s"),
    ("server.wait_s", "s"),
    ("server.memo_hits", "count"),
    ("server.memo_misses", "count"),
    ("server.response_bytes", "bytes"),
    // Measured on the service process of the timed rounds, not here.
    ("server.peak_rss_bytes", "bytes"),
];

pub struct Input<'a> {
    pub scale: Scale,
    pub gen: Option<GenConfig>,
    pub store: &'a Path,
    pub scratch: &'a Path,
    pub repo: &'a Path,
    /// The selective `query` script.
    pub preds: Vec<Pred>,
    /// The last round's serve script, replayed in-process.
    pub script: &'a [ServeReq],
    /// Client-observed median latency per request kind.
    pub client_p50: BTreeMap<&'static str, f64>,
}

/// Run [`PASSES`] passes and reduce them to one value per metric.
pub fn measure(inp: &Input) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..PASSES {
        for (k, v) in pass(inp)? {
            all.entry(k).or_default().push(v);
        }
    }
    Ok(PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            let v = all.get(name)?;
            let value = if unit == "s" { median(v)? } else { *v.last()? };
            Some((name, value))
        })
        .collect())
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn to_query(p: &Pred) -> Query {
    let mut q = Query::all();
    if let Some((lo, hi)) = p.time {
        q = q.in_time(lo, hi);
    }
    if let Some(c) = &p.cores {
        q = q.on_cores(&c.iter().map(|&c| c as usize).collect::<Vec<_>>());
    }
    if let Some(k) = &p.kinds {
        let kinds: Vec<EventClass> = k.iter().map(|&i| EventClass::ALL[i as usize]).collect();
        q = q.with_kinds(&kinds);
    }
    if let Some(o) = p.object {
        q = q.touching_object(ObjectId(o));
    }
    q
}

fn pass(inp: &Input) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // core::machine with memsim, PEBS and the tracer (HPCG only; the
    // synthetic workload bypasses the simulator).
    let trace: Trace = match inp.gen {
        None => {
            let mut mcfg = MachineConfig::small();
            mcfg.cores = inp.scale.hpcg_cores;
            mcfg.threads = 1;
            mcfg.counter_sample_period = mcfg.counter_sample_period.min(20_000);
            let mut wl = HpcgWorkload::new(inp.scale.hpcg());
            let t = Instant::now();
            let report = Machine::new(mcfg).run(&mut wl);
            m.insert("run.simulate_s", secs(t));
            m.insert("run.accesses", report.stats.total_cores().accesses() as f64);
            m.insert("run.events", report.trace.num_events() as f64);
            report.trace
        }
        Some(cfg) => {
            m.insert("run.simulate_s", 0.0);
            m.insert("run.accesses", 0.0);
            m.insert("run.events", 0.0);
            let mut t = cfg.header();
            t.events = cfg.events().collect();
            t
        }
    };

    // Store writer.
    let out = inp.scratch.join("layer.mps");
    let t = Instant::now();
    let mut w = StoreWriter::with_threads(&out, DEFAULT_CHUNK_BYTES, 1)?;
    for e in &trace.events {
        w.append(e)?;
    }
    let summary = w.finish(&trace)?;
    m.insert("store.write_s", secs(t));
    m.insert("store.raw_bytes", summary.raw_bytes as f64);
    m.insert("store.stored_bytes", summary.stored_bytes as f64);
    std::fs::remove_file(&out)?;
    drop(trace);

    // Store reader, over the workload's own store.
    let t = Instant::now();
    let reader = StoreReader::open(inp.store)?;
    m.insert("store.open_s", secs(t));
    let t = Instant::now();
    let damage = reader.verify_all();
    m.insert("store.verify_s", secs(t));
    if !damage.is_empty() {
        return Err(io::Error::other(format!(
            "verify_all found damage: {damage:?}"
        )));
    }
    let bytes = std::fs::read(inp.store)?;
    let (mut inflate, mut decode, mut lz_chunks) = (0.0, 0.0, 0);
    for c in reader.chunks() {
        let stored = &bytes[c.offset as usize..c.offset as usize + c.stored_len as usize];
        let raw;
        let payload = match c.compression {
            Compression::Lz => {
                lz_chunks += 1;
                let t = Instant::now();
                raw = lz::decompress(stored, c.raw_len as usize)
                    .map_err(|e| io::Error::other(e.message))?;
                inflate += secs(t);
                &raw[..]
            }
            Compression::Raw => stored,
        };
        let t = Instant::now();
        let events = decode_events_v4(payload, c.events as usize)
            .map_err(|e| io::Error::other(e.message))?;
        decode += secs(t);
        std::hint::black_box(events);
    }
    m.insert("store.inflate_s", inflate);
    m.insert("store.decode_s", decode);
    m.insert("store.lz_chunks", f64::from(lz_chunks));
    // The selective script on a fresh reader: a cold block cache, as
    // for the first queries of an analyst's `query` calls.
    let fresh = StoreReader::open(inp.store)?;
    let (mut select, mut skipped, mut payload) = (0.0, 0u64, 0u64);
    for p in &inp.preds {
        let t = Instant::now();
        let (events, stats) = fresh.query(&to_query(p))?;
        select += secs(t);
        std::hint::black_box(events);
        skipped += stats.chunks_skipped as u64;
        payload += stats.payload_bytes_decoded as u64;
    }
    let cache = fresh.cache_stats();
    drop(fresh);
    m.insert("store.select_s", select);
    m.insert("store.chunks_skipped", skipped as f64);
    m.insert("store.payload_bytes_decoded", payload as f64);
    m.insert("store.cache_hits", cache.hits as f64);
    m.insert("store.cache_misses", cache.misses as f64);
    let t = Instant::now();
    let trace = reader.materialize()?;
    m.insert("store.materialize_s", secs(t));
    drop(reader);

    // extrae: the .prv text format and the JSON event schema.
    let prv = inp.scratch.join("layer.prv");
    let t = Instant::now();
    save_trace(&prv, &trace)?;
    m.insert("extrae.prv_write_s", secs(t));
    let t = Instant::now();
    let parsed = load_trace(&prv)?;
    m.insert("extrae.prv_parse_s", secs(t));
    std::fs::remove_file(&prv)?;
    drop(parsed);
    let t = Instant::now();
    let mut json_bytes = 0usize;
    for e in &trace.events {
        json_bytes += serde_json::to_string(&event_to_json(e)).map_or(0, |s| s.len());
    }
    m.insert("extrae.json_s", secs(t));
    std::hint::black_box(json_bytes);

    // Folding, every region.
    let requests: Vec<RegionRequest> = trace.region_names.iter().map(RegionRequest::new).collect();
    let ids: Vec<_> = trace
        .region_names
        .iter()
        .filter_map(|n| trace.region_id(n))
        .collect();
    let filters: Vec<_> = requests.iter().map(|r| r.cfg.filter).collect();
    let t = Instant::now();
    let collected = collect_instances_multi(&trace, &ids, &filters);
    m.insert("fold.instances_s", secs(t));
    let kept: Vec<&[RegionInstance]> = collected.iter().map(|(v, _)| v.as_slice()).collect();
    let t = Instant::now();
    let pooled = pool_all(&trace, &kept);
    m.insert("fold.pool_s", secs(t));
    m.insert(
        "fold.instances",
        kept.iter().map(|k| k.len()).sum::<usize>() as f64,
    );
    m.insert(
        "fold.samples",
        pooled.iter().map(|p| p.addr_points.len()).sum::<usize>() as f64,
    );
    drop(pooled);
    let t = Instant::now();
    std::hint::black_box(fold_regions(&trace, &requests, 1));
    let engine = secs(t);
    m.insert("fold.engine_s", engine);
    let mut src = MpsSource::open(inp.store)?;
    let t = Instant::now();
    let from_store =
        fold_regions_source(&mut src, &requests, 1).map_err(|e| io::Error::other(e.to_string()))?;
    m.insert("fold.scan_s", (secs(t) - engine).max(0.0));
    std::hint::black_box(from_store);
    drop(src);

    // core::analysis.
    let t = Instant::now();
    std::hint::black_box(sampled_reuse_histogram(&trace, 0, 64));
    m.insert("analysis.reuse_s", secs(t));
    let t = Instant::now();
    std::hint::black_box(object_stats(&trace, None));
    m.insert("analysis.objects_s", secs(t));
    let t = Instant::now();
    std::hint::black_box(flat_profile(&trace));
    m.insert("analysis.profile_s", secs(t));
    m.insert("analysis.pebs_samples", trace.pebs_events().count() as f64);
    drop(trace);

    server_layers(inp, &mut m)?;
    Ok(m)
}

/// The service's layers, in-process: parse, route+handle, write.
fn server_layers(inp: &Input, m: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let app = App::new(inp.repo, None, 64)?;
    let mut parse = Vec::new();
    let mut write = Vec::new();
    let mut handle_by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut bytes = 0u64;
    for req in inp.script {
        let raw = format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            req.path,
            req.body.len(),
            req.body
        );
        let t = Instant::now();
        let parsed = read_request(&mut raw.as_bytes())?;
        parse.push(secs(t));
        let t = Instant::now();
        let (_, resp) = handle(&app, &parsed);
        handle_by.entry(req.kind).or_default().push(secs(t));
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "in-process {} answered {}",
                req.path, resp.status
            )));
        }
        let mut sink = Vec::new();
        let t = Instant::now();
        bytes += write_response(&mut sink, &resp)?;
        write.push(secs(t));
    }
    let med = |v: Option<&Vec<f64>>| v.and_then(|v| median(v)).unwrap_or(0.0);
    m.insert("server.parse_s", med(Some(&parse)));
    m.insert("server.write_s", med(Some(&write)));
    m.insert("server.query_handle_s", med(handle_by.get("query")));
    m.insert("server.page_handle_s", med(handle_by.get("page")));
    m.insert("server.fold_handle_s", med(handle_by.get("fold_miss")));
    // Time a selective query spends outside the handler (connect,
    // accept, queueing, transfer): the client's median latency minus
    // the in-process median of parse, handle and write.
    let in_process = m["server.parse_s"] + m["server.query_handle_s"] + m["server.write_s"];
    let wait = inp
        .client_p50
        .get("query")
        .map_or(0.0, |client| client - in_process);
    m.insert("server.wait_s", wait);
    let memo = app.memo.stats();
    m.insert("server.memo_hits", memo.hits as f64);
    m.insert("server.memo_misses", memo.misses as f64);
    m.insert("server.response_bytes", bytes as f64);
    Ok(())
}
