//! Independent oracles for the program's outputs.
//!
//! Every expected value here is recomputed from a flat list of event
//! records with plain loops: no store, no predicate pushdown, no
//! folding engine, no analysis code of the program. The records come
//! either straight from the synthetic generator (`GenConfig::events()`,
//! never written to a store) or from the lines of `query --json`.

use mempersp_extrae::events::{EventPayload, TraceEvent};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};

/// Event-kind labels, as `query` prints them and `query --json` tags
/// each record.
pub const KINDS: [&str; 8] = [
    "ENTER", "EXIT", "SAMP", "PEBS", "ALLOC", "FREE", "MUX", "USER",
];
pub const ENTER: u8 = 0;
pub const EXIT: u8 = 1;
pub const SAMP: u8 = 2;
pub const PEBS: u8 = 3;

/// The fields of one event the checks look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rec {
    pub cycles: u64,
    pub core: u32,
    /// Index into [`KINDS`].
    pub kind: u8,
    /// Region id of an ENTER/EXIT.
    pub region: u32,
    /// Resolved object of a PEBS sample.
    pub object: Option<u32>,
    pub is_store: bool,
    /// Sampled address of a PEBS sample.
    pub addr: u64,
    /// Region stack of a timer sample, outermost first.
    pub stack: Vec<u32>,
}

impl Rec {
    fn bare(cycles: u64, core: u32, kind: u8) -> Rec {
        Rec {
            cycles,
            core,
            kind,
            region: 0,
            object: None,
            is_store: false,
            addr: 0,
            stack: Vec::new(),
        }
    }

    /// From an in-memory event (the generator's stream).
    pub fn of_event(e: &TraceEvent) -> Rec {
        let core = e.core as u32;
        match &e.payload {
            EventPayload::RegionEnter { region, .. } => Rec {
                region: region.0,
                ..Rec::bare(e.cycles, core, ENTER)
            },
            EventPayload::RegionExit { region, .. } => Rec {
                region: region.0,
                ..Rec::bare(e.cycles, core, EXIT)
            },
            EventPayload::CounterSample { stack, .. } => Rec {
                stack: stack.iter().map(|r| r.0).collect(),
                ..Rec::bare(e.cycles, core, SAMP)
            },
            EventPayload::Pebs { sample, object } => Rec {
                object: object.map(|o| o.0),
                is_store: sample.is_store,
                addr: sample.addr,
                ..Rec::bare(e.cycles, core, PEBS)
            },
            EventPayload::Alloc { .. } => Rec::bare(e.cycles, core, 4),
            EventPayload::Free { .. } => Rec::bare(e.cycles, core, 5),
            EventPayload::MuxSwitch { .. } => Rec::bare(e.cycles, core, 6),
            EventPayload::User { .. } => Rec::bare(e.cycles, core, 7),
        }
    }

    /// From one event object of the `query --json` / `/v1/query`
    /// schema.
    pub fn of_json(v: &Value) -> Result<Rec, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("missing {k:?}"))
        };
        let label = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing \"kind\"")?;
        let kind = KINDS
            .iter()
            .position(|k| *k == label)
            .ok_or(format!("kind {label:?}"))? as u8;
        let mut r = Rec::bare(num("cycles")?, num("core")? as u32, kind);
        match kind {
            ENTER | EXIT => r.region = num("region")? as u32,
            SAMP => {
                let stack = v
                    .get("stack")
                    .and_then(Value::as_array)
                    .ok_or("missing \"stack\"")?;
                r.stack = stack
                    .iter()
                    .map(|s| s.as_u64().unwrap_or(u64::MAX) as u32)
                    .collect();
            }
            PEBS => {
                r.addr = num("addr")?;
                r.is_store = v.get("op").and_then(Value::as_str) == Some("S");
                r.object = v.get("object").and_then(Value::as_u64).map(|o| o as u32);
            }
            _ => {}
        }
        Ok(r)
    }

    /// From one line of `query --json`.
    pub fn of_json_line(line: &str) -> Result<Rec, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        Rec::of_json(&v)
    }
}

/// A selective query: the predicates `query` and `/v1/query` accept.
/// Time bounds are inclusive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pred {
    pub time: Option<(u64, u64)>,
    pub cores: Option<Vec<u32>>,
    /// Kind indices; `None` is every kind.
    pub kinds: Option<Vec<u8>>,
    /// Only PEBS samples resolved to this object.
    pub object: Option<u32>,
}

impl Pred {
    pub fn matches(&self, r: &Rec) -> bool {
        if let Some((lo, hi)) = self.time {
            if r.cycles < lo || r.cycles > hi {
                return false;
            }
        }
        if let Some(cores) = &self.cores {
            if !cores.contains(&r.core) {
                return false;
            }
        }
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&r.kind) {
                return false;
            }
        }
        match self.object {
            Some(o) => r.kind == PEBS && r.object == Some(o),
            None => true,
        }
    }

    /// The flags of `mempersp query`.
    pub fn cli_args(&self) -> Vec<String> {
        let mut a = Vec::new();
        if let Some((lo, hi)) = self.time {
            a.extend(["--time".into(), format!("{lo}:{hi}")]);
        }
        if let Some(c) = &self.cores {
            let list: Vec<String> = c.iter().map(u32::to_string).collect();
            a.extend(["--cores".into(), list.join(",")]);
        }
        if let Some(k) = &self.kinds {
            let list: Vec<&str> = k.iter().map(|&i| KINDS[i as usize]).collect();
            a.extend(["--kinds".into(), list.join(",")]);
        }
        if let Some(o) = self.object {
            a.extend(["--object".into(), o.to_string()]);
        }
        a
    }

    /// The `query` object of a `/v1/query` request body.
    pub fn json(&self) -> String {
        let mut parts = Vec::new();
        if let Some((lo, hi)) = self.time {
            parts.push(format!("\"time\":[{lo},{hi}]"));
        }
        if let Some(c) = &self.cores {
            let list: Vec<String> = c.iter().map(u32::to_string).collect();
            parts.push(format!("\"cores\":[{}]", list.join(",")));
        }
        if let Some(k) = &self.kinds {
            let list: Vec<String> = k
                .iter()
                .map(|&i| format!("\"{}\"", KINDS[i as usize]))
                .collect();
            parts.push(format!("\"kinds\":[{}]", list.join(",")));
        }
        if let Some(o) = self.object {
            parts.push(format!("\"object\":{o}"));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// Matching events per kind label (kinds with no match left out, as
/// `query` prints them).
pub fn kind_counts<'a>(recs: impl IntoIterator<Item = &'a Rec>) -> BTreeMap<String, u64> {
    let mut n = [0u64; KINDS.len()];
    for r in recs {
        n[r.kind as usize] += 1;
    }
    KINDS
        .iter()
        .zip(n)
        .filter(|(_, c)| *c > 0)
        .map(|(k, c)| (k.to_string(), c))
        .collect()
}

/// `(loads, stores)` of every object PEBS samples resolved to, plus the
/// unresolved samples as one more entry, sorted — the multiset of the
/// `objects` table's count columns.
pub fn object_load_stores(recs: &[Rec]) -> Vec<(u64, u64)> {
    let mut by: BTreeMap<Option<u32>, (u64, u64)> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.kind == PEBS) {
        let e = by.entry(r.object).or_default();
        if r.is_store {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    let mut v: Vec<(u64, u64)> = by.into_values().collect();
    v.sort_unstable();
    v
}

/// Flat profile: timer samples in total, and per region id the
/// samples whose innermost region it is (self) and the samples with it
/// anywhere on the stack (inclusive).
pub fn profile(recs: &[Rec]) -> (u64, BTreeMap<u32, (u64, u64)>) {
    let mut total = 0;
    let mut rows: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.kind == SAMP) {
        total += 1;
        if let Some(&inner) = r.stack.last() {
            rows.entry(inner).or_default().0 += 1;
        }
        let mut seen: Vec<u32> = r.stack.clone();
        seen.sort_unstable();
        seen.dedup();
        for reg in seen {
            rows.entry(reg).or_default().1 += 1;
        }
    }
    (total, rows)
}

/// Region instances per `(region, core)`: an ENTER at depth 0 opens
/// one, the EXIT that brings the depth back to 0 closes it; EXITs at
/// depth 0 are ignored. Only closed instances count.
pub fn instances(recs: &[Rec]) -> BTreeMap<(u32, u32), u64> {
    let mut depth: HashMap<(u32, u32), u64> = HashMap::new();
    let mut closed: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for r in recs {
        let key = (r.region, r.core);
        match r.kind {
            ENTER => *depth.entry(key).or_default() += 1,
            EXIT => {
                let d = depth.entry(key).or_default();
                if *d > 0 {
                    *d -= 1;
                    if *d == 0 {
                        *closed.entry(key).or_default() += 1;
                    }
                }
            }
            _ => {}
        }
    }
    closed
}

/// Closed instances of `region`, summed over cores.
pub fn region_instances(inst: &BTreeMap<(u32, u32), u64>, region: u32) -> u64 {
    inst.iter()
        .filter(|((r, _), _)| *r == region)
        .map(|(_, n)| n)
        .sum()
}

/// ENTER and EXIT counts per `(region, core)`.
pub fn enter_exit(recs: &[Rec]) -> BTreeMap<(u32, u32), (u64, u64)> {
    let mut m: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for r in recs {
        match r.kind {
            ENTER => m.entry((r.region, r.core)).or_default().0 += 1,
            EXIT => m.entry((r.region, r.core)).or_default().1 += 1,
            _ => {}
        }
    }
    m
}

/// Sampled reuse distances by Olken's algorithm: a Fenwick tree over
/// sample positions marks the latest position of every line, so the
/// distinct lines between two touches of a line are a prefix-sum
/// difference — O(n log n) where the program's pass is O(n·d).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reuse {
    /// Reuses per power-of-two distance bucket (bucket 0 holds 0 and 1).
    pub buckets: Vec<u64>,
    pub reuses: u64,
}

impl Reuse {
    /// Lower bound of the median bucket, as `info` prints it.
    pub fn typical(&self) -> Option<u64> {
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if self.reuses > 0 && seen * 2 >= self.reuses {
                return Some(1 << i);
            }
        }
        None
    }
}

pub fn reuse(recs: &[Rec], core: u32, line_size: u64) -> Reuse {
    let mask = !(line_size - 1);
    let lines: Vec<u64> = recs
        .iter()
        .filter(|r| r.kind == PEBS && r.core == core)
        .map(|r| r.addr & mask)
        .collect();
    let n = lines.len();
    let mut tree = vec![0i64; n + 1];
    let add = |tree: &mut Vec<i64>, pos: usize, delta: i64| {
        let mut i = pos + 1;
        while i <= n {
            tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    };
    // Sum over positions [0, pos).
    let prefix = |tree: &Vec<i64>, pos: usize| {
        let (mut i, mut s) = (pos, 0i64);
        while i > 0 {
            s += tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    };
    let mut last: HashMap<u64, usize> = HashMap::new();
    let mut out = Reuse {
        buckets: Vec::new(),
        reuses: 0,
    };
    for (j, &line) in lines.iter().enumerate() {
        if let Some(i) = last.insert(line, j) {
            let distinct = (prefix(&tree, j) - prefix(&tree, i + 1)) as u64;
            let bucket = 63 - distinct.max(1).leading_zeros() as usize;
            if out.buckets.len() <= bucket {
                out.buckets.resize(bucket + 1, 0);
            }
            out.buckets[bucket] += 1;
            out.reuses += 1;
            add(&mut tree, i, -1);
        }
        add(&mut tree, j, 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempersp_bench::gentrace::GenConfig;
    use mempersp_core::sampled_reuse_histogram;
    use mempersp_extrae::json::event_to_json;
    use mempersp_extrae::{EventClass, ObjectId, Query};
    use mempersp_store::StoreReader;

    fn gen() -> GenConfig {
        GenConfig {
            events: 6_000,
            cores: 3,
            seed: 11,
        }
    }

    fn recs_of(cfg: &GenConfig) -> Vec<Rec> {
        cfg.events().map(|e| Rec::of_event(&e)).collect()
    }

    /// The generator's stream written to a store and read back through
    /// the program's predicate pushdown.
    fn store_of(cfg: &GenConfig, name: &str) -> (std::path::PathBuf, StoreReader) {
        let dir =
            std::env::temp_dir().join(format!("perfbench-oracle-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mps");
        let mut w = mempersp_store::StoreWriter::create(&path).unwrap();
        for e in cfg.events() {
            w.append(&e).unwrap();
        }
        w.finish(&cfg.header()).unwrap();
        let r = StoreReader::open(&path).unwrap();
        (dir, r)
    }

    fn query_of(p: &Pred) -> Query {
        let mut q = Query::all();
        if let Some((lo, hi)) = p.time {
            q = q.in_time(lo, hi);
        }
        if let Some(c) = &p.cores {
            q = q.on_cores(&c.iter().map(|&c| c as usize).collect::<Vec<_>>());
        }
        if let Some(k) = &p.kinds {
            let kinds: Vec<EventClass> = k
                .iter()
                .map(|&i| EventClass::parse(KINDS[i as usize]).unwrap())
                .collect();
            q = q.with_kinds(&kinds);
        }
        if let Some(o) = p.object {
            q = q.touching_object(ObjectId(o));
        }
        q
    }

    #[test]
    fn generator_counts_agree_with_store_queries() {
        let cfg = gen();
        let recs = recs_of(&cfg);
        let (dir, reader) = store_of(&cfg, "counts");
        let span = (recs[0].cycles, recs.last().unwrap().cycles);
        let mid = (span.0 + span.1) / 2;
        let preds = [
            Pred::default(),
            Pred {
                time: Some((mid, mid + (span.1 - span.0) / 10)),
                ..Pred::default()
            },
            Pred {
                cores: Some(vec![1]),
                ..Pred::default()
            },
            Pred {
                kinds: Some(vec![PEBS, ENTER]),
                cores: Some(vec![0, 2]),
                ..Pred::default()
            },
            Pred {
                object: Some(3),
                ..Pred::default()
            },
            Pred {
                object: Some(5),
                time: Some((span.0, mid)),
                ..Pred::default()
            },
        ];
        for p in &preds {
            let (events, _) = reader.query(&query_of(p)).unwrap();
            let got: Vec<Rec> = events.iter().map(Rec::of_event).collect();
            let want: Vec<Rec> = recs.iter().filter(|r| p.matches(r)).cloned().collect();
            assert!(
                !want.is_empty() || p.object.is_some(),
                "{p:?} selects nothing"
            );
            assert_eq!(got, want, "{p:?}");
            assert_eq!(kind_counts(&got), kind_counts(&want));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn json_tally_agrees_with_events() {
        let cfg = gen();
        for e in cfg.events() {
            let line = serde_json::to_string(&event_to_json(&e)).unwrap();
            assert_eq!(
                Rec::of_json_line(&line).unwrap(),
                Rec::of_event(&e),
                "{line}"
            );
        }
    }

    #[test]
    fn object_and_profile_tallies_agree_with_the_program() {
        let cfg = gen();
        let recs = recs_of(&cfg);
        let mut trace = cfg.header();
        trace.events = cfg.events().collect();
        let stats = mempersp_core::object_stats(&trace, None);
        let mut pairs: Vec<(u64, u64)> = stats.iter().map(|o| (o.loads, o.stores)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, object_load_stores(&recs));

        let (rows, total) = mempersp_core::flat_profile(&trace);
        let (want_total, want_rows) = profile(&recs);
        assert_eq!(total, want_total);
        for r in rows {
            let id = trace.region_id(&r.region).unwrap().0;
            assert_eq!(
                (r.self_samples, r.inclusive_samples),
                want_rows[&id],
                "{}",
                r.region
            );
        }
    }

    #[test]
    fn instance_counts_agree_with_the_folding_engine() {
        let cfg = gen();
        let recs = recs_of(&cfg);
        let mut trace = cfg.header();
        trace.events = cfg.events().collect();
        let inst = instances(&recs);
        let requests: Vec<_> = trace
            .region_names
            .iter()
            .map(mempersp_folding::RegionRequest::new)
            .collect();
        for (i, res) in mempersp_folding::fold_regions(&trace, &requests, 1)
            .iter()
            .enumerate()
        {
            let f = res.as_ref().expect("gentrace regions fold");
            assert_eq!(
                (f.instances_used + f.instances_rejected) as u64,
                region_instances(&inst, i as u32),
                "{}",
                trace.region_names[i]
            );
        }
    }

    #[test]
    fn reuse_oracle_agrees_with_the_program() {
        // A small, reuse-heavy stream: 40 lines, 3000 samples.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut t = mempersp_extrae::Tracer::new(mempersp_extrae::TracerConfig::default(), 1);
        let mut recs = Vec::new();
        for i in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = 0x1000 + (x % 40) * 64 + (x >> 40) % 64;
            let sample = mempersp_pebs::PebsSample {
                timestamp: i,
                core: 0,
                ip: 0,
                addr,
                size: 8,
                is_store: false,
                latency: 1,
                source: mempersp_memsim::MemLevel::L1,
                tlb_miss: false,
            };
            t.record_pebs(sample);
            recs.push(Rec {
                addr,
                ..Rec::bare(i, 0, PEBS)
            });
        }
        let trace = t.finish("reuse");
        let h = sampled_reuse_histogram(&trace, 0, 64);
        let o = reuse(&recs, 0, 64);
        assert_eq!(o.buckets, h.buckets);
        assert_eq!(o.reuses, h.reuses);
        assert_eq!(o.typical(), h.typical_distance());
        assert!(o.reuses > 2000);
    }
}
