//! Parsers for the CLI's printed outputs, so each can be compared
//! with an oracle.

use std::collections::BTreeMap;

/// `query` (without `--json`): the match count and the per-kind lines.
pub fn query_counts(text: &str) -> Option<(u64, BTreeMap<String, u64>)> {
    let mut lines = text.lines();
    let total = lines
        .next()?
        .strip_suffix(" matching events")?
        .parse()
        .ok()?;
    let mut kinds = BTreeMap::new();
    for l in lines {
        let mut it = l.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(k), Some(n), None) if l.starts_with("  ") => {
                kinds.insert(k.to_string(), n.parse().ok()?);
            }
            _ => break,
        }
    }
    Some((total, kinds))
}

/// `objects`: the sorted multiset of `(loads, stores)` over the table
/// rows (object names repeat across ranks, so rows are not keyed).
pub fn object_rows(text: &str) -> Option<Vec<(u64, u64)>> {
    let mut rows = Vec::new();
    for l in text.lines().skip(1) {
        if l.trim().is_empty() {
            break;
        }
        let mut toks: Vec<&str> = l.split_whitespace().collect();
        if toks.last() == Some(&"RO") {
            toks.pop();
        }
        if toks.len() < 4 {
            return None;
        }
        let n = toks.len();
        rows.push((toks[n - 3].parse().ok()?, toks[n - 2].parse().ok()?));
    }
    rows.sort_unstable();
    Some(rows)
}

/// `profile`: total timer samples and `region -> (self, inclusive)`.
pub fn profile_rows(text: &str) -> Option<(u64, BTreeMap<String, (u64, u64)>)> {
    let mut lines = text.lines();
    let total = lines.next()?.strip_suffix(" timer samples")?.parse().ok()?;
    lines.next()?; // column header
    let mut rows = BTreeMap::new();
    for l in lines {
        let toks: Vec<&str> = l.split_whitespace().collect();
        if toks.len() != 4 {
            return None;
        }
        rows.insert(
            toks[0].to_string(),
            (toks[1].parse().ok()?, toks[3].parse().ok()?),
        );
    }
    Some((total, rows))
}

/// One region line of `fold --regions`: `Ok((used, rejected))`, or
/// `Err(reason)` for a region the program did not fold.
pub type FoldLine = Result<(u64, u64), String>;

/// `fold --regions ...`: region name to its fold line.
pub fn fold_lines(text: &str) -> BTreeMap<String, FoldLine> {
    let mut out = BTreeMap::new();
    for l in text.lines() {
        if let Some(rest) = l.strip_prefix("folded ") {
            let parse = || -> Option<(String, u64, u64)> {
                let (used, rest) = rest.split_once(" instances of \"")?;
                let (name, rest) = rest.split_once("\" (rejected ")?;
                let (rejected, _) = rest.split_once(')')?;
                Some((name.to_string(), used.parse().ok()?, rejected.parse().ok()?))
            };
            if let Some((name, used, rejected)) = parse() {
                out.insert(name, Ok((used, rejected)));
            }
        } else if let Some((name, reason)) = l.split_once("\": not folded") {
            out.insert(
                name.trim_start_matches('"').to_string(),
                Err(reason.to_string()),
            );
        }
    }
    out
}

/// `info`: the event count and, when reuses were found, the
/// `(typical distance, reuses)` of the reuse line.
pub fn info_fields(text: &str) -> Option<(u64, Option<(u64, u64)>)> {
    let mut events = None;
    let mut reuse = None;
    for l in text.lines() {
        if let Some(v) = l.strip_prefix("events      : ") {
            events = v.trim().parse().ok();
        } else if let Some(v) = l.strip_prefix("reuse       : typical sampled reuse distance ≈ ")
        {
            let (d, rest) = v.split_once(" lines (")?;
            let (n, _) = rest.split_once(" reuses)")?;
            reuse = Some((d.parse().ok()?, n.parse().ok()?));
        }
    }
    Some((events?, reuse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_counts() {
        let (n, k) =
            query_counts("12 matching events\n  ENTER  2\n  PEBS   10\nscan: x\n").unwrap();
        assert_eq!(n, 12);
        assert_eq!(k["ENTER"], 2);
        assert_eq!(k["PEBS"], 10);
        assert_eq!(query_counts("0 matching events\n").unwrap().0, 0);
    }

    #[test]
    fn parses_object_rows() {
        let text = "object        loads   stores  mean lat    flags\n\
                    CG_ref.cpp:51   7607      585      12.6         \n\
                    <unresolved>      3709       27      21.0         \n\
                    124_Gen.cpp  18899        0      20.9       RO\n\
                    \nload latency: min 4\n";
        assert_eq!(
            object_rows(text).unwrap(),
            vec![(3709, 27), (7607, 585), (18899, 0)]
        );
    }

    #[test]
    fn parses_profile_rows() {
        let text = "37 timer samples\nregion self self% inclusive\n\
                    ComputeSYMGS_ref  18  48.5%  18\nExecutionPhase  0  0.0%  37\n";
        let (total, rows) = profile_rows(text).unwrap();
        assert_eq!(total, 37);
        assert_eq!(rows["ExecutionPhase"], (0, 37));
    }

    #[test]
    fn parses_fold_lines() {
        let text =
            "folded 6 instances of \"CG_iteration\" (rejected 0), mean 4.009 ms, mean 900 MIPS\n\
                    perf panel\n\"X\": not folded (too few instances)\n";
        let f = fold_lines(text);
        assert_eq!(f["CG_iteration"], Ok((6, 0)));
        assert!(f["X"].is_err());
    }

    #[test]
    fn parses_info_fields() {
        let text = "events      : 114982\nreuse       : typical sampled reuse distance ≈ 2048 lines (17512 reuses)\n";
        assert_eq!(info_fields(text), Some((114982, Some((2048, 17512)))));
        assert_eq!(info_fields("events      : 3\n"), Some((3, None)));
    }
}
