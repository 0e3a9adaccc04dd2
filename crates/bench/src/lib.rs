//! Experiment harness: one function per table/figure of the paper.
//!
//! Each experiment returns a plain-text report whose rows mirror what the
//! paper charts. The `repro` binary dispatches on experiment id; the
//! benches and integration tests reuse the same functions.

#![warn(missing_docs)]

pub mod counting_alloc;
pub mod experiments;
pub mod heatmap_bench;
pub mod json;
pub mod microbench;
pub mod reuse_bench;
pub mod runner;
pub mod server_bench;
pub mod traffic;

pub use experiments::*;
pub use heatmap_bench::{
    heatmap_metrics, heatmap_table, server_trace, sys_tables_demo, HeatmapReport,
};
pub use json::Json;
pub use reuse_bench::{reuse_metrics, reuse_table, ReuseReport, ReuseSweepEntry};
pub use runner::{run_plan, RunResult};
pub use server_bench::{server_metrics, server_table, ServerReport, ServerSweepEntry};
pub use traffic::{run_traffic, RegimeSpec, TrafficConfig, TrafficRun};

use std::collections::BTreeMap;

/// Every report this crate writes: `(schema, payload key)`, each taken from
/// the const its writer serializes through.
const REPORT_SCHEMAS: [(&str, &str); 6] = [
    HeatmapReport::SCHEMA,
    runner::ModesReport::SCHEMA,
    runner::PlanCacheReport::SCHEMA,
    ReuseReport::SCHEMA,
    ServerReport::SCHEMA,
    traffic::TrafficReport::SCHEMA,
];

/// Validate a report document: a known `schema`, this build's
/// `schema_version`, and the schema's payload array. Returns a one-line
/// summary, or what is wrong with the document.
pub fn check_report(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = (doc.get("schema").and_then(Json::as_str)).ok_or("missing \"schema\" field")?;
    let known = || REPORT_SCHEMAS.map(|(s, _)| s).join(" ");
    let (_, payload_key) = (REPORT_SCHEMAS.iter().find(|(s, _)| *s == schema))
        .ok_or_else(|| format!("unknown schema {schema:?} (known: {})", known()))?;
    let version = (doc.get("schema_version").and_then(Json::as_u64)).ok_or(
        "missing \"schema_version\" (report predates version stamping; regenerate it with \
         this build)",
    )?;
    if version != json::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is not supported (this build reads version {}); refusing \
             to misparse",
            json::SCHEMA_VERSION
        ));
    }
    let payload = (doc.get(payload_key).and_then(Json::as_arr))
        .ok_or_else(|| format!("schema {schema} requires a top-level {payload_key:?} array"))?;
    Ok(format!(
        "schema {schema}, version {version}, {} {payload_key}",
        payload.len()
    ))
}

/// Gate a freshly written `BENCH_modes.json` against the committed one
/// (`repro analyze <new> <committed>`). Solo exchange lanes run fixed
/// morsel stripes, so the report is exact; the gate keeps rules (not `cmp`)
/// so a failure names the cell:
///
/// - both documents pass [`check_report`] and carry the same schema;
/// - the cell set, keyed on (query, mode, workers), is unchanged;
/// - every field of every cell is unchanged;
/// - the headline: at one worker, push beats pull on every query.
///
/// Returns a one-line summary, or every violated rule, one per line, each
/// naming the cell and both values.
pub fn compare_modes(new: &str, committed: &str) -> Result<String, String> {
    check_report(new).map_err(|e| format!("new report: {e}"))?;
    check_report(committed).map_err(|e| format!("committed report: {e}"))?;
    let (new, old) = (Json::parse(new)?, Json::parse(committed)?);
    let (schema, payload) = runner::ModesReport::SCHEMA;
    if [&new, &old].map(|d| d.get("schema").and_then(Json::as_str)) != [Some(schema); 2] {
        return Err(format!("both reports must be {schema} reports"));
    }
    let (old_cells, new_cells) = (modes_cells(&old, payload)?, modes_cells(&new, payload)?);
    let show = |v: Option<&Json>| v.map_or("missing".into(), |v| v.pretty().trim_end().to_string());
    let label = |(query, mode, workers): &CellKey| format!("{query} {mode} @{workers}w");
    let mut broken = Vec::new();
    for (key, base) in &old_cells {
        let cell = label(key);
        let Some(cur) = new_cells.get(key) else {
            broken.push(format!("{cell}: missing from the new report"));
            continue;
        };
        let mut fields = field_names(base);
        fields.extend(
            field_names(cur)
                .into_iter()
                .filter(|f| base.get(f).is_none()),
        );
        for f in fields {
            if base.get(f) != cur.get(f) {
                broken.push(format!(
                    "{cell}: {f} {} -> {}",
                    show(base.get(f)),
                    show(cur.get(f))
                ));
            }
        }
    }
    for key in new_cells.keys().filter(|k| !old_cells.contains_key(*k)) {
        broken.push(format!("{}: not in the committed report", label(key)));
    }
    for (key, cur) in new_cells.iter().filter(|(k, _)| k.1 == "push" && k.2 == 1) {
        let speedup = cur.get("speedup_vs_pull");
        if !speedup.and_then(Json::as_f64).is_some_and(|x| x > 1.0) {
            let base = old_cells.get(key).and_then(|b| b.get("speedup_vs_pull"));
            broken.push(format!(
                "{}: speedup_vs_pull {} -> {}: push does not beat pull",
                label(key),
                show(base),
                show(speedup)
            ));
        }
    }
    if broken.is_empty() {
        Ok(format!(
            "{} cells: exact on every cell; push beats pull at one worker on every query",
            new_cells.len()
        ))
    } else {
        Err(broken.join("\n"))
    }
}

/// A `BENCH_modes.json` cell's key: (query, mode, workers).
type CellKey = (String, String, u64);

fn modes_cells<'a>(doc: &'a Json, payload: &str) -> Result<BTreeMap<CellKey, &'a Json>, String> {
    let mut cells = BTreeMap::new();
    for cell in doc.get(payload).and_then(Json::as_arr).unwrap_or_default() {
        let text = |k| cell.get(k).and_then(Json::as_str).map(str::to_string);
        let key = (
            text("query"),
            text("mode"),
            cell.get("workers").and_then(Json::as_u64),
        );
        let (Some(query), Some(mode), Some(workers)) = key else {
            return Err(format!("a cell lacks its query, mode or workers: {cell}"));
        };
        if cells.insert((query, mode, workers), cell).is_some() {
            return Err(format!("a cell appears twice: {cell}"));
        }
    }
    Ok(cells)
}

fn field_names(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Execute Query 1 with the ablation-only **copying** buffer (§5 argues the
/// production buffer must store pointers instead). The tree is assembled by
/// hand because plans always instantiate the pointer variant, then driven
/// through the executor's own spine, so `--timeout-ms` and `BUFFERDB_FAULT`
/// apply as to every other run. Returns
/// `(modeled seconds, instructions retired)`.
pub fn run_copy_buffered_query1(ctx: &experiments::ExperimentCtx) -> (f64, u64) {
    use bufferdb_core::exec::agg::AggregateOp;
    use bufferdb_core::exec::buffer::BufferOp;
    use bufferdb_core::exec::seqscan::SeqScanOp;
    use bufferdb_core::footprint::FootprintModel;
    use bufferdb_core::plan::PlanNode;

    let plan = bufferdb_tpch::queries::paper_query1(&ctx.catalog).expect("query 1");
    let PlanNode::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        unreachable!()
    };
    let PlanNode::SeqScan {
        table, predicate, ..
    } = *input
    else {
        unreachable!()
    };

    let mut fm = FootprintModel::new();
    let scan =
        Box::new(SeqScanOp::new(&ctx.catalog, &mut fm, &table, predicate, None).expect("scan"));
    let copy = Box::new(BufferOp::copying(&mut fm, scan, ctx.refine.buffer_size).expect("copy"));
    let agg = Box::new(AggregateOp::new(&mut fm, copy, group_by, aggs).expect("agg"));
    let run = runner::run_root("copy-buffered", agg, &fm, &ctx.machine);
    (run.stats.seconds(), run.stats.counters.instructions)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `BENCH_*.json` reports committed at the repository root.
    fn committed_reports() -> Vec<(String, String)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut reports = Vec::new();
        for entry in std::fs::read_dir(root).expect("repository root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("readable report");
                reports.push((name.to_string(), text));
            }
        }
        reports
    }

    /// `repro analyze <file>` must accept every report the repository
    /// commits — CI runs it on freshly written ones.
    #[test]
    fn every_committed_report_validates() {
        for (name, text) in committed_reports() {
            if let Err(e) = check_report(&text) {
                panic!("{name}: {e}");
            }
        }
    }

    /// Every report this crate writes is committed (a schema without a
    /// committed `BENCH_*.json` is an ungated report), and every committed
    /// report is one this crate writes.
    #[test]
    fn every_report_schema_is_committed() {
        use std::collections::BTreeSet;
        let committed: BTreeSet<String> = committed_reports()
            .iter()
            .map(|(name, text)| {
                let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
                let schema = doc.get("schema").and_then(Json::as_str);
                schema.unwrap_or_else(|| panic!("{name}: no schema")).into()
            })
            .collect();
        let known: BTreeSet<String> = REPORT_SCHEMAS.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(committed, known);
    }

    /// Break one cell at a time: each rule fails, naming the cell and both
    /// values.
    #[test]
    fn modes_gate_names_the_cell_and_both_values() {
        use runner::{ModesEntry, ModesReport};
        let cell = |mode: &str, workers: u64, speedup_vs_pull: f64| ModesEntry {
            query: "Q6".into(),
            mode: mode.into(),
            workers,
            rows: 1,
            speedup_vs_pull,
            instructions: 9_000,
            l1i_misses: 100_000,
            modeled_wall_seconds: 0.5,
            ..ModesEntry::default()
        };
        let committed = ModesReport {
            entries: vec![
                cell("pull", 1, 1.0),
                cell("push", 1, 1.5),
                cell("pull", 2, 1.0),
                cell("push", 2, 1.5),
            ],
            ..ModesReport::default()
        };
        type Edit = dyn Fn(&mut ModesReport);
        let gate = |edit: &Edit| {
            let mut new = committed.clone();
            edit(&mut new);
            compare_modes(&new.to_json(), &committed.to_json())
        };
        assert!(gate(&|_| {}).is_ok());
        let broken: [(&Edit, &str); 7] = [
            (
                &|r| r.entries[1].instructions = 9_001,
                "Q6 push @1w: instructions 9000 -> 9001",
            ),
            (
                &|r| r.entries[2].l1i_misses = 101_500,
                "Q6 pull @2w: l1i_misses 100000 -> 101500",
            ),
            (
                &|r| r.entries[3].l1i_misses = 103_000,
                "Q6 push @2w: l1i_misses 100000 -> 103000",
            ),
            (
                &|r| r.entries[3].modeled_wall_seconds = 0.5001,
                "Q6 push @2w: modeled_wall_seconds 0.5 -> 0.5001",
            ),
            (&|r| r.entries[2].rows = 2, "Q6 pull @2w: rows 1 -> 2"),
            (
                &|r| drop(r.entries.remove(3)),
                "Q6 push @2w: missing from the new report",
            ),
            (
                &|r| r.entries[1].speedup_vs_pull = 0.9,
                "Q6 push @1w: speedup_vs_pull 1.5 -> 0.9: push",
            ),
        ];
        for (edit, want) in broken {
            let err = gate(edit).expect_err(want);
            assert!(err.contains(want), "{err:?} lacks {want:?}");
        }
        let stale = committed
            .to_json()
            .replace("bufferdb-modes/v1", "bufferdb-nope/v1");
        assert!(compare_modes(&committed.to_json(), &stale).is_err());
    }

    #[test]
    fn check_report_accepts_a_writer_and_says_what_is_wrong() {
        let modes = runner::ModesReport {
            scale: 0.001,
            seed: 1,
            entries: Vec::new(),
        };
        assert_eq!(
            check_report(&modes.to_json()).as_deref(),
            Ok("schema bufferdb-modes/v1, version 2, 0 runs")
        );
        let unknown = modes
            .to_json()
            .replace("bufferdb-modes/v1", "bufferdb-nope/v1");
        assert!(check_report(&unknown)
            .unwrap_err()
            .contains("unknown schema"));
        let stale = modes
            .to_json()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert!(check_report(&stale).unwrap_err().contains("not supported"));
    }
}
