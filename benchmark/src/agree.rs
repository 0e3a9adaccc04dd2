//! `agree A B`: is result B no worse than result A of the same workload by
//! more than the bounds `BENCHMARK.json` sets?

use bufferdb_bench::json::Json;
use std::path::{Path, PathBuf};

/// `(name, higher is better, bound)` of every end-to-end metric.
fn bounds(benchmark: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok((
                field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                field("better")?.as_str() == Some("higher"),
                field("bound")?.as_f64().ok_or("bound is not a number")?,
            ))
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Result files under `path`: itself, or for a directory every untraced
/// `<workload>.json` in it.
fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json")
                && !name.ends_with(".trace.json")
                && !name.ends_with(".spans.json")
        })
        .collect();
    files.sort();
    Ok(files)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Compare one pair of result documents; returns the number of breaches.
fn compare(a: &Json, b: &Json, bounds: &[(String, bool, f64)]) -> Result<usize, String> {
    let text = |d: &Json, k: &str| d.get(k).and_then(Json::as_str).map(str::to_string);
    let workload = text(a, "workload").ok_or("first result names no workload")?;
    if text(b, "workload").as_deref() != Some(&workload) {
        return Err(format!(
            "results are of different workloads ({workload} vs other)"
        ));
    }
    let seed = |d: &Json| d.get("seed").and_then(Json::as_u64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let value = |d: &Json, name: &str| {
        d.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or(format!("{workload}: metric {name} missing from a result"))
    };
    let mut breaches = 0;
    for d in [a, b] {
        if d.get("failed").and_then(Json::as_u64) != Some(0) {
            println!("{workload:<16} a run has failed operations: BREACH");
            breaches += 1;
        }
    }
    for (name, higher, bound) in bounds {
        let (va, vb) = (value(a, name)?, value(b, name)?);
        // Modeled numbers are a pure function of the seed: between two runs
        // of one seed any difference at all is a change of behaviour.
        let exact = same_seed && name.starts_with("modeled_");
        let worse = worsening(va, vb, *higher);
        let ok = if exact { va == vb } else { worse <= *bound };
        let rule = if exact {
            "exact".to_string()
        } else {
            format!("≤ {:.0} %", bound * 100.0)
        };
        println!(
            "{workload:<16} {name:<26} {va:>18.4} {vb:>18.4} {:>+8.2} % ({rule}) {}",
            worse * 100.0,
            if ok { "ok" } else { "BREACH" }
        );
        breaches += usize::from(!ok);
    }
    Ok(breaches)
}

/// Entry point of the `agree` subcommand; returns the breach count.
pub fn agree(a: &Path, b: &Path) -> Result<usize, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = bounds(&load(&manifest)?)?;
    let (files_a, files_b) = (result_files(a)?, result_files(b)?);
    if files_a.is_empty() || files_a.len() != files_b.len() {
        return Err(format!(
            "{} result file(s) against {}: nothing to pair",
            files_a.len(),
            files_b.len()
        ));
    }
    println!(
        "{:<16} {:<26} {:>18} {:>18} {:>10}",
        "workload", "metric", "A", "B", "B worse by"
    );
    let mut breaches = 0;
    for (fa, fb) in files_a.iter().zip(&files_b) {
        breaches += compare(&load(fa)?, &load(fb)?, &bounds)?;
    }
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(seed: u64, qps: f64, cycles: f64) -> Json {
        let metric = |v: f64| Json::Obj(vec![("value".into(), Json::F64(v))]);
        Json::Obj(vec![
            ("workload".into(), Json::str("w")),
            ("seed".into(), Json::U64(seed)),
            ("failed".into(), Json::U64(0)),
            (
                "metrics".into(),
                Json::Obj(vec![
                    ("queries_per_host_s".into(), metric(qps)),
                    ("modeled_cycles".into(), metric(cycles)),
                ]),
            ),
        ])
    }

    fn test_bounds() -> Vec<(String, bool, f64)> {
        vec![
            ("queries_per_host_s".into(), true, 0.10),
            ("modeled_cycles".into(), false, 0.05),
        ]
    }

    #[test]
    fn direction_and_bound() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        let b = test_bounds();
        assert_eq!(
            compare(&result(1, 100.0, 50.0), &result(1, 95.0, 50.0), &b),
            Ok(0)
        );
        assert_eq!(
            compare(&result(1, 100.0, 50.0), &result(1, 80.0, 50.0), &b),
            Ok(1)
        );
        // Better is never a breach, however much.
        assert_eq!(
            compare(&result(1, 100.0, 50.0), &result(1, 180.0, 50.0), &b),
            Ok(0)
        );
    }

    #[test]
    fn modeled_metrics_are_exact_on_one_seed_only() {
        let b = test_bounds();
        assert_eq!(
            compare(&result(1, 100.0, 50.0), &result(1, 100.0, 51.0), &b),
            Ok(1)
        );
        assert_eq!(
            compare(&result(1, 100.0, 50.0), &result(2, 100.0, 51.0), &b),
            Ok(0)
        );
    }

    #[test]
    fn missing_metric_is_an_error() {
        let bounds = vec![("nope".to_string(), true, 0.1)];
        assert!(compare(&result(1, 1.0, 1.0), &result(1, 1.0, 1.0), &bounds).is_err());
    }
}
