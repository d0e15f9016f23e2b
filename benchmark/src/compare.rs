//! Pair comparison: `benchmark compare <dir-a> <dir-b>` reads two sets of
//! result files and, for every (metric, workload), prints both sides'
//! median and quartiles, the share of pairs side B won, and a verdict
//! against the metric's bound in `BENCHMARK.json`.
//!
//! A result file is named `<workload>.<anything>` and holds a run's
//! standard output; its last non-empty line is the result object. Files
//! of one workload are paired in name order (so run them alternately and
//! number them).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use cimone_monitor::json::JsonValue;

use crate::stats::{median, quartiles, relative_iqr};

/// One metric's declaration in `BENCHMARK.json`.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// Metric values per workload, one list entry per run.
type Results = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare <result-dir-a> <result-dir-b>");
        return ExitCode::from(2);
    };
    let loaded = declared("BENCHMARK.json").and_then(|d| Ok((d, load(a)?, load(b)?)));
    let (declared, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<12} {:<36} {:>4} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "n", "A q1/median/q3", "B q1/median/q3", "B won"
    );
    let mut worse = false;
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            continue;
        };
        for d in &declared {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&d.name).copied())
                    .collect()
            };
            let (va, vb) = (pick(runs_a), pick(runs_b));
            let (Some(qa), Some(qb)) = (quartiles(&va), quartiles(&vb)) else {
                continue;
            };
            let (won, pairs) = wins(d, &va, &vb);
            let verdict = verdict(d, &va, &vb);
            worse |= verdict.starts_with("WORSE");
            println!(
                "{workload:<12} {:<36} {pairs:>4} {:>30} {:>30} {:>5.0}%  {verdict}",
                d.name,
                format!("{:.4}/{:.4}/{:.4}", qa[0], qa[1], qa[2]),
                format!("{:.4}/{:.4}/{:.4}", qb[0], qb[1], qb[2]),
                100.0 * won as f64 / pairs.max(1) as f64
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Side B against side A: worse than the bound, within it, unresolved
/// (A's own spread exceeds the bound and B does not beat every A run),
/// or a gain (B wins at least 90% of pairs by more than A's quartile
/// spread). Per-layer metrics have no bound and get only the gain test.
fn verdict(d: &Declared, va: &[f64], vb: &[f64]) -> String {
    let (ma, mb) = (median(va), median(vb));
    // Positive means B is worse.
    let change = if ma == 0.0 {
        0.0
    } else if d.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let (won, pairs) = wins(d, va, vb);
    let [q1, _, q3] = quartiles(va).unwrap_or([ma; 3]);
    if 10 * won >= 9 * pairs && (mb - ma).abs() > q3 - q1 && change < 0.0 {
        return format!("gain {:.1}%", -100.0 * change);
    }
    let Some(bound) = d.bound else {
        return format!("{:+.1}% (no bound)", 100.0 * change);
    };
    let b_beats_all = vb.iter().all(|y| va.iter().all(|x| d.better(*y, *x)));
    if relative_iqr(va).is_some_and(|s| s > bound) && !b_beats_all {
        format!("unresolved: A spread exceeds bound {bound}")
    } else if change > bound {
        format!(
            "WORSE by {:.1}% (bound {:.0}%)",
            100.0 * change,
            100.0 * bound
        )
    } else {
        format!("within bound ({:+.1}%)", 100.0 * change)
    }
}

impl Declared {
    /// Whether `x` is better than `y`.
    fn better(&self, x: f64, y: f64) -> bool {
        if self.lower_is_better {
            x < y
        } else {
            x > y
        }
    }
}

/// Pairs (A run i, B run i) that B won, and the number of pairs.
fn wins(d: &Declared, va: &[f64], vb: &[f64]) -> (usize, usize) {
    let won = va
        .iter()
        .zip(vb)
        .filter(|(x, y)| d.better(**y, **x))
        .count();
    (won, va.len().min(vb.len()))
}

fn declared(path: &str) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc
            .get(section)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{path}: no {section} list"))?
        {
            out.push(Declared {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{path}: a {section} metric has no name"))?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(JsonValue::as_str) == Some("lower"),
                bound: m.get("bound").and_then(JsonValue::as_f64),
            });
        }
    }
    Ok(out)
}

fn load(dir: &str) -> Result<Results, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut out = Results::new();
    for path in files {
        let workload = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.split('.').next())
            .unwrap_or_default()
            .to_owned();
        out.entry(workload).or_default().push(metrics_of(&path)?);
    }
    Ok(out)
}

fn metrics_of(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{shown}: empty"))?;
    let doc = JsonValue::parse(line).map_err(|e| format!("{shown}: last line: {e}"))?;
    let JsonValue::Object(metrics) = doc.get("metrics").ok_or(format!("{shown}: no metrics"))?
    else {
        return Err(format!("{shown}: metrics is not an object"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: Option<f64>) -> Declared {
        Declared {
            name: "op_ms.p50".to_owned(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [108.0, 109.0, 107.0, 108.5, 107.5];
        assert!(verdict(&lower(Some(0.05)), &a, &slower).starts_with("WORSE"));
        assert!(verdict(&lower(Some(0.10)), &a, &slower).starts_with("within"));
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert!(verdict(&lower(Some(0.05)), &a, &faster).starts_with("gain"));
        let noisy = [70.0, 100.0, 130.0, 90.0, 110.0];
        assert!(verdict(&lower(Some(0.05)), &noisy, &a).starts_with("unresolved"));
        assert!(verdict(&lower(None), &a, &slower).contains("no bound"));
    }
}
