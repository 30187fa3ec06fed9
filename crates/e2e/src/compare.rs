//! `e2e compare A B`: one row per workload × end-to-end metric, judged by
//! the bound the benchmark fixed and the spread of each side's own runs.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;
use crate::Res;

/// Values per (workload, metric) of the untraced runs in `path`: a result
/// file written by `e2e all`, or a directory of them.
fn load(path: &Path) -> Res<BTreeMap<(String, String), Vec<f64>>> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "json")
                && !p.to_string_lossy().ends_with(".trace.json")
            {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for file in &files {
        let doc = Json::parse(&std::fs::read_to_string(file)?)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        for run in doc.get("runs").map_or(&[][..], Json::as_array) {
            if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
                continue;
            }
            let Some(workload) = run.get("workload").and_then(Json::as_str) else {
                continue;
            };
            let metrics = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .map_or(&[][..], Json::fields);
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no untraced runs found", path.display()).into());
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// bound cannot be checked: neither "unchanged" nor "worse".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`. A single run has no spread of its own
/// and is taken at face value.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let spread = [a, b]
        .into_iter()
        .filter(|v| v.len() >= 2)
        .map(iqr_share)
        .fold(0.0, f64::max);
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (ma, mb, spread, verdict)
}

/// The comparison table, B against the base A.
pub fn compare(a: &Path, b: &Path) -> Res<String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut out = format!(
        "{:<24} {:<16} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread"
    );
    for w in Workload::ALL {
        for def in END_TO_END {
            let key = (w.name().to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (runs_a.get(&key), runs_b.get(&key)) else {
                continue;
            };
            let (ma, mb, spread, verdict) = judge(def, va, vb);
            out += &format!(
                "{:<24} {:<16} {:>12.4} {:>12.4} {:>9.4} {:>7.3} {:>7.3}  {} ({} vs {} runs, {} is better)\n",
                w.name(),
                def.name,
                ma,
                mb,
                mb / ma,
                def.bound.unwrap_or(f64::NAN),
                spread,
                verdict.as_str(),
                va.len(),
                vb.len(),
                def.better.as_str(),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Def = Def {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.1),
    };
    const RATE: Def = Def {
        name: "images_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&LATENCY, &a, &[10.2, 10.3, 10.1, 10.2]).3,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&LATENCY, &a, &[12.0, 12.1, 11.9, 12.0]).3,
            Verdict::Worse
        );
        assert_eq!(
            judge(&LATENCY, &a, &[8.0, 8.1, 7.9, 8.0]).3,
            Verdict::Better
        );
        // Higher is better: the same move reads the other way.
        assert_eq!(
            judge(&RATE, &a, &[12.0, 12.1, 11.9, 12.0]).3,
            Verdict::Better
        );
        assert_eq!(judge(&RATE, &a, &[8.0, 8.1, 7.9, 8.0]).3, Verdict::Worse);
        // Runs that scatter more than the bound cannot resolve it.
        assert_eq!(
            judge(&LATENCY, &a, &[8.0, 12.0, 9.0, 11.5]).3,
            Verdict::Unresolved
        );
        // One run per side: no spread, judged at face value.
        assert_eq!(judge(&LATENCY, &[10.0], &[10.5]).3, Verdict::WithinBound);
    }
}
