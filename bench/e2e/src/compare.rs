//! `compare A.json B.json`: the acceptance rule, runnable locally.
//!
//! For every `workload/metric` pair of end-to-end metrics: both
//! medians, how much worse B is than A (in the metric's own
//! direction), the bound from `BENCHMARK.json`, each side's
//! run-to-run spread (interquartile range as a share of the median,
//! quartiles as Python's `statistics.quantiles(values, n=4)`), and a
//! verdict — `unresolved` when a spread is wider than the bound,
//! `regressed` when B is worse by more than the bound, `ok` otherwise.

use crate::json::{self, Value};
use crate::stats::{median, quartiles_exclusive};
use crate::Error;
use std::collections::BTreeMap;

struct Rule {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read(path: &str) -> Result<Value, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::new(format!("{path}: {e}")))?;
    json::parse(&text).map_err(|e| Error::new(format!("{path}: {e}")))
}

/// (workload, metric) → values of the untraced runs in a result file.
fn samples(file: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in file.get("runs").map_or(&[][..], Value::as_array) {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.map_or(&[][..], Value::fields) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

pub fn cmd_compare(files: &[&str], benchmark: Option<&str>) -> Result<(), Error> {
    let [a_path, b_path] = files else {
        return Err(Error::new(
            "usage: compare A.json B.json --benchmark BENCHMARK.json",
        ));
    };
    let bench = read(benchmark.ok_or_else(|| Error::new("missing --benchmark BENCHMARK.json"))?)?;
    let rules: Vec<Rule> = bench
        .get("end_to_end")
        .map_or(&[][..], Value::as_array)
        .iter()
        .filter_map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    let (a, b) = (samples(&read(a_path)?), samples(&read(b_path)?));
    let pct = |v: Option<f64>| v.map_or("      -".to_string(), |v| format!("{:6.2}%", v * 100.0));
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7} {:>7}  verdict",
        "metric", "workload", "median A", "median B", "worse", "bound", "iqr A", "iqr B"
    );
    let mut regressed = 0;
    for rule in &rules {
        for ((workload, metric), va) in a.iter().filter(|((_, m), _)| *m == rule.name) {
            let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let (ma, mb) = (
                median(va).expect("non-empty"),
                median(vb).expect("non-empty"),
            );
            let worse = if ma == 0.0 {
                0.0
            } else if rule.higher_is_better {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let (sa, sb) = (spread(va), spread(vb));
            let verdict =
                if sa.is_some_and(|s| s > rule.bound) || sb.is_some_and(|s| s > rule.bound) {
                    "unresolved"
                } else if worse > rule.bound {
                    regressed += 1;
                    "regressed"
                } else {
                    "ok"
                };
            println!(
                "{:<20} {:<14} {:>14.4} {:>14.4} {} {} {} {}  {verdict}",
                metric,
                workload,
                ma,
                mb,
                pct(Some(worse)),
                pct(Some(rule.bound)),
                pct(sa),
                pct(sb)
            );
        }
    }
    if regressed > 0 {
        return Err(Error::new(format!(
            "{regressed} workload/metric pairs regressed"
        )));
    }
    Ok(())
}
