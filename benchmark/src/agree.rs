//! `--agree`: two sets of runs of the same code with the same seed, and for
//! every pairing of end-to-end metric and workload whether the two values
//! lie within that metric's own bound. A pairing that does not is
//! `unresolved`: its workload needs a longer run, not a looser reading.

use crate::report::RunResult;
use crate::Res;
use flor_obs::json::{self, Json};

/// An end-to-end metric's name and regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Share of the first value by which the second may differ.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json`'s text.
pub fn bounds(benchmark_json: &str) -> Res<Vec<Bound>> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
}

/// One `(metric, workload)` row of the agreement table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// First run's value.
    pub first: f64,
    /// Second run's value.
    pub second: f64,
    /// `|second - first| / |first|`.
    pub difference: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether the two runs agree within the bound.
    pub fn agrees(&self) -> bool {
        self.difference <= self.bound
    }
}

/// Compares two runs of one workload metric by metric.
pub fn compare(bounds: &[Bound], first: &RunResult, second: &RunResult) -> Res<Vec<Row>> {
    bounds
        .iter()
        .map(|b| {
            let value = |r: &RunResult| {
                r.value(&b.name)
                    .ok_or_else(|| format!("run reported no {}", b.name))
            };
            let (first, second) = (value(first)?, value(second)?);
            Ok(Row {
                metric: b.name.clone(),
                first,
                second,
                difference: (second - first).abs() / first.abs().max(f64::MIN_POSITIVE),
                bound: b.bound,
            })
        })
        .collect()
}
