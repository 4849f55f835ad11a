//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are written down. Every result line is built from
//! it, so a metric the manifest does not name cannot be printed and a
//! metric it names cannot be left out.

use serde_json::Value;

use crate::harness::RunResult;

const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// Workloads the binary runs that `BENCHMARK.json` does not list, so the
/// driver that gates PRs never runs them; the whole-benchmark commands do.
/// The driver's time limit is shared by the listed workloads: four fill it
/// at 30 s a run, three leave 40 s, and on a noisy host the length of a run
/// is what steadies its timings. `data_pipeline` is the workload whose runs
/// lay furthest apart (README.md, Workloads).
pub const UNGATED: [&str; 1] = ["data_pipeline"];

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the other run's value by which this metric may be worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    /// The workloads `BENCHMARK.json` lists, then the [`UNGATED`] ones.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let text = |m: &Value, field: &str| -> Result<String, String> {
        m.get(field)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: {key} entry without {field}"))
    };
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json: no {key}"))?
        .iter()
        .map(|m| {
            let name = text(m, "name")?;
            if !name_ok(&name) {
                return Err(format!("BENCHMARK.json: bad metric name {name:?}"));
            }
            Ok(MetricSpec {
                name,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Manifest {
    pub fn embedded() -> Result<Self, String> {
        let doc: Value =
            serde_json::from_str(SOURCE).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without name".to_string())
            })
            .chain(UNGATED.iter().map(|w| Ok(w.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        let manifest = Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads,
            end_to_end: specs(&doc, "end_to_end")?,
            per_layer: specs(&doc, "per_layer")?,
        };
        let mut names: Vec<&str> = manifest
            .end_to_end
            .iter()
            .chain(&manifest.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json: metric {} named twice", w[0]));
        }
        Ok(manifest)
    }

    /// The result line of a run: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one. A per-layer metric of
    /// a layer the workload never calls reads 0.
    pub fn result_line(&self, result: &RunResult, traced: bool) -> Result<String, String> {
        let specs = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        if let Some((stray, _)) = result
            .metrics
            .iter()
            .find(|(name, _)| !specs.iter().any(|s| s.name == *name))
        {
            return Err(format!(
                "{stray} was measured but BENCHMARK.json does not name it"
            ));
        }
        let mut fields = Vec::with_capacity(specs.len());
        for spec in specs {
            let value = match result.metrics.get(&spec.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("{} was not measured", spec.name)),
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            result.attempted,
            result.failed,
            fields.join(", ")
        ))
    }
}
