//! The benchmark's declared contract, read from the repository's
//! `BENCHMARK.json` (compiled in, so the runner and the declaration can
//! never drift apart): workload names, run length, and every metric's
//! unit, direction and regression bound.

use foundation::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The declaration this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

impl Catalog {
    /// Parse the compiled-in declaration.
    pub fn load() -> Self {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array {key:?}"))
        };
        let str_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        higher_is_better: str_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads =
            list("workloads")?.iter().map(|w| str_of(w, "name")).collect::<Result<_, _>>()?;
        let run_seconds =
            doc.get("run_seconds").and_then(Json::as_f64).ok_or("missing run_seconds")? as u64;
        Ok(Catalog {
            workloads,
            run_seconds,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn section(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let c = Catalog::load();
        assert_eq!(c.workloads.len(), 4);
        let mut names: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
            names.push(&m.name);
        }
        for w in &c.workloads {
            assert!(valid_name(w), "bad workload name {w:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names must be unique");
    }

    #[test]
    fn end_to_end_bounds_follow_the_contract() {
        let c = Catalog::load();
        for m in &c.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&c.run_seconds));
    }
}
