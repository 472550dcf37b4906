//! One run's outcome: the metric values of the active section, the
//! operation tally, and the result line the benchmark ends with.

use std::collections::BTreeMap;

use foundation::json::Json;

use crate::catalog::{Catalog, MetricDef};
use crate::stats::Value;

pub struct Report<'a> {
    catalog: &'a Catalog,
    pub trace: bool,
    values: BTreeMap<String, Value>,
    /// Operations the run checked (measured jobs and requests, plus the
    /// set-up and verification runs).
    pub attempted: u64,
    /// Checked operations whose output was wrong or that answered with
    /// an error.
    pub failed: u64,
}

impl<'a> Report<'a> {
    /// An empty report. A traced run starts every per-layer metric at 0:
    /// a layer a workload never enters (the serve cache on a sweep, the
    /// SIMD backend on the Box-2D49P sweep) did no work there.
    pub fn new(catalog: &'a Catalog, trace: bool) -> Self {
        let values = if trace {
            catalog.per_layer.iter().map(|m| (m.name.clone(), Value::scalar(0.0))).collect()
        } else {
            BTreeMap::new()
        };
        Report { catalog, trace, values, attempted: 0, failed: 0 }
    }

    /// Record `name`, which must belong to the active section.
    pub fn set(&mut self, name: &str, v: Value) {
        assert!(
            self.catalog.section(self.trace).iter().any(|m| m.name == name),
            "{name} is not a declared {} metric",
            if self.trace { "per-layer" } else { "end-to-end" }
        );
        self.values.insert(name.to_string(), v);
    }

    pub fn scalar(&mut self, name: &str, v: f64) {
        self.set(name, Value::scalar(v));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Every metric of the active section in declaration order. Panics
    /// if the workload left one unmeasured: a benchmark bug, which the
    /// smoke test catches on every workload.
    pub fn rows(&self) -> Vec<(&'a MetricDef, Value)> {
        self.catalog
            .section(self.trace)
            .iter()
            .map(|m| {
                let v = self.values.get(&m.name).unwrap_or_else(|| panic!("{} unmeasured", m.name));
                (m, *v)
            })
            .collect()
    }

    /// The machine-readable last line of a run.
    pub fn result_line(&self) -> String {
        let metrics = self
            .rows()
            .into_iter()
            .map(|(m, v)| {
                let entry =
                    Json::obj([("value", Json::Num(v.value)), ("unit", Json::Str(m.unit.clone()))]);
                (m.name.clone(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .dump()
    }
}
