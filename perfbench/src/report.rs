//! The metric catalog and the report the benchmark prints.
//!
//! Standard output carries two JSON lines: a full report (host metadata,
//! every metric with its sample count, notes and problems), then the
//! result line — `correct`, `attempted`, `failed` and the metrics of this
//! mode (end-to-end untraced, per-layer traced). A human table goes to
//! standard error.

use crate::stats::{Outcomes, Tail};
use dtfe_telemetry::json::number as num;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric the benchmark reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_tail_ms", "ms"),
    m("success_share", "share"),
    m("peak_rss_mb", "MB"),
];

/// Measured in the traced run. A layer a workload does not exercise
/// reports 0 with 0 samples.
pub const PER_LAYER: &[MetricDef] = &[
    m("delaunay.build_ms_p50", "ms"),
    m("delaunay.points_per_s", "1/s"),
    m("delaunay.reorder_ms_p50", "ms"),
    m("geometry.exact_share", "share"),
    m("core.density_ms_p50", "ms"),
    m("core.march_cache_ms_p50", "ms"),
    m("core.hull_index_ms_p50", "ms"),
    m("core.render_ms_p50", "ms"),
    m("core.cells_per_s", "1/s"),
    m("core.tets_per_los", "count"),
    m("core.edge_evals_per_los", "count"),
    m("core.entry_hint_hit_share", "share"),
    m("service.request_hit_share", "share"),
    m("service.cache_lookup_hit_share", "share"),
    m("service.evictions", "count"),
    m("service.resident_bytes_per_particle", "B"),
    m("service.admission_ms_p50", "ms"),
    m("service.queue_ms_p99", "ms"),
    m("service.build_ms_p99", "ms"),
    m("service.render_ms_p50", "ms"),
    m("service.shed_share", "share"),
    m("service.wire_encode_us_p50", "us"),
    m("service.wire_decode_us_p50", "us"),
    m("service.response_bytes", "B"),
    m("framework.partition_s", "s"),
    m("framework.model_s", "s"),
    m("framework.triangulate_s", "s"),
    m("framework.render_s", "s"),
    m("framework.sharing_wait_s", "s"),
    m("framework.imbalance", "ratio"),
    m("framework.model_rel_err_p50", "ratio"),
    m("bench.lag_ms_p99", "ms"),
    m("bench.trace_overhead_share", "share"),
    m("bench.replay_parts_share", "share"),
];

const MAX_ERROR_SAMPLES: usize = 5;

struct Value {
    value: f64,
    samples: usize,
    percentile: Option<f64>,
}

/// Everything one run measured.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub outcomes: Outcomes,
    /// Output or consistency checks that failed; any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// The first few messages of failed operations. Failures count in
    /// `outcomes` (and so in `success_share`) but leave the run correct.
    errors: Vec<String>,
    values: BTreeMap<&'static str, Value>,
    /// Extra report fields, as raw JSON values.
    notes: Vec<(String, String)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            trace,
            outcomes: Outcomes::default(),
            problems: Vec::new(),
            errors: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record a catalog metric and the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.insert(
            name,
            Value {
                value,
                samples,
                percentile: None,
            },
        );
    }

    /// Record a tail metric with the percentile the tail rule reached.
    pub fn set_tail(&mut self, name: &'static str, tail: Tail) {
        self.insert(
            name,
            Value {
                value: tail.value,
                samples: tail.samples,
                percentile: Some(tail.percentile),
            },
        );
    }

    /// A non-finite value is a problem: it prints as `null`, never as a
    /// figure that could read as good.
    fn insert(&mut self, name: &'static str, v: Value) {
        unit_of(name);
        if !v.value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({})", v.value));
        }
        self.values.insert(name, v);
    }

    /// Keep a failed operation's message (the first few only).
    pub fn record_error(&mut self, message: String) {
        if self.errors.len() < MAX_ERROR_SAMPLES {
            self.errors.push(message);
        }
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.notes.push((key.to_string(), json_value));
    }

    pub fn note_num(&mut self, key: &str, v: f64) {
        self.note(key, num(v));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn value(&self, name: &str) -> (f64, usize, Option<f64>) {
        self.values
            .get(name)
            .map(|v| (v.value, v.samples, v.percentile))
            .unwrap_or((0.0, 0, None))
    }

    /// The full report line (metadata, all metrics, notes, problems).
    pub fn report_json(&self, meta: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{meta},\"metrics\":{{",
            quote(self.workload),
            self.seed,
            num(self.seconds),
            self.trace
        );
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}",
                quote(name),
                num(v.value),
                quote(unit_of(name)),
                v.samples
            );
            if let Some(p) = v.percentile {
                let _ = write!(out, ",\"percentile\":{}", num(p));
            }
            out.push('}');
        }
        let o = &self.outcomes;
        let _ = write!(
            out,
            "}},\"outcomes\":{{\"ok\":{},\"failed\":{},\"shed\":{},\"corrupt\":{},\"error_rate\":{}}}",
            o.ok,
            o.failed,
            o.shed,
            o.corrupt,
            num(o.error_rate())
        );
        out.push_str(",\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", quote(k));
        }
        out.push('}');
        for (key, list) in [("problems", &self.problems), ("errors", &self.errors)] {
            let items: Vec<String> = list.iter().map(|m| quote(m)).collect();
            let _ = write!(out, ",{}:[{}]", quote(key), items.join(","));
        }
        out.push_str("}}");
        out
    }

    /// The result line: this mode's metrics, by name and unit.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.outcomes.attempted().max(1),
            self.outcomes.errors()
        );
        for (i, d) in self.defs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (value, _, _) = self.value(d.name);
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(d.name),
                num(value),
                quote(d.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// A table of this mode's metrics for a human reader.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# {} seed={} trace={} attempted={} errors={}\n",
            self.workload,
            self.seed,
            self.trace,
            self.outcomes.attempted(),
            self.outcomes.errors()
        );
        for d in self.defs() {
            let (value, samples, pct) = self.value(d.name);
            let pct = pct.map(|p| format!(" (p{p:.2})")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<38} {:>16.6} {:<6} n={samples}{pct}",
                d.name, value, d.unit
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "failed: {e}");
        }
        out
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    dtfe_telemetry::json::escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtfe_telemetry::json::Json;

    /// `BENCHMARK.json` and this catalog must name the same metrics with
    /// the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap().to_string(),
                        e.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Report::new("warm", 1, 10.0, false);
        r.set("setup_s", 1.25, 3);
        r.outcomes.ok = 4;
        let line = r.result_json();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(4.0));
        assert!(Json::parse(&r.report_json("{}")).is_ok());

        let traced = Report::new("warm", 1, 10.0, true);
        let doc = Json::parse(&traced.result_json()).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    /// A failed operation is counted and sampled but does not make the run
    /// incorrect; only a failed check does.
    #[test]
    fn failures_are_counted_but_only_problems_make_a_run_incorrect() {
        let mut r = Report::new("batch", 1, 1.0, false);
        r.outcomes.ok = 2;
        r.outcomes.failed = 1;
        for k in 0..10 {
            r.record_error(format!("error {k}"));
        }
        assert!(r.correct());
        let doc = Json::parse(&r.report_json("{}")).unwrap();
        let report = doc.get("report").unwrap();
        let errors = report.get("errors").and_then(Json::as_arr).unwrap();
        assert_eq!(errors.len(), MAX_ERROR_SAMPLES);
        let line = Json::parse(&r.result_json()).unwrap();
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        r.problems.push("field differs".into());
        assert!(!r.correct());
    }

    #[test]
    fn non_finite_metrics_are_problems_and_print_as_null() {
        let mut r = Report::new("batch", 1, 1.0, false);
        r.set("throughput_per_s", f64::NAN, 0);
        assert!(!r.correct());
        let doc = Json::parse(&r.result_json()).unwrap();
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("throughput_per_s"))
            .and_then(|m| m.get("value"))
            .unwrap();
        assert!(v.as_f64().is_none(), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_names_are_rejected() {
        Report::new("warm", 1, 1.0, false).set("latency_ms", 1.0, 1);
    }
}
