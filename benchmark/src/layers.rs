//! The per-layer metrics of the traced run, named after the crates they
//! time. Every traced run prints every name; a layer the workload never
//! calls reads 0.

use crate::measure::Metric;
use crate::pipeline::{WorkLedger, FAMILIES};
use crate::trace::{Total, Tracer};
use std::collections::BTreeMap;

/// The `app-cells` workloads, in the order the per-layer names use.
pub const APPS: [&str; 5] = ["kmeans", "hevc", "jpeg", "sobel", "fir"];

const FIXED: &[(&str, &str)] = &[
    ("core.characterize_ms", "ms"),
    ("operators.build_us", "us"),
    ("operators.netlist_us", "us"),
    ("netlist.verify_ms", "ms"),
    ("operators.verify_eval_batch_ms", "ms"),
    ("netlist.verify_sim_ms", "ms"),
    ("netlist.verify_ns_per_vector", "ns/vector"),
    ("core.error_stats_ms", "ms"),
    ("core.error_ns_per_sample", "ns/sample"),
    ("netlist.sta_ms", "ms"),
    ("netlist.power_ms", "ms"),
    ("netlist.power_ns_per_gate_vector", "ns/gate-vector"),
    ("core.error_share", "share"),
    ("netlist.verify_share", "share"),
    ("netlist.power_share", "share"),
    ("operators.ctx_build_us", "us"),
    ("core.price_us", "us"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("core.report_json_us", "us"),
    ("serve.report_hit_ms", "ms"),
    ("serve.http_overhead_ms", "ms"),
    ("cache.put_us", "us"),
    ("serve.report_miss_ms", "ms"),
    ("netlist.gates", "count"),
    ("netlist.verify_vectors", "count"),
    ("netlist.power_vectors", "count"),
    ("netlist.transitions", "count"),
    ("core.error_samples", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.writes", "count"),
    ("cache.bytes", "bytes"),
    ("serve.coalesced", "count"),
    ("trace.overhead_share", "share"),
];

const PER_FAMILY: &[(&str, &str)] = &[
    ("operators.verify_eval_batch_ns_per_lane", "ns/lane"),
    ("core.error_ns_per_sample", "ns/sample"),
    ("netlist.power_ns_per_gate_vector", "ns/gate-vector"),
];

const PER_APP: &[(&str, &str)] = &[
    ("apps.run_ms", "ms"),
    ("apps.ctx_ns_per_op", "ns/op"),
    ("apps.ops_per_cell", "ops"),
];

/// Every per-layer metric name with its unit, in printing order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for &(name, unit) in PER_FAMILY {
        out.extend(FAMILIES.iter().map(|f| (format!("{name}.{f}"), unit)));
    }
    for &(name, unit) in PER_APP {
        out.extend(APPS.iter().map(|w| (format!("{name}.{w}"), unit)));
    }
    out
}

/// The per-layer values of one traced run, all starting at 0.
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            values: names().into_iter().map(|(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a declared metric; an undeclared name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric `{name}`"));
        *slot = value;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        names()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.values[&name];
                Metric::new(name, value, unit)
            })
            .collect()
    }

    /// The characterization-pipeline layers, from the spans of
    /// `pipeline::characterize_traced` calls: mean per characterization
    /// for times, rates against all traced work, counts from `counted`
    /// (a fixed, seed-determined slice of the work, so they repeat
    /// exactly).
    pub fn set_pipeline(&mut self, tracer: &Tracer, traced: &WorkLedger, counted: &WorkLedger) {
        let totals = tracer.totals();
        let sum = |name: &str, fam: Option<&str>| -> Total {
            let mut t = Total::default();
            for ((n, tag), v) in &totals {
                if *n == name && fam.is_none_or(|f| f == *tag) {
                    t.self_ns += v.self_ns;
                    t.total_ns += v.total_ns;
                    t.inner_ns += v.inner_ns;
                    t.spans += v.spans;
                }
            }
            t
        };
        let all = traced.total();
        if all.characterizations == 0 {
            return;
        }
        let n = all.characterizations as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / n;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        let per = |ns: u64, work: u64| {
            if work == 0 {
                0.0
            } else {
                ns as f64 / work as f64
            }
        };
        let power_ns = |fam: Option<&str>| -> u64 {
            sum("core.hardware", fam).total_ns.saturating_sub(
                sum("netlist.sta", fam).total_ns + sum("operators.netlist", fam).total_ns,
            )
        };

        let characterize = sum("core.characterize", None).total_ns;
        let verify = sum("netlist.verify", None);
        let error = sum("core.error_stats", None).self_ns;
        let power = power_ns(None);
        self.set("core.characterize_ms", ms(characterize));
        self.set(
            "operators.build_us",
            us(sum("operators.build", None).self_ns),
        );
        self.set(
            "operators.netlist_us",
            us(sum("operators.netlist", None).self_ns),
        );
        self.set("netlist.verify_ms", ms(verify.total_ns));
        self.set("operators.verify_eval_batch_ms", ms(verify.inner_ns));
        self.set("netlist.verify_sim_ms", ms(verify.self_ns));
        self.set(
            "netlist.verify_ns_per_vector",
            per(verify.total_ns, all.verify_vectors),
        );
        self.set("core.error_stats_ms", ms(error));
        self.set("core.error_ns_per_sample", per(error, all.error_samples));
        self.set("netlist.sta_ms", ms(sum("netlist.sta", None).self_ns));
        self.set("netlist.power_ms", ms(power));
        self.set(
            "netlist.power_ns_per_gate_vector",
            per(power, all.gate_vectors),
        );
        self.set("core.error_share", per(error, characterize));
        self.set("netlist.verify_share", per(verify.total_ns, characterize));
        self.set("netlist.power_share", per(power, characterize));
        for fam in FAMILIES {
            let work = traced.family(fam);
            let eval = sum("netlist.verify", Some(fam)).inner_ns;
            let err = sum("core.error_stats", Some(fam)).self_ns;
            self.set(
                &format!("operators.verify_eval_batch_ns_per_lane.{fam}"),
                per(eval, work.verify_vectors),
            );
            self.set(
                &format!("core.error_ns_per_sample.{fam}"),
                per(err, work.error_samples),
            );
            self.set(
                &format!("netlist.power_ns_per_gate_vector.{fam}"),
                per(power_ns(Some(fam)), work.gate_vectors),
            );
        }

        let counts = counted.total();
        self.set("netlist.gates", counts.gates as f64);
        self.set("netlist.verify_vectors", counts.verify_vectors as f64);
        self.set("netlist.power_vectors", counts.power_vectors as f64);
        self.set("netlist.transitions", counts.transitions as f64);
        self.set("core.error_samples", counts.error_samples as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Reads the metric names of one section of the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &'_ Value, name: &str| -> Option<Value> {
            v.as_object()?
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, v)| v.clone())
        };
        let metrics = field(&json, section).expect("section present");
        metrics
            .as_array()
            .expect("section is a list")
            .iter()
            .map(|m| {
                let name = field(m, "name").expect("metric has a name");
                name.as_str().expect("name is a string").to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let printed: Vec<String> = names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), printed);
        assert!(printed.len() <= 128);
        let mut unique = printed.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), printed.len(), "names are used once");
        assert_eq!(
            declared("end_to_end"),
            [
                "setup_s",
                "ops_per_s",
                "latency_p50_ms",
                "latency_p90_ms",
                "good_share",
                "peak_rss_mb"
            ]
        );
    }
}
