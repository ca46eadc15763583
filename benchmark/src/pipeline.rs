//! The characterization pipeline taken apart into its public pieces, in
//! the order `Characterizer::characterize` runs them, each inside a span:
//! `config.build()`, `op.netlist()`, the batched verify chosen by the
//! `exhaustive_up_to_bits` rule, `Characterizer::error_stats`,
//! `sta::analyze` and `Characterizer::hardware`.
//!
//! `hardware` rebuilds the netlist and reruns STA before it simulates
//! power, so the benchmark books power time as the `core.hardware` span
//! minus the measured `netlist.sta` and `operators.netlist` spans.

use crate::trace::Tracer;
use apx_cells::Library;
use apx_core::output::family;
use apx_core::{Characterizer, ErrorSummary, OperatorReport};
use apx_netlist::{sta, verify, HwReport};
use apx_operators::OperatorConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every operator family `apx_core::output::family` names for the
/// configs the benchmark characterizes.
pub const FAMILIES: [&str; 16] = [
    "FxP-exact",
    "FxP-trunc",
    "FxP-round",
    "FxP-sized",
    "ACA",
    "ETAIV",
    "ETAII",
    "RCAApx-1",
    "RCAApx-2",
    "RCAApx-3",
    "MUL-exact",
    "MUL-sized",
    "MULt",
    "AAM",
    "ABM",
    "ABMu",
];

/// Work counts of the netlist and error layers: simulated statistics
/// that a speed-only change must leave identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub characterizations: u64,
    pub gates: u64,
    pub verify_vectors: u64,
    pub power_vectors: u64,
    /// Σ gates × power vectors: the power simulator's work.
    pub gate_vectors: u64,
    pub transitions: u64,
    pub error_samples: u64,
}

impl Work {
    fn add(&mut self, other: &Work) {
        self.characterizations += other.characterizations;
        self.gates += other.gates;
        self.verify_vectors += other.verify_vectors;
        self.power_vectors += other.power_vectors;
        self.gate_vectors += other.gate_vectors;
        self.transitions += other.transitions;
        self.error_samples += other.error_samples;
    }
}

/// Per-family [`Work`] totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkLedger {
    pub by_family: BTreeMap<&'static str, Work>,
}

impl WorkLedger {
    pub fn add(&mut self, fam: &'static str, work: &Work) {
        self.by_family.entry(fam).or_default().add(work);
    }

    pub fn total(&self) -> Work {
        let mut total = Work::default();
        for work in self.by_family.values() {
            total.add(work);
        }
        total
    }

    pub fn family(&self, fam: &str) -> Work {
        self.by_family.get(fam).copied().unwrap_or_default()
    }
}

/// The decomposed result: the pieces `characterize` fuses.
#[derive(Debug, Clone)]
pub struct Pieces {
    pub verified: bool,
    pub error: ErrorSummary,
    pub hw: HwReport,
    /// Critical path of the standalone `sta::analyze` call.
    pub sta_delay_ns: f64,
    pub work: Work,
}

impl Pieces {
    /// The decomposition check: the pieces equal the fused report field
    /// for field, bit for bit, and the standalone STA agrees with the one
    /// inside `hardware`.
    pub fn matches(&self, report: &OperatorReport) -> bool {
        self.verified == report.verified
            && self.sta_delay_ns.to_bits() == report.hw.delay_ns.to_bits()
            && format!("{:?}", self.error) == format!("{:?}", report.error)
            && format!("{:?}", self.hw) == format!("{:?}", report.hw)
    }
}

/// Runs the pipeline piecewise on `chz`'s settings and engine, one span
/// per piece under a `core.characterize` root span.
pub fn characterize_traced(
    chz: &Characterizer<'_>,
    lib: &Library,
    config: &OperatorConfig,
    tracer: &mut Tracer,
) -> Pieces {
    let fam = family(config);
    let settings = chz.settings();
    let root = tracer.enter("core.characterize", fam);
    let op = tracer.span("operators.build", fam, || config.build());
    let nl = tracer.span("operators.netlist", fam, || op.netlist());

    let eval_ns = AtomicU64::new(0);
    let eval_batch = |a: &[u64], b: &[u64], out: &mut [u64]| {
        let t = Instant::now();
        op.eval_batch(a, b, out);
        eval_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    let total_bits = 2 * op.input_bits();
    let verify_span = tracer.enter("netlist.verify", fam);
    let (result, verify_vectors) = if total_bits <= settings.exhaustive_up_to_bits {
        (
            verify::verify_exhaustive2_batch_with(&nl, chz.engine(), eval_batch),
            1u64 << total_bits,
        )
    } else {
        (
            verify::verify_random2_batch_with(
                &nl,
                settings.verify_samples,
                settings.seed,
                chz.engine(),
                eval_batch,
            ),
            settings.verify_samples as u64,
        )
    };
    tracer.exit(verify_span);
    tracer.add_inner(verify_span, eval_ns.load(Ordering::Relaxed));

    let stats = tracer.span("core.error_stats", fam, || chz.error_stats(op.as_ref()));
    let timing = tracer.span("netlist.sta", fam, || sta::analyze(&nl, lib));
    let hw = tracer.span("core.hardware", fam, || chz.hardware(op.as_ref()));
    let error = ErrorSummary::from_stats(&stats, op.ref_bits());
    tracer.exit(root);

    let gates = nl.gates().len() as u64;
    let power_vectors = settings.power_vectors as u64;
    Pieces {
        verified: result.is_ok(),
        sta_delay_ns: timing.critical_path_ns,
        work: Work {
            characterizations: 1,
            gates,
            verify_vectors,
            power_vectors,
            gate_vectors: gates * power_vectors,
            transitions: (hw.transitions_per_op * power_vectors as f64).round() as u64,
            error_samples: stats.samples(),
        },
        error,
        hw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_core::CharacterizerSettings;
    use apx_engine::Engine;

    #[test]
    fn pieces_equal_the_fused_report_on_both_verify_paths() {
        let lib = Library::fdsoi28();
        let settings = CharacterizerSettings {
            error_samples: 5_000,
            verify_samples: 300,
            power_vectors: 60,
            ..CharacterizerSettings::default()
        };
        let mut chz = Characterizer::new(&lib)
            .with_settings(settings)
            .with_engine(Engine::new(1));
        let mut tracer = Tracer::new();
        for config in [
            OperatorConfig::AddExact { n: 6 },
            OperatorConfig::Aca { n: 16, p: 4 },
            OperatorConfig::MulTrunc { n: 16, q: 16 },
        ] {
            let report = chz.characterize(&config);
            let pieces = characterize_traced(&chz, &lib, &config, &mut tracer);
            assert!(pieces.matches(&report), "{config}");
            assert!(FAMILIES.contains(&family(&config)));
        }
        let exhaustive = tracer.totals()[&("netlist.verify", "FxP-exact")];
        assert!(exhaustive.inner_ns > 0, "eval_batch time is booked");
    }

    #[test]
    fn every_cycle_config_has_a_listed_family() {
        for config in crate::plan::config_cycle(0)
            .into_iter()
            .chain(crate::plan::cell_candidates())
        {
            assert!(FAMILIES.contains(&family(&config)), "{config}");
        }
    }
}
