//! `characterize`: the paper's operator pipeline, uncached. One op is one
//! `Characterizer::characterize` call at the default settings (100 000
//! error samples, 1 500 power vectors) on a seeded shuffle of the `all`,
//! `sized` and `widths` families.

use crate::layers::Layers;
use crate::measure::{alternate, repeat_set_up, untraced_run, Budget, Outcome, Recorder, Repeats};
use crate::pipeline::{characterize_traced, WorkLedger};
use crate::plan;
use crate::trace::Tracer;
use crate::Args;
use apx_cells::Library;
use apx_core::output::family;
use apx_core::{Characterizer, CharacterizerSettings, OperatorReport};
use apx_engine::Engine;
use apx_operators::OperatorConfig;
use std::collections::HashMap;
use std::time::Instant;

/// Set-up characterizes these fixed configs (one adder, one multiplier)
/// as warm-up, so set-up time does not depend on the seed.
const WARM_UP: [OperatorConfig; 2] = [
    OperatorConfig::AddExact { n: 16 },
    OperatorConfig::MulTrunc { n: 16, q: 16 },
];

struct Bench {
    lib: Library,
    cycle: Vec<OperatorConfig>,
    engine: Engine,
}

impl Bench {
    fn chz(&self) -> Characterizer<'_> {
        Characterizer::new(&self.lib)
            .with_settings(CharacterizerSettings::default())
            .with_engine(self.engine.clone())
    }
}

/// Builds the inputs and warms up. Fails when a warm-up report does not
/// verify.
fn set_up(seed: u64) -> Result<Bench, String> {
    let bench = Bench {
        lib: Library::fdsoi28(),
        cycle: plan::config_cycle(seed),
        engine: Engine::new(1),
    };
    let mut chz = bench.chz();
    for config in &WARM_UP {
        if !chz.characterize(config).verified {
            return Err(format!("warm-up report of {config} does not verify"));
        }
    }
    Ok(bench)
}

/// The first report computed for each config in this process: later
/// passes must reproduce it bit for bit.
#[derive(Default)]
pub struct Expected {
    first: HashMap<OperatorConfig, (String, OperatorReport)>,
}

impl Expected {
    /// Whether `report` is good: verified, and identical to the first
    /// report of its config (which it becomes, if it is the first).
    pub fn check(&mut self, report: OperatorReport) -> bool {
        let fingerprint = format!("{report:?}");
        let verified = report.verified;
        let (first, _) = self
            .first
            .entry(report.config)
            .or_insert_with(|| (fingerprint.clone(), report));
        verified && *first == fingerprint
    }

    /// The first report of `config`.
    fn report(&self, config: &OperatorConfig) -> &OperatorReport {
        &self.first[config].1
    }

    #[cfg(test)]
    pub fn corrupt(&mut self, config: OperatorConfig) {
        self.first.get_mut(&config).expect("checked before").0 = "corrupted".to_owned();
    }
}

/// One pass over the cycle, timing each op and checking it outside the
/// timed span.
fn pass(
    bench: &Bench,
    chz: &mut Characterizer<'_>,
    expected: &mut Expected,
    rec: &mut Recorder,
    budget: Option<&Budget>,
) -> bool {
    rec.pass(bench.cycle.len(), budget, |i| {
        let t = Instant::now();
        let report = chz.characterize(&bench.cycle[i]);
        let latency = t.elapsed();
        (i as u32, latency, expected.check(report))
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setups, bench) = repeat_set_up(|_| set_up(args.seed))?;
    let mut chz = bench.chz();
    let mut expected = Expected::default();

    if !args.trace {
        return Ok(untraced_run(
            &setups,
            args.seconds,
            Repeats::Fastest,
            |rec, budget| pass(&bench, &mut chz, &mut expected, rec, budget),
        ));
    }

    // the first traced pass supplies the counts
    let mut tracer = Tracer::new();
    let mut all_work = WorkLedger::default();
    let mut counted = WorkLedger::default();
    let mut decomposed = true;
    let mut op = 0u64;
    let passes = alternate(args.seconds, |rec, traced| {
        if !traced {
            pass(&bench, &mut chz, &mut expected, rec, None);
            return Ok(());
        }
        let counting = rec.passes == 0;
        rec.pass(bench.cycle.len(), None, |i| {
            let config = &bench.cycle[i];
            tracer.set_op(op);
            op += 1;
            let t = Instant::now();
            let pieces = characterize_traced(&chz, &bench.lib, config, &mut tracer);
            let latency = t.elapsed();
            let matches = pieces.matches(expected.report(config));
            decomposed &= matches;
            all_work.add(family(config), &pieces.work);
            if counting {
                counted.add(family(config), &pieces.work);
            }
            (i as u32, latency, matches && pieces.verified)
        });
        Ok(())
    })?;
    let mut layers = Layers::new();
    layers.set_pipeline(&tracer, &all_work, &counted);
    layers.set("trace.overhead_share", passes.overhead_share());
    Ok(crate::finish_traced(
        args,
        &tracer,
        layers,
        &passes.all(),
        decomposed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{end_to_end, SetUps};

    #[test]
    fn a_corrupted_expected_report_counts_as_failed() {
        let lib = Library::fdsoi28();
        let mut chz = Characterizer::new(&lib)
            .with_settings(CharacterizerSettings {
                error_samples: 2_000,
                verify_samples: 200,
                power_vectors: 40,
                ..CharacterizerSettings::default()
            })
            .with_engine(Engine::new(1));
        let config = OperatorConfig::Aca { n: 16, p: 4 };
        let report = chz.characterize(&config);
        let mut expected = Expected::default();
        let mut rec = Recorder::default();
        let ms = std::time::Duration::from_millis(1);
        rec.record(0, ms, expected.check(report.clone()));
        rec.record(0, ms, expected.check(report.clone()));
        expected.corrupt(config);
        rec.record(0, ms, expected.check(report));
        rec.end_pass();
        assert_eq!((rec.attempted, rec.failed), (3, 1));
        let (metrics, _) = end_to_end(&SetUps(vec![(0, 0.1)]), &rec);
        let good_share = metrics.iter().find(|m| m.name == "good_share").unwrap();
        assert!(good_share.value < 1.0);
    }
}
