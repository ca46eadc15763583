//! `app-cells`: the `tune`/`table6` inner loop. One op is one
//! heterogeneous cell — `HeteroCtx::new(&site_map)`, `Workload::run`,
//! then per-site pricing with `AppEnergyModel::energy_pj` — on a seeded
//! cycle of `SiteMap`s over the `points`, `sized` and `multipliers`
//! candidates. The energy models are characterized once, in set-up;
//! after it the workload never touches `apx_netlist` or the cache.

use crate::layers::{Layers, APPS};
use crate::measure::{alternate, repeat_set_up, untraced_run, Budget, Outcome, Recorder, Repeats};
use crate::pipeline::{characterize_traced, WorkLedger};
use crate::plan::{self, CellPlan};
use crate::trace::Tracer;
use crate::Args;
use apx_apps::{ArithContext, OperatorCtx, Workload, WorkloadParams, WorkloadRun};
use apx_cells::Library;
use apx_core::appenergy::{partner_adder, partner_multiplier, AppEnergyModel};
use apx_core::output::family;
use apx_core::query::QueryParams;
use apx_core::{Characterizer, OperatorReport};
use apx_engine::Engine;
use apx_operators::{HeteroCtx, OpClass, OperatorConfig, SiteCounts, SiteMap};
use std::collections::HashMap;
use std::time::Instant;

/// Reduced workload sizes: one cell costs milliseconds, so a run holds
/// several passes of the cycle.
const PARAMS: WorkloadParams = WorkloadParams {
    size: 32,
    sets: 1,
    points: 50,
};

/// Where `tune` prices a site the assignment leaves out.
const EXACT_FALLBACK: OperatorConfig = OperatorConfig::AddExact { n: 16 };

struct Bench {
    lib: Library,
    apps: Vec<(Box<dyn Workload>, u64)>,
    cycle: Vec<CellPlan>,
    /// Every characterized config, in characterization order.
    reports: Vec<OperatorReport>,
    models: HashMap<OperatorConfig, AppEnergyModel>,
}

impl Bench {
    fn chz(&self) -> Characterizer<'_> {
        Characterizer::new(&self.lib)
            .with_settings(QueryParams::default().settings())
            .with_engine(Engine::new(1))
    }
}

/// The partner-sized energy model of `config` (`appenergy::model_for`),
/// priced from already characterized reports.
fn model(config: &OperatorConfig, pdp: &impl Fn(&OperatorConfig) -> f64) -> AppEnergyModel {
    match config.op_class() {
        OpClass::Adder => AppEnergyModel {
            adder_pdp_pj: pdp(config),
            mult_pdp_pj: pdp(&partner_multiplier(config)),
        },
        OpClass::Multiplier => AppEnergyModel {
            adder_pdp_pj: pdp(&partner_adder(config)),
            mult_pdp_pj: pdp(config),
        },
    }
}

fn partner(config: &OperatorConfig) -> OperatorConfig {
    match config.op_class() {
        OpClass::Adder => partner_multiplier(config),
        OpClass::Multiplier => partner_adder(config),
    }
}

/// Builds the workloads and the cell cycle, and characterizes every
/// candidate and partner once. Fails when a report does not verify.
fn set_up(seed: u64) -> Result<Bench, String> {
    let apps: Vec<(Box<dyn Workload>, u64)> = APPS
        .iter()
        .map(|name| {
            let entry = apx_apps::workload::find(name).expect("registered workload");
            let workload = (entry.build)(&PARAMS).expect("valid reduced size");
            let seed = workload.default_seed();
            (workload, seed)
        })
        .collect();
    let sites: Vec<_> = apps.iter().map(|(w, _)| w.sites()).collect();
    let candidates = plan::cell_candidates();
    let cycle = plan::cell_cycle(seed, &sites, &candidates);
    let mut bench = Bench {
        lib: Library::fdsoi28(),
        apps,
        cycle,
        reports: Vec::new(),
        models: HashMap::new(),
    };
    let mut configs: Vec<OperatorConfig> = Vec::new();
    for config in candidates.iter().chain([&EXACT_FALLBACK]) {
        for c in [*config, partner(config)] {
            if !configs.contains(&c) {
                configs.push(c);
            }
        }
    }
    let mut chz = bench.chz();
    let reports: Vec<OperatorReport> = configs.iter().map(|c| chz.characterize(c)).collect();
    if let Some(bad) = reports.iter().find(|r| !r.verified) {
        return Err(format!(
            "energy-model report of {} does not verify",
            bad.config
        ));
    }
    let pdp = |c: &OperatorConfig| {
        reports
            .iter()
            .find(|r| r.config == *c)
            .expect("partner characterized")
            .hw
            .pdp_pj
    };
    bench.models = candidates
        .iter()
        .chain([&EXACT_FALLBACK])
        .map(|c| (*c, model(c, &pdp)))
        .collect();
    bench.reports = reports;
    Ok(bench)
}

/// One cell's outputs.
struct Cell {
    run: WorkloadRun,
    site_counts: SiteCounts,
    energy_pj: f64,
}

/// Prices each site's traffic by its own config's model (`tune`'s rule).
fn price(
    site_counts: &SiteCounts,
    map: &SiteMap,
    models: &HashMap<OperatorConfig, AppEnergyModel>,
) -> f64 {
    let mut total = 0.0;
    for (site, counts) in site_counts.iter() {
        let config = map.get(site).copied().unwrap_or(EXACT_FALLBACK);
        total += models[&config].energy_pj(counts);
    }
    total
}

fn run_cell(bench: &Bench, plan: &CellPlan) -> Cell {
    let (workload, seed) = &bench.apps[plan.workload];
    let mut ctx = HeteroCtx::new(&plan.map);
    let run = workload.run(*seed, &mut ctx);
    let site_counts = ctx.site_counts();
    let energy_pj = price(&site_counts, &plan.map, &bench.models);
    Cell {
        run,
        site_counts,
        energy_pj,
    }
}

fn run_cell_traced(bench: &Bench, plan: &CellPlan, tracer: &mut Tracer) -> Cell {
    let (workload, seed) = &bench.apps[plan.workload];
    let tag = APPS[plan.workload];
    let root = tracer.enter("apps.cell", tag);
    let mut ctx = tracer.span("operators.ctx_build", tag, || HeteroCtx::new(&plan.map));
    let run = tracer.span("apps.run", tag, || workload.run(*seed, &mut ctx));
    let (site_counts, energy_pj) = tracer.span("core.price", tag, || {
        let site_counts = ctx.site_counts();
        let energy_pj = price(&site_counts, &plan.map, &bench.models);
        (site_counts, energy_pj)
    });
    tracer.exit(root);
    Cell {
        run,
        site_counts,
        energy_pj,
    }
}

/// The first output of each cell of the cycle: later passes must
/// reproduce it bit for bit. A uniform cell's first output must also
/// equal the uniform `OperatorCtx::for_config` run.
#[derive(Default)]
struct Expected {
    first: HashMap<usize, (String, bool)>,
}

impl Expected {
    fn check(&mut self, bench: &Bench, index: usize, cell: &Cell) -> bool {
        let fingerprint = format!(
            "{:?} {:?} {:x}",
            cell.run,
            cell.site_counts,
            cell.energy_pj.to_bits()
        );
        let plan = &bench.cycle[index];
        let (first, identity) = self.first.entry(index).or_insert_with(|| {
            let identity = plan.uniform.is_none_or(|config| {
                let (workload, seed) = &bench.apps[plan.workload];
                let mut ctx = OperatorCtx::for_config(&config);
                format!("{:?}", workload.run(*seed, &mut ctx)) == format!("{:?}", cell.run)
            });
            (fingerprint.clone(), identity)
        });
        *identity
            && *first == fingerprint
            && cell.run.counts.total() > 0
            && cell.energy_pj.is_finite()
            && cell.energy_pj > 0.0
    }
}

fn pass(
    bench: &Bench,
    expected: &mut Expected,
    rec: &mut Recorder,
    budget: Option<&Budget>,
) -> bool {
    rec.pass(bench.cycle.len(), budget, |i| {
        let t = Instant::now();
        let cell = run_cell(bench, &bench.cycle[i]);
        let latency = t.elapsed();
        (i as u32, latency, expected.check(bench, i, &cell))
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setups, bench) = repeat_set_up(|_| set_up(args.seed))?;
    let mut expected = Expected::default();

    if !args.trace {
        return Ok(untraced_run(
            &setups,
            args.seconds,
            Repeats::Fastest,
            |rec, budget| pass(&bench, &mut expected, rec, budget),
        ));
    }

    let mut tracer = Tracer::new();
    let mut layers = Layers::new();
    // the set-up characterizations, piecewise: the pipeline layers as the
    // `tune` set-up exercises them, checked against the fused reports
    let chz = bench.chz();
    let mut work = WorkLedger::default();
    let mut decomposed = true;
    for (op, report) in bench.reports.iter().enumerate() {
        tracer.set_op(op as u64);
        let pieces = characterize_traced(&chz, &bench.lib, &report.config, &mut tracer);
        decomposed &= pieces.matches(report);
        work.add(family(&report.config), &pieces.work);
    }
    layers.set_pipeline(&tracer, &work, &work);

    // the first traced pass supplies the counts
    let mut ops_counted = [0u64; APPS.len()];
    let mut cells_counted = [0u64; APPS.len()];
    let mut ops_traced = [0u64; APPS.len()];
    let mut op = bench.reports.len() as u64;
    let passes = alternate(args.seconds, |rec, traced| {
        if !traced {
            pass(&bench, &mut expected, rec, None);
            return Ok(());
        }
        let counting = rec.passes == 0;
        rec.pass(bench.cycle.len(), None, |i| {
            let plan = &bench.cycle[i];
            tracer.set_op(op);
            op += 1;
            let t = Instant::now();
            let cell = run_cell_traced(&bench, plan, &mut tracer);
            let latency = t.elapsed();
            let ops = cell.run.counts.total();
            ops_traced[plan.workload] += ops;
            if counting {
                ops_counted[plan.workload] += ops;
                cells_counted[plan.workload] += 1;
            }
            let good = expected.check(&bench, i, &cell);
            decomposed &= good;
            (i as u32, latency, good)
        });
        Ok(())
    })?;

    let totals = tracer.totals();
    let total = |name: &'static str, tag: &'static str| {
        totals.get(&(name, tag)).copied().unwrap_or_default()
    };
    let cells = passes.traced.ops.len() as f64;
    let sum_over_apps =
        |name: &'static str| APPS.iter().map(|w| total(name, w).self_ns).sum::<u64>();
    layers.set(
        "operators.ctx_build_us",
        sum_over_apps("operators.ctx_build") as f64 / 1e3 / cells,
    );
    layers.set(
        "core.price_us",
        sum_over_apps("core.price") as f64 / 1e3 / cells,
    );
    for (i, w) in APPS.iter().enumerate() {
        let runs = total("apps.run", w);
        layers.set(
            &format!("apps.run_ms.{w}"),
            runs.self_ns as f64 / 1e6 / runs.spans as f64,
        );
        layers.set(
            &format!("apps.ctx_ns_per_op.{w}"),
            runs.self_ns as f64 / ops_traced[i] as f64,
        );
        layers.set(
            &format!("apps.ops_per_cell.{w}"),
            ops_counted[i] as f64 / cells_counted[i] as f64,
        );
    }
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
    use apx_core::appenergy::model_for;
    use apx_core::CharacterizerSettings;

    #[test]
    fn set_up_models_equal_appenergy_model_for() {
        let lib = Library::fdsoi28();
        let settings = CharacterizerSettings {
            error_samples: 1_000,
            verify_samples: 100,
            power_vectors: 40,
            ..CharacterizerSettings::default()
        };
        let mut chz = Characterizer::new(&lib)
            .with_settings(settings)
            .with_engine(Engine::new(1));
        for config in [
            OperatorConfig::AddTrunc { n: 16, q: 10 },
            OperatorConfig::Abm { n: 16 },
        ] {
            let expected = model_for(&mut chz, &config);
            let pdp = |c: &OperatorConfig| {
                Characterizer::new(&lib)
                    .with_settings(settings)
                    .characterize(c)
                    .hw
                    .pdp_pj
            };
            assert_eq!(model(&config, &pdp), expected, "{config}");
        }
    }
}
