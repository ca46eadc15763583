//! Seeded input plans: the op streams each workload drives. The
//! benchmark seed reaches the program only through these plans — the
//! config shuffle, the `SiteMap` draws and the serve key stream.

use apx_core::sweeps;
use apx_operators::{OpClass, OperatorConfig, SiteMap, SiteOps, SiteSpec};

/// A splitmix64 stream: small, seedable and stable across releases, so
/// a seed names the same plan forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xBE4C_4A11_D00D_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Appends `configs` to `out`, skipping ones already present, so a
/// config shared by two families is characterized once per pass.
fn extend_unique(out: &mut Vec<OperatorConfig>, configs: Vec<OperatorConfig>) {
    for config in configs {
        if !out.contains(&config) {
            out.push(config);
        }
    }
}

fn family(name: &str) -> Vec<OperatorConfig> {
    let family = sweeps::find_family(name).expect("registered operator family");
    (family.configs)()
}

/// The `characterize` pass: the `all`, `sized` and `widths` families,
/// deduplicated and shuffled by `seed`.
pub fn config_cycle(seed: u64) -> Vec<OperatorConfig> {
    let mut configs = Vec::new();
    for name in ["all", "sized", "widths"] {
        extend_unique(&mut configs, family(name));
    }
    Rng::new(seed).shuffle(&mut configs);
    configs
}

/// The operator candidates of the `app-cells` workload: the `points`,
/// `sized` and `multipliers` families, deduplicated, in registry order.
pub fn cell_candidates() -> Vec<OperatorConfig> {
    let mut configs = Vec::new();
    for name in ["points", "sized", "multipliers"] {
        extend_unique(&mut configs, family(name));
    }
    configs
}

/// Every `UNIFORM_EVERY`-th candidate, in registry order, also runs as
/// a uniform cell, so the uniform ≡ `OperatorCtx::for_config` identity
/// is checked every pass.
pub const UNIFORM_EVERY: usize = 4;

/// One planned `app-cells` op: a workload (index into the benchmark's
/// workload list) and the per-site assignment it runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlan {
    pub workload: usize,
    pub map: SiteMap,
    /// The config of a uniform cell, `None` for a mixed one.
    pub uniform: Option<OperatorConfig>,
}

/// The `app-cells` pass. Per workload: one mixed cell per candidate,
/// where each site walks its own seeded permutation of its pool (a site
/// that only adds draws adders, any other site every candidate), plus
/// the fixed uniform cells. Every pass therefore holds the same
/// multiset of (site, config) pairs whatever the seed — the seed only
/// pairs them up and orders the cells — so heavy configs cannot pile up
/// under one seed and move the percentiles.
pub fn cell_cycle(
    seed: u64,
    sites: &[&'static [SiteSpec]],
    candidates: &[OperatorConfig],
) -> Vec<CellPlan> {
    let mut rng = Rng::new(seed ^ 0xCE11);
    let adders: Vec<OperatorConfig> = candidates
        .iter()
        .copied()
        .filter(|c| c.op_class() == OpClass::Adder)
        .collect();
    let mut cells = Vec::new();
    for (workload, specs) in sites.iter().enumerate() {
        for config in candidates.iter().step_by(UNIFORM_EVERY) {
            cells.push(CellPlan {
                workload,
                map: SiteMap::uniform(specs, *config),
                uniform: Some(*config),
            });
        }
        let walks: Vec<Vec<OperatorConfig>> = specs
            .iter()
            .map(|spec| {
                let pool = match spec.ops {
                    SiteOps::Add => &adders,
                    SiteOps::Mul | SiteOps::AddMul => candidates,
                };
                let mut walk: Vec<OperatorConfig> = pool
                    .iter()
                    .copied()
                    .cycle()
                    .take(candidates.len())
                    .collect();
                rng.shuffle(&mut walk);
                walk
            })
            .collect();
        for k in 0..candidates.len() {
            let mut map = SiteMap::new();
            for (spec, walk) in specs.iter().zip(&walks) {
                map.set(spec.tag, walk[k]);
            }
            cells.push(CellPlan {
                workload,
                map,
                uniform: None,
            });
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// Requests per block of the serve key stream; exactly
/// [`MISSES_PER_BLOCK`] of them are fresh keys, at seeded positions.
pub const BLOCK: usize = 4;
/// Fresh (cache-missing) keys per block.
pub const MISSES_PER_BLOCK: usize = 1;

/// One planned `GET /report/<config>?seed=<seed>` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub config: OperatorConfig,
    pub seed: u64,
    /// Whether the key has never been requested before (a planned miss).
    pub fresh: bool,
    /// Which work the request does: the hot key's index for a hit, the
    /// hot-set size plus the config's cycle index for a miss.
    pub work: u32,
}

/// The serve key stream: the `points` family under one seeded
/// characterization seed forms the hot keys, which set-up serves once
/// and later blocks repeat (hits); one request per block asks for a
/// never-seen `(config, seed)` pair (a miss). The hot configs are fixed,
/// so set-up costs the same under every seed. Infinite; take what a run
/// needs.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: Rng,
    hot: Vec<Request>,
    fresh_configs: Vec<OperatorConfig>,
    fresh_seed: u64,
    issued: usize,
    block: Vec<Request>,
}

impl KeyStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5E4E);
        let configs = config_cycle(seed);
        // one characterization seed for the hot set, fresh ones after it
        let hot_seed = rng.next_u64() >> 1;
        let hot = (0u32..)
            .zip(&family("points"))
            .map(|(work, &config)| Request {
                config,
                seed: hot_seed,
                fresh: true,
                work,
            })
            .collect();
        KeyStream {
            rng,
            hot,
            fresh_configs: configs,
            fresh_seed: hot_seed + 1,
            issued: 0,
            block: Vec::new(),
        }
    }

    /// The keys set-up serves once, so that later requests for them hit.
    pub fn hot(&self) -> &[Request] {
        &self.hot
    }

    fn refill(&mut self) {
        let mut block: Vec<Request> = (0..BLOCK - MISSES_PER_BLOCK)
            .map(|_| Request {
                fresh: false,
                ..self.rng.pick(&self.hot)
            })
            .collect();
        for _ in 0..MISSES_PER_BLOCK {
            let index = self.issued % self.fresh_configs.len();
            self.issued += 1;
            block.push(Request {
                config: self.fresh_configs[index],
                seed: self.fresh_seed,
                fresh: true,
                work: (self.hot.len() + index) as u32,
            });
            self.fresh_seed += 1;
        }
        self.rng.shuffle(&mut block);
        block.reverse(); // popped from the back: keep the shuffled order
        self.block = block;
    }
}

impl Iterator for KeyStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> Vec<&'static [SiteSpec]> {
        ["kmeans", "fir"]
            .iter()
            .map(|name| {
                let entry = apx_apps::workload::find(name).unwrap();
                let params = apx_apps::WorkloadParams {
                    size: 16,
                    sets: 1,
                    points: 20,
                };
                (entry.build)(&params).unwrap().sites()
            })
            .collect()
    }

    #[test]
    fn config_cycle_is_a_seeded_permutation() {
        let a = config_cycle(1);
        let b = config_cycle(2);
        assert_ne!(a, b, "two seeds give different orders");
        assert_eq!(a, config_cycle(1), "one seed gives one order");
        let mut sa: Vec<String> = a.iter().map(|c| format!("{c:?}")).collect();
        let mut sb: Vec<String> = b.iter().map(|c| format!("{c:?}")).collect();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "same config set under both seeds");
        // ≤10-bit exact adders take the exhaustive verify path
        assert!(a.contains(&OperatorConfig::AddExact { n: 8 }));
    }

    #[test]
    fn cell_cycle_and_key_stream_follow_the_seed() {
        let sites = sites();
        let candidates = cell_candidates();
        let a = cell_cycle(1, &sites, &candidates);
        let b = cell_cycle(2, &sites, &candidates);
        assert_eq!(a, cell_cycle(1, &sites, &candidates));
        assert_ne!(a, b);
        let uniform = candidates.len().div_ceil(UNIFORM_EVERY);
        assert_eq!(a.len(), 2 * (candidates.len() + uniform));
        // the seed pairs and orders (site, config) draws; it never
        // changes which draws a pass holds
        let multiset = |cells: &[CellPlan]| {
            let mut pairs: Vec<String> = cells
                .iter()
                .flat_map(|c| c.map.iter().map(|(s, k)| format!("{s}={k:?}")))
                .collect();
            pairs.sort();
            pairs
        };
        assert_eq!(multiset(&a), multiset(&b));

        let ka: Vec<Request> = KeyStream::new(1).take(40).collect();
        let kb: Vec<Request> = KeyStream::new(2).take(40).collect();
        assert_eq!(ka, KeyStream::new(1).take(40).collect::<Vec<_>>());
        assert_ne!(ka, kb);
        for keys in [&ka, &kb] {
            assert_eq!(keys.iter().filter(|r| r.fresh).count(), 10);
            for block in keys.chunks(BLOCK) {
                assert_eq!(block.iter().filter(|r| r.fresh).count(), MISSES_PER_BLOCK);
            }
        }
    }

    #[test]
    fn fresh_keys_never_repeat_and_never_hit_the_hot_set() {
        let stream = KeyStream::new(7);
        let hot: Vec<Request> = stream.hot().to_vec();
        let fresh: Vec<Request> = stream.take(4000).filter(|r| r.fresh).collect();
        for (i, r) in fresh.iter().enumerate() {
            assert!(!hot.iter().any(|h| h.config == r.config && h.seed == r.seed));
            assert!(!fresh[..i]
                .iter()
                .any(|p| p.config == r.config && p.seed == r.seed));
        }
    }
}
