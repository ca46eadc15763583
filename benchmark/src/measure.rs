//! Op recording and the end-to-end metrics every workload reports.

use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Set-ups per run. Like passes, they rotate over the allowed CPUs;
/// `setup_s` is the mean over CPUs of each CPU's median set-up time.
pub const SETUPS: usize = 10;

/// One printed metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check held (op checks, decomposition and count
    /// reconciliation).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

/// Pins every thread of the process to the `turn`-th allowed CPU,
/// modulo their count, and returns that CPU's slot (always 0 on a
/// single CPU). Set-ups and passes call it in turn, so a run measures
/// each CPU it may use equally instead of the one the scheduler
/// happened to pick.
fn pin_turn(turn: u64) -> usize {
    let cpus = affinity::allowed();
    if cpus.len() < 2 {
        return 0;
    }
    let slot = (turn % cpus.len() as u64) as usize;
    affinity::pin_process(cpus[slot]);
    slot
}

/// The mean over CPU slots of the median of each slot's values: every
/// CPU weighs the same, whatever its number of values.
fn mean_of_slot_medians(values: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slot, v) in values {
        by_slot.entry(slot).or_default().push(v);
    }
    let medians: Vec<f64> = by_slot.values().map(|v| median_f64(v)).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// How the repeats of one input become the latency the end-to-end
/// metrics report for each of its ops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Repeats {
    /// The input's fastest repeat, for pure computation: every repeat
    /// does the same work, so only the shared host makes one slower than
    /// another. The host's speed swings by up to 2x within seconds, and
    /// the fastest repeat is the figure it moves least. Throughput is
    /// taken from these latencies too.
    Fastest,
    /// The mean over CPU slots of the median of the input's repeats on
    /// each, for a server whose own waits (its accept poll) differ from
    /// repeat to repeat: the fastest repeat would hide them. Throughput
    /// is taken from the raw latencies.
    #[default]
    MedianPerCpu,
}

/// Records ops in passes. Only whole passes feed latency and
/// throughput, so where a run happens to stop inside a pass cannot skew
/// them; every op, whole pass or not, counts as attempted.
///
/// Each op carries its input key: ops with one key do the same work.
/// Passes rotate the process over the CPUs it may use (see
/// [`pin_turn`]). The reported latency of an op is its key's latency
/// under the recorder's [`Repeats`]: a burst of host contention on one
/// repeat cannot move it, and a change to the work itself moves every
/// repeat.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub repeats: Repeats,
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
    /// (input key, CPU slot, latency in ns, good) of each op of the
    /// whole passes.
    pub ops: Vec<(u32, usize, u64, bool)>,
    pending: Vec<(u32, usize, u64, bool)>,
    slot: usize,
}

impl Recorder {
    pub fn new(repeats: Repeats) -> Self {
        Recorder {
            repeats,
            ..Recorder::default()
        }
    }

    /// Starts a pass on the next CPU in turn.
    fn begin_pass(&mut self) {
        self.slot = pin_turn(self.passes);
    }

    pub fn record(&mut self, key: u32, latency: Duration, good: bool) {
        self.attempted += 1;
        self.failed += u64::from(!good);
        self.pending
            .push((key, self.slot, latency.as_nanos() as u64, good));
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
        self.ops.append(&mut self.pending);
    }

    /// Drops the ops of an unfinished pass from the timing (they stay
    /// counted as attempted).
    fn abandon_pass(&mut self) {
        self.pending.clear();
    }

    /// Runs one pass of `n` ops: `op(i)` runs the `i`-th op and returns
    /// its input key, its latency and whether it is good. With a budget,
    /// a pass that runs out of time is abandoned between ops. Returns
    /// whether the pass completed.
    pub fn pass(
        &mut self,
        n: usize,
        budget: Option<&Budget>,
        mut op: impl FnMut(usize) -> (u32, Duration, bool),
    ) -> bool {
        self.begin_pass();
        for i in 0..n {
            if budget.is_some_and(Budget::expired) {
                self.abandon_pass();
                return false;
            }
            let (key, latency, good) = op(i);
            self.record(key, latency, good);
        }
        self.end_pass();
        true
    }

    /// Good ops of the whole passes.
    pub fn good(&self) -> u64 {
        self.ops.iter().filter(|op| op.3).count() as u64
    }

    /// Measured latencies of the whole passes, in op order.
    pub fn raw_ns(&self) -> Vec<u64> {
        self.ops.iter().map(|op| op.2).collect()
    }

    /// Each op's latency replaced by its key's latency under
    /// [`Recorder::repeats`].
    pub fn smoothed_ns(&self) -> Vec<u64> {
        let mut by_key: HashMap<u32, Vec<(usize, f64)>> = HashMap::new();
        for &(key, slot, ns, _) in &self.ops {
            by_key.entry(key).or_default().push((slot, ns as f64));
        }
        let latency: HashMap<u32, u64> = by_key
            .into_iter()
            .map(|(key, v)| {
                let ns = match self.repeats {
                    Repeats::Fastest => v.iter().map(|r| r.1).fold(f64::INFINITY, f64::min),
                    Repeats::MedianPerCpu => mean_of_slot_medians(v),
                };
                (key, ns.round() as u64)
            })
            .collect();
        self.ops.iter().map(|op| latency[&op.0]).collect()
    }

    /// Good ops per timed second of the whole passes: good ops ÷ the sum
    /// of their latencies, smoothed under [`Repeats::Fastest`] and raw
    /// otherwise. The benchmark's own checks between ops never count.
    pub fn ops_per_s(&self) -> f64 {
        let ns = match self.repeats {
            Repeats::Fastest => self.smoothed_ns(),
            Repeats::MedianPerCpu => self.raw_ns(),
        };
        self.good() as f64 / (ns.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Good ops ÷ the sum of their raw latencies, whatever the
    /// [`Repeats`].
    pub fn raw_ops_per_s(&self) -> f64 {
        self.good() as f64 / (self.raw_ns().iter().sum::<u64>() as f64 / 1e9)
    }
}

/// The set-up times of one run, each with the CPU slot it ran on.
#[derive(Debug, Clone, Default)]
pub struct SetUps(pub Vec<(usize, f64)>);

impl SetUps {
    /// `setup_s`: the mean over CPUs of each CPU's median set-up time.
    pub fn seconds(&self) -> f64 {
        mean_of_slot_medians(self.0.iter().copied())
    }
}

/// Runs `set_up` [`SETUPS`] times, each on the next CPU in turn, tearing
/// each result down before the next starts, and returns every set-up
/// time with the last result.
///
/// # Errors
/// The first set-up failure.
pub fn repeat_set_up<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(SetUps, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let slot = pin_turn(k as u64);
        let t = Instant::now();
        last = Some(set_up(k)?);
        times.push((slot, t.elapsed().as_secs_f64()));
    }
    Ok((SetUps(times), last.expect("SETUPS is positive")))
}

/// The untraced run: whole passes while time remains (the first pass
/// always completes), then the end-to-end metrics with op latencies
/// taken under `repeats`. `pass(rec, budget)` runs one pass and returns
/// whether it completed.
pub fn untraced_run(
    setups: &SetUps,
    seconds: f64,
    repeats: Repeats,
    mut pass: impl FnMut(&mut Recorder, Option<&Budget>) -> bool,
) -> Outcome {
    let budget = Budget::new(seconds);
    let mut rec = Recorder::new(repeats);
    while rec.passes == 0 || !budget.expired() {
        let limit = (rec.passes > 0).then_some(&budget);
        if !pass(&mut rec, limit) {
            break;
        }
    }
    let (metrics, notes) = end_to_end(setups, &rec);
    Outcome {
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        notes,
    }
}

/// The recorders of a traced run.
#[derive(Debug, Default)]
pub struct TracedPasses {
    pub warm_up: Recorder,
    pub untraced: Recorder,
    pub traced: Recorder,
}

impl TracedPasses {
    pub fn all(&self) -> [&Recorder; 3] {
        [&self.warm_up, &self.untraced, &self.traced]
    }

    /// `trace.overhead_share`: the share of untraced throughput the
    /// tracing costs, from raw latencies.
    pub fn overhead_share(&self) -> f64 {
        1.0 - self.traced.raw_ops_per_s() / self.untraced.raw_ops_per_s()
    }
}

/// The traced run's passes: one warm-up pass, then untraced and traced
/// passes alternate while time remains (at least one traced pass), so
/// both see the same host conditions. `pass(rec, traced)` runs one
/// whole pass.
///
/// # Errors
/// The first error a pass returns.
pub fn alternate(
    seconds: f64,
    mut pass: impl FnMut(&mut Recorder, bool) -> Result<(), String>,
) -> Result<TracedPasses, String> {
    let budget = Budget::new(seconds);
    let mut p = TracedPasses::default();
    pass(&mut p.warm_up, false)?;
    while p.traced.passes == 0 || !budget.expired() {
        pass(&mut p.untraced, false)?;
        pass(&mut p.traced, true)?;
    }
    Ok(p)
}

/// CPU affinity through the C library: the benchmark's only foreign
/// calls.
mod affinity {
    use std::sync::OnceLock;

    /// `cpu_set_t` holds 1024 CPU bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the process could run on when first asked.
    pub fn allowed() -> &'static [usize] {
        static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
        CPUS.get_or_init(|| {
            let mut mask = [0u64; WORDS];
            // SAFETY: `mask` is a writable buffer of exactly the size
            // passed, laid out as the kernel's CPU bitmask.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            if rc != 0 {
                return Vec::new();
            }
            (0..WORDS * 64)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        })
    }

    /// Pins every current thread of the process to `cpu`; threads they
    /// spawn later inherit it. A thread that exits meanwhile is skipped.
    pub fn pin_process(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for tid in tasks
            .flatten()
            .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
        {
            // SAFETY: `mask` is a readable buffer of exactly the size
            // passed; an invalid or exited `tid` only makes the call fail.
            unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        }
    }
}

/// A run's wall-clock budget, checked between ops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Instant,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The six end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(setups: &SetUps, rec: &Recorder) -> (Vec<Metric>, Vec<String>) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let smoothed = rec.smoothed_ns();
    let raw = rec.raw_ns();
    let p50 = ms(percentile(&smoothed, 0.50));
    let p90 = ms(percentile(&smoothed, 0.90));
    let metrics = vec![
        Metric::new("setup_s", setups.seconds(), "s"),
        Metric::new("ops_per_s", rec.ops_per_s(), "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_p90_ms", p90, "ms"),
        Metric::new(
            "good_share",
            (rec.attempted - rec.failed) as f64 / rec.attempted as f64,
            "share",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut slot_rates: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for &(_, slot, ns, good) in &rec.ops {
        let (n, total) = slot_rates.entry(slot).or_default();
        *n += u64::from(good);
        *total += ns;
    }
    let notes = vec![
        format!(
            "latency_p50_ms {p50:.4} and latency_p90_ms {p90:.4} over {} samples \
             ({} whole passes, {:?} repeat per input); p99 {:.4} ms",
            smoothed.len(),
            rec.passes,
            rec.repeats,
            ms(percentile(&smoothed, 0.99)),
        ),
        format!(
            "unsmoothed: {:.1} ops/s, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
            rec.raw_ops_per_s(),
            ms(percentile(&raw, 0.50)),
            ms(percentile(&raw, 0.90)),
            ms(percentile(&raw, 0.99)),
        ),
        format!(
            "ops/s per CPU slot: {}",
            slot_rates
                .values()
                .map(|&(n, ns)| format!("{:.1}", n as f64 / (ns as f64 / 1e9)))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "setup_s runs (CPU slot:s): {}",
            setups
                .0
                .iter()
                .map(|(slot, s)| format!("{slot}:{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    (metrics, notes)
}

/// Renders the result object: the last line the benchmark prints. A
/// value that is not finite renders as `null`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let fields = vec![
                ("value".to_owned(), Value::Float(m.value)),
                ("unit".to_owned(), Value::String(m.unit.to_owned())),
            ];
            (m.name.clone(), Value::Object(fields))
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(outcome.correct)),
        (
            "attempted".to_owned(),
            Value::UInt(outcome.attempted.into()),
        ),
        ("failed".to_owned(), Value::UInt(outcome.failed.into())),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&result).expect("a Value always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn unfinished_passes_count_as_attempted_but_not_timed() {
        let mut rec = Recorder::default();
        rec.record(0, Duration::from_millis(2), true);
        rec.record(1, Duration::from_millis(2), false);
        rec.end_pass();
        let budget = Budget::new(0.0);
        let completed = rec.pass(2, Some(&budget), |_| unreachable!("budget is spent"));
        assert!(!completed);
        rec.record(0, Duration::from_millis(50), true);
        rec.abandon_pass();
        assert_eq!((rec.attempted, rec.failed, rec.good()), (3, 1, 1));
        assert_eq!(rec.raw_ns().len(), 2);
        assert!((rec.ops_per_s() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn a_burst_moves_throughput_but_not_the_smoothed_latency() {
        let mut rec = Recorder::default();
        for ms in [4, 4, 40] {
            rec.record(7, Duration::from_millis(ms), true);
            rec.record(8, Duration::from_millis(1), true);
            rec.end_pass();
        }
        assert_eq!(rec.smoothed_ns(), [4_000_000, 1_000_000].repeat(3));
        // 6 good ops in 4 + 1 + 4 + 1 + 40 + 1 = 51 ms
        assert!((rec.ops_per_s() - 6.0 / 0.051).abs() < 1e-9);
    }

    #[test]
    fn fastest_takes_each_inputs_best_repeat_for_latency_and_throughput() {
        let mut rec = Recorder::new(Repeats::Fastest);
        for (slot, ms) in [(0, 6), (1, 4), (0, 40)] {
            rec.slot = slot;
            rec.record(7, Duration::from_millis(ms), true);
            rec.record(8, Duration::from_millis(1), true);
            rec.end_pass();
        }
        assert_eq!(rec.smoothed_ns(), [4_000_000, 1_000_000].repeat(3));
        // 6 good ops of 4 + 1 ms each, and 6 in 6 + 1 + 4 + 1 + 40 + 1 ms raw
        assert!((rec.ops_per_s() - 6.0 / 0.015).abs() < 1e-9);
        assert!((rec.raw_ops_per_s() - 6.0 / 0.053).abs() < 1e-9);
    }

    #[test]
    fn each_cpu_slot_weighs_the_same_whatever_its_repeat_count() {
        let mut rec = Recorder::default();
        for (slot, ms) in [(0, 4), (0, 4), (0, 4), (1, 6)] {
            rec.slot = slot;
            rec.record(7, Duration::from_millis(ms), true);
            rec.end_pass();
        }
        assert_eq!(rec.smoothed_ns(), [5_000_000; 4]);
        let setups = SetUps(vec![(0, 0.2), (1, 0.6), (0, 0.3), (1, 0.6), (0, 0.2)]);
        assert!((setups.seconds() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn result_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
