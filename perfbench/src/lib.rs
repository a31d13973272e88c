//! # perfbench
//!
//! The repository benchmark: four workloads over the neurocmp stack,
//! each reporting the same end-to-end metrics (for `BENCHMARK.json`)
//! plus the workload's own named figures, per-layer metrics from a
//! traced run, correctness checks and output digests. `README.md` in
//! this directory documents what each workload and metric is for.
//!
//! The library holds everything testable; `main.rs` is the command line
//! and the result printer.

pub mod digest;
pub mod host;
pub mod load;
pub mod mesh_deploy;
pub mod serve_chaos;
pub mod serve_common;
pub mod serve_open;
pub mod snn_offline;
pub mod stats;
pub mod trace;

use nc_obs::{MemoryRecorder, NullRecorder, Recorder};
use std::collections::BTreeMap;
use std::sync::Arc;
use trace::Tracer;

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`s`, `ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// A name → metric map in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Inserts `name = value unit` into `metrics`.
pub fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.insert(name.into(), Metric { value, unit });
}

/// The sample series holding calibration times.
pub const CALIBRATION_SERIES: &str = "calibration_s";

/// How big a workload's inputs are: the measured size, or the small
/// probe size a traced run of *another* workload uses to cover this
/// workload's layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured configuration.
    Full,
    /// A seconds-long miniature with the same code paths.
    Probe,
}

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Items of the workload's headline loop per second, one sample per
    /// round, slice or episode, as measured.
    pub rates: Vec<f64>,
    /// The same rates normalized to the reference host by the
    /// calibration taken just before each (see [`host::calibrate`]).
    pub rates_norm: Vec<f64>,
    /// Per-item latency samples, ms, grouped in windows (see README for
    /// each workload's item and window). `p50_ms`/`p99_ms` are the
    /// lower quartiles over windows of each window's percentile, so
    /// windows disturbed by the host do not move them.
    pub latency_ms: Vec<Vec<f64>>,
    /// The same windows normalized to the reference host.
    pub latency_norm: Vec<Vec<f64>>,
    /// Host slowdown at the last calibration (its time over the
    /// reference), if one was taken.
    pub slowdown: Option<f64>,
    /// The workload's own named end-to-end figures.
    pub named: Metrics,
    /// Per-layer metrics (filled on traced passes).
    pub layer: Metrics,
    /// Every raw sample series, for the results record.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Output digests.
    pub digests: BTreeMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed unexpectedly (an error the workload does
    /// not schedule; designed chaos failures count in `error_rate`).
    pub failed: u64,
    /// Failed + refused + deadline-missed share of attempted requests
    /// (0 on the healthy workloads).
    pub error_rate: f64,
    /// Correctness-check failures, one line each.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records a correctness mismatch.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// Times the host calibration loop once (see
    /// [`host::calibrate`]); workloads call this before every round,
    /// slice or episode, and the samples that follow are normalized by
    /// it.
    pub fn calibrate(&mut self) {
        let seconds = host::calibrate();
        self.sample(CALIBRATION_SERIES, seconds);
        self.slowdown = Some(seconds / host::CALIBRATION_REFERENCE_S);
    }

    /// The current slowdown factor (1 before any calibration).
    pub fn factor(&self) -> f64 {
        self.slowdown.unwrap_or(1.0)
    }

    /// Records one headline rate.
    pub fn rate(&mut self, raw: f64) {
        self.rates.push(raw);
        self.rates_norm.push(raw * self.factor());
    }

    /// Records one latency window, all measured since the last
    /// calibration.
    pub fn window(&mut self, raw: Vec<f64>) {
        let k = self.factor();
        self.latency_norm
            .push(raw.iter().map(|ms| ms / k).collect());
        self.latency_ms.push(raw);
    }

    /// The headline throughput as measured: the upper quartile of the
    /// rates.
    pub fn throughput(&self) -> f64 {
        stats::good_rate(&self.rates).unwrap_or(0.0)
    }

    /// The headline throughput normalized to the reference host.
    pub fn throughput_norm(&self) -> f64 {
        stats::good_rate(&self.rates_norm).unwrap_or(0.0)
    }

    /// Appends one raw sample to a named series.
    pub fn sample(&mut self, series: &str, value: f64) {
        self.samples
            .entry(series.to_string())
            .or_default()
            .push(value);
    }
}

/// The observability context of a pass: the benchmark's own span
/// tracer plus, on traced passes only, the program's in-memory
/// recorder (engine and trainer counters land there).
#[derive(Debug)]
pub struct Obs {
    /// Benchmark-side spans.
    pub tracer: Tracer,
    /// The program's recorder on traced passes.
    pub memory: Option<Arc<MemoryRecorder>>,
}

impl Obs {
    /// Untraced: disabled tracer, disabled recorder.
    pub fn off() -> Obs {
        Obs {
            tracer: Tracer::disabled(),
            memory: None,
        }
    }

    /// Traced: recording tracer plus a fresh `MemoryRecorder`.
    pub fn traced() -> Obs {
        Obs {
            tracer: Tracer::enabled(),
            memory: Some(Arc::new(MemoryRecorder::new())),
        }
    }

    /// Whether this pass is traced.
    pub fn on(&self) -> bool {
        self.tracer.on()
    }

    /// The recorder handle to hand to the program.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        match &self.memory {
            Some(m) => Arc::clone(m) as Arc<dyn Recorder>,
            None => Arc::new(NullRecorder),
        }
    }

    /// A program counter's value on traced passes (0 otherwise).
    pub fn counter(&self, name: &str) -> u64 {
        self.memory.as_ref().map_or(0, |m| m.counter(name))
    }
}

/// Derives the `index`-th input seed of a workload from its `--seed`.
pub fn derive_seed(run_seed: u64, index: u64) -> u64 {
    let mut rng = nc_substrate::rng::SplitMix64::new(run_seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut seed = rng.next_u64();
    for _ in 0..index {
        seed = rng.next_u64();
    }
    seed
}
