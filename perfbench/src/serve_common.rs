//! What the two serving workloads share: the served model mix, its
//! training, the engine, the offline reference predictions and the
//! serving-side kernel probes.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use crate::{derive_seed, put, Obs, Report, Size};
use nc_core::{Engine, ExperimentScale, Job, ModelSpec};
use nc_dataset::digits::DigitsSpec;
use nc_dataset::{Dataset, Difficulty, FitBudget, Model, PixelSlab};
use nc_mlp::{Activation, QuantizedMlp};
use nc_serve::ModelSnapshot;
use nc_snn::SnnParams;
use nc_substrate::kernel::{gemm_i8xu8, swar_spike_counts};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Zipf rank order of the served models (hot model first), as in the
/// repository's serve bench.
pub const MODEL_MIX: [&str; 3] = ["qmlp", "wot", "mlp"];
/// Batch window: the server default.
pub const WINDOW: usize = 8;
/// Engine worker threads: the host's two cores.
pub const THREADS: usize = 2;
/// Hidden width of both served MLPs.
pub const HIDDEN: usize = 100;
/// Spike-count ladder height of the timing-free SNN (`wot`).
pub const WOT_MAX_SPIKES: u32 = 10;

/// Split sizes `(train, test)` per size class.
pub fn split(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (120, 200),
        Size::Probe => (40, 40),
    }
}

/// The served models' training budget (the serve bench's).
pub fn budget() -> FitBudget {
    FitBudget {
        epochs: 2,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    }
}

/// The served model specs, seeded from the run seed.
pub fn specs(run_seed: u64) -> Vec<(&'static str, ModelSpec)> {
    let sizes = vec![784, HIDDEN, 10];
    vec![
        (
            MODEL_MIX[0],
            ModelSpec::QuantizedMlp {
                sizes: sizes.clone(),
                activation: Activation::sigmoid(),
                seed: derive_seed(run_seed, 11),
            },
        ),
        (
            MODEL_MIX[1],
            ModelSpec::Wot {
                inputs: 784,
                classes: 10,
                params: SnnParams::for_neurons(10),
                seed: derive_seed(run_seed, 12),
            },
        ),
        (
            MODEL_MIX[2],
            ModelSpec::Mlp {
                sizes,
                activation: Activation::sigmoid(),
                seed: derive_seed(run_seed, 13),
            },
        ),
    ]
}

/// Generated data plus trained snapshots.
#[derive(Debug)]
pub struct ServeData {
    /// Training split the snapshots (and their rebuilt replicas) use.
    pub train: Arc<Dataset>,
    /// Request pool: item `i` is test sample `i`.
    pub test: Dataset,
    /// The model specs, in snapshot order.
    pub specs: Vec<(&'static str, ModelSpec)>,
    /// Trained snapshots, in [`MODEL_MIX`] order.
    pub snapshots: Vec<Arc<ModelSnapshot>>,
    /// Set-up layer timings.
    pub layer: crate::Metrics,
}

/// Generates the splits and trains the model mix.
///
/// # Errors
///
/// When a snapshot fails to build or train.
pub fn prepare(run_seed: u64, size: Size, obs: &Obs) -> Result<ServeData, String> {
    let (n_train, n_test) = split(size);
    let started = Instant::now();
    let (train, test) = {
        let _span = obs.tracer.span("dataset", "generate");
        DigitsSpec {
            train: n_train,
            test: n_test,
            seed: derive_seed(run_seed, 1),
            difficulty: Difficulty::default(),
        }
        .generate()
    };
    let mut layer = crate::Metrics::new();
    put(
        &mut layer,
        "dataset.generate_s",
        started.elapsed().as_secs_f64(),
        "s",
    );
    let train = Arc::new(train);
    let specs = specs(run_seed);
    let mut snapshots = Vec::new();
    for (name, spec) in &specs {
        let _span = obs.tracer.span("serve", "snapshot.prepare");
        let snapshot =
            ModelSnapshot::prepare(*name, spec.clone(), budget(), Arc::clone(&train), None)
                .map_err(|e| format!("{name}: {e}"))?;
        snapshots.push(Arc::new(snapshot));
    }
    Ok(ServeData {
        train,
        test,
        specs,
        snapshots,
        layer,
    })
}

/// A fresh engine at `threads`, reporting to the pass's recorder.
pub fn engine(threads: usize, obs: &Obs) -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .threads(threads)
            .scale(ExperimentScale::Tiny)
            .recorder(obs.recorder())
            .build(),
    )
}

/// Offline predictions per model per test item through the batched
/// path (`predict_batch` over the whole test slab, item `i` at the
/// shared evaluation seed), on freshly trained models independent of
/// the server's replica pool. Also checks that `evaluate_batch` scores
/// exactly these predictions.
///
/// # Errors
///
/// When a model fails to build or train, or `evaluate_batch` disagrees.
pub fn offline_predictions(data: &ServeData) -> Result<Vec<Vec<usize>>, String> {
    let slab = PixelSlab::from_dataset(&data.test);
    let batch = slab.batch();
    let mut table = Vec::new();
    for (name, spec) in &data.specs {
        let mut model = spec.build().map_err(|e| format!("{name}: {e}"))?;
        model
            .fit(&data.train, &budget())
            .map_err(|e| format!("{name}: {e}"))?;
        let mut predictions = Vec::new();
        model.predict_batch(&batch, &mut predictions);
        let scored = model.evaluate_batch(&batch);
        let correct = predictions
            .iter()
            .zip(data.test.iter())
            .filter(|(&p, s)| p == s.label)
            .count();
        let scored_correct: u64 = (0..batch.num_classes()).map(|c| scored.get(c, c)).sum();
        if u64::try_from(correct).ok() != Some(scored_correct) {
            return Err(format!(
                "{name}: evaluate_batch disagrees with predict_batch"
            ));
        }
        table.push(predictions);
    }
    Ok(table)
}

/// Serving-side kernel and dispatch probes on this workload's own
/// weights and batch shape: the hot model's first-layer GEMM over one
/// window of requests, the `wot` SWAR spike counter, one batched
/// prediction, and the engine's per-drain dispatch cost.
///
/// # Errors
///
/// When the probe model fails to build or train.
pub fn kernel_probes(data: &ServeData, run_seed: u64, report: &mut Report) -> Result<(), String> {
    const CALLS: u32 = 4000;
    let sizes = [784usize, HIDDEN, 10];
    let mut q = QuantizedMlp::untrained(&sizes, Activation::sigmoid(), derive_seed(run_seed, 11))
        .map_err(|e| format!("qmlp probe: {e}"))?;
    Model::fit(&mut q, &data.train, &budget()).map_err(|e| format!("qmlp probe: {e}"))?;
    let cols = WINDOW.min(data.test.len());
    let mut inputs = Vec::with_capacity(784 * cols);
    for s in data.test.iter().take(cols) {
        inputs.extend_from_slice(&s.pixels);
    }
    let (fan_in, rows) = (sizes[0], sizes[1]);
    let weights = &q.layer_weights(0)[..rows * (fan_in + 1)];
    let mut out = vec![0i64; rows * cols];
    let t = Instant::now();
    for _ in 0..CALLS {
        gemm_i8xu8(weights, rows, black_box(&inputs), cols, &mut out);
        black_box(&out);
    }
    let gemm_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);
    // Ops and bytes follow from the tensor sizes: one multiply and one
    // add per weight per image; weights, pixels and i64 accumulators.
    let macs = (rows * (fan_in + 1) * cols) as f64;
    let bytes = (rows * (fan_in + 1) + fan_in * cols + rows * cols * 8) as f64;

    let mut counts = vec![0u8; 784];
    let t = Instant::now();
    for k in 0..CALLS {
        let image = &inputs[(usize::try_from(k).unwrap_or(0) % cols) * 784..][..784];
        swar_spike_counts(black_box(image), WOT_MAX_SPIKES, &mut counts);
        black_box(&counts);
    }
    let swar_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS);

    let slab = PixelSlab::from_dataset(&data.test.take(cols));
    let mut predictions = Vec::new();
    let t = Instant::now();
    for _ in 0..CALLS {
        Model::predict_batch(&mut q, &slab.batch(), &mut predictions);
        black_box(&predictions);
    }
    let predict_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS);

    let engine = engine(THREADS, &Obs::off());
    let t = Instant::now();
    for _ in 0..CALLS {
        let jobs = (0..THREADS).map(|_| Job::new("probe", 0, ())).collect();
        black_box(engine.run_jobs(jobs, |()| ()));
    }
    let dispatch_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS);

    let l = &mut report.layer;
    put(l, "kernel.gemm_ns", gemm_ns, "ns");
    put(l, "kernel.gemm_ops", 2.0 * macs, "count");
    put(l, "kernel.gemm_bytes", bytes, "B");
    put(l, "kernel.swar_ns", swar_ns, "ns");
    put(l, "mlp.predict_batch_us", predict_us, "us");
    put(l, "engine.dispatch_us", dispatch_us, "us");
    Ok(())
}
