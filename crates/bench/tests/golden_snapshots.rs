//! Golden-snapshot tests for the figure CSVs at a pinned tiny scale.
//!
//! Each test regenerates a series through the same serializers the
//! regeneration binaries use ([`nc_bench::csv_out`]), runs it on a
//! 1-thread and a 4-thread engine (the determinism contract says the
//! bytes must match), and diffs against the committed snapshot under
//! `tests/snapshots/`.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p nc-bench --test golden_snapshots
//! ```

use nc_bench::csv_out;
use nc_core::experiment::{ExperimentScale, Workload};
use nc_core::fault_sweep::FaultSweep;
use nc_core::robustness::RobustnessSweep;
use nc_core::sweeps::{CodingSweep, NeuronSweep, SigmoidBridge};
use nc_core::{Engine, FaultModel};
use nc_snn::coding::CodingScheme;
use nc_snn::{SnnNetwork, SnnParams};
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

/// Diffs `actual` against the committed snapshot, or rewrites it when
/// `UPDATE_SNAPSHOTS` is set.
fn assert_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("create snapshots/");
        std::fs::write(&path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); generate it with UPDATE_SNAPSHOTS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its snapshot; if the change is intended rerun \
         with UPDATE_SNAPSHOTS=1 and commit the diff"
    );
}

/// Runs the generator on a sequential and a 4-thread engine, asserts
/// the outputs are byte-identical (the engine's determinism contract),
/// and returns the bytes.
fn deterministic_csv(generate: impl Fn(&Engine) -> String) -> String {
    let sequential = generate(&Engine::sequential(ExperimentScale::Tiny));
    let parallel = generate(
        &Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .build(),
    );
    assert_eq!(
        sequential, parallel,
        "threads=4 must reproduce threads=1 bit for bit"
    );
    sequential
}

#[test]
fn fig6_bridge_snapshot() {
    let csv = deterministic_csv(|engine| {
        let bridge = SigmoidBridge {
            workload: Workload::Digits,
            scale: Some(ExperimentScale::Tiny),
            slopes: vec![1.0, 16.0],
            hidden: 8,
            seed: 0xF6,
        };
        csv_out::fig6_csv(&engine.run(&bridge).expect("bridge config is valid"))
    });
    assert_snapshot("fig6_bridge.csv", &csv);
}

#[test]
fn fig8_neurons_snapshot() {
    let csv = deterministic_csv(|engine| {
        let sweep = NeuronSweep {
            workload: Workload::Digits,
            scale: Some(ExperimentScale::Tiny),
            mlp_widths: vec![6, 12],
            snn_sizes: vec![10, 20],
            seed: 0xF168,
        };
        csv_out::fig8_csv(&engine.run(&sweep).expect("fig8 grid is valid"))
    });
    assert_snapshot("fig8_neurons.csv", &csv);
}

#[test]
fn fig14_coding_snapshot() {
    let csv = deterministic_csv(|engine| {
        let sweep = CodingSweep {
            workload: Workload::Digits,
            scale: Some(ExperimentScale::Tiny),
            schemes: vec![
                CodingScheme::GaussianRate,
                CodingScheme::RankOrder,
                CodingScheme::TimeToFirstSpike,
            ],
            sizes: vec![12],
            seed: 0xF14,
        };
        csv_out::fig14_csv(&engine.run(&sweep).expect("fig14 grid is valid"))
    });
    assert_snapshot("fig14_coding.csv", &csv);
}

#[test]
fn robustness_noise_snapshot() {
    let csv = deterministic_csv(|engine| {
        let sweep = RobustnessSweep {
            scale: Some(ExperimentScale::Tiny),
            noise_levels: vec![0.0, 0.3],
            mlp_hidden: 8,
            snn_neurons: 12,
            ..RobustnessSweep::standard(Workload::Digits)
        };
        csv_out::robustness_csv(&engine.run(&sweep).expect("robustness config is valid"))
    });
    assert_snapshot("robustness_noise.csv", &csv);
}

#[test]
fn fig_faults_snapshot() {
    // This is also the CI-scale FaultSweep run the issue asks for: the
    // full grid shape (every family, bit/neuron/read/generator faults)
    // at Tiny scale, on 1 and 4 threads, byte-compared.
    let csv = deterministic_csv(|engine| {
        let sweep = FaultSweep {
            scale: Some(ExperimentScale::Tiny),
            models: vec![
                FaultModel::StuckAt1,
                FaultModel::DeadNeuron,
                FaultModel::TransientRead,
                FaultModel::StuckLfsrTap,
            ],
            rates: vec![0.0, 0.2],
            mlp_hidden: 8,
            snn_neurons: 12,
            ..FaultSweep::standard(Workload::Digits)
        };
        csv_out::faults_csv(&engine.run(&sweep).expect("fault grid is valid"))
    });
    assert_snapshot("fig_faults.csv", &csv);
}

#[test]
fn fig3_trace_snapshots() {
    // The trace is engine-free; determinism is seeds alone. Keep the
    // network tiny: 16 neurons, one STDP epoch over 100 images.
    let trace = {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let data = engine.dataset(Workload::Digits);
        let train = data.0.take(100);
        let mut snn = SnnNetwork::new(
            data.0.input_dim(),
            data.0.num_classes(),
            SnnParams::tuned(16),
            0xF163,
        );
        snn.set_stdp_delta(4);
        snn.train_stdp(&train, 1);
        snn.present_traced(&train.samples()[0].pixels, 0x316)
    };
    assert_snapshot("fig3_raster.csv", &trace.raster_csv());
    assert_snapshot(
        "fig3_potentials.csv",
        &thin_potentials(&trace.potentials_csv()),
    );
}

/// The full potentials trace is ~half a megabyte; snapshot every 16th
/// millisecond instead. The thinning is deterministic and covers the
/// whole presentation window, so datapath drift still lands in kept rows.
fn thin_potentials(csv: &str) -> String {
    let mut out = String::new();
    for (i, line) in csv.lines().enumerate() {
        let keep = i == 0 || {
            let t: u64 = line
                .split(',')
                .next()
                .and_then(|t| t.parse().ok())
                .expect("potentials rows start with t_ms");
            t.is_multiple_of(16)
        };
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn fig_mesh_snapshot() {
    // The mesh deployment sweep at tiny scale: healthy 1x1 / 2x2 / 4x4
    // grids plus dead-link and dead-router ladder rows, 1-thread vs
    // 4-thread byte-compared like every other series.
    let csv = deterministic_csv(|engine| {
        csv_out::mesh_csv(&nc_bench::gen_extensions::mesh_rows(engine).unwrap())
    });
    assert_snapshot("fig_mesh.csv", &csv);
}

#[test]
fn mesh_replays_the_fig3_network_spike_for_spike() {
    // The acceptance bar: the fig3 SNN (same seeds and training recipe
    // as `fig3_trace_snapshots`), compiled onto 2x2 and 4x4 grids, must
    // reproduce the single-core reference bit for bit.
    let engine = Engine::sequential(ExperimentScale::Tiny);
    let data = engine.dataset(Workload::Digits);
    let train = data.0.take(100);
    let mut snn = SnnNetwork::new(
        data.0.input_dim(),
        data.0.num_classes(),
        SnnParams::tuned(16),
        0xF163,
    );
    snn.set_stdp_delta(4);
    snn.train_stdp(&train, 1);
    snn.self_label(&train);
    for (w, h) in [(2, 2), (4, 4)] {
        let mut mesh = nc_hw::mesh::MeshSnn::compile(&snn, nc_hw::mesh::Grid::new(w, h)).unwrap();
        for (i, sample) in data.1.samples().iter().take(12).enumerate() {
            let seed = 0x316 + i as u64;
            let reference = snn.present(&sample.pixels, seed);
            let routed = mesh.present(&sample.pixels, seed);
            assert_eq!(routed.winner, reference.winner, "{w}x{h} sample {i}");
            assert_eq!(routed.fires, reference.fires, "{w}x{h} sample {i}");
            assert_eq!(
                routed.potentials, reference.potentials,
                "{w}x{h} sample {i}"
            );
            assert_eq!(routed.readout, reference.readout(), "{w}x{h} sample {i}");
        }
    }
}

#[test]
fn mesh_routed_traces_are_thread_invariant() {
    // Satellite determinism bar: the routed-spike traces of a batch of
    // presentations, produced through the engine's job fan-out, must be
    // byte-identical on 1 and 4 threads.
    let run = |threads: usize| -> String {
        let engine = Engine::builder()
            .threads(threads)
            .scale(ExperimentScale::Tiny)
            .build();
        let data = engine.dataset(Workload::Digits);
        let snn = SnnNetwork::new(
            data.0.input_dim(),
            data.0.num_classes(),
            SnnParams::tuned(12),
            0x3E5A,
        );
        let mesh = nc_hw::mesh::MeshSnn::compile(&snn, nc_hw::mesh::Grid::new(2, 2)).unwrap();
        let samples = data.1.samples();
        let jobs: Vec<nc_core::Job<usize>> = (0..samples.len().min(8))
            .map(|i| nc_core::Job::new(format!("mesh-trace/{i}"), 1, i))
            .collect();
        engine
            .run_jobs(jobs, |i| {
                let mut local = mesh.clone();
                let (_, trace) = local.present_traced(&samples[i].pixels, 0x316 + i as u64);
                format!("# presentation {i}\n{trace}")
            })
            .concat()
    };
    let sequential = run(1);
    assert!(
        sequential.contains("E "),
        "traces should contain input events"
    );
    assert_eq!(
        sequential,
        run(4),
        "threads=4 must reproduce threads=1 traces"
    );
}

#[test]
fn precision_snapshots() {
    // Precision sweeps quantize already-trained networks, so the sweep
    // itself is pure; train the subjects once at tiny scale.
    let engine = Engine::sequential(ExperimentScale::Tiny);
    let data = engine.dataset(Workload::Digits);
    let (train, test) = (&data.0, &data.1);

    let mut mlp = nc_mlp::Mlp::new(
        &[train.input_dim(), 6, train.num_classes()],
        nc_mlp::Activation::sigmoid(),
        0xB175,
    )
    .expect("valid topology");
    nc_mlp::Trainer::new(nc_mlp::TrainConfig {
        epochs: 2,
        ..nc_mlp::TrainConfig::default()
    })
    .fit(&mut mlp, train);
    let mlp_points: Vec<(u32, f64)> = nc_mlp::explore::precision_sweep(&mlp, test, &[2, 4, 8])
        .into_iter()
        .map(|p| (p.bits, p.accuracy))
        .collect();
    assert_snapshot("precision_mlp.csv", &csv_out::precision_csv(&mlp_points));

    let mut snn = SnnNetwork::new(
        train.input_dim(),
        train.num_classes(),
        SnnParams::tuned(10),
        0xB175,
    );
    snn.set_stdp_delta(8);
    snn.train_stdp(train, 1);
    snn.self_label(train);
    let snn_points: Vec<(u32, f64)> =
        nc_snn::explore::precision_sweep(&snn, train, test, &[2, 4, 8])
            .into_iter()
            .map(|p| (p.bits, p.accuracy))
            .collect();
    assert_snapshot("precision_snn.csv", &csv_out::precision_csv(&snn_points));
}
