//! Generators for the extension studies beyond the paper's printed
//! tables: design-choice ablations, the large-scale projection, the
//! precision sweeps and the hyper-parameter searches (`DESIGN.md` lists
//! these as the design decisions worth ablating).

use crate::csv_out::MeshRow;
use crate::write_results;
use nc_core::experiment::Workload;
use nc_core::fault_sweep::FaultSweep;
use nc_core::report::{csv, pct, TextTable};
use nc_core::robustness::{self, RobustnessSweep};
use nc_core::{Engine, FaultModel, FaultPlan, Job};
use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::Dataset;
use nc_hw::ablation::{bank_width_sweep, count_width_sweep, max_tree_sweep};
use nc_hw::folded::{FoldedMlp, FoldedSnnWot, FoldedSnnWt};
use nc_hw::mesh::{Grid, MeshCost, MeshError, MeshSnn};
use nc_hw::power;
use nc_hw::scaling::projection;
use nc_mlp::{explore as mlp_explore, Activation, Mlp, TrainConfig, Trainer};
use nc_snn::explore as snn_explore;
use nc_snn::stdp_rules::StdpRule;
use nc_snn::{SnnNetwork, SnnParams};

/// Plan seed shared by both precision-sweep subjects: the MLP and the
/// SNN train from the same stream so the sweeps compare like with like.
const PRECISION_SEED: u64 = 0xB175;

/// Plan seed of the MLP hyper-parameter random search.
const MLP_SEARCH_SEED: u64 = 0xE871;

/// Plan seed of the SNN hyper-parameter random search (distinct from
/// the MLP's so the two searches draw independent candidates).
const SNN_SEARCH_SEED: u64 = 0xE872;

/// Plan seed of the STDP-rule comparison networks.
const STDP_RULES_SEED: u64 = 0x57D9;

/// Hardware ablations: spike-count width, SRAM bank width, max-tree
/// fan-in (28×28-300 SNNwot at ni = 16 as the subject).
pub fn ablation() -> String {
    let mut out = String::from("== Ablation: SNNwot design choices ==\n");

    let mut t = TextTable::new(&[
        "count bits",
        "max spikes",
        "logic (mm2)",
        "total (mm2)",
        "energy (uJ)",
    ]);
    for p in count_width_sweep(784, 300, 16, &[1, 2, 3, 4, 5]) {
        t.row_owned(vec![
            format!("{}", p.count_bits),
            format!("{}", p.max_count),
            format!("{:.2}", p.report.logic_area_mm2),
            format!("{:.2}", p.report.total_area_mm2),
            format!("{:.2}", p.report.energy_uj()),
        ]);
    }
    out.push_str("\nspike-count width (paper: 4 bits, <=10 spikes):\n");
    out.push_str(&t.render());

    let mut t = TextTable::new(&["bank width (bits)", "#banks", "area (mm2)", "fetch (pJ)"]);
    for p in bank_width_sweep(300, 784, 1, &[32, 64, 128, 256, 512]) {
        t.row_owned(vec![
            format!("{}", p.width_bits),
            format!("{}", p.banks),
            format!("{:.2}", p.area_mm2),
            format!("{:.1}", p.fetch_pj),
        ]);
    }
    out.push_str("\nSRAM bank width at ni = 1 (paper: 128 bits, Table 6):\n");
    out.push_str(&t.render());

    let mut t = TextTable::new(&["max fan-in", "units", "area (mm2)", "levels"]);
    for p in max_tree_sweep(300, &[2, 4, 8, 16, 20, 32]) {
        t.row_owned(vec![
            format!("{}", p.fanin),
            format!("{}", p.units),
            format!("{:.3}", p.area_mm2),
            format!("{}", p.levels),
        ]);
    }
    out.push_str("\nreadout max-tree fan-in (paper: 20, two levels for 300 neurons):\n");
    out.push_str(&t.render());
    out
}

/// The large-scale projection (the paper's closing observation).
pub fn scaling() -> String {
    let sides = [16usize, 28, 48, 64, 96, 128];
    let points = projection(&sides);
    let mut t = TextTable::new(&[
        "inputs",
        "MLP hidden",
        "SNN neurons",
        "expanded MLP (mm2)",
        "expanded SNN (mm2)",
        "SNN advantage",
        "folded MLP (mm2)",
        "folded SNN (mm2)",
        "MLP advantage",
    ]);
    let mut rows = Vec::new();
    for p in &points {
        t.row_owned(vec![
            format!("{}", p.inputs),
            format!("{}", p.mlp_hidden),
            format!("{}", p.snn_neurons),
            format!("{:.1}", p.mlp_expanded.total_area_mm2),
            format!("{:.1}", p.snn_expanded.total_area_mm2),
            format!("{:.2}x", p.expanded_snn_advantage()),
            format!("{:.2}", p.mlp_folded.total_area_mm2),
            format!("{:.2}", p.snn_folded.total_area_mm2),
            format!("{:.2}x", p.folded_mlp_advantage()),
        ]);
        rows.push(vec![
            format!("{}", p.inputs),
            format!("{:.4}", p.expanded_snn_advantage()),
            format!("{:.4}", p.folded_mlp_advantage()),
        ]);
    }
    write_results(
        "scaling_projection.csv",
        &csv(
            &["inputs", "expanded_snn_advantage", "folded_mlp_advantage"],
            &rows,
        ),
    );
    format!(
        "== Large-scale projection (paper conclusion: SNNs win only at very \
         large, spatially expanded scale) ==\n{}",
        t.render()
    )
}

/// The precision studies: MLP weight bits (§4.2.3) and SNN synapse bits
/// (the memristive-resolution question of §6).
pub fn precision(engine: &Engine) -> String {
    let scale = engine.scale();
    let data = engine.dataset(Workload::Digits);
    let (train, test) = (&data.0, &data.1);
    let mut out = String::from("== Precision sweeps ==\n");

    let mut mlp = Mlp::new(
        &[train.input_dim(), 40, train.num_classes()],
        Activation::sigmoid(),
        PRECISION_SEED,
    )
    // nc-lint: allow(R5, reason = "paper-constant MLP topology is nonempty by construction")
    .expect("valid topology");
    Trainer::new(TrainConfig {
        epochs: scale.mlp_epochs(),
        ..TrainConfig::default()
    })
    .fit(&mut mlp, train);
    let float_acc = nc_mlp::metrics::evaluate(&mlp, test).accuracy();
    let mut t = TextTable::new(&["MLP weight bits", "accuracy"]);
    let mut pairs = Vec::new();
    for p in mlp_explore::precision_sweep(&mlp, test, &[2, 3, 4, 5, 6, 8]) {
        t.row_owned(vec![format!("{}", p.bits), pct(p.accuracy)]);
        pairs.push((p.bits, p.accuracy));
    }
    t.row_owned(vec!["float".into(), pct(float_acc)]);
    out.push_str(&format!(
        "\nMLP weight precision (paper: 8-bit 'on par' with float — 96.65% vs 97.65%):\n{}",
        t.render()
    ));
    write_results("precision_mlp.csv", &crate::csv_out::precision_csv(&pairs));

    let mut snn = SnnNetwork::new(
        train.input_dim(),
        train.num_classes(),
        SnnParams::tuned(100),
        PRECISION_SEED,
    );
    snn.set_stdp_delta(scale.stdp_delta());
    snn.train_stdp(train, scale.stdp_epochs());
    snn.self_label(train);
    let mut t = TextTable::new(&["SNN synapse bits", "accuracy"]);
    let mut pairs = Vec::new();
    for p in snn_explore::precision_sweep(&snn, train, test, &[1, 2, 3, 4, 5, 6, 8]) {
        t.row_owned(vec![format!("{}", p.bits), pct(p.accuracy)]);
        pairs.push((p.bits, p.accuracy));
    }
    out.push_str(&format!(
        "\nSNN synaptic precision (related work: losses below ~5 bits):\n{}",
        t.render()
    ));
    write_results("precision_snn.csv", &crate::csv_out::precision_csv(&pairs));
    out
}

/// The hyper-parameter searches: the paper's "1000 evaluated settings"
/// protocol at a configurable budget.
pub fn explore(engine: &Engine, budget: usize) -> String {
    let scale = engine.scale();
    let data = engine.dataset(Workload::Digits);
    let (train, test) = (&data.0, &data.1);
    let mut out = String::from("== Design-space exploration (paper §3.1 protocol) ==\n");

    let mlp_results = mlp_explore::random_search(
        train,
        test,
        (10, 200),
        budget,
        scale.mlp_epochs() / 2,
        MLP_SEARCH_SEED,
    );
    let mut t = TextTable::new(&["rank", "hidden", "eta", "accuracy"]);
    for (i, c) in mlp_results.iter().take(5).enumerate() {
        t.row_owned(vec![
            format!("{}", i + 1),
            format!("{}", c.hidden),
            format!("{:.3}", c.learning_rate),
            pct(c.accuracy),
        ]);
    }
    out.push_str(&format!(
        "\nMLP search (top 5 of {budget}):\n{}",
        t.render()
    ));

    let snn_results = snn_explore::random_search(
        train,
        test,
        &snn_explore::SearchSpace::default(),
        budget.min(8), // SNN candidates are ~20x more expensive to train
        scale.stdp_epochs() / 2,
        scale.stdp_delta() * 2,
        SNN_SEARCH_SEED,
    );
    let mut t = TextTable::new(&["rank", "#N", "Tleak", "TLTP", "threshold", "accuracy"]);
    for (i, c) in snn_results.iter().take(5).enumerate() {
        t.row_owned(vec![
            format!("{}", i + 1),
            format!("{}", c.params.neurons),
            format!("{:.0}", c.params.t_leak),
            format!("{}", c.params.t_ltp),
            format!("{:.0}", c.params.initial_threshold),
            pct(c.accuracy),
        ]);
    }
    out.push_str(&format!(
        "\nSNN search (top 5 of {}):\n{}",
        budget.min(8),
        t.render()
    ));
    out
}

/// STDP-rule comparison: the paper's future-work lever ("accuracy issues
/// can be mitigated by changing the learning algorithm"). Trains the
/// same network under each rule and reports accuracy plus the hardware
/// class of the per-lane weight-update unit.
pub fn stdp_rules(engine: &Engine) -> String {
    let scale = engine.scale();
    let data = engine.dataset(Workload::Digits);
    let (train, test) = (&data.0, &data.1);
    let delta = scale.stdp_delta();
    let rules: Vec<(&str, StdpRule)> = vec![
        ("additive (paper hardware)", StdpRule::Additive { delta }),
        (
            "multiplicative (Querlioz)",
            StdpRule::Multiplicative {
                rate: f64::from(delta) * 0.01,
            },
        ),
        (
            "exponential window (Song et al.)",
            StdpRule::Exponential {
                delta: f64::from(delta) * 1.5,
                tau: 20.0,
            },
        ),
    ];
    let mut t = TextTable::new(&["rule", "accuracy", "per-lane update unit"]);
    for (name, rule) in rules {
        let mut snn = SnnNetwork::new(
            train.input_dim(),
            train.num_classes(),
            SnnParams::tuned(100),
            STDP_RULES_SEED,
        );
        snn.set_stdp_rule(rule.clone());
        snn.train_stdp(train, scale.stdp_epochs());
        snn.self_label(train);
        let acc = snn.evaluate(test).accuracy();
        t.row_owned(vec![
            name.into(),
            pct(acc),
            format!("{:?}", rule.update_unit()),
        ]);
    }
    format!(
        "== STDP rule comparison (100 neurons; paper future work) ==\n{}",
        t.render()
    )
}

/// Test-time input-noise robustness sweep (extension).
pub fn robustness(engine: &Engine) -> String {
    let sweep = RobustnessSweep {
        noise_levels: vec![0.0, 0.1, 0.2, 0.3, 0.45],
        mlp_hidden: 40,
        snn_neurons: 100,
        seed: 0x20B5,
        ..RobustnessSweep::standard(Workload::Digits)
    };
    // nc-lint: allow(R5, reason = "report generators run paper-constant configs; validated by tier-1 tests")
    let points = engine.run(&sweep).expect("robustness config is valid");
    let mut t = TextTable::new(&["test noise", "MLP", "SNN (LIF)", "SNNwot"]);
    for p in &points {
        t.row_owned(vec![
            format!("{:.2}", p.noise),
            pct(p.mlp_accuracy),
            pct(p.snn_accuracy),
            pct(p.wot_accuracy),
        ]);
    }
    write_results(
        "robustness_noise.csv",
        &crate::csv_out::robustness_csv(&points),
    );
    let deg =
        |d: Option<f64>| d.map_or_else(|| String::from("n/a"), |d| format!("{:.1}%", d * 100.0));
    format!(
        "== Test-time noise robustness (no retraining) ==\n{}\
         relative degradation at max noise: MLP {} vs SNN {}\n",
        t.render(),
        deg(robustness::degradation(&points, |p| p.mlp_accuracy)),
        deg(robustness::degradation(&points, |p| p.snn_accuracy)),
    )
}

/// Hardware fault injection: accuracy-vs-fault-rate ladders for the
/// three deployed families (extension; see DESIGN.md "Fault model").
pub fn faults(engine: &Engine) -> String {
    let sweep = FaultSweep {
        mlp_hidden: 40,
        snn_neurons: 100,
        ..FaultSweep::standard(Workload::Digits)
    };
    // nc-lint: allow(R5, reason = "report generators run paper-constant configs; validated by tier-1 tests")
    let points = engine.run(&sweep).expect("fault sweep config is valid");
    let mut t = TextTable::new(&["family", "fault", "rate", "accuracy"]);
    for p in &points {
        t.row_owned(vec![
            crate::csv_out::family_slug(p.family).to_string(),
            p.fault.to_string(),
            format!("{:.3}", p.rate),
            pct(p.accuracy),
        ]);
    }
    write_results("fig_faults.csv", &crate::csv_out::faults_csv(&points));
    format!(
        "== Hardware fault injection (stuck bits, dead neurons, transient \
         reads, stuck generator taps) ==\n{}",
        t.render()
    )
}

/// Plan seed of the mesh deployment subject network.
const MESH_SEED: u64 = 0x3E5A;

/// Fabric fault seed of the mesh sweep (defect patterns are per-core
/// salted streams off this value).
const MESH_FAULT_SEED: u64 = 0x0F_AB;

/// Samples per parallel evaluation job in the mesh sweep.
const MESH_JOB_CHUNK: usize = 16;

/// The grid-size / fabric-fault conditions of the mesh sweep.
fn mesh_conditions() -> Vec<(Grid, Option<FaultPlan>)> {
    let plan = |model, rate| FaultPlan::new(model, rate, MESH_FAULT_SEED).ok();
    vec![
        (Grid::new(1, 1), None),
        (Grid::new(2, 2), None),
        (Grid::new(4, 4), None),
        (Grid::new(4, 4), plan(FaultModel::DeadLink, 0.05)),
        (Grid::new(4, 4), plan(FaultModel::DeadLink, 0.25)),
        (Grid::new(4, 4), plan(FaultModel::DeadRouter, 0.15)),
    ]
}

/// Evaluates a compiled mesh over the test set, parallelized in fixed
/// chunks through the engine (results are reassembled in job order, so
/// the tallies are thread-count invariant). Returns the accuracy and
/// the aggregate fabric cost.
fn evaluate_mesh(engine: &Engine, mesh: &MeshSnn, test: &Dataset, label: &str) -> (f64, MeshCost) {
    let samples = test.samples();
    let jobs: Vec<Job<(usize, usize)>> = (0..samples.len())
        .step_by(MESH_JOB_CHUNK)
        .map(|start| {
            let end = (start + MESH_JOB_CHUNK).min(samples.len());
            Job::new(label.to_string(), (end - start) as u64, (start, end))
        })
        .collect();
    let outcomes = engine.run_jobs(jobs, |(start, end)| {
        let mut local = mesh.clone();
        let mut correct = 0usize;
        let mut cost = MeshCost::default();
        for (i, sample) in samples.iter().enumerate().take(end).skip(start) {
            let p = local.present(&sample.pixels, EVAL_PRESENTATION_SEED_BASE | i as u64);
            if p.label == sample.label {
                correct += 1;
            }
            cost.absorb(&p.cost);
        }
        (correct, cost)
    });
    let mut correct = 0usize;
    let mut cost = MeshCost::default();
    for (c, j) in &outcomes {
        correct += c;
        cost.absorb(j);
    }
    let accuracy = if samples.is_empty() {
        0.0
    } else {
        correct as f64 / samples.len() as f64
    };
    (accuracy, cost)
}

/// The many-core mesh deployment sweep (ROADMAP item 3): one trained
/// SNN compiled onto growing core grids — partition, place, route —
/// with accuracy, fabric energy and link occupancy per grid, then the
/// same 4×4 mesh under dead-link / dead-router fault plans.
///
/// # Errors
///
/// The [`MeshError`] of a grid the trained network cannot be compiled
/// onto.
pub fn mesh_rows(engine: &Engine) -> Result<Vec<MeshRow>, MeshError> {
    let scale = engine.scale();
    let data = engine.dataset(Workload::Digits);
    let (train, test) = (&data.0, &data.1);
    let mut snn = SnnNetwork::new(
        train.input_dim(),
        train.num_classes(),
        SnnParams::tuned(20),
        MESH_SEED,
    );
    snn.set_stdp_delta(scale.stdp_delta());
    snn.train_stdp(train, scale.stdp_epochs());
    snn.self_label(train);

    let presentations = test.samples().len().max(1) as f64;
    mesh_conditions()
        .into_iter()
        .map(|(grid, plan)| {
            let mesh = match &plan {
                Some(p) => MeshSnn::compile_faulty(&snn, grid, p)?,
                None => MeshSnn::compile(&snn, grid)?,
            };
            let (fault, rate) = plan.as_ref().map_or(("none".to_string(), 0.0), |p| {
                (p.model.name().to_string(), p.rate)
            });
            let label = format!("mesh/{}x{}/{fault}", grid.width, grid.height);
            let (accuracy, cost) = evaluate_mesh(engine, &mesh, test, &label);
            Ok(MeshRow {
                grid: format!("{}x{}", grid.width, grid.height),
                cores_used: mesh.used_cores(),
                fault,
                rate,
                accuracy,
                avg_hops: cost.hops as f64 / presentations,
                energy_uj: cost.energy_uj() / presentations,
                peak_link_load: cost.peak_link_load,
                delivery_ok: cost.delivery_ok(),
                area_mm2: mesh.area_mm2(),
            })
        })
        .collect()
}

/// Renders the mesh sweep and writes `fig_mesh.csv`.
pub fn mesh(engine: &Engine) -> String {
    let rows = match mesh_rows(engine) {
        Ok(rows) => rows,
        Err(e) => return format!("== Many-core mesh deployment: not compiled: {e} ==\n"),
    };
    let mut t = TextTable::new(&[
        "grid",
        "cores used",
        "fault",
        "rate",
        "accuracy",
        "hops/presn",
        "energy (uJ)",
        "peak link load",
        "on time",
        "area (mm2)",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.grid.clone(),
            format!("{}", r.cores_used),
            r.fault.clone(),
            format!("{:.3}", r.rate),
            pct(r.accuracy),
            format!("{:.1}", r.avg_hops),
            format!("{:.3}", r.energy_uj),
            format!("{}", r.peak_link_load),
            if r.delivery_ok {
                "yes".into()
            } else {
                "NO".into()
            },
            format!("{:.2}", r.area_mm2),
        ]);
    }
    write_results("fig_mesh.csv", &crate::csv_out::mesh_csv(&rows));
    format!(
        "== Many-core mesh deployment (partition / place / route; healthy \
         grids are spike-for-spike equal to the single-core reference) ==\n{}",
        t.render()
    )
}

/// Power decomposition of the folded designs (the Table 5 clock-share
/// observation, extended across the folding sweep).
pub fn power_table() -> String {
    let mut t = TextTable::new(&[
        "design",
        "ni",
        "total power (W)",
        "clock (W)",
        "datapath (W)",
        "SRAM (W)",
        "clock share of logic",
    ]);
    for ni in [1usize, 16] {
        let mlp = FoldedMlp::new(&[784, 100, 10], ni);
        let b = power::folded_mlp_power(&mlp);
        t.row_owned(vec![
            "MLP".into(),
            format!("{ni}"),
            format!("{:.3}", b.total_w()),
            format!("{:.3}", b.clock_w),
            format!("{:.3}", b.datapath_w),
            format!("{:.3}", b.sram_w),
            format!("{:.0}%", 100.0 * b.clock_w / (b.clock_w + b.datapath_w)),
        ]);
        let wot = FoldedSnnWot::new(784, 300, ni);
        let b = power::folded_snnwot_power(&wot);
        t.row_owned(vec![
            "SNNwot".into(),
            format!("{ni}"),
            format!("{:.3}", b.total_w()),
            format!("{:.3}", b.clock_w),
            format!("{:.3}", b.datapath_w),
            format!("{:.3}", b.sram_w),
            format!("{:.0}%", 100.0 * b.clock_w / (b.clock_w + b.datapath_w)),
        ]);
        let wt = FoldedSnnWt::new(784, 300, ni);
        let b = power::folded_snnwt_power(&wt);
        t.row_owned(vec![
            "SNNwt".into(),
            format!("{ni}"),
            format!("{:.3}", b.total_w()),
            format!("{:.3}", b.clock_w),
            format!("{:.3}", b.datapath_w),
            format!("{:.3}", b.sram_w),
            format!("{:.0}%", 100.0 * b.clock_w / (b.clock_w + b.datapath_w)),
        ]);
    }
    format!(
        "== Power decomposition (Table 5: clock share 60% SNN vs 20% MLP) ==\n{}",
        t.render()
    )
}
