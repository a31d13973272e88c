//! `mesh_deploy`: the trained Table 1 network on the many-core mesh.
//!
//! Set-up trains the same 300-neuron network `snn_offline` trains and
//! compiles it (partition, place, fabric) onto a healthy 2×2 grid, a
//! healthy 4×4 grid and a 4×4 grid with dead links. The measured loop
//! presents the held-out split through every mesh and through the
//! reference `SnnNetwork::present` on the same inputs. Healthy meshes
//! must reproduce the reference readout exactly; the faulty one is
//! unvalidated (there is no reference measurement for it).

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use crate::digest::Digest;
use crate::snn_offline;
use crate::{derive_seed, put, Obs, Report, Size};
use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::Dataset;
use nc_faults::{FaultModel, FaultPlan};
use nc_hw::mesh::{partition_snn, place_greedy, Fabric, Grid, MeshCost, MeshSnn};
use nc_snn::SnnNetwork;
use std::time::Instant;

/// Dead-link rate of the faulty condition.
pub const DEAD_LINK_RATE: f64 = 0.25;
/// Seed of the dead-link defect map. It is fixed rather than drawn from
/// the run seed: every run deploys onto the same faulty chip, so the
/// faulty grid's work does not swing with the seed.
pub const FABRIC_FAULT_SEED: u64 = 0xDEAD_0F0F;

/// Split sizes `(train, test)` per size class; the training split is
/// the one `snn_offline` trains on.
pub fn split(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (snn_offline::split(Size::Full).0, 200),
        Size::Probe => (snn_offline::split(Size::Probe).0, 6),
    }
}

/// One compiled grid condition.
#[derive(Debug)]
pub struct Condition {
    /// `2x2`, `4x4` or `4x4_deadlink`.
    pub name: &'static str,
    /// Whether the fabric is healthy (and so must match the reference).
    pub healthy: bool,
    /// The compiled mesh.
    pub mesh: MeshSnn,
}

/// Trained network, compiled meshes and the held-out split.
#[derive(Debug)]
pub struct Setup {
    /// Held-out split presented in the measured loop.
    pub test: Dataset,
    /// The trained reference network.
    pub net: SnnNetwork,
    /// The three grid conditions.
    pub conditions: Vec<Condition>,
    /// Set-up layer timings and compile statistics.
    pub layer: crate::Metrics,
}

/// Generates, trains and compiles.
///
/// # Errors
///
/// When the dead-link fault plan is rejected.
pub fn setup(run_seed: u64, size: Size, obs: &Obs) -> Result<Setup, String> {
    let (n_train, n_test) = split(size);
    let (train, test, generate_s) = {
        let _span = obs.tracer.span("dataset", "generate");
        let started = Instant::now();
        let data = nc_dataset::digits::DigitsSpec {
            train: n_train,
            test: n_test,
            seed: derive_seed(run_seed, 1),
            difficulty: nc_dataset::Difficulty::default(),
        }
        .generate();
        (data.0, data.1, started.elapsed().as_secs_f64())
    };
    let (net, _, _) = snn_offline::train_and_label(derive_seed(run_seed, 2), &train, obs);
    let dead_links = FaultPlan::new(FaultModel::DeadLink, DEAD_LINK_RATE, FABRIC_FAULT_SEED)
        .map_err(|e| format!("dead-link plan: {e}"))?;

    let mut layer = crate::Metrics::new();
    put(&mut layer, "dataset.generate_s", generate_s, "s");
    let (mut partition_s, mut place_s, mut compile_s) = (0.0, 0.0, 0.0);
    let mut conditions = Vec::new();
    for (name, side) in [("2x2", 2usize), ("4x4", 4)] {
        let grid = Grid::new(side, side);
        let t = Instant::now();
        let partition = {
            let _span = obs.tracer.span("hw", "mesh.partition");
            partition_snn(&net, grid.cores())
        };
        partition_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let placement = {
            let _span = obs.tracer.span("hw", "mesh.place");
            place_greedy(&partition, grid)
        };
        place_s += t.elapsed().as_secs_f64();
        put(
            &mut layer,
            format!("mesh.cut_weight.{name}"),
            partition.cut_weight() as f64,
            "count",
        );
        put(
            &mut layer,
            format!("mesh.placement_cost.{name}"),
            placement.cost(&partition) as f64,
            "count",
        );
        let mut fabrics = vec![(name, true, Fabric::healthy(grid))];
        if side == 4 {
            fabrics.push(("4x4_deadlink", false, Fabric::with_plan(grid, &dead_links)));
        }
        for (name, healthy, fabric) in fabrics {
            let t = Instant::now();
            let mesh = {
                let _span = obs.tracer.span("hw", "mesh.compile");
                MeshSnn::compiled(&net, partition.clone(), placement.clone(), fabric)
            };
            compile_s += t.elapsed().as_secs_f64();
            conditions.push(Condition {
                name,
                healthy,
                mesh,
            });
        }
    }
    put(&mut layer, "mesh.partition_s", partition_s, "s");
    put(&mut layer, "mesh.place_s", place_s, "s");
    put(&mut layer, "mesh.compile_s", compile_s, "s");
    Ok(Setup {
        test,
        net,
        conditions,
        layer,
    })
}

/// Per-condition accumulation over the measured loop.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    seconds: f64,
    presentations: u64,
    cost: MeshCost,
    energy_uj: f64,
}

/// Presents the held-out split in rounds for at least `seconds`.
///
/// # Errors
///
/// Never at present; the signature matches the other workloads.
pub fn run(s: &mut Setup, seconds: f64, obs: &Obs) -> Result<Report, String> {
    let mut report = Report::default();
    let samples = s.test.samples();
    let mut tallies = vec![Tally::default(); s.conditions.len()];
    let (mut reference_s, mut reference_n) = (0.0, 0u64);
    let mut first_digest = None;
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        report.calibrate();
        let mut window = Vec::new();
        let mut d = Digest::default();
        let mut round_mesh_s = 0.0;
        for (i, sample) in samples.iter().enumerate() {
            let seed = EVAL_PRESENTATION_SEED_BASE | u64::try_from(i).unwrap_or(0);
            let t = Instant::now();
            let reference = {
                let _span = obs.tracer.span("snn", "present");
                s.net.present(&sample.pixels, seed)
            };
            reference_s += t.elapsed().as_secs_f64();
            reference_n += 1;
            let readout = reference.readout();
            let label = s.net.labels()[readout].unwrap_or(0);
            for (c, tally) in s.conditions.iter_mut().zip(tallies.iter_mut()) {
                let t = Instant::now();
                let p = {
                    let _span = obs.tracer.span("hw", "mesh.present");
                    c.mesh.present(&sample.pixels, seed)
                };
                let dt = t.elapsed().as_secs_f64();
                round_mesh_s += dt;
                window.push(dt * 1e3);
                tally.seconds += dt;
                tally.presentations += 1;
                tally.cost.absorb(&p.cost);
                tally.energy_uj += p.cost.energy_uj();
                if c.healthy && (p.readout != readout || p.label != label) {
                    report.mismatch(format!(
                        "mesh {} item {i}: readout {}/label {} != reference {readout}/{label}",
                        c.name, p.readout, p.label
                    ));
                }
                d.index(p.readout).index(p.label);
                let k = p.cost;
                for v in [
                    k.packets,
                    k.dropped_packets,
                    k.hops,
                    k.peak_link_load,
                    k.sram_rows,
                    k.neuron_updates,
                ] {
                    d.word(v);
                }
            }
        }
        report.window(window);
        let digest = d.finish();
        match first_digest {
            None => first_digest = Some(digest),
            Some(first) if first != digest => {
                report.mismatch(format!("mesh round {rounds}: output differs from round 0"));
            }
            Some(_) => {}
        }
        let presentations = samples.len() * s.conditions.len();
        report.rate(presentations as f64 / round_mesh_s);
        report.sample("round_mesh_s", round_mesh_s);
        report.attempted += u64::try_from(presentations + samples.len()).unwrap_or(0);
        rounds += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report.digests.insert(
        "mesh.outputs_and_cost".into(),
        first_digest.unwrap_or_default(),
    );

    let total_presentations: u64 = tallies.iter().map(|t| t.presentations).sum();
    let energy: f64 = tallies.iter().map(|t| t.energy_uj).sum();
    let per_round = |t: &Tally| t.presentations.max(1) as f64;
    let energy_per_img = energy / total_presentations.max(1) as f64;
    let mesh_img_per_s = report.throughput();
    put(
        &mut report.named,
        "mesh_img_per_s",
        mesh_img_per_s,
        "presentations/s",
    );
    put(
        &mut report.named,
        "mesh_energy_uj_per_img",
        energy_per_img,
        "uJ",
    );
    put(
        &mut report.named,
        "reference_img_per_s",
        reference_n as f64 / reference_s,
        "images/s",
    );

    if obs.on() {
        let present_us = reference_s * 1e6 / reference_n.max(1) as f64;
        let l = &mut report.layer;
        for (name, m) in &s.layer {
            l.insert(name.clone(), *m);
        }
        put(l, "snn.present_us", present_us, "us");
        put(l, "mesh.energy_uj_per_img", energy_per_img, "uJ");
        for (c, t) in s.conditions.iter().zip(&tallies) {
            let n = per_round(t);
            let mesh_us = t.seconds * 1e6 / n;
            put(l, format!("mesh.present_us.{}", c.name), mesh_us, "us");
            put(
                l,
                format!("mesh.slowdown_vs_present.{}", c.name),
                mesh_us / present_us,
                "ratio",
            );
            let k = t.cost;
            for (metric, v) in [
                ("hops", k.hops),
                ("sram_rows", k.sram_rows),
                ("neuron_updates", k.neuron_updates),
                ("packets", k.packets),
                ("dropped_packets", k.dropped_packets),
            ] {
                put(
                    l,
                    format!("mesh.{metric}.{}", c.name),
                    v as f64 / n,
                    "count",
                );
            }
            put(
                l,
                format!("mesh.peak_link_load.{}", c.name),
                k.peak_link_load as f64,
                "count",
            );
        }
    }
    Ok(report)
}
