//! Mesh acceptance tests: the partition / place / route pipeline must
//! reproduce the single-core reference event loop spike-for-spike on a
//! healthy fabric, for every coding scheme and grid size, must unlock
//! networks larger than one core can hold, and must degrade
//! deterministically under fabric faults.

use nc_faults::{FaultModel, FaultPlan};
use nc_hw::mesh::{
    partition_snn, place_greedy, place_linear, Fabric, Grid, MeshError, MeshSnn,
    MAX_CLUSTER_NEURONS,
};
use nc_snn::{CodingScheme, SnnNetwork, SnnParams};
use nc_substrate::check::check_cases;

const ALL_CODINGS: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

/// A small network with thresholds low enough that presentations fire
/// many times — the inhibition/undo machinery gets real exercise.
fn test_net(inputs: usize, neurons: usize, coding: CodingScheme, seed: u64) -> SnnNetwork {
    let mut params = SnnParams::for_neurons(neurons);
    params.initial_threshold = 600.0;
    SnnNetwork::with_coding(inputs, 10, params, coding, seed)
}

/// A deterministic non-uniform test image.
fn test_pixels(inputs: usize, salt: u64) -> Vec<u8> {
    (0..inputs)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(97));
            u8::try_from((x >> 3) & 0xFF).unwrap()
        })
        .collect()
}

#[test]
fn mesh_is_bit_exact_vs_reference_for_all_codings_and_grids() {
    for coding in ALL_CODINGS {
        let mut net = test_net(64, 30, coding, 7);
        for grid in [Grid::new(1, 1), Grid::new(2, 2), Grid::new(4, 4)] {
            let mut mesh = MeshSnn::compile(&net, grid).unwrap();
            for pseed in [0u64, 1, 2, 0xABCD] {
                let pixels = test_pixels(64, pseed);
                let reference = net.present(&pixels, pseed);
                let routed = mesh.present(&pixels, pseed);
                assert_eq!(
                    routed.winner, reference.winner,
                    "{coding:?} {grid:?} p{pseed}"
                );
                assert_eq!(
                    routed.fires, reference.fires,
                    "{coding:?} {grid:?} p{pseed}"
                );
                // Potentials to the last bit: the distributed decay and
                // undo path must replay the reference arithmetic exactly.
                assert_eq!(
                    routed.potentials, reference.potentials,
                    "{coding:?} {grid:?} p{pseed}"
                );
                assert_eq!(
                    routed.readout,
                    reference.readout(),
                    "{coding:?} {grid:?} p{pseed}"
                );
            }
        }
    }
}

#[test]
fn mesh_presentations_do_fire_and_bill_the_fabric() {
    // Guard against the bit-exactness test passing vacuously on
    // silent no-spike presentations.
    let mut net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let mut mesh = MeshSnn::compile(&net, Grid::new(2, 2)).unwrap();
    let pixels = test_pixels(64, 1);
    let reference = net.present(&pixels, 1);
    assert!(!reference.fires.is_empty(), "test network never fired");
    let routed = mesh.present(&pixels, 1);
    assert!(routed.cost.packets > 0);
    assert_eq!(routed.cost.dropped_packets, 0);
    assert!(
        routed.cost.hops > 0,
        "multi-core spikes must traverse links"
    );
    assert!(routed.cost.sram_rows > 0 && routed.cost.neuron_updates > 0);
    assert!(routed.cost.energy_uj() > 0.0);
    assert!(
        routed.cost.delivery_ok(),
        "tiny net must meet the tick deadline"
    );
    assert!(mesh.area_mm2() > 0.0);
    assert_eq!(mesh.used_cores(), 4);
}

#[test]
fn mesh_unlocks_networks_beyond_one_core() {
    // 320 neurons exceed the 256-neuron core: impossible on a 1x1 grid,
    // bit-exact on a 4x4.
    let mut net = test_net(32, 320, CodingScheme::GaussianRate, 11);
    let mut mesh = MeshSnn::compile(&net, Grid::new(4, 4)).unwrap();
    assert!(mesh.partition().num_clusters() > 1);
    assert!(mesh
        .partition()
        .clusters()
        .iter()
        .all(|c| c.len() <= MAX_CLUSTER_NEURONS));
    let pixels = test_pixels(32, 5);
    let reference = net.present(&pixels, 3);
    let routed = mesh.present(&pixels, 3);
    assert_eq!(routed.winner, reference.winner);
    assert_eq!(routed.fires, reference.fires);
    assert_eq!(routed.potentials, reference.potentials);
}

#[test]
fn oversized_networks_are_rejected_on_one_core() {
    let net = test_net(8, 320, CodingScheme::PoissonRate, 11);
    assert_eq!(
        MeshSnn::compile(&net, Grid::new(1, 1)).unwrap_err(),
        MeshError::TooLarge {
            neurons: 320,
            capacity: MAX_CLUSTER_NEURONS,
        }
    );
}

#[test]
fn capacity_is_checked_at_exactly_the_limit_and_one_past_it() {
    for (grid, cores) in [(Grid::new(1, 1), 1), (Grid::new(2, 1), 2)] {
        let capacity = cores * MAX_CLUSTER_NEURONS;
        let full = test_net(4, capacity, CodingScheme::PoissonRate, 3);
        let mesh = MeshSnn::compile(&full, grid).unwrap();
        assert_eq!(mesh.partition().neurons(), capacity);
        let plan = FaultPlan::new(FaultModel::DeadLink, 0.5, 1).unwrap();
        assert!(MeshSnn::compile_faulty(&full, grid, &plan).is_ok());
        let over = test_net(4, capacity + 1, CodingScheme::PoissonRate, 3);
        let err = MeshError::TooLarge {
            neurons: capacity + 1,
            capacity,
        };
        assert_eq!(MeshSnn::compile(&over, grid).unwrap_err(), err);
        assert_eq!(
            MeshSnn::compile_faulty(&over, grid, &plan).unwrap_err(),
            err
        );
        assert!(err.to_string().contains("cannot fit"));
    }
}

#[test]
fn routed_trace_is_placement_invariant() {
    let net = test_net(64, 24, CodingScheme::PoissonRate, 9);
    let grid = Grid::new(2, 2);
    let partition = partition_snn(&net, grid.cores());
    let greedy = place_greedy(&partition, grid);
    let linear = place_linear(&partition, grid);
    let mut mesh_a = MeshSnn::compiled(&net, partition.clone(), greedy, Fabric::healthy(grid));
    let mut mesh_b = MeshSnn::compiled(&net, partition, linear, Fabric::healthy(grid));
    let pixels = test_pixels(64, 2);
    let (pa, trace_a) = mesh_a.present_traced(&pixels, 4);
    let (pb, trace_b) = mesh_b.present_traced(&pixels, 4);
    assert!(!trace_a.is_empty());
    assert!(trace_a.contains("F "), "trace should contain output spikes");
    // The logical spike schedule is a property of the partition, not of
    // where its clusters physically sit.
    assert_eq!(trace_a, trace_b);
    assert_eq!(pa.winner, pb.winner);
    assert_eq!(pa.fires, pb.fires);
    assert_eq!(pa.potentials, pb.potentials);
}

#[test]
fn zero_rate_fabric_plans_are_healthy() {
    let mut net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let plan = FaultPlan::new(FaultModel::DeadLink, 0.0, 5).unwrap_or_else(|_| unreachable!());
    let mut mesh = MeshSnn::compile_faulty(&net, Grid::new(2, 2), &plan).unwrap();
    let pixels = test_pixels(64, 3);
    let reference = net.present(&pixels, 6);
    let routed = mesh.present(&pixels, 6);
    assert_eq!(routed.fires, reference.fires);
    assert_eq!(routed.potentials, reference.potentials);
    assert_eq!(routed.cost.dropped_packets, 0);
}

#[test]
fn fabric_faults_degrade_deterministically() {
    let net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let pixels = test_pixels(64, 8);
    for model in [FaultModel::DeadLink, FaultModel::DeadRouter] {
        let plan = FaultPlan::new(model, 0.4, 21).unwrap_or_else(|_| unreachable!());
        let mut a = MeshSnn::compile_faulty(&net, Grid::new(4, 4), &plan).unwrap();
        let mut b = MeshSnn::compile_faulty(&net, Grid::new(4, 4), &plan).unwrap();
        let pa = a.present(&pixels, 2);
        let pb = b.present(&pixels, 2);
        assert_eq!(pa, pb, "{model:?} not deterministic");
        assert!(
            pa.cost.dropped_packets > 0,
            "{model:?} at 40% should drop packets on a 4x4 grid"
        );
    }
}

#[test]
fn saturated_dead_links_isolate_the_ingress_core() {
    // With every link dead only the injector core (which hosts the
    // grid-center cluster on a 2x2: core 0) still hears the input.
    let net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let plan = FaultPlan::new(FaultModel::DeadLink, 1.0, 2).unwrap_or_else(|_| unreachable!());
    let mut mesh = MeshSnn::compile_faulty(&net, Grid::new(2, 2), &plan).unwrap();
    let pixels = test_pixels(64, 4);
    let p = mesh.present(&pixels, 9);
    assert!(p.cost.dropped_packets > 0);
    assert_eq!(p.cost.hops, 0, "all first hops are dead");
    // Only neurons hosted on core 0 can ever fire.
    let locals: &[usize] = {
        let cluster = (0..mesh.partition().num_clusters())
            .find(|&c| mesh.placement().core_of(c) == 0)
            .unwrap_or(0);
        &mesh.partition().clusters()[cluster]
    };
    for &(_, j) in &p.fires {
        assert!(locals.contains(&j), "neuron {j} fired without input");
    }
}

/// FNV-1a over 64-bit words: a compact, order-sensitive digest for the
/// pinned literals below.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The four pinned deployments of the firing test net: healthy 2x2 and
/// 4x4, and 4x4 with dead links / dead routers.
fn pinned_meshes(net: &SnnNetwork) -> Vec<(&'static str, MeshSnn)> {
    let plan =
        |model, rate, seed| FaultPlan::new(model, rate, seed).unwrap_or_else(|_| unreachable!());
    vec![
        ("2x2", MeshSnn::compile(net, Grid::new(2, 2)).unwrap()),
        ("4x4", MeshSnn::compile(net, Grid::new(4, 4)).unwrap()),
        (
            "4x4 dead_link",
            MeshSnn::compile_faulty(net, Grid::new(4, 4), &plan(FaultModel::DeadLink, 0.25, 21))
                .unwrap(),
        ),
        (
            "4x4 dead_router",
            MeshSnn::compile_faulty(
                net,
                Grid::new(4, 4),
                &plan(FaultModel::DeadRouter, 0.15, 22),
            )
            .unwrap(),
        ),
    ]
}

/// Pins the mesh's exact output — every `MeshCost` counter, the fires
/// and the final potentials — as literals, so a change to the per-core
/// kernel or the commit protocol cannot move them silently. The healthy
/// rows are also checked against the reference above; the faulty rows
/// (and the speculative `neuron_updates` everywhere) have no reference
/// but these literals.
#[test]
fn mesh_outputs_and_cost_are_pinned() {
    type Row = (&'static str, u64, [u64; 6], usize, u64, u64);
    #[rustfmt::skip]
    const PINNED: [Row; 16] = [
        ("2x2", 0x0, [1508, 0, 1588, 8, 340, 1290], 80, 0x9c75eb22d2ad3f06, 0x336a0e30f2fc921f),
        ("2x2", 0x1, [1478, 0, 1556, 10, 332, 1283], 78, 0x64f26f0b9ba38cfe, 0xe8ade5d44349d2b8),
        ("2x2", 0x2, [1586, 0, 1664, 8, 336, 1228], 78, 0x316e84813276dc08, 0x18cbddadc3d4cdd3),
        ("2x2", 0xabcd, [1506, 0, 1588, 8, 348, 1349], 82, 0xe04c5f685f62c38f, 0x8ceac78566112c71),
        ("4x4", 0x0, [5875, 0, 16019, 44, 1275, 2059], 80, 0x9c75eb22d2ad3f06, 0x336a0e30f2fc921f),
        ("4x4", 0x1, [5757, 0, 15704, 55, 1245, 2054], 78, 0x64f26f0b9ba38cfe, 0xe8ade5d44349d2b8),
        ("4x4", 0x2, [6162, 0, 16806, 44, 1260, 2013], 78, 0x316e84813276dc08, 0x18cbddadc3d4cdd3),
        ("4x4", 0xabcd, [5873, 0, 15988, 44, 1305, 2151], 82, 0xe04c5f685f62c38f, 0x8ceac78566112c71),
        ("4x4 dead_link", 0x0, [5959, 3489, 7963, 55, 532, 749], 86, 0x5308249012180cf2, 0xdd80eee47ddf13cd),
        ("4x4 dead_link", 0x1, [5897, 3444, 7888, 55, 542, 762], 88, 0x6e5e8f6ba1a849fa, 0x5b5df12850424264),
        ("4x4 dead_link", 0x2, [6330, 3696, 8483, 44, 550, 766], 90, 0x99dc02ca30858621, 0x955b4cc2b234147f),
        ("4x4 dead_link", 0xabcd, [5971, 3498, 7986, 44, 552, 789], 89, 0x1b9420de938f32c1, 0x2f9d3e97997cfa81),
        ("4x4 dead_router", 0x0, [6211, 3767, 13400, 44, 604, 787], 104, 0xdd43f6ed9aea69b7, 0x38d4929c00077963),
        ("4x4 dead_router", 0x1, [6135, 3716, 13264, 55, 590, 781], 105, 0xa1c0132fe0c72b26, 0xbcfcaf591fdf524d),
        ("4x4 dead_router", 0x2, [6582, 3984, 14227, 44, 634, 806], 108, 0xb70fbdd4f3734604, 0xa9d3b118b0526dea),
        ("4x4 dead_router", 0xabcd, [6167, 3740, 13300, 44, 574, 749], 103, 0x31166da045dcd3c2, 0xaa9492dc9a70f11f),
    ];
    let net = test_net(64, 30, CodingScheme::PoissonRate, 7);
    let mut rows = PINNED.iter();
    for (name, mut mesh) in pinned_meshes(&net) {
        for pseed in [0u64, 1, 2, 0xABCD] {
            let &(want_name, want_seed, counters, fires, fires_digest, potentials_digest) =
                rows.next().unwrap();
            assert_eq!((name, pseed), (want_name, want_seed));
            let p = mesh.present(&test_pixels(64, pseed), pseed);
            let k = p.cost;
            assert_eq!(
                [
                    k.packets,
                    k.dropped_packets,
                    k.hops,
                    k.peak_link_load,
                    k.sram_rows,
                    k.neuron_updates
                ],
                counters,
                "{name} p{pseed}: MeshCost"
            );
            assert_eq!(p.fires.len(), fires, "{name} p{pseed}: fire count");
            assert_eq!(
                fnv(p.fires.iter().flat_map(|&(t, j)| [u64::from(t), j as u64])),
                fires_digest,
                "{name} p{pseed}: fires"
            );
            assert_eq!(
                fnv(p.potentials.iter().map(|v| v.to_bits())),
                potentials_digest,
                "{name} p{pseed}: potentials"
            );
        }
    }
    assert!(rows.next().is_none());
}

/// The firing test net with explicit WTA windows (ms).
fn windowed_net(t_inhibit: u32, t_refrac: u32) -> SnnNetwork {
    let mut params = SnnParams::for_neurons(30);
    params.initial_threshold = 600.0;
    params.t_inhibit = t_inhibit;
    params.t_refrac = t_refrac;
    SnnNetwork::with_coding(64, 10, params, CodingScheme::PoissonRate, 7)
}

#[test]
fn one_ms_windows_compile_and_stay_bit_exact() {
    // `Tinhibit = Trefrac = 1` is the smallest setting the commit
    // protocol accepts: a fire gates every neuron for exactly the rest
    // of its millisecond.
    let mut net = windowed_net(1, 1);
    for grid in [Grid::new(1, 1), Grid::new(2, 2), Grid::new(4, 4)] {
        let mut mesh = MeshSnn::compile(&net, grid).unwrap();
        for pseed in [0u64, 1, 2, 0xABCD] {
            let pixels = test_pixels(64, pseed);
            let reference = net.present(&pixels, pseed);
            assert!(!reference.fires.is_empty(), "{grid:?} p{pseed}: no fires");
            let routed = mesh.present(&pixels, pseed);
            assert_eq!(routed.winner, reference.winner, "{grid:?} p{pseed}");
            assert_eq!(routed.fires, reference.fires, "{grid:?} p{pseed}");
            assert_eq!(routed.potentials, reference.potentials, "{grid:?} p{pseed}");
        }
    }
}

fn compile_on_2x2(net: &SnnNetwork) -> MeshSnn {
    let grid = Grid::new(2, 2);
    let partition = partition_snn(net, grid.cores());
    let placement = place_greedy(&partition, grid);
    MeshSnn::compiled(net, partition, placement, Fabric::healthy(grid))
}

#[test]
fn compile_rejects_zero_windows_with_a_typed_error() {
    for (t_inhibit, t_refrac) in [(0, 1), (1, 0), (0, 0)] {
        let net = windowed_net(t_inhibit, t_refrac);
        let err = MeshError::ZeroWindow {
            t_inhibit,
            t_refrac,
        };
        assert_eq!(MeshSnn::compile(&net, Grid::new(2, 2)).unwrap_err(), err);
        let plan = FaultPlan::new(FaultModel::DeadRouter, 0.2, 4).unwrap();
        assert_eq!(
            MeshSnn::compile_faulty(&net, Grid::new(2, 2), &plan).unwrap_err(),
            err
        );
        assert!(err.to_string().contains("Tinhibit >= 1 and Trefrac >= 1"));
    }
    // Windows of 1 ms are the smallest accepted.
    assert!(MeshSnn::compile(&windowed_net(1, 1), Grid::new(2, 2)).is_ok());
    // Both checks run before partitioning, so a network that neither
    // fits nor has a valid window is an error, not a partitioner panic.
    let mut params = SnnParams::for_neurons(300);
    params.t_inhibit = 0;
    let net = SnnNetwork::new(8, 10, params, 1);
    assert!(MeshSnn::compile(&net, Grid::new(1, 1)).is_err());
}

#[test]
#[should_panic(expected = "mesh simulation requires Tinhibit >= 1 and Trefrac >= 1")]
fn zero_inhibition_window_is_rejected() {
    let _ = compile_on_2x2(&windowed_net(0, 1));
}

#[test]
#[should_panic(expected = "mesh simulation requires Tinhibit >= 1 and Trefrac >= 1")]
fn zero_refractory_window_is_rejected() {
    let _ = compile_on_2x2(&windowed_net(1, 0));
}

/// Generated deployments: drawn WTA windows, threshold scale, coding,
/// grid and fabric fault plan, two presentations each on one mesh. Each
/// case is pinned by one digest over the fires, the winner, the final
/// potential bits and all six `MeshCost` counters, so any change to the
/// per-core kernel or the commit protocol that moves an output or a
/// counter fails here with its replayable case seed. Healthy cases are
/// also checked against the reference `SnnNetwork::present`.
#[test]
fn generated_mesh_cases_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [u64; 32] = [
        0x57e4fa55ef048d8b, 0x3ca19c8c138fb56a, 0x1e1649a5820a6625, 0xbc80281345702063,
        0xa9e70e0a116810a9, 0xae973cc6ce28c046, 0xf561146fe12db201, 0x269cf4a31e52beaf,
        0xb1df64b795dcd7dd, 0x391e027dce6d7b3f, 0x85bab89e24b71485, 0xf25ae73d034e302a,
        0x5b0af0fb127dc097, 0xe99e50f1ab1a90f4, 0x02a5f1d1e1ac7fe6, 0x37277e0d9bcb0417,
        0x711703d40d3401b5, 0x89a61589544b4a91, 0x98f9fa876d7f4056, 0x43333908b6bb1d82,
        0x8ca3e2512160a8e8, 0x630f915c210cdd9b, 0xd870bbecc309c042, 0x97b4cd2b8f95c686,
        0xf049d611769b655d, 0x627eb83849e7e435, 0x5a359cf637fb2757, 0x34660abe50233686,
        0xd40097ac99e9a4fe, 0x872d7a61ba429458, 0x89eaf5dfdbc6fe7a, 0x9a0a51fa0fb5ae17,
    ];
    check_cases(0x4D45_5348_0000_0001, 32, |case, rng| {
        let idx = usize::try_from(case).unwrap();
        let mut params = SnnParams::for_neurons(4 + rng.next_index(45));
        params.t_inhibit = 1 + u32::try_from(rng.next_below(6)).unwrap();
        params.t_refrac = 1 + u32::try_from(rng.next_below(25)).unwrap();
        let inputs = 16 + rng.next_index(65);
        // Threshold per input, log-uniform: from firing on most ticks to
        // firing a handful of times per presentation.
        params.initial_threshold = inputs as f64 * (2.0 * 1500f64.powf(rng.next_unit()));
        let coding = ALL_CODINGS[rng.next_index(ALL_CODINGS.len())];
        let side = [1, 2, 4][rng.next_index(3)];
        let grid = Grid::new(side, side);
        let model = [
            None,
            Some(FaultModel::DeadLink),
            Some(FaultModel::DeadRouter),
        ][rng.next_index(3)];
        let mut net = SnnNetwork::with_coding(inputs, 10, params, coding, rng.next_u64());
        // The explicit pipeline, whose signatures do not change with
        // the compile front door's error type.
        let fabric = match model {
            None => Fabric::healthy(grid),
            Some(model) => {
                let plan = FaultPlan::new(model, rng.next_range(0.05, 0.6), rng.next_u64())
                    .unwrap_or_else(|_| unreachable!());
                Fabric::with_plan(grid, &plan)
            }
        };
        let partition = partition_snn(&net, grid.cores());
        let placement = place_greedy(&partition, grid);
        let mut mesh = MeshSnn::compiled(&net, partition, placement, fabric);
        let mut words = Vec::new();
        for _ in 0..2 {
            let pseed = rng.next_u64();
            let pixels = test_pixels(inputs, rng.next_u64());
            let p = mesh.present(&pixels, pseed);
            if model.is_none() {
                let reference = net.present(&pixels, pseed);
                assert_eq!(p.fires, reference.fires, "case {case}: fires");
                assert_eq!(p.potentials, reference.potentials, "case {case}");
                assert_eq!(p.readout, reference.readout(), "case {case}");
            }
            let k = p.cost;
            words.extend(p.fires.iter().flat_map(|&(t, j)| [u64::from(t), j as u64]));
            words.push(p.winner.map_or(u64::MAX, |w| w as u64));
            words.extend(p.potentials.iter().map(|v| v.to_bits()));
            words.extend([
                k.packets,
                k.dropped_packets,
                k.hops,
                k.peak_link_load,
                k.sram_rows,
                k.neuron_updates,
            ]);
        }
        assert_eq!(fnv(words), PINNED[idx], "case {case}: digest");
    });
}
