//! The many-core mesh event simulator.
//!
//! [`MeshSnn`] runs a compiled (partitioned + placed) WTA SNN over the
//! routing fabric and is, on a healthy fabric, **bit-exact** against
//! the single-core reference event loop (`nc_snn::network`): the same
//! spikes at the same milliseconds, the same final potentials to the
//! last bit, the same tie-broken readout. The per-hop/per-read/per-
//! update work is tallied into a [`MeshCost`] as a side effect.
//!
//! # How bit-exactness survives distribution
//!
//! The reference loop scans all neurons in ascending id order per input
//! event; the first neuron to cross threshold fires, and every *later*
//! neuron in that same scan is already inhibited and therefore skipped
//! — its membrane never absorbs the event. A mesh core only sees its
//! own neurons, so each core instead applies the event to its locals
//! *tentatively* (recording an undo entry per touched neuron), stops at
//! its first local threshold crossing, and nominates that neuron. The
//! event's true firing neuron is the minimum nominated global id — the
//! same neuron the reference scan would have reached first. Commit then
//! replays the reference semantics exactly:
//!
//! * neurons with ids **below** the firer were updated by the reference
//!   scan before the fire — every core keeps those tentative updates;
//! * neurons with ids **above** the firer were gated by the fresh
//!   inhibition — every core reverts those tentative updates from its
//!   undo log (entries are pushed in ascending local order, so the
//!   revert is a tail pop).
//!
//! Every core runs the reference's own LIF kernel ([`nc_snn::lif`]): a
//! scan's update hook logs the undo entries and tallies the updates, and
//! the kernel's skip window gives the per-core event skipping — the
//! firing core can respond again at `t + min(Trefrac, Tinhibit)`, a
//! purely-inhibited core not before `t + Tinhibit`; both bounds are
//! exact, so skipped scans are provably no-ops. All of this requires at
//! most one fire per event, which holds whenever `Tinhibit >= 1` (the
//! compiler checks it).
//!
//! # Quiet ticks
//!
//! Almost every 1 ms tick fires nobody, so the protocol above runs only
//! as a replay. Each tick first [`stage`](LifState::stage)s all of its
//! events on every core the ingress reaches, outside the core's skip
//! window. If no core crosses threshold, no neuron fires anywhere and
//! no inhibition packet moves: every core
//! [`commit`](LifState::commit)s, and the tick's `k` input multicasts
//! are billed in bulk from routes summed once at compile time. If any
//! core crosses, the tick is replayed event by event from the untouched
//! committed state. Either way the outputs and every [`MeshCost`]
//! counter are those of the per-event protocol (see DESIGN.md §14).
//!
//! Under fabric faults the lockstep degrades *deterministically*: a
//! core that never receives the input packet does not integrate it, a
//! core that misses an inhibition packet keeps its tentative updates
//! and may fire in the same event (a cascade resolved in ascending
//! neuron order), exactly as a real mesh would misbehave.

use std::fmt::Write as _;

use crate::mesh::partition::{partition_snn, Partition, MAX_CLUSTER_NEURONS};
use crate::mesh::place::{place_greedy, Grid, Placement};
use crate::mesh::route::{Fabric, PORTS_PER_ROUTER};
use crate::mesh::{
    HOP_ENERGY_PJ, LINK_CYCLES_PER_TICK, NEURON_AREA_UM2, NEURON_UPDATE_PJ, ROUTER_AREA_UM2,
};
use crate::sram::{bank_area_um2, bank_read_energy_pj};
use nc_faults::FaultPlan;
use nc_snn::lif::{LifState, Prior};
use nc_snn::{tie_broken_readout, SnnNetwork};
use std::fmt;

/// Synaptic SRAM bank depth (rows per bank), the TrueNorth-style core
/// geometry shared with [`crate::truenorth`].
const BANK_DEPTH: usize = 784;

/// 8-bit weights per 128-bit SRAM row.
const WEIGHTS_PER_ROW: usize = 16;

/// Work and traffic tallies for one presentation (or, via
/// [`MeshCost::absorb`], an aggregate of many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeshCost {
    /// Spike packets injected into the fabric (input multicasts plus
    /// inhibition multicasts; core-local deliveries included).
    pub packets: u64,
    /// Packets that died on a dead link or dead router.
    pub dropped_packets: u64,
    /// Router-to-router link traversals actually performed.
    pub hops: u64,
    /// Worst per-link load inside any one 1 ms tick.
    pub peak_link_load: u64,
    /// Synaptic SRAM row reads (one weight-column burst per delivered,
    /// non-skipped core event).
    pub sram_rows: u64,
    /// LIF membrane updates, speculative ones included — reverted work
    /// still burned energy.
    pub neuron_updates: u64,
}

impl MeshCost {
    /// Dynamic energy of the tallied work in µJ: hops at
    /// [`HOP_ENERGY_PJ`], SRAM rows at the 65 nm bank read cost, and
    /// membrane updates at [`NEURON_UPDATE_PJ`].
    pub fn energy_uj(&self) -> f64 {
        (self.hops as f64 * HOP_ENERGY_PJ
            + self.sram_rows as f64 * bank_read_energy_pj(BANK_DEPTH)
            + self.neuron_updates as f64 * NEURON_UPDATE_PJ)
            * 1e-6
    }

    /// Whether every link stayed within its per-tick cycle budget
    /// ([`LINK_CYCLES_PER_TICK`]) — i.e. worst-case delivery still lands
    /// inside the biological tick.
    pub fn delivery_ok(&self) -> bool {
        self.peak_link_load <= LINK_CYCLES_PER_TICK
    }

    /// Folds another tally into this one (sums, except the peak link
    /// load which takes the max).
    pub fn absorb(&mut self, other: &MeshCost) {
        self.packets = self.packets.wrapping_add(other.packets);
        self.dropped_packets = self.dropped_packets.wrapping_add(other.dropped_packets);
        self.hops = self.hops.wrapping_add(other.hops);
        self.peak_link_load = self.peak_link_load.max(other.peak_link_load);
        self.sram_rows = self.sram_rows.wrapping_add(other.sram_rows);
        self.neuron_updates = self.neuron_updates.wrapping_add(other.neuron_updates);
    }
}

/// Outcome of presenting one image to the mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshPresentation {
    /// First neuron to fire (global id), if any.
    pub winner: Option<usize>,
    /// Readout neuron: the winner, else highest potential with seeded
    /// tie-breaking — the reference readout, bit for bit.
    pub readout: usize,
    /// Predicted class label (`labels[readout]`, unlabeled → 0).
    pub label: usize,
    /// Every output spike as `(time_ms, global neuron)`.
    pub fires: Vec<(u32, usize)>,
    /// Final membrane potentials in global neuron order.
    pub potentials: Vec<f64>,
    /// Work and traffic of this presentation.
    pub cost: MeshCost,
}

/// One simulated core: its slice of the network, running the shared
/// LIF kernel over its locals.
#[derive(Debug, Clone, Default, PartialEq)]
struct CoreNode {
    /// Hosted neurons, ascending global ids; slot `s` is `locals[s]`.
    locals: Vec<usize>,
    /// Weight columns as exact f64 values,
    /// `wcols[input * locals.len() + slot]`.
    wcols: Vec<f64>,
    thresholds: Vec<f64>,
    lif: LifState,
    /// Tentative updates of the current event, ascending slot order.
    undo: Vec<Prior>,
    /// Whether an inhibition for the current event reached this core
    /// (kills this core's own nomination).
    inhibited_event: bool,
    /// Un-gated locals of the staged tick if this core integrates it
    /// and nobody crossed; `None` if the core sits the tick out.
    ungated: Option<usize>,
}

impl CoreNode {
    /// SRAM rows of one weight-column burst.
    fn column_rows(&self) -> u64 {
        count_u64(self.locals.len().div_ceil(WEIGHTS_PER_ROW))
    }
}

fn count_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Why a network cannot be compiled onto a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshError {
    /// The network has more neurons than the grid's cores can host.
    TooLarge {
        /// Neurons in the network.
        neurons: usize,
        /// `cores × MAX_CLUSTER_NEURONS`.
        capacity: usize,
    },
    /// `Tinhibit` or `Trefrac` is zero: a fire must gate its own
    /// millisecond, or one event could fire more than once and the
    /// distributed commit protocol would not hold.
    ZeroWindow {
        /// The network's `Tinhibit` in ms.
        t_inhibit: u32,
        /// The network's `Trefrac` in ms.
        t_refrac: u32,
    },
}

impl MeshError {
    /// Checks that `net` can be compiled onto `grid`.
    fn check(net: &SnnNetwork, grid: Grid) -> Result<(), MeshError> {
        let params = net.params();
        if params.t_inhibit == 0 || params.t_refrac == 0 {
            return Err(MeshError::ZeroWindow {
                t_inhibit: params.t_inhibit,
                t_refrac: params.t_refrac,
            });
        }
        let capacity = grid.cores().saturating_mul(MAX_CLUSTER_NEURONS);
        if params.neurons > capacity {
            return Err(MeshError::TooLarge {
                neurons: params.neurons,
                capacity,
            });
        }
        Ok(())
    }
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::TooLarge { neurons, capacity } => write!(
                f,
                "{neurons} neurons cannot fit on a mesh of {capacity} neuron slots"
            ),
            MeshError::ZeroWindow {
                t_inhibit,
                t_refrac,
            } => write!(
                f,
                "mesh simulation requires Tinhibit >= 1 and Trefrac >= 1 \
                 (got {t_inhibit} and {t_refrac})"
            ),
        }
    }
}

impl std::error::Error for MeshError {}

/// The ingress multicast of one input event — a packet from the
/// injector to every populated core — summed once from the static
/// fabric routes, so a quiet tick bills its events in bulk.
#[derive(Debug, Clone, Default)]
struct Multicast {
    packets: u64,
    dropped_packets: u64,
    hops: u64,
    /// `(link, packets)` for every link the multicast crosses.
    links: Vec<(usize, u64)>,
}

impl Multicast {
    fn new(fabric: &Fabric, from: usize, to: &[usize]) -> Multicast {
        let mut per_link = vec![0u64; fabric.grid().cores() * PORTS_PER_ROUTER];
        let mut m = Multicast::default();
        for &c in to {
            let links = fabric.links(from, c);
            m.packets += 1;
            m.hops += count_u64(links.len());
            m.dropped_packets += u64::from(!fabric.delivered(from, c));
            for &link in links {
                per_link[link] += 1;
            }
        }
        m.links = (0..per_link.len())
            .filter(|&link| per_link[link] > 0)
            .map(|link| (link, per_link[link]))
            .collect();
        m
    }

    /// Bills `k` multicasts inside the current tick — what `k` calls of
    /// [`route_packet`] per destination would bill.
    fn bill(
        &self,
        k: u64,
        link_load: &mut [u64],
        touched_links: &mut Vec<usize>,
        cost: &mut MeshCost,
    ) {
        cost.packets = cost.packets.wrapping_add(k.wrapping_mul(self.packets));
        cost.dropped_packets = cost
            .dropped_packets
            .wrapping_add(k.wrapping_mul(self.dropped_packets));
        cost.hops = cost.hops.wrapping_add(k.wrapping_mul(self.hops));
        for &(link, n) in &self.links {
            if link_load[link] == 0 {
                touched_links.push(link);
            }
            link_load[link] += k * n;
        }
    }
}

/// Sends one packet, billing hops and per-tick link occupancy along the
/// live path prefix. Returns whether the packet arrived.
fn route_packet(
    fabric: &Fabric,
    link_load: &mut [u64],
    touched_links: &mut Vec<usize>,
    from: usize,
    to: usize,
    cost: &mut MeshCost,
) -> bool {
    cost.packets = cost.packets.wrapping_add(1);
    for &link in fabric.links(from, to) {
        if link_load[link] == 0 {
            touched_links.push(link);
        }
        link_load[link] += 1;
        cost.hops = cost.hops.wrapping_add(1);
    }
    let delivered = fabric.delivered(from, to);
    if !delivered {
        cost.dropped_packets = cost.dropped_packets.wrapping_add(1);
    }
    delivered
}

/// Closes the current 1 ms tick: folds per-link loads into the peak and
/// clears them for the next tick.
fn flush_tick(link_load: &mut [u64], touched_links: &mut Vec<usize>, cost: &mut MeshCost) {
    for &link in touched_links.iter() {
        cost.peak_link_load = cost.peak_link_load.max(link_load[link]);
        link_load[link] = 0;
    }
    touched_links.clear();
}

/// A trained SNN compiled onto a many-core mesh: partitioned, placed,
/// and simulated over the routing fabric.
#[derive(Debug, Clone)]
pub struct MeshSnn {
    grid: Grid,
    partition: Partition,
    placement: Placement,
    fabric: Fabric,
    /// The compiled network: coding, parameters, decay table, labels
    /// and the per-presentation stream seed all come from it.
    net: SnnNetwork,
    cores: Vec<CoreNode>,
    /// Cores hosting at least one neuron, ascending.
    used: Vec<usize>,
    /// Off-chip ingress: input spikes enter the fabric at core 0.
    injector: usize,
    /// The ingress multicast of one input event.
    ingress: Multicast,
    // Reused presentation scratch.
    candidates: Vec<(usize, usize)>,
    link_load: Vec<u64>,
    touched_links: Vec<usize>,
}

impl MeshSnn {
    /// Compiles `net` onto `grid` with the default pipeline: affinity
    /// partitioning, greedy traffic-weighted placement, healthy fabric.
    ///
    /// # Errors
    ///
    /// [`MeshError::TooLarge`] if the network cannot fit
    /// (`neurons > cores × MAX_CLUSTER_NEURONS`), [`MeshError::ZeroWindow`]
    /// if `Tinhibit` or `Trefrac` is zero. Both are checked before
    /// partitioning.
    pub fn compile(net: &SnnNetwork, grid: Grid) -> Result<MeshSnn, MeshError> {
        MeshError::check(net, grid)?;
        Ok(MeshSnn::pipeline(net, Fabric::healthy(grid)))
    }

    /// Like [`MeshSnn::compile`], but with dead links and routers drawn
    /// from `plan` (non-fabric fault models leave the fabric healthy).
    ///
    /// # Errors
    ///
    /// As [`MeshSnn::compile`].
    pub fn compile_faulty(
        net: &SnnNetwork,
        grid: Grid,
        plan: &FaultPlan,
    ) -> Result<MeshSnn, MeshError> {
        MeshError::check(net, grid)?;
        Ok(MeshSnn::pipeline(net, Fabric::with_plan(grid, plan)))
    }

    /// The default partition and placement over `fabric`.
    fn pipeline(net: &SnnNetwork, fabric: Fabric) -> MeshSnn {
        let grid = fabric.grid();
        let partition = partition_snn(net, grid.cores());
        let placement = place_greedy(&partition, grid);
        MeshSnn::compiled(net, partition, placement, fabric)
    }

    /// Assembles a mesh from explicit pipeline stages — the seam the
    /// placement-invariance tests use.
    ///
    /// # Panics
    ///
    /// Panics on geometry mismatches between the stages, or if
    /// `Tinhibit` or `Trefrac` is zero (the one-fire-per-event
    /// invariant the distributed commit protocol rests on).
    pub fn compiled(
        net: &SnnNetwork,
        partition: Partition,
        placement: Placement,
        fabric: Fabric,
    ) -> MeshSnn {
        let params = *net.params();
        assert!(
            params.t_inhibit >= 1 && params.t_refrac >= 1,
            "mesh simulation requires Tinhibit >= 1 and Trefrac >= 1"
        );
        assert_eq!(
            partition.neurons(),
            params.neurons,
            "partition does not cover the network"
        );
        assert_eq!(
            placement.num_clusters(),
            partition.num_clusters(),
            "placement does not cover the partition"
        );
        assert_eq!(
            placement.grid(),
            fabric.grid(),
            "placement and fabric grids differ"
        );
        let grid = fabric.grid();
        let inputs = net.inputs();
        let weights = net.weights();
        let thresholds = net.thresholds();

        let mut cores = vec![CoreNode::default(); grid.cores()];
        for (cluster, members) in partition.clusters().iter().enumerate() {
            let core = &mut cores[placement.core_of(cluster)];
            let ln = members.len();
            core.wcols = vec![0.0; inputs * ln];
            for input in 0..inputs {
                for (slot, &g) in members.iter().enumerate() {
                    core.wcols[input * ln + slot] = f64::from(weights[g * inputs + input]);
                }
            }
            core.thresholds = members.iter().map(|&g| thresholds[g]).collect();
            core.locals = members.clone();
        }
        let used: Vec<usize> = (0..grid.cores())
            .filter(|&c| !cores[c].locals.is_empty())
            .collect();

        let injector = 0;
        let ingress = Multicast::new(&fabric, injector, &used);
        let link_load = vec![0u64; grid.cores() * PORTS_PER_ROUTER];
        MeshSnn {
            grid,
            partition,
            placement,
            fabric,
            net: net.clone(),
            cores,
            used,
            injector,
            ingress,
            candidates: Vec::new(),
            link_load,
            touched_links: Vec::new(),
        }
    }

    /// The mesh grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The compiled partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The compiled placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The routing fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Number of cores hosting neurons.
    pub fn used_cores(&self) -> usize {
        self.used.len()
    }

    /// Silicon area of the whole mesh in mm²: every core pays the
    /// router share; used cores add their synaptic SRAM banks and LIF
    /// circuits — the TrueNorth core cost model, per core.
    pub fn area_mm2(&self) -> f64 {
        let mut um2 = 0.0;
        for core in &self.cores {
            um2 += ROUTER_AREA_UM2;
            let ln = core.locals.len();
            if ln == 0 {
                continue;
            }
            let bits = ln * self.net.inputs() * 8;
            let banks = bits.div_ceil(128).div_ceil(BANK_DEPTH).max(1);
            um2 += banks as f64 * bank_area_um2(BANK_DEPTH) + ln as f64 * NEURON_AREA_UM2;
        }
        um2 / 1e6
    }

    /// Presents one image without learning.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn present(&mut self, pixels: &[u8], presentation_seed: u64) -> MeshPresentation {
        self.present_inner(pixels, presentation_seed, None)
    }

    /// Presents one image and also returns the routed-spike trace: one
    /// `E <t> <input>` line per injected input event and one
    /// `F <t> <neuron>` line per output spike. The trace is *logical* —
    /// physical hops live in the cost counters — so on a healthy fabric
    /// it is byte-identical across placements of the same partition and
    /// across engine thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn present_traced(
        &mut self,
        pixels: &[u8],
        presentation_seed: u64,
    ) -> (MeshPresentation, String) {
        let mut trace = String::new();
        let p = self.present_inner(pixels, presentation_seed, Some(&mut trace));
        (p, trace)
    }

    /// Predicted class label for one image — bit-compatible with the
    /// reference `SnnNetwork::predict`.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` differs from the network's input count.
    pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        self.present_inner(pixels, presentation_seed, None).label
    }

    fn present_inner(
        &mut self,
        pixels: &[u8],
        presentation_seed: u64,
        mut trace: Option<&mut String>,
    ) -> MeshPresentation {
        let inputs = self.net.inputs();
        assert_eq!(
            pixels.len(),
            inputs,
            "pixel count {} does not match inputs {}",
            pixels.len(),
            inputs
        );
        let MeshSnn {
            net,
            cores,
            used,
            fabric,
            candidates,
            link_load,
            touched_links,
            injector,
            ingress,
            ..
        } = self;
        let params = net.params();
        let lut = net.decay_lut();
        let seed = net.presentation_stream_seed(presentation_seed);
        let events = net.coding().encode(pixels, params, seed);
        for &c in used.iter() {
            let core = &mut cores[c];
            core.lif.reset(core.locals.len());
        }
        link_load.fill(0);
        touched_links.clear();

        let mut cost = MeshCost::default();
        let mut winner: Option<usize> = None;
        let mut fires: Vec<(u32, usize)> = Vec::new();

        for tick in events.chunk_by(|a, b| a.t == b.t) {
            let t = tick[0].t;
            // Stage the whole tick on every core the ingress reaches,
            // outside its skip window. Delivery from the ingress is
            // static, so a core hears all of the tick's events or none.
            let quiet = used.iter().all(|&c| {
                let core = &mut cores[c];
                core.ungated = None;
                if !fabric.delivered(*injector, c) || core.lif.skipping(t) {
                    return true;
                }
                let ln = core.locals.len();
                let wcols = &core.wcols;
                let cols = tick
                    .iter()
                    .map(|ev| &wcols[ev.input * ln..(ev.input + 1) * ln]);
                core.ungated = core.lif.stage(t, lut, &core.thresholds, cols);
                core.ungated.is_some()
            });
            if quiet {
                // Nobody fires, so no inhibition moves: commit every
                // core and bill the tick's input multicasts in bulk.
                let k = count_u64(tick.len());
                ingress.bill(k, link_load, touched_links, &mut cost);
                for &c in used.iter() {
                    let core = &mut cores[c];
                    if let Some(ungated) = core.ungated {
                        cost.sram_rows = cost
                            .sram_rows
                            .wrapping_add(k.wrapping_mul(core.column_rows()));
                        cost.neuron_updates = cost
                            .neuron_updates
                            .wrapping_add(k.wrapping_mul(count_u64(ungated)));
                        core.lif.commit(t);
                    }
                }
                if let Some(tr) = trace.as_deref_mut() {
                    for ev in tick {
                        let _ = writeln!(tr, "E {t} {}", ev.input);
                    }
                }
                flush_tick(link_load, touched_links, &mut cost);
                continue;
            }
            // Replay the tick event by event with the speculative
            // protocol, from the untouched committed state.
            for ev in tick {
                let input = ev.input;
                if let Some(tr) = trace.as_deref_mut() {
                    let _ = writeln!(tr, "E {t} {input}");
                }
                // Input multicast from the ingress router to every populated
                // core, then tentative local integration: each delivered,
                // non-skipping core nominates at most one firing candidate.
                candidates.clear();
                for &c in used.iter() {
                    let delivered =
                        route_packet(fabric, link_load, touched_links, *injector, c, &mut cost);
                    let core = &mut cores[c];
                    core.inhibited_event = false;
                    core.undo.clear();
                    if !delivered || core.lif.skipping(t) {
                        continue;
                    }
                    // One burst read of the event's weight column.
                    cost.sram_rows = cost.sram_rows.wrapping_add(core.column_rows());
                    let ln = core.locals.len();
                    let wcol = &core.wcols[input * ln..(input + 1) * ln];
                    let undo = &mut core.undo;
                    let updates = &mut cost.neuron_updates;
                    let crossing = core.lif.scan(
                        t,
                        0,
                        lut,
                        &core.thresholds,
                        |slot| wcol[slot],
                        |prior, _| {
                            undo.push(prior);
                            *updates = updates.wrapping_add(1);
                        },
                    );
                    if let Some(slot) = crossing {
                        candidates.push((core.locals[slot], c));
                    }
                }
                // Resolve in ascending global order — the reference scan
                // order. On a healthy fabric the first fire inhibits every
                // other candidate; a missed inhibition packet lets the next
                // candidate cascade, deterministically.
                candidates.sort_unstable();
                for &(j, cj) in candidates.iter() {
                    if cores[cj].inhibited_event {
                        continue;
                    }
                    fires.push((t, j));
                    if winner.is_none() {
                        winner = Some(j);
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        let _ = writeln!(tr, "F {t} {j}");
                    }
                    // The firer keeps the updates below it (the reference
                    // made them before the fire) and un-integrates the event
                    // above it (the fire gated those neurons).
                    let core = &mut cores[cj];
                    if let Ok(slot) = core.locals.binary_search(&j) {
                        core.lif.revert(&mut core.undo, slot + 1);
                        core.lif.fire(slot, t, params);
                    }
                    core.inhibited_event = true;
                    for &c2 in used.iter() {
                        if c2 == cj
                            || !route_packet(fabric, link_load, touched_links, cj, c2, &mut cost)
                        {
                            continue;
                        }
                        // Locals above `j` un-integrate the event; all are
                        // inhibited. Idempotent, so cascades under faults
                        // may deliver it repeatedly.
                        let core = &mut cores[c2];
                        let above = core.locals.partition_point(|&g| g <= j);
                        core.lif.revert(&mut core.undo, above);
                        core.lif.inhibit(t, params);
                        core.inhibited_event = true;
                    }
                }
            }
            flush_tick(link_load, touched_links, &mut cost);
        }

        let mut potentials = vec![0.0f64; params.neurons];
        for &c in used.iter() {
            let core = &cores[c];
            for (&g, &v) in core.locals.iter().zip(core.lif.potentials()) {
                potentials[g] = v;
            }
        }
        let readout = tie_broken_readout(winner, &potentials, seed);
        let label = net.labels()[readout].unwrap_or(0);
        MeshPresentation {
            winner,
            readout,
            label,
            fires,
            potentials,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_energy_and_delivery_accounting() {
        let mut a = MeshCost {
            packets: 10,
            dropped_packets: 1,
            hops: 100,
            peak_link_load: 900,
            sram_rows: 50,
            neuron_updates: 200,
        };
        assert!(a.delivery_ok());
        let b = MeshCost {
            peak_link_load: 1200,
            ..MeshCost::default()
        };
        a.absorb(&b);
        assert_eq!(a.peak_link_load, 1200);
        assert!(!a.delivery_ok());
        assert_eq!(a.packets, 10);
        assert!(a.energy_uj() > 0.0);
        assert_eq!(MeshCost::default().energy_uj(), 0.0);
    }
}
