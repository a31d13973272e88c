//! The event-driven LIF kernel (paper §2.2): one input event applied to
//! a population of leaky integrate-and-fire neurons with an analytic
//! leak, a threshold, a refractory period and lateral inhibition.
//!
//! Every scalar LIF step goes through [`LifState`]: the reference event
//! loop of [`SnnNetwork`](crate::SnnNetwork), the crossing replay of its
//! streaming inference path, and each core of the `nc-hw` mesh. The
//! callers differ only in where a weight comes from and what they record
//! per integration, so both are generic hooks of [`LifState::scan`],
//! monomorphised per caller:
//!
//! * the **weight hook** `weight(j)` is called once per integrated
//!   neuron, in ascending order — so a faulty SRAM read port sees the
//!   same read order whichever caller drives it;
//! * the **update hook** `on_update(prior, v)` is called once per
//!   integrated neuron, after the add and before the threshold compare,
//!   with the neuron's [`Prior`] state and its new potential. It feeds
//!   the Figure 3 trace, the mesh's undo log and its update tally.
//!
//! A scan returns at the first threshold crossing. The caller then
//! [`fire`](LifState::fire)s the neuron (and runs STDP, which needs
//! `&mut` access to the weights the hook reads) and resumes the scan at
//! the next neuron. Resuming only matters with `Tinhibit = 0`, where a
//! fire leaves the later neurons un-gated and one event can fire several
//! of them; otherwise the fire's skip window ends the event.
//!
//! A whole 1 ms tick can also go through at once, and this is the one
//! tick sweep: the streaming inference path and every mesh core run it.
//! [`stage`](LifState::stage) integrates every event of the tick into a
//! private buffer, adding f64 weight columns, and compares with the
//! thresholds once at the end; [`commit`](LifState::commit) publishes
//! it. Weights are unsigned and the leak applies once per tick, so a
//! potential only rises within a tick: a crossing at any event survives
//! to the tick-end compare, and a tick with none is exactly its events'
//! successive scans — the same f64 operations per neuron, in the same
//! order. A tick that does cross is replayed event by event through
//! [`scan`](LifState::scan) from the untouched committed state.

use crate::params::SnnParams;

/// Applies the analytic leak `v · e^{-dt/Tleak}` via a precomputed
/// per-millisecond decay table (see [`SnnNetwork::decay_lut`]). Gaps
/// longer than the table compose factors (`e^{-(a+b)} = e^{-a}·e^{-b}`),
/// so an arbitrarily long inter-spike silence decays to the analytic
/// value; in-table gaps are a single lookup. Factor composition is not
/// associative in f64, so this exact sequence is part of the kernel's
/// bit-exact contract.
///
/// [`SnnNetwork::decay_lut`]: crate::SnnNetwork::decay_lut
#[inline]
pub fn decay_with_lut(lut: &[f64], mut v: f64, mut dt: u64) -> f64 {
    let last = lut.len() - 1;
    let max = u64::try_from(last).unwrap_or(u64::MAX);
    while dt > max {
        v *= lut[last];
        dt -= max;
    }
    v * lut[usize::try_from(dt).unwrap_or(last)]
}

/// One neuron's state before an integration: the old state the update
/// hook sees, and the record an undo log keeps to revert it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prior {
    /// The neuron's index within its [`LifState`].
    pub neuron: usize,
    /// Membrane potential before the event.
    pub potential: f64,
    /// Time of the neuron's previous update.
    pub last_update: u32,
}

/// The per-neuron state of one LIF population (a whole network, or one
/// mesh core's locals). The vectors have one entry per neuron;
/// [`LifState::reset`] sizes them together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifState {
    /// Membrane potentials after the most recent update.
    pub(crate) potentials: Vec<f64>,
    /// Per-neuron time of the last potential update.
    pub(crate) last_update: Vec<u32>,
    /// Per-neuron end of the refractory window.
    refractory_until: Vec<u32>,
    /// Per-neuron end of the WTA inhibition window.
    inhibited_until: Vec<u32>,
    /// First ms at which any neuron can respond again. After a fire
    /// every neuron is refractory or inhibited until at least this
    /// time, so a scan before it is a no-op and returns at once.
    skip_until: u32,
    /// Upper bound on every refractory and inhibition window: from this
    /// ms on nobody is gated, and a staged tick needs no per-neuron mask.
    gate_until: u32,
    /// Whether every neuron's last update is the same ms, so a staged
    /// tick decays the population by one shared factor.
    synced: bool,
    /// The staged tick's potentials (see [`LifState::stage`]); entries of
    /// gated neurons are scratch and never published.
    staged: Vec<f64>,
}

impl LifState {
    /// Membrane potentials after the most recent update.
    pub fn potentials(&self) -> &[f64] {
        &self.potentials
    }

    /// Resets `n` neurons to rest at `t = 0`, reusing the buffers (no
    /// allocation once they have grown to `n`).
    pub fn reset(&mut self, n: usize) {
        self.potentials.clear();
        self.potentials.resize(n, 0.0);
        self.last_update.clear();
        self.last_update.resize(n, 0);
        self.refractory_until.clear();
        self.refractory_until.resize(n, 0);
        self.inhibited_until.clear();
        self.inhibited_until.resize(n, 0);
        self.skip_until = 0;
        self.gate_until = 0;
        self.synced = true;
    }

    /// Whether an event at `t` falls in the skip window.
    pub fn skipping(&self, t: u32) -> bool {
        t < self.skip_until
    }

    /// Whether neuron `j` ignores input at `t`: refractory or inhibited
    /// neurons are not touched by input spikes (§2.2: "incoming spikes
    /// have no impact").
    fn gated(&self, j: usize, t: u32) -> bool {
        t < self.refractory_until[j] || t < self.inhibited_until[j]
    }

    /// Applies one input event at `t` to the un-gated neurons `from..`,
    /// in ascending order: decay since the neuron's last update, add
    /// `weight(j)`, report to `on_update`, compare with `thresholds[j]`.
    /// Returns the first neuron that crosses, leaving the neurons after
    /// it untouched; `None` if none crosses or `t` is in the skip window.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` has fewer entries than the population.
    // Inlined into every caller so its hooks fold into the neuron loop;
    // left out of line, `simulate`'s two instances (healthy and faulty
    // weight hook) made STDP training markedly slower.
    #[inline(always)]
    pub fn scan(
        &mut self,
        t: u32,
        from: usize,
        lut: &[f64],
        thresholds: &[f64],
        mut weight: impl FnMut(usize) -> f64,
        mut on_update: impl FnMut(Prior, f64),
    ) -> Option<usize> {
        if self.skipping(t) {
            return None;
        }
        self.synced = false;
        let n = self.potentials.len();
        let potentials = &mut self.potentials[..n];
        let last_update = &mut self.last_update[..n];
        let refractory_until = &self.refractory_until[..n];
        let inhibited_until = &self.inhibited_until[..n];
        let thresholds = &thresholds[..n];
        for j in from..n {
            // Refractory / inhibited neurons ignore input spikes
            // entirely (§2.2: "incoming spikes have no impact").
            if t < refractory_until[j] || t < inhibited_until[j] {
                continue;
            }
            let prior = Prior {
                neuron: j,
                potential: potentials[j],
                last_update: last_update[j],
            };
            let dt = u64::from(t - prior.last_update);
            let mut v = prior.potential;
            if dt > 0 {
                v = decay_with_lut(lut, v, dt);
            }
            v += weight(j);
            potentials[j] = v;
            last_update[j] = t;
            on_update(prior, v);
            if v >= thresholds[j] {
                return Some(j);
            }
        }
        None
    }

    /// Fires neuron `j` at `t`: it resets and turns refractory for
    /// `Trefrac`, every other neuron is inhibited for `Tinhibit`, and
    /// nothing can respond before `t + min(Trefrac, Tinhibit)`.
    pub fn fire(&mut self, j: usize, t: u32, params: &SnnParams) {
        self.potentials[j] = 0.0;
        self.refractory_until[j] = t + params.t_refrac;
        let until = t + params.t_inhibit;
        for (k, inh) in self.inhibited_until.iter_mut().enumerate() {
            if k != j {
                *inh = (*inh).max(until);
            }
        }
        self.skip_until = self
            .skip_until
            .max(t + params.t_refrac.min(params.t_inhibit));
        self.gate_until = self
            .gate_until
            .max(t + params.t_refrac.max(params.t_inhibit));
    }

    /// Lateral inhibition from a fire at `t` outside this population:
    /// every neuron is gated until `t + Tinhibit`. Idempotent.
    pub fn inhibit(&mut self, t: u32, params: &SnnParams) {
        let until = t + params.t_inhibit;
        for inh in &mut self.inhibited_until {
            *inh = (*inh).max(until);
        }
        self.skip_until = self.skip_until.max(until);
        self.gate_until = self.gate_until.max(until);
    }

    /// Stages every input event of the tick `t` at once: decays each
    /// un-gated neuron since its last update, adds the f64 weight columns
    /// in event order (`cols` yields one column per event, indexed by
    /// neuron, holding exact 8-bit values), and compares with
    /// `thresholds` once, at the end of the tick. The committed state is
    /// left untouched either way.
    ///
    /// Returns the number of un-gated neurons — the update-hook calls a
    /// [`scan`](LifState::scan) of each event would make — if no neuron
    /// crosses, ready for [`commit`](LifState::commit); `None` if one
    /// does, and the tick must be replayed event by event.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` or a column has fewer entries than the
    /// population.
    pub fn stage<'a>(
        &mut self,
        t: u32,
        lut: &[f64],
        thresholds: &[f64],
        cols: impl IntoIterator<Item = &'a [f64]>,
    ) -> Option<usize> {
        let n = self.potentials.len();
        let open = t >= self.gate_until;
        self.staged.clear();
        // Within the table, `decay_with_lut` is one multiply by
        // `lut[dt]`: a synced population shares that factor.
        let dt = self.last_update.first().map_or(0, |&u| t.saturating_sub(u));
        match lut.get(usize::try_from(dt).unwrap_or(usize::MAX)) {
            Some(_) if self.synced && dt == 0 => self.staged.extend_from_slice(&self.potentials),
            Some(&f) if self.synced => self.staged.extend(self.potentials.iter().map(|&v| v * f)),
            _ => {
                self.staged.extend(
                    self.potentials
                        .iter()
                        .zip(&self.last_update)
                        .map(|(&v, &u)| match t.saturating_sub(u) {
                            0 => v,
                            dt => decay_with_lut(lut, v, u64::from(dt)),
                        }),
                )
            }
        }
        // Gated neurons integrate too, into scratch entries that are
        // never compared or published: the add loop stays unmasked.
        for col in cols {
            for (v, &w) in self.staged.iter_mut().zip(&col[..n]) {
                *v += w;
            }
        }
        let thresholds = &thresholds[..n];
        if open {
            // A branchless fold rather than a short-circuiting `any`, so
            // the compare vectorizes: almost every tick is quiet.
            let mut crossed = false;
            for (&v, &th) in self.staged.iter().zip(thresholds) {
                crossed |= v >= th;
            }
            return (!crossed).then_some(n);
        }
        let mut ungated = 0;
        for (j, (v, th)) in self.staged.iter().zip(thresholds).enumerate() {
            if self.gated(j, t) {
                continue;
            }
            if v >= th {
                return None;
            }
            ungated += 1;
        }
        Some(ungated)
    }

    /// Publishes the tick `t` staged by a quiet [`stage`](LifState::stage):
    /// every un-gated neuron takes its staged potential and `t` as its
    /// last update. With nobody gated the two buffers swap.
    pub fn commit(&mut self, t: u32) {
        if t >= self.gate_until {
            std::mem::swap(&mut self.potentials, &mut self.staged);
            self.last_update.fill(t);
            self.synced = true;
            return;
        }
        self.synced = false;
        for j in 0..self.potentials.len() {
            if !self.gated(j, t) {
                self.potentials[j] = self.staged[j];
                self.last_update[j] = t;
            }
        }
    }

    /// Reverts the logged updates of neurons `from..`, popping them off
    /// `undo`. An undo log filled by one scan's update hook is in
    /// ascending neuron order, so those entries are its tail.
    pub fn revert(&mut self, undo: &mut Vec<Prior>, from: usize) {
        while let Some(&p) = undo.last() {
            if p.neuron < from {
                break;
            }
            self.potentials[p.neuron] = p.potential;
            self.last_update[p.neuron] = p.last_update;
            undo.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(t_inhibit: u32, t_refrac: u32) -> SnnParams {
        let mut p = SnnParams::for_neurons(3);
        p.t_inhibit = t_inhibit;
        p.t_refrac = t_refrac;
        p
    }

    #[test]
    fn scan_stops_at_the_first_crossing_and_resumes_past_it() {
        let mut lif = LifState::default();
        lif.reset(3);
        let lut = vec![1.0; 501];
        let thresholds = [1e9, 15.0, 15.0];
        let col = [10.0, 20.0, 30.0];
        let mut updates = Vec::new();
        let first = lif.scan(
            5,
            0,
            &lut,
            &thresholds,
            |j| col[j],
            |p, v| {
                updates.push((p.neuron, v));
            },
        );
        assert_eq!(first, Some(1));
        assert_eq!(updates, vec![(0, 10.0), (1, 20.0)]);
        assert_eq!(lif.potentials, vec![10.0, 20.0, 0.0], "neuron 2 untouched");
        // With Tinhibit = 0 the fire gates nobody else: resuming at the
        // next neuron reaches neuron 2, which fires on the same event.
        lif.fire(1, 5, &params(0, 20));
        assert!(!lif.skipping(5));
        assert_eq!(
            lif.scan(5, 2, &lut, &thresholds, |j| col[j], |_, _| {}),
            Some(2)
        );
    }

    #[test]
    fn fire_gates_the_population_and_opens_the_skip_window() {
        let mut lif = LifState::default();
        lif.reset(3);
        lif.potentials[1] = 99.0;
        lif.fire(1, 5, &params(5, 20));
        assert_eq!(lif.potentials, vec![0.0, 0.0, 0.0]);
        assert_eq!(lif.refractory_until, vec![0, 25, 0]);
        assert_eq!(lif.inhibited_until, vec![10, 0, 10]);
        assert!(lif.skipping(9) && !lif.skipping(10));
        let lut = vec![1.0; 501];
        assert_eq!(lif.scan(9, 0, &lut, &[0.0; 3], |_| 1.0, |_, _| {}), None);
        assert_eq!(
            lif.potentials,
            vec![0.0, 0.0, 0.0],
            "skipped scan is a no-op"
        );
    }

    #[test]
    fn undo_reverts_only_neurons_from_the_cut() {
        let mut lif = LifState::default();
        lif.reset(3);
        let lut = vec![1.0; 501];
        let mut undo = Vec::new();
        let col = [10.0, 20.0, 30.0];
        assert_eq!(
            lif.scan(5, 0, &lut, &[1e9; 3], |j| col[j], |p, _| undo.push(p)),
            None
        );
        assert_eq!(undo.len(), 3);
        lif.revert(&mut undo, 1);
        assert_eq!(lif.potentials, vec![10.0, 0.0, 0.0]);
        assert_eq!(lif.last_update, vec![5, 0, 0]);
        assert_eq!(undo.len(), 1);
        // Inhibition gates everyone; a repeat is a no-op.
        lif.inhibit(5, &params(5, 20));
        lif.inhibit(5, &params(5, 20));
        assert_eq!(lif.inhibited_until, vec![10, 10, 10]);
        assert_eq!(lif.skip_until, 10);
    }

    /// Six neurons with distinct potentials and last updates: neuron 1
    /// refractory until 12, neuron 4 inhibited until 9.
    fn gated_population() -> LifState {
        let mut lif = LifState::default();
        lif.reset(6);
        lif.potentials = vec![3.5, 80.0, 41.25, 0.0, 17.0, 120.5];
        lif.last_update = vec![0, 2, 1, 3, 2, 0];
        lif.refractory_until[1] = 12;
        lif.inhibited_until[4] = 9;
        lif.gate_until = 12;
        lif.synced = false;
        lif
    }

    const COLS: [[f64; 6]; 3] = [
        [10.0, 200.0, 7.0, 255.0, 1.0, 0.0],
        [0.0, 13.0, 99.0, 4.0, 250.0, 31.0],
        [66.0, 0.0, 0.0, 128.0, 9.0, 200.0],
    ];

    fn bits(lif: &LifState) -> (Vec<u64>, Vec<u32>) {
        let pots = lif.potentials.iter().map(|v| v.to_bits()).collect();
        (pots, lif.last_update.clone())
    }

    /// Runs the tick through one `scan` per event; returns the update
    /// hook's call count per event.
    fn scan_tick(lif: &mut LifState, t: u32, lut: &[f64], thresholds: &[f64]) -> Vec<usize> {
        COLS.iter()
            .map(|col| {
                let mut calls = 0;
                let hit = lif.scan(t, 0, lut, thresholds, |j| col[j], |_, _| calls += 1);
                assert_eq!(hit, None, "the tick must be quiet");
                calls
            })
            .collect()
    }

    #[test]
    fn a_quiet_staged_tick_equals_its_successive_scans() {
        let lut: Vec<f64> = (0..=40).map(|dt| (-f64::from(dt) / 7.0).exp()).collect();
        let thresholds = [1e9; 6];
        let mut staged = gated_population();
        let mut scanned = staged.clone();
        // t = 7: neurons 1 and 4 gated; t = 10: only neuron 1; t = 12
        // reaches `gate_until` (unmasked); t = 13 and 30 start synced
        // (one shared factor); t = 90 is 60 ms past the 40 ms table, so
        // the leak composes factors per neuron.
        for t in [7, 10, 12, 13, 30, 90] {
            let calls = scan_tick(&mut scanned, t, &lut, &thresholds);
            let cols = COLS.iter().map(|c| &c[..]);
            let ungated = staged.stage(t, &lut, &thresholds, cols);
            assert_eq!(ungated, Some(calls[0]), "t {t}: un-gated count");
            assert!(calls.iter().all(|&c| c == calls[0]));
            staged.commit(t);
            assert_eq!(bits(&staged), bits(&scanned), "t {t}");
        }
        assert!(staged.synced);
    }

    #[test]
    fn a_crossing_tick_stages_nothing() {
        let lut = vec![0.5; 13];
        // Neuron 2 crosses only at the tick's second event.
        let thresholds = [1e9, 1e9, 120.0, 1e9, 1e9, 1e9];
        let mut lif = gated_population();
        let before = lif.clone();
        let cols = COLS.iter().map(|c| &c[..]);
        assert_eq!(lif.stage(7, &lut, &thresholds, cols), None);
        lif.staged.clear();
        assert_eq!(lif, before, "committed state untouched");
        // Past `gate_until` the unmasked compare sees it too.
        let cols = COLS.iter().map(|c| &c[..]);
        assert_eq!(lif.stage(12, &lut, &thresholds, cols), None);
        lif.staged.clear();
        assert_eq!(lif, before);
        // Reaching the threshold exactly is a crossing, as in `scan`:
        // neuron 0 rests at 0 and gains 10 + 0 + 66 with no leak.
        let mut lif = LifState::default();
        lif.reset(6);
        let thresholds = [76.0, 1e9, 1e9, 1e9, 1e9, 1e9];
        let cols = COLS.iter().map(|c| &c[..]);
        assert_eq!(lif.stage(0, &[1.0], &thresholds, cols), None);
        assert_eq!(
            lif.scan(0, 0, &[1.0], &thresholds, |_| 76.0, |_, _| {}),
            Some(0)
        );
    }

    #[test]
    fn gate_until_bounds_every_gate() {
        let mut lif = LifState::default();
        lif.reset(3);
        lif.fire(0, 5, &params(3, 20));
        assert_eq!(lif.gate_until, 25);
        lif.inhibit(30, &params(3, 20));
        assert_eq!(lif.gate_until, 33);
        let bound = lif.refractory_until.iter().chain(&lif.inhibited_until);
        assert!(bound.into_iter().all(|&g| g <= lif.gate_until));
        lif.reset(3);
        assert_eq!((lif.gate_until, lif.synced), (0, true));
    }
}
