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
    }

    /// Whether an event at `t` falls in the skip window.
    pub fn skipping(&self, t: u32) -> bool {
        t < self.skip_until
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
    }

    /// Lateral inhibition from a fire at `t` outside this population:
    /// every neuron is gated until `t + Tinhibit`. Idempotent.
    pub fn inhibit(&mut self, t: u32, params: &SnnParams) {
        let until = t + params.t_inhibit;
        for inh in &mut self.inhibited_until {
            *inh = (*inh).max(until);
        }
        self.skip_until = self.skip_until.max(until);
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
}
