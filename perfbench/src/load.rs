//! The seeded open-loop arrival schedule.
//!
//! Independent users arrive as a Poisson process at a fixed rate: the
//! gaps between due times are exponential draws from one SplitMix64
//! stream, and every arrival also draws its model (the integer Zipf mix
//! the closed-loop generator uses: rank `r` weighted `1/(r+1)`) and its
//! test item. The schedule is a pure function of `(seed, rate)`, so a
//! run replays exactly, and the server sees the same requests whatever
//! the machine's speed — only *when* it answers them differs.

use nc_substrate::rng::SplitMix64;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, ns after the schedule starts.
    pub due_ns: u64,
    /// Zipf rank of the model it addresses (0 = hottest).
    pub model: usize,
    /// Test-set item it asks about.
    pub item: usize,
}

/// Integer Zipf cumulative table: rank `r` weighted `2^32/(r+1)`.
fn zipf_cumulative(models: usize) -> Vec<u64> {
    let mut total = 0u64;
    (1..=models)
        .map(|weight| {
            total += (1u64 << 32) / u64::try_from(weight).unwrap_or(u64::MAX);
            total
        })
        .collect()
}

/// An endless seeded arrival stream at a fixed rate.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: SplitMix64,
    mean_gap_ns: f64,
    clock_ns: f64,
    cumulative: Vec<u64>,
    items: usize,
}

impl Schedule {
    /// Arrivals at `rate` per second over `models` Zipf ranks and
    /// `items` test items. A rate of `f64::INFINITY` makes every
    /// arrival due at once (the saturation phase).
    pub fn new(schedule_seed: u64, rate: f64, models: usize, items: usize) -> Schedule {
        Schedule {
            rng: SplitMix64::new(schedule_seed),
            mean_gap_ns: 1e9 / rate,
            clock_ns: 0.0,
            cumulative: zipf_cumulative(models.max(1)),
            items: items.max(1),
        }
    }
}

impl Iterator for Schedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // Inverse-CDF exponential gap; `1 - u` is in (0, 1], so the log
        // is finite.
        let u = self.rng.next_unit();
        self.clock_ns += -(1.0 - u).ln() * self.mean_gap_ns;
        let total = self.cumulative.last().copied().unwrap_or(1);
        let draw = self.rng.next_below(total);
        let model = self
            .cumulative
            .iter()
            .position(|&edge| draw < edge)
            .unwrap_or(0);
        let item = self.rng.next_index(self.items);
        // Whole nanoseconds; the saturating float-to-int conversion
        // keeps an infinite rate at due time 0.
        let due_ns = nc_substrate::fixed::sat_u64_trunc(self.clock_ns);
        Some(Arrival {
            due_ns,
            model,
            item,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule() {
        let a: Vec<Arrival> = Schedule::new(11, 4000.0, 3, 200).take(500).collect();
        let b: Vec<Arrival> = Schedule::new(11, 4000.0, 3, 200).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a: Vec<Arrival> = Schedule::new(11, 4000.0, 3, 200).take(500).collect();
        let b: Vec<Arrival> = Schedule::new(12, 4000.0, 3, 200).take(500).collect();
        assert_ne!(a, b);
        let due = |s: &[Arrival]| s.iter().map(|x| x.due_ns).collect::<Vec<_>>();
        let items = |s: &[Arrival]| s.iter().map(|x| x.item).collect::<Vec<_>>();
        assert_ne!(due(&a), due(&b));
        assert_ne!(items(&a), items(&b));
    }

    #[test]
    fn schedule_has_the_offered_rate_and_the_zipf_mix() {
        let arrivals: Vec<Arrival> = Schedule::new(5, 10_000.0, 3, 200).take(20_000).collect();
        assert!(arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let span_s = arrivals.last().unwrap().due_ns as f64 / 1e9;
        let rate = arrivals.len() as f64 / span_s;
        assert!((rate - 10_000.0).abs() < 300.0, "rate {rate}");
        let mut per_model = [0usize; 3];
        for a in &arrivals {
            per_model[a.model] += 1;
        }
        // Weights 1 : 1/2 : 1/3 → shares 6/11, 3/11, 2/11.
        let share = per_model[0] as f64 / arrivals.len() as f64;
        assert!((share - 6.0 / 11.0).abs() < 0.02, "hot share {share}");
        assert!(per_model[0] > per_model[1] && per_model[1] > per_model[2]);
        assert!(arrivals.iter().all(|a| a.item < 200));
    }

    #[test]
    fn infinite_rate_makes_everything_due_at_once() {
        assert!(Schedule::new(3, f64::INFINITY, 3, 10)
            .take(100)
            .all(|a| a.due_ns == 0));
    }
}
