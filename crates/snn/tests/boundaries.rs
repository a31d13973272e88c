//! Boundary tests for the WTA windows: `Tinhibit = 0` lets several
//! neurons fire on one input event, `Trefrac = 0` lets a neuron fire
//! again within its own millisecond. The reference entry points
//! (`present`, `present_traced`, `present_learn`) are pinned as literals
//! so a change to the event loop cannot move them silently.

use nc_snn::{CodingScheme, SnnNetwork, SnnParams};

/// FNV-1a over 64-bit words: a compact, order-sensitive digest.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn fires_digest(fires: &[(u32, usize)]) -> u64 {
    fnv(fires.iter().flat_map(|&(t, j)| [u64::from(t), j as u64]))
}

fn potentials_digest(potentials: &[f64]) -> u64 {
    fnv(potentials.iter().map(|v| v.to_bits()))
}

/// A 20-neuron net with a low threshold, so presentations fire often.
fn net(t_inhibit: u32, t_refrac: u32) -> SnnNetwork {
    let mut params = SnnParams::for_neurons(20);
    params.initial_threshold = 600.0;
    params.t_inhibit = t_inhibit;
    params.t_refrac = t_refrac;
    SnnNetwork::with_coding(48, 10, params, CodingScheme::PoissonRate, 0x5EED)
}

/// A deterministic non-uniform test image.
fn pixels(salt: u64) -> Vec<u8> {
    (0..48u64)
        .map(|i| {
            let x = i
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(97));
            u8::try_from((x >> 3) & 0xFF).unwrap()
        })
        .collect()
}

/// `(Tinhibit, Trefrac)` boundary settings: several fires per event,
/// re-firing within a millisecond, and both at once.
const WINDOWS: [(u32, u32); 3] = [(0, 20), (5, 0), (0, 0)];

#[test]
fn present_and_present_traced_are_pinned_at_zero_windows() {
    // (fires, fires digest, potentials digest, trace samples, samples digest)
    type Row = (usize, u64, u64, usize, u64);
    #[rustfmt::skip]
    const PINNED: [[Row; 3]; 3] = [
        [
            (355, 0x86f774a78f889d7f, 0x81b169c331cabfa5, 1645, 0x8358c4147c12a233),
            (359, 0xd135317cec552505, 0x81b169c331cabfa5, 1652, 0x8df0db63825172af),
            (347, 0xa0a89891afad6f0f, 0x75ab8cd71aea2092, 1610, 0x307289550ab098fb),
        ],
        [
            (79, 0x7c35a2262a8e3f9d, 0xa53c99a5641ccf46, 430, 0x0b931f070ff1fe28),
            (81, 0x5c4544caba779ae2, 0xec9e5e47ff50296e, 475, 0x028a185191550210),
            (79, 0x2ddddaa2a86d6303, 0x1a2107c97c11937b, 464, 0xfbe8d1785cb07957),
        ],
        [
            (1049, 0x123dfa7aaa050239, 0x8a7d0ae943d4dc4f, 4840, 0x5a7bd409962b8c40),
            (1073, 0x3417ce3ec087cd39, 0xa7741c10b4871f48, 4960, 0xb9f40946c5fcf283),
            (1074, 0x97a30f86067e318d, 0xf4ab0c205654be7f, 4960, 0xd86b210e3c208e97),
        ],
    ];
    for (&(t_inhibit, t_refrac), rows) in WINDOWS.iter().zip(&PINNED) {
        let mut snn = net(t_inhibit, t_refrac);
        let mut traced = snn.clone();
        for (pseed, &(fires, fd, pd, samples, sd)) in (0u64..).zip(rows) {
            let label = format!("Tinhibit {t_inhibit} Trefrac {t_refrac} p{pseed}");
            let p = snn.present(&pixels(pseed), pseed);
            if t_inhibit == 0 {
                assert!(
                    p.fires.windows(2).any(|w| w[0].0 == w[1].0),
                    "{label}: no same-millisecond fires"
                );
            }
            assert_eq!(p.fires.len(), fires, "{label}");
            assert_eq!(fires_digest(&p.fires), fd, "{label}");
            assert_eq!(potentials_digest(&p.potentials), pd, "{label}");
            let trace = traced.present_traced(&pixels(pseed), pseed);
            assert_eq!(trace.outcome(), Some(&p), "{label}");
            let s = trace.potential_samples();
            assert_eq!(s.len(), samples, "{label}");
            assert_eq!(
                fnv(s
                    .iter()
                    .flat_map(|&(j, t, v)| [j as u64, u64::from(t), v.to_bits()])),
                sd,
                "{label}"
            );
        }
    }
}

#[test]
fn present_learn_is_pinned_at_zero_windows() {
    // (fires over six presentations, fires digest, learned weights digest)
    const PINNED: [(usize, u64, u64); 3] = [
        (2067, 0x87a0150e9c45a292, 0x42823848305ec16a),
        (472, 0x8ad954a7abe03167, 0xd60ca2a55e58f1bf),
        (5045, 0x291392d030ef93b3, 0x50310ddc6f08e9d8),
    ];
    for (&(t_inhibit, t_refrac), &(fires, fd, wd)) in WINDOWS.iter().zip(&PINNED) {
        let mut snn = net(t_inhibit, t_refrac);
        let mut all = Vec::new();
        for pseed in 0..6u64 {
            all.extend(snn.present_learn(&pixels(pseed), pseed).fires);
        }
        let label = format!("Tinhibit {t_inhibit} Trefrac {t_refrac}");
        assert_eq!(all.len(), fires, "{label}");
        assert_eq!(fires_digest(&all), fd, "{label}");
        assert_eq!(
            fnv(snn.weights().iter().map(|&w| u64::from(w))),
            wd,
            "{label}"
        );
    }
}
