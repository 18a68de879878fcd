//! Randomized wake-up protocols (§6) and classical randomized baselines.
//!
//! * [`Rpd`] — *Repeated Probability Decrease* (Jurdziński & Stachowiak):
//!   with `ℓ = 2⌈log n⌉`, a station transmits in the `a`-th slot after its
//!   wake-up with probability `2^{-(1 + (a mod ℓ))}`. The probability sweeps
//!   all scales `1/2 … 2^{-2 log n}` every `ℓ` slots, so whatever the number
//!   `m ≤ n` of contenders, each period contains slots where the total
//!   transmission probability is `Θ(1)`; expected wake-up time `O(log n)`.
//! * [`RpdK`] — the same protocol with `ℓ = 2⌈log k⌉` when `k` is known;
//!   expected time `O(log k)`, matching the Kushilevitz–Mansour `Ω(log k)`
//!   lower bound (§6).
//! * [`Aloha`] — slotted ALOHA with fixed probability `1/k` (needs `k`):
//!   the classical memoryless baseline, expected `O(k)` at full contention
//!   but `Θ(e)`-factor optimal when exactly `k` stations contend.
//! * [`BinaryExponentialBackoff`] — Ethernet-style BEB. **Feedback caveat**:
//!   classical BEB requires transmitters to detect their own collisions; the
//!   paper's channel offers no such feedback. We grant BEB the
//!   transmitter-side detection it classically assumes (a transmitter that
//!   does not hear its own message back knows it collided) — see the module
//!   tests; this makes BEB an *optimistic* baseline.

use mac_sim::{Action, Feedback, Protocol, Slot, Station, StationId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use selectors::math::log_n;

/// Repeated Probability Decrease with period `ℓ = 2⌈log n⌉`.
#[derive(Clone, Copy, Debug)]
pub struct Rpd {
    n: u32,
    period: u32,
}

impl Rpd {
    /// RPD for `n` stations (`ℓ = 2·max(1, ⌈log₂ n⌉)`).
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        Rpd {
            n,
            period: 2 * log_n(u64::from(n)),
        }
    }

    /// The probability period `ℓ`.
    pub fn period(&self) -> u32 {
        self.period
    }
}

/// RPD with the period tuned by known `k`: `ℓ = 2⌈log k⌉`.
#[derive(Clone, Copy, Debug)]
pub struct RpdK {
    n: u32,
    k: u32,
    period: u32,
}

impl RpdK {
    /// RPD-k for `n` stations with contention bound `k`.
    pub fn new(n: u32, k: u32) -> Self {
        assert!(n >= 1);
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        RpdK {
            n,
            k,
            period: 2 * log_n(u64::from(k)),
        }
    }

    /// The probability period `ℓ`.
    pub fn period(&self) -> u32 {
        self.period
    }
}

struct RpdStation {
    rng: ChaCha8Rng,
    period: u32,
    sigma: Slot,
}

impl Station for RpdStation {
    fn wake(&mut self, sigma: Slot) {
        self.sigma = sigma;
    }

    fn act(&mut self, t: Slot) -> Action {
        let age = t - self.sigma;
        let exponent = 1 + (age % u64::from(self.period)) as u32;
        // Transmit with probability 2^{-exponent}.
        let draw: u64 = self.rng.gen();
        Action::from_bool(exponent < 64 && draw >> (64 - exponent) == 0)
    }
}

impl Protocol for Rpd {
    fn station(&self, _id: StationId, seed: u64) -> Box<dyn Station> {
        Box::new(RpdStation {
            rng: ChaCha8Rng::seed_from_u64(seed),
            period: self.period,
            sigma: 0,
        })
    }

    fn name(&self) -> String {
        format!("rpd(n={}, ℓ={})", self.n, self.period)
    }
}

impl Protocol for RpdK {
    fn station(&self, _id: StationId, seed: u64) -> Box<dyn Station> {
        Box::new(RpdStation {
            rng: ChaCha8Rng::seed_from_u64(seed),
            period: self.period,
            sigma: 0,
        })
    }

    fn name(&self) -> String {
        format!("rpd-k(n={}, k={}, ℓ={})", self.n, self.k, self.period)
    }
}

/// Slotted ALOHA: transmit with fixed probability `1/k` in every slot.
#[derive(Clone, Copy, Debug)]
pub struct Aloha {
    n: u32,
    k: u32,
}

impl Aloha {
    /// ALOHA with transmission probability `1/k`.
    pub fn new(n: u32, k: u32) -> Self {
        assert!(n >= 1);
        assert!((1..=n).contains(&k), "k={k} outside 1..={n}");
        Aloha { n, k }
    }
}

struct AlohaStation {
    rng: ChaCha8Rng,
    p: f64,
}

impl Station for AlohaStation {
    fn wake(&mut self, _sigma: Slot) {}
    fn act(&mut self, _t: Slot) -> Action {
        Action::from_bool(self.rng.gen_bool(self.p))
    }
}

impl Protocol for Aloha {
    fn station(&self, _id: StationId, seed: u64) -> Box<dyn Station> {
        Box::new(AlohaStation {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p: 1.0 / f64::from(self.k),
        })
    }

    fn name(&self) -> String {
        format!("aloha(n={}, p=1/{})", self.n, self.k)
    }
}

/// Ethernet-style binary exponential backoff.
///
/// A station attempts a transmission; if its attempt slot passes without it
/// hearing its own message (collision), it doubles its contention window
/// (capped at `max_window`) and schedules a uniformly random retry inside
/// the new window.
#[derive(Clone, Copy, Debug)]
pub struct BinaryExponentialBackoff {
    n: u32,
    /// Cap on the contention window (default `1024`).
    pub max_window: u64,
}

impl BinaryExponentialBackoff {
    /// BEB over `n` stations with the default window cap.
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        BinaryExponentialBackoff {
            n,
            max_window: 1024,
        }
    }

    /// Override the maximum contention window.
    pub fn with_max_window(mut self, w: u64) -> Self {
        assert!(w >= 2);
        self.max_window = w;
        self
    }
}

struct BebStation {
    rng: ChaCha8Rng,
    window: u64,
    max_window: u64,
    next_attempt: Slot,
    attempted_at: Option<Slot>,
}

impl Station for BebStation {
    fn wake(&mut self, sigma: Slot) {
        // First attempt immediately on wake (classical behaviour).
        self.window = 2;
        self.next_attempt = sigma;
    }

    fn act(&mut self, t: Slot) -> Action {
        if t == self.next_attempt {
            self.attempted_at = Some(t);
            Action::Transmit
        } else {
            Action::Listen
        }
    }

    fn feedback(&mut self, t: Slot, fb: Feedback) {
        if self.attempted_at == Some(t) {
            // Our attempt slot: anything but hearing our own message back
            // means the attempt failed (transmitter-side collision
            // detection granted to this baseline).
            let failed = !matches!(fb, Feedback::Heard(_));
            if failed {
                self.window = (self.window * 2).min(self.max_window);
                self.next_attempt = t + 1 + self.rng.gen_range(0..self.window);
            }
            self.attempted_at = None;
        }
    }
}

impl Protocol for BinaryExponentialBackoff {
    fn station(&self, _id: StationId, seed: u64) -> Box<dyn Station> {
        Box::new(BebStation {
            rng: ChaCha8Rng::seed_from_u64(seed),
            window: 2,
            max_window: self.max_window,
            next_attempt: 0,
            attempted_at: None,
        })
    }

    fn name(&self) -> String {
        format!("beb(n={}, cap={})", self.n, self.max_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::prelude::*;

    fn ids(v: &[u32]) -> Vec<StationId> {
        v.iter().copied().map(StationId).collect()
    }

    fn mean_latency(p: &dyn Protocol, n: u32, pattern: &WakePattern, runs: u64) -> f64 {
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(100_000));
        let mut total = 0.0;
        for seed in 0..runs {
            let out = sim.run(p, pattern, seed).unwrap();
            total += out.latency().expect("randomized protocol must solve") as f64;
        }
        total / runs as f64
    }

    #[test]
    fn rpd_period_formula() {
        assert_eq!(Rpd::new(1024).period(), 20);
        assert_eq!(Rpd::new(2).period(), 2);
        assert_eq!(RpdK::new(1024, 16).period(), 8);
    }

    #[test]
    fn rpd_solves_and_is_fast() {
        let n = 256u32;
        let pattern = WakePattern::simultaneous(&ids(&[4, 77, 130, 200]), 0).unwrap();
        let mean = mean_latency(&Rpd::new(n), n, &pattern, 30);
        // Expected O(log n): generous envelope of 40·log n.
        assert!(
            mean < 40.0 * f64::from(log_n(u64::from(n))),
            "RPD mean latency {mean}"
        );
    }

    #[test]
    fn rpd_k_beats_rpd_for_small_k() {
        // With k = 2 known, the period is much shorter, so the good
        // probability scale recurs sooner: expect a clear speedup.
        let n = 1 << 14;
        let pattern = WakePattern::simultaneous(&ids(&[100, 9000]), 0).unwrap();
        let rpd = mean_latency(&Rpd::new(n), n, &pattern, 60);
        let rpdk = mean_latency(&RpdK::new(n, 2), n, &pattern, 60);
        assert!(
            rpdk < rpd,
            "RPD-k ({rpdk:.1}) should beat RPD ({rpdk:.1} vs {rpd:.1}) at k=2, n=2^14"
        );
    }

    #[test]
    fn aloha_solves_at_design_contention() {
        let n = 64u32;
        let k = 8;
        let chosen: Vec<StationId> = (0..k).map(|i| StationId(i * 8)).collect();
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let mean = mean_latency(&Aloha::new(n, k), n, &pattern, 30);
        // With m = k contenders at p = 1/k, success probability per slot is
        // m·p·(1-p)^{m-1} ≈ e^{-1}, so the mean should be around e ≈ 2.7.
        assert!(mean < 15.0, "ALOHA mean latency {mean}");
    }

    #[test]
    fn beb_resolves_a_burst() {
        let n = 64u32;
        let chosen: Vec<StationId> = (0..8).map(StationId).collect();
        let pattern = WakePattern::simultaneous(&chosen, 0).unwrap();
        let mean = mean_latency(&BinaryExponentialBackoff::new(n), n, &pattern, 30);
        assert!(mean < 200.0, "BEB mean latency {mean}");
    }

    #[test]
    fn beb_single_station_wins_instantly() {
        let n = 16u32;
        let sim = Simulator::new(SimConfig::new(n));
        let pattern = WakePattern::simultaneous(&ids(&[7]), 42).unwrap();
        let out = sim
            .run(&BinaryExponentialBackoff::new(n), &pattern, 0)
            .unwrap();
        assert_eq!(out.latency(), Some(0));
    }

    #[test]
    fn rpd_latency_grows_with_log_n_shape() {
        // Mean latency at k=2 should grow no faster than ~log n.
        let pattern_small = WakePattern::simultaneous(&ids(&[1, 50]), 0).unwrap();
        let pattern_large = WakePattern::simultaneous(&ids(&[1, 50]), 0).unwrap();
        let small = mean_latency(&Rpd::new(64), 64, &pattern_small, 40);
        let large = mean_latency(&Rpd::new(4096), 4096, &pattern_large, 40);
        // n grew 64×; a log-shaped latency should grow ≤ ~4× (with slack).
        assert!(
            large < small * 8.0 + 20.0,
            "RPD scaling suspicious: {small:.1} → {large:.1}"
        );
    }

    #[test]
    fn randomized_runs_depend_on_run_seed() {
        let n = 64u32;
        let pattern = WakePattern::simultaneous(&ids(&[0, 1, 2, 3]), 0).unwrap();
        let sim = Simulator::new(SimConfig::new(n).with_max_slots(100_000));
        let a = sim.run(&Rpd::new(n), &pattern, 1).unwrap();
        let b = sim.run(&Rpd::new(n), &pattern, 1).unwrap();
        assert_eq!(a.first_success, b.first_success, "same seed must agree");
    }

    #[test]
    fn staggered_arrivals_are_handled() {
        let n = 128u32;
        let pattern = WakePattern::staggered(&ids(&[3, 30, 90]), 10, 17).unwrap();
        for p in [
            &Rpd::new(n) as &dyn Protocol,
            &RpdK::new(n, 4),
            &Aloha::new(n, 4),
            &BinaryExponentialBackoff::new(n),
        ] {
            let sim = Simulator::new(SimConfig::new(n).with_max_slots(100_000));
            let out = sim.run(p, &pattern, 3).unwrap();
            assert!(out.solved(), "{} failed", p.name());
        }
    }
}
