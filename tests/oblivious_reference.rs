//! The paper's oblivious protocols, and the two full-resolution resolvers
//! built on them, against a per-slot reference written from §1 and §3–§4.
//!
//! `RoundRobin`, `SelectAmongFirst`, `WaitAndGo`, `WakeupWithS`,
//! `WakeupWithK`, `FullResolution` and `RetiringRoundRobin` answer `act`,
//! `next_transmission` and `fill_tx_word` from one shared slot-to-position
//! mapping. The equivalence suites compare those three answers with each
//! other, so a bug in the shared mapping (the interleave parity, the gate's
//! origin or first position, the retirement) would show in none of them.
//! Here each protocol's transmit rule is restated from the paper with only
//! the global clock, `DoublingSchedule::transmits` and
//! `DoublingSchedule::next_boundary`, and every answer of sampled stations
//! is checked against it: `act` slot by slot, hints from increasing query
//! points, and tiles of varying width, each starting where the last one
//! ended or inside it (where a success closes a tile); a station without a
//! word of its own (`RetiringRoundRobin`) is checked through its hints
//! alone, which the engine fills its tiles from. Every station hears
//! its own success at a transmit slot mid-horizon: the resolvers go silent
//! for good there, the others carry on. Horizons run past two schedule
//! periods, where a station's walk switches to its per-period position
//! index.

use mac_sim::{Feedback, Protocol, Slot, StationId, TxHint, Until};
use selectors::math::log_n;
use std::sync::Arc;
use wakeup_core::family_provider::FamilyProvider;
use wakeup_core::select_among_first::DoublingSchedule;
use wakeup_core::{
    FullResolution, RetiringRoundRobin, RoundRobin, SelectAmongFirst, WaitAndGo, WakeupWithK,
    WakeupWithS,
};

/// A protocol's transmit rule, as §3–§4 state it. The two resolvers of §1
/// follow wait-and-go's and round-robin's rules until the station hears its
/// own success, and are silent after it.
#[derive(Clone, Copy, Debug)]
enum Rule {
    RoundRobin,
    SelectAmongFirst { s: Slot },
    WaitAndGo,
    WakeupWithS { s: Slot },
    WakeupWithK,
    FullResolution,
    RetiringRoundRobin,
}

impl Rule {
    /// Does a station fall silent for good once it hears its own success?
    fn retires(self) -> bool {
        matches!(self, Rule::FullResolution | Rule::RetiringRoundRobin)
    }
}

/// Tile widths in fill order: the engine's 8 → 64 ramp, then tiles cut
/// short by an arrival, a churn event or the slot cap.
const WIDTHS: [u32; 9] = [8, 16, 32, 64, 64, 5, 64, 1, 33];

struct Case {
    protocol: Box<dyn Protocol>,
    rule: Rule,
    n: u32,
    /// The doubling schedule the rule reads (unused by round-robin).
    schedule: Arc<DoublingSchedule>,
    /// Wake slots to check.
    sigmas: Vec<Slot>,
    /// Slots checked past each wake.
    horizon: u64,
}

impl Case {
    /// Does station `id`, woken at `sigma`, transmit at slot `t ≥ sigma`?
    fn transmits(&self, id: u32, sigma: Slot, t: Slot) -> bool {
        let sched = &self.schedule;
        // Round-robin position r belongs to station r mod n.
        let owns = |r: u64| r % u64::from(self.n) == u64::from(id);
        match self.rule {
            Rule::RoundRobin | Rule::RetiringRoundRobin => owns(t),
            // Only stations woken at s take part; positions count from s.
            Rule::SelectAmongFirst { s } => sigma == s && sched.transmits(id, t - s),
            // Wait for the first family boundary at or after the wake, then
            // follow the schedule on the global clock.
            Rule::WaitAndGo | Rule::FullResolution => {
                t >= sched.next_boundary(sigma) && sched.transmits(id, t)
            }
            // Round-robin on even slots; on odd slots select-among-the-first,
            // whose position is the number of odd slots in [s, t).
            Rule::WakeupWithS { .. } if t.is_multiple_of(2) => owns(t / 2),
            Rule::WakeupWithS { s } => sigma == s && sched.transmits(id, t / 2 - s / 2),
            // Round-robin on even slots; on odd slots wait-and-go at position
            // (t − 1)/2, gated at the boundary after the position of the
            // first odd slot at or after the wake, ⌊σ/2⌋.
            Rule::WakeupWithK if t.is_multiple_of(2) => owns(t / 2),
            Rule::WakeupWithK => {
                let p = (t - 1) / 2;
                p >= sched.next_boundary(sigma / 2) && sched.transmits(id, p)
            }
        }
    }

    /// Does station `id`, woken at `sigma` and told of its own success at
    /// slot `won`, transmit at slot `t ≥ sigma`?
    fn sends(&self, id: u32, sigma: Slot, won: Option<Slot>, t: Slot) -> bool {
        let retired = self.rule.retires() && won.is_some_and(|r| t > r);
        !retired && self.transmits(id, sigma, t)
    }

    /// The first slot `≥ after` at which the station transmits, or `None`
    /// if it is silent over a window of several periods (hence forever).
    fn next(&self, id: u32, sigma: Slot, won: Option<Slot>, after: Slot) -> Option<Slot> {
        let window = 8 * (self.schedule.period() + u64::from(self.n));
        (after..after + window).find(|&t| self.sends(id, sigma, won, t))
    }

    fn check(&self, id: u32, sigma: Slot) {
        let name = self.protocol.name();
        let ctx = format!("{name} id={id} σ={sigma} ({:?})", self.rule);
        let end = sigma + self.horizon;
        let fresh = || {
            let mut station = self.protocol.station(StationId(id), 0);
            station.wake(sigma);
            station
        };
        // The station's own success: its first transmission past
        // mid-horizon. Any other station's success is heard too, and must
        // change nothing.
        let won = (sigma + self.horizon / 2..end).find(|&t| self.transmits(id, sigma, t));
        let own = Feedback::Heard(StationId(id));
        let other = Feedback::Heard(StationId((id + 1) % self.n));

        let mut station = fresh();
        for t in sigma..end {
            let want = self.sends(id, sigma, won, t);
            assert_eq!(station.act(t).is_transmit(), want, "act at {t}: {ctx}");
            let fb = match want {
                _ if won == Some(t) => own,
                true => Feedback::Noise,
                false => other,
            };
            station.feedback(t, fb);
        }

        let mut station = fresh();
        let mut after = sigma;
        let mut step = 0u64;
        let mut told = false;
        while after < end {
            if let Some(r) = won.filter(|&r| !told && after > r) {
                station.feedback(r, own);
                told = true;
            }
            let want = match self.next(id, sigma, won, after) {
                Some(t) => TxHint::At(t, Until::Forever),
                None => TxHint::Never(Until::Forever),
            };
            let got = station.next_transmission(after);
            assert_eq!(got, want, "hint from {after}: {ctx}");
            // Hop past the hinted slot on every other query and step a few
            // slots on the rest, so both hit and mid-gap points are queried.
            step += 1;
            after = match got {
                TxHint::At(t, _) if step.is_multiple_of(2) => t + 1,
                TxHint::At(..) => after + 1 + step % 5,
                _ => break,
            };
        }

        // Tiles as the engine asks for them: a tile ends early at a
        // success, and the next one starts right after it, inside the old
        // tile. At the station's own success it retires.
        let mut station = fresh();
        let (mut base, mut step) = (sigma, 0u64);
        let mut told = false;
        while base < end {
            let width = WIDTHS[step as usize % WIDTHS.len()];
            let tile_end = base + u64::from(width);
            // A fill plans from what the station has heard so far: bits
            // past its own success are void, by the word's scope.
            let heard = won.filter(|_| told);
            let want = (0..u64::from(width))
                .filter(|&j| self.sends(id, sigma, heard, base + j))
                .fold(0u64, |w, j| w | 1 << j);
            let until = if self.rule.retires() && !told {
                Until::NextSuccess
            } else {
                Until::Forever
            };
            // A station without a word of its own is filled by the engine
            // from its hints, checked above.
            if let Some(got) = station.fill_tx_word(base, width) {
                let mask = u64::MAX >> (64 - width);
                assert_eq!(
                    (got.bits & mask, got.until),
                    (want, until),
                    "tile [{base}, {tile_end}): {ctx}"
                );
            }
            base = match won.filter(|&r| !told && (base..tile_end).contains(&r)) {
                Some(r) => {
                    station.feedback(r, own);
                    told = true;
                    r + 1
                }
                // Another station's success inside the tile.
                None if step % 2 == 1 => base + 1 + (7 * step) % u64::from(width),
                None => tile_end,
            };
            step += 1;
        }
    }
}

fn cases() -> Vec<Case> {
    let n = 40u32;
    let k = 8u32;
    let provider = FamilyProvider::random_with_seed(21);
    let wag = WaitAndGo::new(n, k, provider);
    let bounded = Arc::clone(wag.schedule());
    let full = Arc::new(DoublingSchedule::new(&provider, n, log_n(u64::from(n))));
    // Wakes inside the second family, on its boundary, one slot before the
    // period wraps, and at 0, in the positions of the doubling track.
    let (z, off) = (bounded.period(), bounded.offsets()[1]);
    let positions = [0, off - 1, off, off + 1, off + 2, z - 1];
    let (even, odd) = (6, 11);
    // Past two periods of the doubling track, in slots.
    let alone = |sched: &DoublingSchedule| 2 * sched.period() + 64;
    let interleaved = |sched: &DoublingSchedule| 4 * sched.period() + 2 * u64::from(n) + 64;
    let mut cases = vec![
        Case {
            protocol: Box::new(RoundRobin::new(n)),
            rule: Rule::RoundRobin,
            n,
            schedule: Arc::clone(&bounded),
            sigmas: vec![0, odd],
            horizon: 3 * u64::from(n) + 64,
        },
        Case {
            protocol: Box::new(wag),
            rule: Rule::WaitAndGo,
            n,
            schedule: Arc::clone(&bounded),
            sigmas: positions.to_vec(),
            horizon: alone(&bounded),
        },
        Case {
            protocol: Box::new(FullResolution::new(n, k, provider)),
            rule: Rule::FullResolution,
            n,
            schedule: Arc::clone(&bounded),
            sigmas: positions.to_vec(),
            horizon: alone(&bounded),
        },
        Case {
            protocol: Box::new(RetiringRoundRobin::new(n)),
            rule: Rule::RetiringRoundRobin,
            n,
            schedule: Arc::clone(&bounded),
            sigmas: vec![0, odd],
            horizon: 3 * u64::from(n) + 64,
        },
        Case {
            protocol: Box::new(WakeupWithK::new(n, k, provider)),
            rule: Rule::WakeupWithK,
            n,
            schedule: Arc::clone(&bounded),
            // Both slots of each position: the odd one is the position's own
            // slot, the even one precedes it.
            sigmas: positions.iter().flat_map(|&p| [2 * p, 2 * p + 1]).collect(),
            horizon: interleaved(&bounded),
        },
    ];
    for s in [even, odd] {
        cases.push(Case {
            protocol: Box::new(SelectAmongFirst::new(n, s, provider)),
            rule: Rule::SelectAmongFirst { s },
            n,
            schedule: Arc::clone(&full),
            sigmas: vec![s, s + 1],
            horizon: alone(&full),
        });
        cases.push(Case {
            protocol: Box::new(WakeupWithS::new(n, s, provider)),
            rule: Rule::WakeupWithS { s },
            n,
            schedule: Arc::clone(&full),
            sigmas: vec![s, s + 1],
            horizon: interleaved(&full),
        });
    }
    cases
}

#[test]
fn oblivious_stations_follow_the_papers_transmit_rules() {
    // Every fourth id per wake, from a start that moves with the case and
    // the wake, so each id residue mod 4 is covered.
    for (i, case) in cases().iter().enumerate() {
        for (j, &sigma) in case.sigmas.iter().enumerate() {
            for id in ((i + j) as u32 % 4..case.n).step_by(4) {
                case.check(id, sigma);
            }
        }
    }
}
