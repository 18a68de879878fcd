//! `wakeup(n)`, Scenario C's protocol, against a per-slot reference written
//! from §5.1.
//!
//! `WakeupN`'s station answers `act`, `next_transmission` and
//! `fill_tx_word`, and its class answers `act` and `next_transmission`, from
//! one mapping of a slot to its place on the station's walk. The
//! equivalence suites compare those answers with each other, so a bug in
//! that mapping (the window wait, a row boundary, the end of the scan) would
//! show in none of them. Here the transmit rule is restated from the paper
//! with only the global clock, `WakingMatrix::member`, `dwell`, `window` and
//! `rows`, and every answer is checked against it: a station's `act` slot by
//! slot, its hints from increasing query points, and its tiles of varying
//! width, each starting where the last one ended or inside it; a class's
//! tally slot by slot and its hints against its members' rule, with one
//! member leaving mid-walk. Wakes fall on slot 0, inside a window and on a
//! window boundary, and horizons run past the end of the scan, after which
//! the paper's protocol has ended and the station is silent for good.

use mac_sim::{Members, Protocol, Slot, StationId, TxHint, TxTally, Until};
use std::sync::Arc;
use wakeup_core::{MatrixParams, WakeupN, WakingMatrix};

/// Tile widths in fill order: the engine's 8 → 64 ramp, then tiles cut
/// short by an arrival, a churn event or the slot cap.
const WIDTHS: [u32; 9] = [8, 16, 32, 64, 64, 5, 64, 1, 33];

/// The §5.1 walk of a station woken at `sigma`: wait for the next window
/// boundary µ(σ) = ⌈σ/W⌉·W, then dwell m_i slots in row i for i = 1..log n,
/// row i on the offsets [Σ_{r<i} m_r, Σ_{r≤i} m_r) past µ(σ), transmitting
/// at slot t iff u ∈ M_{i, t mod ℓ}; silent from µ(σ) + Σ m_r on.
struct Walk<'a> {
    m: &'a WakingMatrix,
    mu: Slot,
}

impl<'a> Walk<'a> {
    fn new(m: &'a WakingMatrix, sigma: Slot) -> Self {
        let w = u64::from(m.window());
        Walk {
            m,
            mu: sigma.div_ceil(w) * w,
        }
    }

    /// The first slot after the scan.
    fn end(&self) -> Slot {
        self.mu + (1..=self.m.rows()).map(|i| self.m.dwell(i)).sum::<u64>()
    }

    /// The row the station dwells in at slot `t`, if any.
    fn row(&self, t: Slot) -> Option<u32> {
        if t < self.mu {
            return None; // waiting for the window boundary
        }
        let mut start = self.mu;
        for i in 1..=self.m.rows() {
            let end = start + self.m.dwell(i);
            if t < end {
                return Some(i);
            }
            start = end;
        }
        None // the scan is over
    }

    fn transmits(&self, u: u32, t: Slot) -> bool {
        self.row(t).is_some_and(|i| self.m.member(i, t, u))
    }
}

/// A transmit vector over `[sigma, sigma + len)`, with the first
/// transmission at or after a query point.
struct Sends {
    sigma: Slot,
    bits: Vec<bool>,
}

impl Sends {
    fn end(&self) -> Slot {
        self.sigma + self.bits.len() as u64
    }

    fn at(&self, t: Slot) -> bool {
        self.bits[(t - self.sigma) as usize]
    }

    /// The first transmission at or after `after`; `None` past the last one
    /// (the vector runs past the end of the scan).
    fn next(&self, after: Slot) -> Option<Slot> {
        (after..self.end()).find(|&t| self.at(t))
    }
}

/// Check one hint from `after` against the reference, and pick the next
/// query point (`None` once the hint says "never again"). Query points
/// hop past a hinted slot on every other step and stop short of it on the
/// rest, and land on or inside a proven-silent stretch alike.
fn check_hint(got: TxHint, sends: &Sends, after: Slot, step: u64, ctx: &str) -> Option<Slot> {
    let want = sends.next(after);
    match got {
        TxHint::At(t, Until::Forever) => {
            assert_eq!(Some(t), want, "hint from {after}: {ctx}");
            Some(if step.is_multiple_of(2) {
                t + 1
            } else {
                after + 1 + step % 5
            })
        }
        TxHint::Never(Until::Slot(b)) => {
            assert!(b > after, "bound {b} not past {after}: {ctx}");
            assert!(
                want.is_none_or(|t| t >= b),
                "hint from {after} claims silence up to {b}, but the station sends at {want:?}: {ctx}"
            );
            Some(if step.is_multiple_of(3) {
                after + 1 + (b - after - 1) / 2
            } else {
                b
            })
        }
        TxHint::Never(Until::Forever) => {
            assert_eq!(want, None, "hint from {after} says never: {ctx}");
            None
        }
        other => panic!("unexpected hint {other:?} from {after}: {ctx}"),
    }
}

struct Case {
    protocol: WakeupN,
    /// Stations checked alone.
    ids: Vec<u32>,
    /// Member sets checked as one class.
    classes: Vec<Vec<(u32, u32)>>,
    /// Wake slots to check.
    sigmas: Vec<Slot>,
}

impl Case {
    /// A case over `params`, woken at slot 0, inside a window (two ways),
    /// on a window boundary and further out.
    fn new(params: MatrixParams, ids: Vec<u32>, classes: Vec<Vec<(u32, u32)>>) -> Self {
        let protocol = WakeupN::new(params);
        let w = u64::from(protocol.matrix().window());
        Case {
            protocol,
            ids,
            classes,
            sigmas: vec![0, 1, w, 2 * w - 1, 5 * w + 1],
        }
    }

    /// The protocol's name, and whether its matrix sweeps the density.
    fn label(&self) -> String {
        let sweep = self.protocol.matrix().rho(1) == 1;
        format!("{} sweep={sweep}", self.protocol.name())
    }

    /// The reference transmit vector of `ids` woken at `sigma`, from
    /// `sigma` to a few windows past the end of the scan: one vector per
    /// id, and their union.
    fn sends(&self, ids: &[u32], sigma: Slot) -> (Vec<Sends>, Sends) {
        let m = self.protocol.matrix();
        let walk = Walk::new(m, sigma);
        let len = (walk.end() + 3 * u64::from(m.window()) + 70 - sigma) as usize;
        let each: Vec<Sends> = ids
            .iter()
            .map(|&u| Sends {
                sigma,
                bits: (0..len)
                    .map(|j| walk.transmits(u, sigma + j as u64))
                    .collect(),
            })
            .collect();
        let any = Sends {
            sigma,
            bits: (0..len).map(|j| each.iter().any(|s| s.bits[j])).collect(),
        };
        (each, any)
    }

    fn check_station(&self, id: u32, sigma: Slot) {
        let ctx = format!("{} id={id} σ={sigma}", self.label());
        let (_, sends) = self.sends(&[id], sigma);
        let end = sends.end();
        let fresh = || {
            let mut station = self.protocol.station(StationId(id), 0);
            station.wake(sigma);
            station
        };

        let mut station = fresh();
        for t in sigma..end {
            let got = station.act(t).is_transmit();
            assert_eq!(got, sends.at(t), "act at {t}: {ctx}");
        }

        let mut station = fresh();
        let (mut after, mut step) = (sigma, 0u64);
        while after < end {
            let got = station.next_transmission(after);
            step += 1;
            match check_hint(got, &sends, after, step, &ctx) {
                Some(next) => after = next,
                None => break,
            }
        }
        assert!(after < end, "no `Never(Forever)` past the scan: {ctx}");

        // Tiles as the engine asks for them: the next one starts where the
        // last one ended or, after a success inside it, right past that.
        let mut station = fresh();
        let (mut base, mut step) = (sigma, 0u64);
        while base < end {
            let width = WIDTHS[step as usize % WIDTHS.len()];
            let tile_end = base + u64::from(width);
            let want = (0..u64::from(width))
                .filter(|&j| base + j < end && sends.at(base + j))
                .fold(0u64, |w, j| w | 1 << j);
            let got = station
                .fill_tx_word(base, width)
                .expect("wakeup(n) fills its own tiles");
            let mask = u64::MAX >> (64 - width);
            assert_eq!(
                (got.bits & mask, got.until),
                (want, Until::Forever),
                "tile [{base}, {tile_end}): {ctx}"
            );
            base = if step % 2 == 1 {
                base + 1 + (7 * step) % u64::from(width)
            } else {
                tile_end
            };
            step += 1;
        }
    }

    fn check_class(&self, runs: &[(u32, u32)], sigma: Slot) {
        let members = Members::from_runs(runs.to_vec());
        let ids: Vec<u32> = members.iter().map(|s| s.0).collect();
        let ctx = format!("{} class {runs:?} σ={sigma}", self.label());
        let (each, any) = self.sends(&ids, sigma);
        let end = any.end();
        let mid = (sigma + Walk::new(self.protocol.matrix(), sigma).end()) / 2;
        let fresh = || {
            let mut class = self
                .protocol
                .class_station(&members)
                .expect("wakeup(n) has a class unit");
            class.wake(sigma);
            class
        };

        // The tally, with every transmitter's id and as a bare count.
        let (mut collect, mut count) = (fresh(), fresh());
        for t in sigma..end {
            let want: Vec<StationId> = ids
                .iter()
                .zip(&each)
                .filter(|(_, s)| s.at(t))
                .map(|(&u, _)| StationId(u))
                .collect();
            let mut tally = TxTally::new(true);
            collect.act(t, &mut tally);
            assert_eq!(tally.sorted_ids(), &want[..], "ids at {t}: {ctx}");
            let mut tally = TxTally::new(false);
            count.act(t, &mut tally);
            assert_eq!(tally.total(), want.len() as u64, "count at {t}: {ctx}");
            let sole = (want.len() == 1).then(|| want[0]);
            assert_eq!(tally.winner(), sole, "winner at {t}: {ctx}");
        }

        // Hints against the earliest member. Halfway through the scan the
        // member that the class last named leaves, as a churned one does;
        // from then on the hints answer for the rest.
        let mut class = fresh();
        let (mut after, mut step) = (sigma, 0u64);
        let mut sends = any;
        let mut left = None;
        while after < end {
            let got = class.next_transmission(after);
            step += 1;
            let next = check_hint(got, &sends, after, step, &ctx);
            if let (None, TxHint::At(t, _)) = (left, got) {
                if t >= mid && ids.len() > 1 {
                    let i = each.iter().position(|s| s.at(t)).expect("a member sends");
                    class.remove_member(StationId(ids[i]));
                    left = Some(ids[i]);
                    let rest: Vec<u32> = ids.iter().copied().filter(|&u| u != ids[i]).collect();
                    sends = self.sends(&rest, sigma).1;
                    continue; // ask again from the same point
                }
            }
            match next {
                Some(next) => after = next,
                None => break,
            }
        }
        assert!(after < end, "no `Never(Forever)` past the scan: {ctx}");
    }

    fn check(&self, ids: &[u32], classes: &[Vec<(u32, u32)>], sigmas: &[Slot]) {
        for &sigma in sigmas {
            for &id in ids {
                self.check_station(id, sigma);
            }
            for runs in classes {
                self.check_class(runs, sigma);
            }
        }
    }
}

/// Every station of a small matrix, and a few of a larger one, with the
/// density sweep and without it. `c = 1` keeps the scans short: 2,268
/// slots at n = 64.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for params in [
        MatrixParams::new(64).with_c(1).with_seed(3),
        MatrixParams::new(64)
            .with_c(1)
            .with_seed(3)
            .without_rho_sweep(),
    ] {
        cases.push(Case::new(
            params,
            (1..64).step_by(5).collect(),
            vec![vec![(0, 64)], vec![(3, 6), (17, 18), (40, 44)]],
        ));
    }
    cases.push(Case::new(
        MatrixParams::new(16).with_seed(8),
        (0..16).collect(),
        vec![vec![(2, 3), (9, 12)]],
    ));
    for n in [1u32, 2, 3] {
        cases.push(Case::new(
            MatrixParams::new(n).with_c(1).with_seed(u64::from(n)),
            (0..n).collect(),
            vec![vec![(0, n)]],
        ));
    }
    cases
}

#[test]
fn wakeup_n_follows_the_papers_walk() {
    for case in cases() {
        case.check(&case.ids, &case.classes, &case.sigmas);
    }
}

/// One whole scan at n = 2^10 and 2^12 (81,840 and 393,120 slots) for a
/// few stations and one class, each woken inside a window. Run it with
/// `cargo test --release --test wakeup_n_reference -- --ignored`.
#[test]
#[ignore = "whole scans at n = 2^10 and 2^12; run in release"]
fn wakeup_n_follows_the_papers_walk_at_scale() {
    for n in [1u32 << 10, 1 << 12] {
        let case = Case::new(MatrixParams::new(n).with_c(1).with_seed(5), vec![], vec![]);
        let ids = [0, 1, n / 3, n - 1];
        let class = vec![(0, 16), (n / 2, n / 2 + 48)];
        case.check(&ids, &[class], &[3]);
    }
}

#[test]
fn reference_walk_matches_the_papers_dimensions() {
    // The reference's own arithmetic: µ(σ) is the next window boundary, and
    // the scan lasts Σ m_i = c·log n·log log n·(2^{log n + 1} − 2) slots.
    let m: Arc<WakingMatrix> = Arc::clone(WakeupN::new(MatrixParams::new(64)).matrix());
    assert_eq!((m.rows(), m.window()), (6, 3));
    for (sigma, mu) in [(0, 0), (1, 3), (3, 3), (4, 6)] {
        assert_eq!(Walk::new(&m, sigma).mu, mu);
    }
    let walk = Walk::new(&m, 0);
    assert_eq!(walk.end(), 2 * 6 * 3 * 126);
    assert_eq!(walk.row(m.dwell(1) - 1), Some(1));
    assert_eq!(walk.row(m.dwell(1)), Some(2));
    assert_eq!(walk.row(walk.end() - 1), Some(6));
    assert_eq!(walk.row(walk.end()), None);
}
