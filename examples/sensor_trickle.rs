//! Sparse sensor network: nodes wake rarely and independently (trickle
//! arrivals), and neither the first wake-up time nor the active count is
//! known — exactly Scenario C, the paper's headline setting.
//!
//! Shows the waking-matrix protocol resolving trickles of different
//! densities, with per-station energy accounting (transmissions are what
//! drain a sensor battery).
//!
//! ```sh
//! cargo run --release --example sensor_trickle
//! ```

use mac_wakeup::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let n = 512; // deployed sensors
    let runs = 100u64;
    println!("sensor field: n = {n}, Scenario C (nothing known), {runs} trickles per density\n");

    let mut table = Table::new([
        "arrival rate p",
        "k (awake)",
        "mean latency",
        "p90",
        "worst",
        "mean tx / node",
    ]);

    for (p, k) in [(0.5, 3usize), (0.1, 6), (0.02, 12)] {
        let res = run_ensemble_stream(
            &EnsembleSpec::new(n, runs),
            |seed| -> Box<dyn Protocol> {
                Box::new(WakeupN::new(MatrixParams::new(n).with_seed(seed)))
            },
            move |seed| {
                use mac_sim::pattern::IdChoice;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let ids = IdChoice::Random.pick(n, k, &mut rng);
                WakePattern::trickle(&ids, 0, p, &mut rng).unwrap()
            },
        );
        assert!(res.solved > 0, "trickle must resolve");
        table.push_row([
            format!("{p}"),
            k.to_string(),
            format!("{:.1}", res.mean()),
            format!("{:.0}", res.p90()),
            format!("{:.0}", res.max()),
            format!("{:.2}", res.energy.mean_transmissions() / k as f64),
        ]);
    }
    table.print();

    // Zoom into one trickle with a transcript.
    println!("\none trickle in detail (p = 0.1, k = 6):");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let ids = mac_sim::pattern::IdChoice::Random.pick(n, 6, &mut rng);
    let pattern = WakePattern::trickle(&ids, 0, 0.1, &mut rng).unwrap();
    println!("  wake times: {:?}", pattern.wakes());
    let cfg = SimConfig::new(n).with_transcript();
    let out = Simulator::new(cfg)
        .run(
            &WakeupN::new(MatrixParams::new(n).with_seed(7)),
            &pattern,
            7,
        )
        .unwrap();
    let tr = out.transcript.as_ref().unwrap();
    println!(
        "  channel ({} slots from s): {}",
        tr.len(),
        tr.ascii_strip()
    );
    println!(
        "  winner: station {} after {} slots; {} transmissions total",
        out.winner.unwrap(),
        out.latency().unwrap(),
        out.transmissions
    );
    println!("\n  (legend: '.' silence, 'x' collision, '!' successful solo transmission)");
}
