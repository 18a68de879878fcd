//! Ethernet-style collision storm: a burst of stations contends right after
//! a broadcast, the load spike the paper's introduction motivates ("very
//! often most transmitters are inactive most of the time, while only a few
//! are busy").
//!
//! We replay the same storm against the deterministic Scenario B algorithm
//! (the natural choice when the NIC knows a provisioned contention bound)
//! and the classical randomized contenders, comparing latency *and* energy
//! (transmission counts — what a radio would spend).
//!
//! ```sh
//! cargo run --release --example ethernet_burst
//! ```

use mac_wakeup::prelude::*;

/// A per-seed protocol factory.
type Factory = Box<dyn Fn(u64) -> Box<dyn Protocol> + Sync>;

fn main() {
    let n = 1024; // provisioned LAN size
    let k = 16; // collision-domain burst size
    let runs = 200u64;

    println!("collision storm: {k} of {n} stations wake simultaneously; {runs} storms\n");

    let contenders: Vec<(&str, Factory)> = vec![
        (
            "wakeup_with_k (deterministic)",
            Box::new(move |seed| -> Box<dyn Protocol> {
                Box::new(WakeupWithK::new(
                    n,
                    k,
                    FamilyProvider::random_with_seed(seed),
                ))
            }),
        ),
        (
            "binary exponential backoff",
            Box::new(move |_| -> Box<dyn Protocol> { Box::new(BinaryExponentialBackoff::new(n)) }),
        ),
        (
            "slotted ALOHA p=1/k",
            Box::new(move |_| -> Box<dyn Protocol> { Box::new(Aloha::new(n, k)) }),
        ),
        (
            "RPD (randomized, k unknown)",
            Box::new(move |_| -> Box<dyn Protocol> { Box::new(Rpd::new(n)) }),
        ),
    ];

    let mut table = Table::new([
        "protocol",
        "mean latency",
        "p90",
        "worst",
        "mean tx / storm",
        "guarantee",
    ]);

    for (name, factory) in &contenders {
        let res = run_ensemble_stream(
            &EnsembleSpec::new(n, runs).with_max_slots(100_000),
            factory.as_ref(),
            |seed| {
                // Random k-subset of NICs, all waking at the storm slot.
                use mac_sim::pattern::IdChoice;
                use rand::SeedableRng;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let ids = IdChoice::Random.pick(n, k as usize, &mut rng);
                WakePattern::simultaneous(&ids, 0).unwrap()
            },
        );
        assert!(res.solved > 0, "storm must resolve");
        table.push_row([
            name.to_string(),
            format!("{:.1}", res.mean()),
            format!("{:.0}", res.p90()),
            format!("{:.0}", res.max()),
            format!("{:.1}", res.energy.mean_transmissions()),
            if name.starts_with("wakeup") {
                "deterministic worst case".to_string()
            } else {
                "expected case only".to_string()
            },
        ]);
    }
    table.print();

    println!(
        "\nThe deterministic algorithm pays a latency premium on the average \
         storm but\ncarries a worst-case guarantee of Θ(k·log(n/k)) ≈ {:.0} slots — \
         the randomized\nprotocols have unbounded tails (compare the `worst` column \
         as you raise `runs`).",
        f64::from(k) * (f64::from(n) / f64::from(k)).log2()
    );
}
