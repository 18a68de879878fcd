// Fixture: fires exactly `ambient-rng` when linted as
// crates/selectors/src/bad.rs.

pub fn roll() {
    let _rng = rand::thread_rng();
}
