// Fixture: fires exactly `panic-free-hot-path` when linted as
// crates/mac-sim/src/engine.rs — slice indexing in the hot path.

pub fn head(v: &[u64]) -> u64 {
    v[0]
}
