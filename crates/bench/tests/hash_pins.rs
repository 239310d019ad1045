//! The cache namespace is pinned: every candidate and point hash (and so
//! every derived seed, which the final hash covers) of the registry's
//! flagship search and event sweep folds into one digest that must never
//! move. A change to the spec rendering, the seed derivation or the hash
//! would silently orphan every cache entry on disk; these pins catch it.

use chiplet_bench::scenarios::{dse::dse_epyc, sweeps::fig3_sweep};
use chiplet_net::scenario::SweepPoint;

/// FNV-1a 64 over each point's hash, newline-terminated, in expansion
/// order.
fn digest(points: &[SweepPoint]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in points {
        for &b in p.hash.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[test]
fn dse_epyc_candidate_hashes_are_pinned() {
    let points = dse_epyc().expand().expect("dse_epyc expands");
    assert_eq!(points.len(), 10_800);
    assert_eq!(points[0].hash, "8a37d35b80713ae8");
    assert_eq!(digest(&points), "5af7048e565fc535");
}

#[test]
fn fig3_sweep_point_hashes_are_pinned() {
    let points = fig3_sweep().expand().expect("fig3_sweep expands");
    assert_eq!(points[0].hash, "bc4ee8a103e940d1");
    assert_eq!(digest(&points), "e04b8db26c77a75f");
}
