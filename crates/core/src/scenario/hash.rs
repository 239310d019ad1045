//! Content hashing of concrete specs: the sweep and DSE cache key and the
//! derived per-point seed.
//!
//! A spec's hash is FNV-1a 64 over its pretty JSON ([`ScenarioSpec::to_json`]
//! bytes). Expansion derives each point's seed from the hash of the spec
//! *before* the seed is written, then hashes the final spec. Both hashes
//! come from one lowering and one render: the rendering is split at the
//! top-level `"seed": ` value, the FNV state over everything before it is
//! kept, and each hash finishes from that state over its own seed digits
//! and the unchanged tail.

use super::spec::ScenarioSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit — stable across platforms and runs, unlike `DefaultHasher`.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash from `state` over `bytes`.
fn fnv1a64_from(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 finalizer: turns structured hash input into a well-mixed seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Renders `spec` as its pretty JSON into `buf`, replacing its contents.
fn render(spec: &ScenarioSpec, buf: &mut Vec<u8>) {
    buf.clear();
    serde_json::to_writer_pretty(buf, spec).expect("scenario specs always serialize");
}

/// Content hash of a concrete spec — 16 hex digits of FNV-1a over its
/// canonical JSON, the same function [`SweepSpec::expand`] assigns to each
/// point. Lets external executors (the serving daemon) share one cache
/// namespace with the batch runner: `spec_hash(&point.spec) == point.hash`.
///
/// [`SweepSpec::expand`]: super::SweepSpec::expand
pub fn spec_hash(spec: &ScenarioSpec) -> String {
    let mut buf = Vec::new();
    render(spec, &mut buf);
    format!("{:016x}", fnv1a64(&buf))
}

/// The top-level `"seed": ` key of a pretty spec rendering, in the layout of
/// `serde_json::to_writer_pretty` (two-space indent per level). The writer
/// escapes every newline inside strings and indents nested entries by at
/// least four spaces, so only the top-level entry matches.
const SEED_KEY: &[u8] = b"\n  \"seed\": ";

/// Derives `spec`'s point seed from `base_seed` and the spec's content
/// (hashed with its current seed), writes it, and returns the final
/// spec's content hash. Equal to
/// `splitmix64(base_seed ^ fnv1a64(to_json()))` followed by
/// [`spec_hash`], from one render into `buf`, which callers reuse across
/// points.
pub(crate) fn seed_and_hash(spec: &mut ScenarioSpec, base_seed: u64, buf: &mut Vec<u8>) -> String {
    render(spec, buf);
    let value_at = (0..buf.len())
        .find(|&i| buf[i] == b'\n' && buf[i..].starts_with(SEED_KEY))
        .expect("a pretty spec carries a top-level seed")
        + SEED_KEY.len();
    // The value is a number or `null`; it ends at the separator before the
    // next field, or at the newline before the closing brace.
    let value_len = buf[value_at..]
        .iter()
        .position(|&b| b == b',' || b == b'\n')
        .expect("a pretty spec ends with a newline and a closing brace");
    let (head, rest) = buf.split_at(value_at);
    let (old_seed, tail) = rest.split_at(value_len);

    let head_state = fnv1a64(head);
    let key_hash = fnv1a64_from(fnv1a64_from(head_state, old_seed), tail);
    let seed = splitmix64(base_seed ^ key_hash);
    spec.seed = Some(seed);

    // The new seed's digits come from the same writer as the rest of the
    // rendering, so integer formatting is defined in one place.
    let mut digits = Vec::with_capacity(20);
    serde_json::to_writer_pretty(&mut digits, &seed).expect("a u64 always serializes");
    let hash = fnv1a64_from(fnv1a64_from(head_state, &digits), tail);
    format!("{hash:016x}")
}
