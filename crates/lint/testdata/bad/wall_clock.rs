// Known-bad: a wall-clock read inside pure verification code (analyzed
// under the verify.rs path). Expected: exactly one no-wall-clock-in-verify
// diagnostic.

pub fn fresh_within(ts: u64, rho: u64) -> bool {
    let now = Instant::now();
    now.elapsed().as_secs() < rho
}
