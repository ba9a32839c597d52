//! Pinned exact quantities: for the seeds recorded in `golden.tsv`, the
//! simulated outcome of a workload (event and pass counts, the bits of the
//! mean response time, the digest of every job outcome) must equal what was
//! recorded when the benchmark was defined. The metric contract has no
//! place for "must not move at all", so a change in simulated behaviour
//! shows here instead: as a failed output check, not as a number.
//!
//! To re-record after an *intended* behaviour change, run the workload
//! untraced with the recorded seed and paste its `exact` line over the old
//! one.

const GOLDEN: &str = include_str!("../golden.tsv");

/// Checks `exact` against the recorded line for (`workload`, `seed`), if
/// there is one. Only keys present on both sides are compared, so a traced
/// run (which exports more keys) checks against the same line.
pub fn check(workload: &str, seed: u64, exact: &[(&'static str, String)]) -> bool {
    let seed = seed.to_string();
    let recorded = GOLDEN.lines().find_map(|line| {
        let mut cols = line.split('\t');
        (cols.next() == Some("exact")
            && cols.next() == Some(workload)
            && cols.next() == Some(seed.as_str()))
        .then(|| cols.next().unwrap_or(""))
    });
    let Some(recorded) = recorded else {
        return true;
    };
    let mut ok = true;
    for pair in recorded.split(' ') {
        let Some((key, want)) = pair.split_once('=') else {
            continue;
        };
        if let Some((_, got)) = exact.iter().find(|(k, _)| *k == key) {
            if got != want {
                eprintln!(
                    "golden check FAILED: {workload} seed {seed}: {key} is {got}, recorded {want}"
                );
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::check;

    #[test]
    fn recorded_seeds_are_compared_key_by_key() {
        // Taken from golden.tsv: fb_narrow, seed 0.
        let recorded = vec![
            ("events", "5587795".to_string()),
            ("digest", "f7ee9f059eb0851f".to_string()),
            ("allocate_calls", "556003".to_string()), // traced-only key: ignored
        ];
        assert!(check("fb_narrow", 0, &recorded));
        let drifted = vec![("digest", "0000000000000000".to_string())];
        assert!(!check("fb_narrow", 0, &drifted));
    }

    #[test]
    fn unrecorded_seeds_pass() {
        let anything = vec![("digest", "0000000000000000".to_string())];
        assert!(check("fb_narrow", 987_654_321, &anything));
        assert!(check("serve_burst", 0, &anything));
    }
}
