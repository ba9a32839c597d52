//! Weighted max-min fair sharing with demand caps.
//!
//! Splits an integer pool of containers among parties in proportion to
//! weights, never giving a party more than its demand, and redistributes
//! what capped parties cannot use (progressive filling / water-filling).
//! It is the second half of the [`rank_and_share`](crate::rank_and_share)
//! kernel (FAIR, PS, the YARN capacity scheduler); LAS_MQ calls it directly
//! to share across its queues. [`rank_and_grant`](crate::rank_and_grant)
//! grants whole demands and does not use it.

/// One party in a weighted share computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareRequest {
    /// The most containers the party can use.
    pub demand: u32,
    /// The party's weight (≥ 0; zero-weight parties only receive leftovers
    /// no positive-weight party can absorb — i.e. nothing, since demands
    /// cap first).
    pub weight: f64,
}

impl ShareRequest {
    /// A request with the given demand and weight.
    pub fn new(demand: u32, weight: f64) -> Self {
        ShareRequest { demand, weight }
    }
}

/// Reusable working memory for [`weighted_shares_into`], so schedulers
/// that compute shares every scheduling pass pay no per-pass allocations.
/// The buffers hold no meaningful state between calls.
#[derive(Debug, Clone, Default)]
pub struct ShareScratch {
    alloc: Vec<f64>,
    active: Vec<usize>,
    capped: Vec<usize>,
    order: Vec<usize>,
}

/// Splits `capacity` containers among `requests` by weighted max-min
/// fairness with demand caps, into a caller-owned output buffer with
/// caller-owned scratch space (zero allocations once the buffers are
/// warm).
///
/// Guarantees:
///
/// * no party exceeds its demand,
/// * the total allocated equals `min(capacity, Σ demand)` (work
///   conservation),
/// * parties that are not demand-capped receive containers in proportion
///   to their weights, up to integer rounding (largest-remainder).
///
/// # Panics
///
/// Panics if any weight is negative or not finite.
///
/// # Examples
///
/// ```
/// use lasmq_schedulers::share::{weighted_shares_into, ShareRequest, ShareScratch};
///
/// // Priorities 1 and 3 over 8 containers, ample demand: 2 vs 6.
/// let mut alloc = Vec::new();
/// weighted_shares_into(
///     8,
///     &[ShareRequest::new(100, 1.0), ShareRequest::new(100, 3.0)],
///     &mut ShareScratch::default(),
///     &mut alloc,
/// );
/// assert_eq!(alloc, vec![2, 6]);
/// ```
pub fn weighted_shares_into(
    capacity: u32,
    requests: &[ShareRequest],
    scratch: &mut ShareScratch,
    out: &mut Vec<u32>,
) {
    for r in requests {
        assert!(
            r.weight.is_finite() && r.weight >= 0.0,
            "weights must be non-negative"
        );
    }
    let n = requests.len();
    let alloc = &mut scratch.alloc;
    alloc.clear();
    alloc.resize(n, 0.0_f64);
    let active = &mut scratch.active;
    active.clear();
    active.extend((0..n).filter(|&i| requests[i].demand > 0 && requests[i].weight > 0.0));
    let mut remaining =
        (capacity as f64).min(requests.iter().map(|r| r.demand as f64).sum::<f64>());

    // Progressive filling: repeatedly hand out proportional shares; parties
    // that hit their demand are frozen and their unused share recirculates.
    while remaining > 1e-9 && !active.is_empty() {
        let wsum: f64 = active.iter().map(|&i| requests[i].weight).sum();
        if wsum <= 0.0 {
            break;
        }
        // The binding party is the one that fills up first at the current
        // rate; cap all parties that would overfill, then recompute.
        let capped = &mut scratch.capped;
        capped.clear();
        let mut handed_out = 0.0;
        for &i in &*active {
            let share = remaining * requests[i].weight / wsum;
            let room = requests[i].demand as f64 - alloc[i];
            if share >= room - 1e-12 {
                alloc[i] = requests[i].demand as f64;
                handed_out += room;
                capped.push(i);
            }
        }
        if capped.is_empty() {
            // No one caps: distribute everything and finish.
            for &i in &*active {
                alloc[i] += remaining * requests[i].weight / wsum;
            }
            remaining = 0.0;
        } else {
            remaining -= handed_out;
            active.retain(|i| !capped.contains(i));
        }
    }

    round_largest_remainder(capacity, requests, alloc, &mut scratch.order, out);
}

/// Rounds fractional allocations to integers: floor everything, then hand
/// leftover containers to the largest fractional parts that still have
/// demand headroom.
fn round_largest_remainder(
    capacity: u32,
    requests: &[ShareRequest],
    alloc: &[f64],
    order: &mut Vec<usize>,
    ints: &mut Vec<u32>,
) {
    ints.clear();
    ints.extend(
        alloc
            .iter()
            .zip(requests)
            .map(|(&a, r)| (a.floor() as u32).min(r.demand)),
    );
    let target: u32 = {
        let total_demand: u64 = requests.iter().map(|r| r.demand as u64).sum();
        (capacity as u64).min(total_demand) as u32
    };
    let mut assigned: u32 = ints.iter().sum();
    if assigned >= target {
        return;
    }
    order.clear();
    order.extend(0..alloc.len());
    order.sort_by(|&a, &b| {
        let fa = alloc[a] - alloc[a].floor();
        let fb = alloc[b] - alloc[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    // First pass by remainder, then round-robin any residue (can happen
    // when floors were demand-clamped).
    loop {
        let before = assigned;
        for &i in &*order {
            if assigned == target {
                return;
            }
            if ints[i] < requests[i].demand {
                ints[i] += 1;
                assigned += 1;
            }
        }
        if assigned == before {
            return; // all demands met
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[u32]) -> u32 {
        v.iter().sum()
    }

    fn weighted_shares(capacity: u32, requests: &[ShareRequest]) -> Vec<u32> {
        let mut out = Vec::new();
        weighted_shares_into(capacity, requests, &mut ShareScratch::default(), &mut out);
        out
    }

    #[test]
    fn equal_weights_split_evenly() {
        let alloc = weighted_shares(9, &[ShareRequest::new(100, 1.0); 3]);
        assert_eq!(alloc, vec![3, 3, 3]);
    }

    #[test]
    fn weights_bias_the_split() {
        let alloc = weighted_shares(
            10,
            &[ShareRequest::new(100, 1.0), ShareRequest::new(100, 4.0)],
        );
        assert_eq!(alloc, vec![2, 8]);
    }

    #[test]
    fn demand_caps_redistribute() {
        // Party 0 only wants 1; the rest flows to party 1.
        let alloc = weighted_shares(
            10,
            &[ShareRequest::new(1, 1.0), ShareRequest::new(100, 1.0)],
        );
        assert_eq!(alloc, vec![1, 9]);
    }

    #[test]
    fn work_conserving_up_to_demand() {
        let reqs = [ShareRequest::new(3, 1.0), ShareRequest::new(2, 2.0)];
        let alloc = weighted_shares(100, &reqs);
        assert_eq!(alloc, vec![3, 2]); // total demand 5 < capacity
        let alloc = weighted_shares(4, &reqs);
        assert_eq!(total(&alloc), 4); // capacity binds
    }

    #[test]
    fn never_exceeds_demand_or_capacity() {
        let reqs = [
            ShareRequest::new(7, 0.5),
            ShareRequest::new(0, 3.0),
            ShareRequest::new(13, 1.5),
            ShareRequest::new(2, 1.0),
        ];
        for cap in 0..30 {
            let alloc = weighted_shares(cap, &reqs);
            for (a, r) in alloc.iter().zip(&reqs) {
                assert!(*a <= r.demand);
            }
            let expected = cap.min(reqs.iter().map(|r| r.demand).sum());
            assert_eq!(total(&alloc), expected, "capacity {cap}");
        }
    }

    #[test]
    fn zero_weight_gets_nothing_while_others_starve() {
        let alloc = weighted_shares(5, &[ShareRequest::new(10, 0.0), ShareRequest::new(10, 1.0)]);
        assert_eq!(alloc, vec![0, 5]);
    }

    #[test]
    fn empty_request_list() {
        assert!(weighted_shares(10, &[]).is_empty());
    }

    #[test]
    fn rounding_is_stable_and_exact() {
        // 10 containers over 3 equal parties: 4/3/3 (largest remainder,
        // ties by index).
        let alloc = weighted_shares(10, &[ShareRequest::new(100, 1.0); 3]);
        assert_eq!(total(&alloc), 10);
        assert!(alloc.iter().all(|&a| a == 3 || a == 4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = weighted_shares(1, &[ShareRequest::new(1, -1.0)]);
    }
}
