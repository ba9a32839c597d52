//! The wall-clock mapping behind [`Pacing::Wall`](crate::Pacing::Wall).

use std::time::{Duration, Instant};

use lasmq_simulator::SimTime;

/// Wall-clock pacing with time compression: `compression` simulated
/// seconds elapse per wall second. `compression = 1.0` is real time;
/// trace replays typically run at 100–10000×.
///
/// The mapping is anchored at construction: simulated time
/// `base + (wall_now - epoch) * compression`. Resume anchors a fresh
/// clock at the snapshot's sim clock ([`starting_at`](Self::starting_at)),
/// so a resumed daemon continues pacing from where the snapshot paused
/// rather than replaying the wall time lost while it was down.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompressedWallClock {
    epoch: Instant,
    base: SimTime,
    compression: f64,
}

impl CompressedWallClock {
    /// A clock starting now at simulated time `base`.
    ///
    /// # Panics
    ///
    /// Panics unless `compression` is finite and positive.
    pub(crate) fn starting_at(base: SimTime, compression: f64) -> Self {
        assert!(
            compression.is_finite() && compression > 0.0,
            "time compression must be finite and positive, got {compression}"
        );
        CompressedWallClock {
            epoch: Instant::now(),
            base,
            compression,
        }
    }

    /// The current simulated time under this clock's mapping.
    pub(crate) fn now_sim(&self) -> SimTime {
        let wall = self.epoch.elapsed().as_secs_f64();
        let sim_ms = (wall * self.compression * 1000.0).floor() as u64;
        SimTime::from_millis(self.base.as_millis().saturating_add(sim_ms))
    }

    /// How long (wall time) until simulated time `t` comes due, or `None`
    /// if it is already due.
    pub(crate) fn wait_for(&self, t: SimTime) -> Option<Duration> {
        let now = self.now_sim();
        if t <= now {
            return None;
        }
        let sim_ms = t.as_millis() - now.as_millis();
        let wall_secs = sim_ms as f64 / 1000.0 / self.compression;
        Some(Duration::from_secs_f64(wall_secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_waits_then_comes_due() {
        let clock = CompressedWallClock::starting_at(SimTime::ZERO, 1000.0);
        // 10 sim-seconds out at 1000x is 10ms of wall time: a wait now...
        let far = SimTime::from_secs(10);
        let wait = clock.wait_for(far).expect("not due yet");
        assert!(wait <= Duration::from_millis(11));
        std::thread::sleep(wait + Duration::from_millis(2));
        // ...and due after sleeping it out.
        assert!(clock.wait_for(far).is_none());
        assert!(clock.now_sim() >= far);
    }

    #[test]
    fn resumed_clock_anchors_at_base() {
        let clock = CompressedWallClock::starting_at(SimTime::from_secs(500), 1000.0);
        assert!(clock.now_sim() >= SimTime::from_secs(500));
    }

    #[test]
    fn resume_reanchors_without_replaying_downtime() {
        // Wall time that passes while the daemon is down must not be
        // converted into simulated time on resume: the resumed clock
        // starts at the snapshot's reading, not at "where the old clock
        // would be by now".
        let compression = 1000.0;
        let clock = CompressedWallClock::starting_at(SimTime::ZERO, compression);
        std::thread::sleep(Duration::from_millis(5));
        let killed_at = clock.now_sim();
        // 100ms of downtime is 100 sim-seconds at 1000x — an unmissable
        // jump if the resume path replayed it.
        std::thread::sleep(Duration::from_millis(100));
        let resumed = CompressedWallClock::starting_at(killed_at, compression);
        let now = resumed.now_sim();
        assert!(now >= killed_at, "resumed clock went backwards");
        let jump_ms = now.as_millis() - killed_at.as_millis();
        assert!(
            jump_ms < 50_000,
            "resume replayed downtime: jumped {jump_ms} sim-ms past the kill point"
        );
    }

    #[test]
    fn repeated_resume_cycles_accumulate_no_drift() {
        // Chained kill→resume at high compression: each cycle re-anchors
        // at the predecessor's reading. Any per-cycle gain would compound;
        // the total advance must stay bounded by the wall time actually
        // spent (× compression).
        let compression = 10_000.0;
        let start = Instant::now();
        let mut clock = CompressedWallClock::starting_at(SimTime::ZERO, compression);
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(1));
            let reading = clock.now_sim();
            clock = CompressedWallClock::starting_at(reading, compression);
            assert!(clock.now_sim() >= reading, "resume went backwards");
        }
        let advanced_ms = clock.now_sim().as_millis();
        let wall_budget_ms = (start.elapsed().as_secs_f64() * compression * 1000.0) as u64;
        assert!(
            advanced_ms <= wall_budget_ms + 1,
            "clock advanced {advanced_ms} sim-ms over a wall budget of {wall_budget_ms}"
        );
    }
}
