//! Extension experiment: geo-distributed analytics (§VII, third
//! direction).
//!
//! "How to design the scheduling algorithm in cases with low and diverse
//! network bandwidths like geo-distributed big data processing … the
//! network transfer times could be comparable or even larger than the CPU
//! times of the jobs." Here each PUMA job's shuffle crosses an
//! inter-datacenter link: the reduce stage waits `shuffle volume ÷ link
//! bandwidth` after the maps finish, consuming no containers while it
//! waits. The sweep runs from a co-located cluster down to a 25 MB/s WAN
//! link and compares LAS_MQ against Fair and FIFO.
//!
//! Expected shape: transfers stretch everyone's response times, but
//! LAS_MQ's advantage *persists* — its signals (attained service, stage
//! progress, remaining demand) stay observable through the transfer
//! windows, and the freed containers flow to other jobs (the engine's
//! work conservation).

use lasmq_campaign::{Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec};

use crate::scale::Scale;
use crate::stats::reduction_pct;
use crate::table::{fmt_num, TextTable};

/// Inter-DC bandwidths swept, in MB/s (`None` = co-located cluster).
pub const BANDWIDTH_SWEEP: [Option<f64>; 4] = [None, Some(200.0), Some(50.0), Some(25.0)];

/// One link bandwidth's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRow {
    /// Link label.
    pub link: String,
    /// LAS_MQ's mean response (s).
    pub las_mq: f64,
    /// Fair's mean response (s).
    pub fair: f64,
    /// FIFO's mean response (s).
    pub fifo: f64,
}

impl GeoRow {
    /// LAS_MQ's percentage reduction vs Fair on this link.
    pub fn reduction_vs_fair(&self) -> f64 {
        reduction_pct(self.fair, self.las_mq)
    }
}

/// The experiment's output.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoResult {
    /// Rows from co-located to slowest link.
    pub rows: Vec<GeoRow>,
}

impl GeoResult {
    /// The rendered table.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut t = TextTable::new(
            "Extension: geo-distributed shuffles — inter-DC bandwidth sweep (PUMA workload)",
            vec![
                "shuffle link".into(),
                "LAS_MQ (s)".into(),
                "FAIR (s)".into(),
                "FIFO (s)".into(),
                "LAS_MQ vs FAIR (%)".into(),
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.link.clone(),
                fmt_num(r.las_mq),
                fmt_num(r.fair),
                fmt_num(r.fifo),
                format!("{:.1}", r.reduction_vs_fair()),
            ]);
        }
        vec![t]
    }
}

/// Runs the bandwidth sweep as one campaign under `exec`.
pub fn run(scale: &Scale, exec: &ExecOptions) -> GeoResult {
    let setup = SimSetup::testbed();
    let lineup = [
        SchedulerKind::las_mq_experiments(),
        SchedulerKind::Fair,
        SchedulerKind::Fifo,
    ];
    let link_label = |bandwidth: Option<f64>| match bandwidth {
        Some(bw) => format!("{bw:.0} MB/s WAN"),
        None => "co-located".to_string(),
    };

    let mut campaign = Campaign::new("ext_geo");
    for &bandwidth in &BANDWIDTH_SWEEP {
        let workload = WorkloadSpec::Puma {
            jobs: scale.puma_jobs,
            mean_interval_secs: 50.0,
            seed: scale.seed,
            geo_bandwidth_mb_per_s: bandwidth,
        };
        for kind in &lineup {
            campaign.push(RunCell::new(
                format!("ext_geo/{}/{kind}", link_label(bandwidth)),
                kind.clone(),
                workload.clone(),
                setup.clone(),
            ));
        }
    }
    let result = campaign.run(exec);

    let rows = BANDWIDTH_SWEEP
        .iter()
        .enumerate()
        .map(|(row, &bandwidth)| {
            let mean = |col: usize| {
                result.reports[row * lineup.len() + col]
                    .mean_response_secs()
                    .unwrap_or(f64::NAN)
            };
            GeoRow {
                link: link_label(bandwidth),
                las_mq: mean(0),
                fair: mean(1),
                fifo: mean(2),
            }
        })
        .collect();
    GeoResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_links_stretch_responses_but_lasmq_still_wins() {
        let r = run(&Scale::test(), &ExecOptions::default().no_cache());
        assert_eq!(r.rows.len(), 4);
        // Responses grow monotonically-ish as the link shrinks.
        let colo = r.rows[0].las_mq;
        let wan = r.rows[3].las_mq;
        assert!(
            wan > colo,
            "25 MB/s WAN {wan} must cost more than co-located {colo}"
        );
        // LAS_MQ keeps beating Fair on every link.
        for row in &r.rows {
            assert!(
                row.reduction_vs_fair() > 0.0,
                "LAS_MQ must beat Fair on '{}': {:.0} vs {:.0}",
                row.link,
                row.las_mq,
                row.fair
            );
        }
    }
}
