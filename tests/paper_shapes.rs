//! Shape tests: the qualitative results of every figure in the paper must
//! hold at a moderate scale (sized to stay fast in debug builds; the full
//! paper scale runs via `cargo run --release -p lasmq-experiments --bin
//! repro`).

use lasmq::campaign::ExecOptions;
use lasmq::experiments::{fig3, fig56, fig7, fig8, Scale};

fn shapes_scale() -> Scale {
    Scale {
        puma_jobs: 60,
        puma_repetitions: 1,
        facebook_jobs: 2_500,
        uniform_jobs: 150,
        uniform_tasks_per_job: 1_000,
        seed: 42,
    }
}

#[test]
fn fig3_both_features_beat_fair_and_each_feature_helps() {
    let r = fig3::run(&shapes_scale(), &ExecOptions::default().no_cache());
    // Case 4 (the shipped design) beats Fair outright.
    assert!(r.case(3) > 1.0, "Case 4 = {}", r.case(3));
    // In-queue ordering is the big lever (Case 3 ≫ Case 1)…
    assert!(
        r.case(2) > r.case(0) * 1.2,
        "ordering: {} vs {}",
        r.case(2),
        r.case(0)
    );
    // …and stage awareness adds on top of it (Case 4 ≥ Case 3).
    assert!(
        r.case(3) >= r.case(2) * 0.97,
        "awareness: {} vs {}",
        r.case(3),
        r.case(2)
    );
}

#[test]
fn fig5_lasmq_cuts_mean_response_against_every_baseline() {
    let r = fig56::run(&shapes_scale(), 80.0, &ExecOptions::default().no_cache());
    for baseline in ["LAS", "FAIR", "FIFO"] {
        let cut = r.lasmq_reduction_vs(baseline).expect("baseline present");
        assert!(cut > 15.0, "only {cut:.0}% off {baseline}");
    }
    // FIFO is competitive only for the biggest jobs (bin 4) — the paper's
    // §V-B1 observation.
    let lasmq = r.summary_for("LAS_MQ").unwrap();
    let fifo = r.summary_for("FIFO").unwrap();
    assert!(
        lasmq.mean_by_bin[0] < fifo.mean_by_bin[0] / 2.0,
        "bin 1 must favour LAS_MQ"
    );
    assert!(
        fifo.mean_by_bin[3] < lasmq.mean_by_bin[3] * 1.5,
        "bin 4 is where FIFO catches up: fifo {} vs las_mq {}",
        fifo.mean_by_bin[3],
        lasmq.mean_by_bin[3]
    );
    // Fairness: LAS_MQ has the smallest mean slowdown, FIFO the largest.
    assert!(lasmq.mean_slowdown < r.summary_for("FAIR").unwrap().mean_slowdown);
    assert!(lasmq.mean_slowdown < fifo.mean_slowdown);
}

#[test]
fn fig6_higher_load_keeps_the_gaps() {
    let r = fig56::run(&shapes_scale(), 50.0, &ExecOptions::default().no_cache());
    assert!(r.lasmq_reduction_vs("FAIR").unwrap() > 20.0);
    assert!(r.lasmq_reduction_vs("FIFO").unwrap() > 30.0);
}

#[test]
fn fig7_heavy_tail_and_uniform_shapes() {
    let r = fig7::run(&shapes_scale(), &ExecOptions::default().no_cache());

    let h = &r.heavy_tailed;
    let lasmq = h.mean_for("LAS_MQ").unwrap();
    let las = h.mean_for("LAS").unwrap();
    let fair = h.mean_for("FAIR").unwrap();
    let fifo = h.mean_for("FIFO").unwrap();
    // LAS wins on heavy tails; LAS_MQ is right behind and beats Fair;
    // FIFO trails by a wide margin.
    assert!(las <= lasmq * 1.1, "LAS {las} should lead LAS_MQ {lasmq}");
    assert!(lasmq < fair, "LAS_MQ {lasmq} must beat Fair {fair}");
    assert!(
        fifo > 3.0 * fair,
        "FIFO {fifo} must be far worse than Fair {fair}"
    );

    let u = &r.uniform;
    let lasmq = u.mean_for("LAS_MQ").unwrap();
    let las = u.mean_for("LAS").unwrap();
    let fair = u.mean_for("FAIR").unwrap();
    let fifo = u.mean_for("FIFO").unwrap();
    // Identical jobs: Fair and LAS collapse to processor sharing; FIFO and
    // LAS_MQ serialize and need only about half the time.
    assert!(lasmq < 0.65 * fair, "LAS_MQ {lasmq} vs Fair {fair}");
    assert!(lasmq < 0.65 * las, "LAS_MQ {lasmq} vs LAS {las}");
    assert!(
        (lasmq / fifo - 1.0).abs() < 0.25,
        "LAS_MQ {lasmq} ≈ FIFO {fifo}"
    );
}

#[test]
fn fig8_queue_count_and_threshold_sensitivity() {
    let r = fig8::run(&shapes_scale(), &ExecOptions::default().no_cache());
    // One queue is FIFO-grade; ten queues beat Fair; the curve rises.
    let k1 = r.normalized_for_queues(1).unwrap();
    let k5 = r.normalized_for_queues(5).unwrap();
    let k10 = r.normalized_for_queues(10).unwrap();
    assert!(k1 < 0.7, "k=1 should lose badly to Fair, got {k1}");
    assert!(k10 > 1.0, "k=10 must beat Fair, got {k10}");
    assert!(
        k5 > k1 && k10 >= k5 * 0.95,
        "curve must rise: {k1} {k5} {k10}"
    );

    // Small thresholds all work; a threshold far above typical job sizes
    // collapses toward single-queue behaviour.
    let a1 = r.normalized_for_threshold(1.0).unwrap();
    let a100 = r.normalized_for_threshold(100.0).unwrap();
    assert!(a1 > 1.0, "α₁=1 must beat Fair, got {a1}");
    assert!(a100 < a1 * 0.95, "α₁=100 must degrade: {a100} vs {a1}");
}
