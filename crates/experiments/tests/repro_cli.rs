//! CLI surface checks for the `repro` binary: the help text must exit
//! cleanly and advertise the fork-compare, robustness and training
//! surface, flag misuse and retired flags must fail with a pointer to the
//! usage, and the trace subcommands
//! must turn malformed numbers, unusable clusters and unfit jobs into a
//! one-line error with exit status 1.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_exits_zero_and_documents_the_experiment_surface() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("usage is utf-8");
    for needle in ["fork-compare", "robustness", "train", "--policy"] {
        assert!(
            text.contains(needle),
            "help text must mention {needle}, got:\n{text}"
        );
    }
}

#[test]
fn retired_trainer_flags_are_rejected() {
    // The trainer runs the `--quick` (smoke) or full preset; there are no
    // per-knob overrides.
    for flag in ["--train-iters", "--train-population"] {
        let out = repro(&[flag, "3", "train"]);
        assert!(!out.status.success(), "{flag} must be rejected");
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(
            text.contains(&format!("unknown flag '{flag}'")),
            "got:\n{text}"
        );
    }
}

#[test]
fn unreadable_policy_file_fails_fast() {
    let out = repro(&["--policy", "no/such/policy.json", "--quick", "train"]);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).expect("error is utf-8");
    assert!(text.contains("no/such/policy.json"), "got:\n{text}");
}

#[test]
fn resume_is_not_a_flag() {
    // A killed campaign resumes by rerunning it: the result cache answers
    // every finished cell, so there is no resume or checkpoint flag.
    for args in [
        &["--resume", "fig3"][..],
        &["--checkpoint-every", "1800", "fig3"],
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(
            text.contains(&format!("unknown flag '{}'", args[0])),
            "got:\n{text}"
        );
    }
}

#[test]
fn unknown_experiment_names_fail_fast() {
    let out = repro(&["fork-comparr"]);
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).expect("error is utf-8");
    assert!(text.contains("unknown experiment"), "got:\n{text}");
}

#[test]
fn trace_gen_rejects_malformed_numbers() {
    let out_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("never-written.json");
    for (flag, bad) in [("--jobs", "lots"), ("--jobs", "0"), ("--seed", "x")] {
        let out = repro(&[
            "trace-gen",
            "facebook",
            flag,
            bad,
            "--out",
            out_file.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{flag} '{bad}' must exit 1");
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(text.contains(flag), "got:\n{text}");
        assert_eq!(text.lines().count(), 1, "one-line error, got:\n{text}");
    }
    assert!(!out_file.exists(), "a rejected trace-gen wrote its output");
}

#[test]
fn trace_run_rejects_bad_clusters_and_numbers() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("puma-cli.json");
    let trace = trace.to_str().unwrap();
    let gen = repro(&[
        "trace-gen",
        "puma",
        "--jobs",
        "5",
        "--seed",
        "3",
        "--out",
        trace,
    ]);
    assert!(gen.status.success());
    // PUMA reduce tasks are two containers wide, so one container is too
    // narrow for them.
    for (containers, needle) in [
        ("0", "--containers"),
        ("abc", "--containers"),
        ("1", "job "),
    ] {
        let out = repro(&["trace-run", trace, "--containers", containers]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--containers {containers} must exit 1"
        );
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(text.contains(needle), "got:\n{text}");
        assert_eq!(text.lines().count(), 1, "one-line error, got:\n{text}");
    }
    let ok = repro(&["trace-run", trace, "--containers", "4"]);
    assert!(ok.status.success());
}
