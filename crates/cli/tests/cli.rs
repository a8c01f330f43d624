//! End-to-end tests of the `rumor` binary: exit-code taxonomy, the
//! `--strict` promotion of degraded results, the fault-injection
//! selftest, and golden `simulate` output.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn rumor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rumor"))
        .args(args)
        .output()
        .expect("spawn rumor binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_golden(actual: &[u8], name: &str) {
    let expected = golden(name);
    assert!(
        actual == expected.as_slice(),
        "{name} differs from its golden bytes\n got: {}\nwant: {}",
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(&expected)
    );
}

/// `rumor simulate` stdout and `--out` CSV, captured when the paper kind
/// still had its own simulator (the CSV path is masked as `<out>`): one
/// path now serves every kind, and it must print the same bytes.
#[test]
fn simulate_output_matches_the_golden_bytes() {
    let csv = std::env::temp_dir().join(format!("rumor_cli_sim_{}.csv", std::process::id()));
    let csv_path = csv.to_str().unwrap();
    let out = rumor(&[
        "simulate", "--nodes", "200", "--tf", "20", "--out", csv_path,
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let written = std::fs::read(&csv).expect("trajectory csv");
    let _ = std::fs::remove_file(&csv);
    assert_golden(
        stdout(&out).replace(csv_path, "<out>").as_bytes(),
        "simulate_paper.stdout",
    );
    assert_golden(&written, "simulate_paper.csv");

    let out = rumor(&[
        "simulate",
        "--nodes",
        "200",
        "--tf",
        "20",
        "--model",
        "tie_strength",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_golden(&out.stdout, "simulate_tie_strength.stdout");
}

/// Writes `bytes` to a temp file unique to this test process and `tag`.
fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rumor_cli_{tag}_{}.txt", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp file");
    path
}

/// `rumor analyze --edges <path>` stdout with the path masked as
/// `<edges>`.
fn analyze_edges(path: &str) -> String {
    let out = rumor(&["analyze", "--edges", path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    stdout(&out).replace(path, "<edges>")
}

/// `--edges` reads one grammar: unsigned decimal ids separated by ASCII
/// whitespace or commas, and `#` comments, also after leading
/// separators. A file written every way it allows, or piped in, prints
/// the clean file's bytes; a signed id or a non-ASCII separator is a
/// rejected input (exit 3) named by its line.
#[test]
fn edge_list_grammar_is_pinned_at_the_cli() {
    // A 40-node ring with chords.
    let edges: Vec<(usize, usize)> = (0..40)
        .flat_map(|i| [(i, (i + 1) % 40), (i, (i * 7 + 3) % 40)])
        .filter(|(u, v)| u != v)
        .collect();
    let clean: String = edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    let mut messy = String::from("# follower followee\r\n,# a comma-led comment\r\n\r\n");
    for (i, (u, v)) in edges.iter().enumerate() {
        let sep = [" ", "\t", ",", " , ", "\t,\t"][i % 5];
        messy.push_str(&format!("  {u}{sep}{v} \r\n"));
        if i % 9 == 0 {
            messy.push_str("\t# note\r\n");
        }
    }
    let clean_path = temp_file("edges_clean", clean.as_bytes());
    let messy_path = temp_file("edges_messy", messy.as_bytes());
    let want = analyze_edges(clean_path.to_str().unwrap());
    assert!(want.contains("nodes:          40"), "{want}");
    assert_eq!(analyze_edges(messy_path.to_str().unwrap()), want);

    let mut child = Command::new(env!("CARGO_BIN_EXE_rumor"))
        .args(["analyze", "--edges", "/dev/stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rumor binary");
    let mut pipe = child.stdin.take().expect("stdin pipe");
    pipe.write_all(messy.as_bytes())
        .expect("write the edge list");
    drop(pipe);
    let out = child.wait_with_output().expect("wait for rumor");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).replace("/dev/stdin", "<edges>"), want);

    for (tag, bad) in [
        ("edges_plus", "0 1\n1 2\n+1 2\n"),
        ("edges_nbsp", "0 1\n1 2\n1\u{a0}2\n"),
    ] {
        let path = temp_file(tag, bad.as_bytes());
        let out = rumor(&["analyze", "--edges", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{bad:?}: stderr {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("line 3"),
            "{bad:?}: stderr {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(clean_path);
    let _ = std::fs::remove_file(messy_path);
}

#[test]
fn help_exits_zero() {
    let out = rumor(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("EXIT CODES"));
}

#[test]
fn usage_errors_exit_two() {
    let out = rumor(&["simulate", "--no-such-option", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"));

    let out = rumor(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));

    // There is no intra-solve thread option: single solves run serially.
    let out = rumor(&["optimize", "--inner-threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"));

    let out = rumor(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn invalid_config_exits_three() {
    let out = rumor(&["optimize", "--nodes", "200", "--epsmax", "-1"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr(&out).contains("control bounds"));
}

#[test]
fn initial_infection_outside_the_unit_interval_exits_three() {
    for command in ["simulate", "optimize"] {
        for model in ["paper", "two_rumor", "tie_strength"] {
            for i0 in ["1.5", "-0.2"] {
                let out = rumor(&[
                    command, "--model", model, "--nodes", "200", "--tf", "5", "--i0", i0,
                ]);
                assert_eq!(
                    out.status.code(),
                    Some(3),
                    "{command} --model {model} --i0 {i0}: stderr {}",
                    stderr(&out)
                );
                assert!(
                    stderr(&out).contains("initial infection must lie in (0, 1]"),
                    "{command} --model {model} --i0 {i0}: stderr {}",
                    stderr(&out)
                );
            }
        }
    }
}

#[test]
fn invalid_abm_config_exits_three_before_any_replica_runs() {
    let out = rumor(&["abm", "--nodes", "50", "--tf", "0"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("--tf must be positive and finite, got 0"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains("quorum"), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "", "a rejected run announces no work");

    for (flag, value, named) in [("--quorum", "1.5", "quorum"), ("--runs", "0", "--runs")] {
        let out = rumor(&["abm", "--nodes", "50", flag, value]);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains(named),
            "{flag} {value}: {}",
            stderr(&out)
        );
        assert_eq!(stdout(&out), "", "{flag} {value}");
    }
}

/// A countermeasure rate or horizon read from the command line is
/// outside input: a bad one is a rejected configuration (exit 3) naming
/// its flag, never a panic, and `selftest` never passes a drill on an
/// empty horizon.
#[test]
fn bad_rates_and_horizons_exit_three_without_a_panic() {
    let cases: [(&[&str], &str); 9] = [
        (&["simulate", "--eps1", "-1"], "--eps1"),
        (&["simulate", "--eps2", "nan"], "--eps2"),
        (
            &["simulate", "--model", "tie_strength", "--eps1", "inf"],
            "--eps1",
        ),
        (&["selftest", "--eps1", "-1"], "--eps1"),
        (&["selftest", "--tf", "0"], "--tf"),
        (&["selftest", "--tf", "-1"], "--tf"),
        (&["selftest", "--tf", "nan"], "--tf"),
        (&["abm", "--tf", "inf"], "--tf"),
        (&["abm", "--tf", "nan"], "--tf"),
    ];
    for (args, flag) in cases {
        let mut argv = args.to_vec();
        argv.extend(["--nodes", "200"]);
        let out = rumor(&argv);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "{argv:?}: {err}");
        assert!(err.contains(flag), "{argv:?}: {err}");
        assert!(!err.contains("panicked"), "{argv:?}: {err}");
        assert_eq!(stdout(&out), "", "{argv:?}");
    }
}

/// `optimize` and `analyze` check their whole configuration before the
/// first line of output, so a rejected run prints nothing.
#[test]
fn rejected_configurations_print_nothing() {
    let cases: [&[&str]; 5] = [
        &["optimize", "--tf", "0"],
        &["optimize", "--max-iters", "0"],
        &["optimize", "--model", "two_rumor", "--tf", "0"],
        &["optimize", "--model", "tie_strength", "--max-iters", "0"],
        &["analyze", "--eps1", "-1"],
    ];
    for args in cases {
        let mut argv = args.to_vec();
        argv.extend(["--nodes", "200"]);
        let out = rumor(&argv);
        assert_eq!(out.status.code(), Some(3), "{argv:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{argv:?}");
    }
}

#[test]
fn selftest_reports_recovery_and_respects_strict() {
    // The NaN scenario must engage the fallback chain, yet the run
    // completes and exits 0 without --strict.
    let base = ["selftest", "--nodes", "200", "--tf", "20"];
    let out = rumor(&base);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fallback engagement"), "stdout: {text}");
    assert!(text.contains("selftest passed"));

    // The quarantined NaN window becomes fatal under --strict: exit 4.
    let mut strict = base.to_vec();
    strict.push("--strict");
    let out = rumor(&strict);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"));
}

#[test]
fn strict_turns_degraded_sweep_into_exit_four() {
    // Starve the sweep of iterations so it cannot converge; the watchdog
    // degrades to its best checkpoint, which --strict makes fatal.
    let args = [
        "optimize",
        "--nodes",
        "200",
        "--tf",
        "20",
        "--max-iters",
        "2",
        "--strict",
    ];
    let out = rumor(&args);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("degraded"));
    assert!(stdout(&out).contains("watchdog"));

    // Without --strict the same degraded run is an ordinary success.
    let out = rumor(&args[..args.len() - 1]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("DEGRADED"));
}

#[test]
fn serve_rejects_bad_configuration_with_exit_three() {
    let out = rumor(&["serve", "--queue-depth", "0"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("queue_depth"));

    let out = rumor(&["serve", "--addr", ""]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("addr"));
}

#[test]
fn serve_reports_bind_failure_with_exit_one() {
    // An unbindable address is a runtime failure, not a config error:
    // the configuration was well-formed, the environment refused it.
    let out = rumor(&["serve", "--addr", "256.256.256.256:0"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("256.256.256.256"));
}

#[test]
fn serve_rejects_unknown_options_with_exit_two() {
    let out = rumor(&["serve", "--listen", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"));
    let out = rumor(&["serve", "--addr", "127.0.0.1:0", "--io-backend", "epoll"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unknown option"));
}

#[test]
fn bad_log_format_exits_two() {
    let out = rumor(&["simulate", "--nodes", "200", "--log-format", "yaml"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--log-format"));
}

#[test]
fn trace_out_writes_json_lines_without_touching_stdout() {
    let path = std::env::temp_dir().join(format!("rumor_cli_trace_{}.jsonl", std::process::id()));
    let out = rumor(&[
        "simulate",
        "--nodes",
        "300",
        "--tf",
        "5",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    // The human-facing report is unchanged by tracing...
    assert!(stdout(&out).contains("mean I"), "stdout: {}", stdout(&out));
    // ...and the spans landed in the file (JSON is the --trace-out
    // default when no --log-format is given), not on stderr.
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "trace file is empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    assert!(text.contains("\"name\":\"ode."), "no ODE spans: {text}");
    assert!(!stderr(&out).contains("\"type\":\"span\""));
}

#[test]
fn log_format_text_goes_to_stderr() {
    let out = rumor(&[
        "simulate",
        "--nodes",
        "300",
        "--tf",
        "5",
        "--log-format",
        "text",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("[span] ode."),
        "stderr: {}",
        stderr(&out)
    );
    // Trace records never pollute stdout (which carries the report).
    assert!(!stdout(&out).contains("[span]"));
}
