//! Drives the built `hb_perf` binary at smoke scale (4x2 Cell, `Tiny`
//! inputs, one round), the way a user and the acceptance driver do.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// A fresh working directory for one test, so runs do not share the
/// binary's `.hb_perf_tmp`.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hb_perf(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hb_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("hb_perf runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Every `"name": "..."` of one array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split("\n  ]").next())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .to_owned();
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap().to_owned())
        .collect()
}

/// The raw value of `"key":` in a one-line object of the report.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let rest = line[at..].trim_start_matches('"');
    &rest[..rest.find(['"', ',', '}']).unwrap()]
}

#[test]
fn smoke_run_prints_every_metric_writes_a_report_and_compares_clean() {
    let dir = workdir("smoke-all");
    let started = Instant::now();
    let (ok, stdout) = hb_perf(&dir, &["--smoke", "--seed", "5", "--out", "a.json"]);
    assert!(ok, "smoke run failed:\n{stdout}");
    assert!(
        started.elapsed().as_secs() < 10 || cfg!(debug_assertions),
        "smoke run took {:?}",
        started.elapsed()
    );
    let printed = |workload: &str, metric: &str| {
        stdout.lines().any(|l| {
            let mut words = l.split_whitespace();
            words.next() == Some(workload) && words.next() == Some(metric)
        })
    };
    for w in names_in("workloads") {
        for m in names_in("end_to_end") {
            assert!(printed(&w, &m), "{w} x {m} not printed");
        }
        assert!(stdout.contains(&format!("{w:<18} failed_share 0/")), "{w}");
        assert!(printed(&w, "core.phase_network_s") && printed(&w, "trace.overhead_pct"));
    }
    for m in names_in("per_layer") {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().nth(1) == Some(m.as_str())),
            "{m} not printed"
        );
    }

    let report = std::fs::read_to_string(dir.join("a.json")).unwrap();
    hb_obs::json::validate(&report).expect("the report is JSON");
    assert!(report.contains("\"seed\":5") && report.contains("\"nproc\":"));

    // The six phase rows account for the traced simulation time. The 2%
    // limit is checked at 16x8 by a unit test. Here a cycle of the
    // eight-tile Cell takes ~2 us, of which the twelve clock reads that
    // split it into phases are themselves ~4%, so the limit is 10%.
    let (mut simulate, mut phases) = (0.0, 0.0);
    for line in report.lines().filter(|l| l.starts_with("{\"trace\":")) {
        let seconds: f64 = field(line, "seconds").parse().unwrap();
        match field(line, "name") {
            "core.simulate" => simulate += seconds,
            name if name.starts_with("core.phase_") => phases += seconds,
            _ => {}
        }
    }
    assert!(simulate > 0.0);
    assert!(
        phases <= simulate && phases > 0.90 * simulate,
        "phases sum to {phases}s of {simulate}s simulated"
    );

    let (ok, table) = hb_perf(&dir, &["compare", "a.json", "a.json"]);
    assert!(ok && table.contains("sim.* counts: identical"), "{table}");
    assert!(!table.contains("regressed"), "{table}");
    assert!(
        !dir.join(".hb_perf_tmp").exists(),
        "scratch files left behind"
    );
}

#[test]
fn one_workload_run_ends_with_the_result_object() {
    let dir = workdir("smoke-one");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--smoke",
            "--workload",
            "campaign_4x4",
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ];
        let (ok, stdout) = hb_perf(&dir, &args);
        assert!(ok, "{stdout}");
        let last = stdout.lines().last().unwrap();
        hb_obs::json::validate(last).expect("the result line is JSON");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        let metrics = names_in(section);
        assert_eq!(last.matches("\"value\":").count(), metrics.len(), "{last}");
        for m in metrics {
            assert!(
                last.contains(&format!("\"{m}\": {{\"value\": ")),
                "{m} missing: {last}"
            );
        }
    }
    let (ok, _) = hb_perf(&dir, &["--workload", "no_such", "--seconds", "1"]);
    assert!(!ok, "an unknown workload must fail");
}
