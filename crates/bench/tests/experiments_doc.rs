//! EXPERIMENTS.md quotes what the fault-campaign sweeps print. Each
//! sweep binary runs at the configuration the doc quotes (availability
//! and recovery at their defaults, the other three with `--smoke`) in a
//! scratch directory under the target dir, so its `BENCH_*.json` stays
//! out of the tree. It must exit 0 (clocks identical, gates passed), and
//! its report must appear verbatim as a fenced block of the doc. One more
//! test holds `--out-dir` to moving the JSON and nothing else.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `exe` with `args` and every env knob cleared; asserts it passes
/// and EXPERIMENTS.md quotes its report. Returns the directory holding
/// its `BENCH_<name>.json`.
fn assert_quoted(exe: &str, args: &[&str], name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-{name}"));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let mut command = Command::new(exe);
    command.args(args).current_dir(&dir);
    for knob in "JOBS JOB_NODES REPAIR_SECS SEED BUDGET_PCT N NB TRIALS".split(' ') {
        command.env_remove(knob);
    }
    let output = command.output().expect("run the sweep");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{name} sweep failed:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 report");
    let report = stdout
        .strip_suffix(&format!("wrote BENCH_{name}.json\n"))
        .unwrap_or_else(|| panic!("{name} sweep did not end by writing its JSON:\n{stdout}"));
    let quoted = repo_file("EXPERIMENTS.md").contains(&format!("```\n{report}```\n"));
    assert!(
        quoted,
        "EXPERIMENTS.md does not quote the {name} sweep:\n{report}"
    );
    dir
}

#[test]
fn fault_sweep_is_quoted() {
    assert_quoted(env!("CARGO_BIN_EXE_fault_sweep"), &[], "fault");
}

#[test]
fn recovery_sweep_is_quoted() {
    assert_quoted(env!("CARGO_BIN_EXE_recovery_sweep"), &[], "recovery");
}

#[test]
fn degradation_sweep_smoke_is_quoted() {
    let exe = env!("CARGO_BIN_EXE_degradation_sweep");
    assert_quoted(exe, &["--smoke"], "degradation");
}

#[test]
fn rack_sweep_smoke_is_quoted() {
    assert_quoted(env!("CARGO_BIN_EXE_rack_sweep"), &["--smoke"], "rack");
}

/// `--out-dir DIR` moves the JSON into `DIR` (creating it) and names it
/// on the last line; the report and the JSON bytes are those of a run
/// without the flag.
#[test]
fn out_dir_redirects_the_json() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweep-out-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let run = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
            .args(args)
            .current_dir(&dir)
            .env_remove("JOBS")
            .env_remove("REPAIR_SECS")
            .env_remove("SEED")
            .output()
            .expect("run the sweep");
        assert!(output.status.success());
        String::from_utf8(output.stdout).expect("UTF-8 report")
    };
    let plain = run(&[]);
    let json = std::fs::read_to_string(dir.join("BENCH_fault.json")).expect("read the JSON");
    std::fs::remove_file(dir.join("BENCH_fault.json")).expect("remove the JSON");
    let redirected = run(&["--out-dir", "out/sub"]);
    let report = plain
        .strip_suffix("wrote BENCH_fault.json\n")
        .expect("plain run");
    assert_eq!(
        redirected,
        format!("{report}wrote out/sub/BENCH_fault.json\n")
    );
    let moved = std::fs::read_to_string(dir.join("out/sub/BENCH_fault.json")).expect("moved");
    assert_eq!(moved, json);
    assert!(
        !dir.join("BENCH_fault.json").exists(),
        "nothing in the working directory"
    );
}

/// The smoke run also writes the tracked `BENCH_sdc.json`, byte for byte.
#[test]
fn sdc_sweep_smoke_is_quoted_and_tracked() {
    let dir = assert_quoted(env!("CARGO_BIN_EXE_sdc_sweep"), &["--smoke"], "sdc");
    let written = std::fs::read_to_string(dir.join("BENCH_sdc.json")).expect("read the JSON");
    assert_eq!(written, repo_file("BENCH_sdc.json"));
}
