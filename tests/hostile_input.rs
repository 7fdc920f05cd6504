//! Hostile input through the real `ddosim` binary: a document nested far
//! deeper than any real plan must end in an ordinary error exit with a
//! message, not a stack-overflow abort.

use std::process::Command;

#[test]
fn deeply_nested_scenario_exits_nonzero_with_a_message() {
    // ~100 KB, 50,000 levels deep: enough to overflow a recursive
    // parser's stack.
    let plan = format!(
        r#"{{"schema":"ddosim.scenario/1","name":"deep","world":{}{}}}"#,
        "[".repeat(50_000),
        "]".repeat(50_000)
    );
    let path = std::env::temp_dir().join(format!("ddosim-deep-{}.json", std::process::id()));
    std::fs::write(&path, plan).expect("write the plan");
    let out = Command::new(env!("CARGO_BIN_EXE_ddosim"))
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("run ddosim");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A signal (the abort a stack overflow raises) leaves no exit code.
    assert!(
        out.status.code().is_some_and(|c| c != 0),
        "status {:?}: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("nesting deeper than 128 levels"),
        "stderr: {stderr}"
    );
}
