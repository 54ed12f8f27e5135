//! The `bench` binary honors `EMOD_TELEMETRY`: a cheap phase run with the
//! variable set leaves a JSONL trace that `emod-trace tree` renders.

use std::process::Command;

#[test]
fn bench_writes_a_trace_that_emod_trace_renders() {
    let dir = std::env::temp_dir().join(format!("emod-bench-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--phase", "canary", "--out"])
        .arg(&dir)
        .env("EMOD_TELEMETRY", &trace)
        .env_remove("EMOD_THREADS")
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let jsonl = std::fs::read_to_string(&trace).expect("bench wrote no trace file");
    assert!(!jsonl.trim().is_empty(), "trace file is empty");

    let tree = Command::new(env!("CARGO_BIN_EXE_emod-trace"))
        .arg("tree")
        .arg(&trace)
        .output()
        .unwrap();
    let rendered = String::from_utf8_lossy(&tree.stdout);
    assert!(
        tree.status.success(),
        "emod-trace tree failed: {}",
        String::from_utf8_lossy(&tree.stderr)
    );
    // The canary phase drives an in-process server, so the trace holds
    // request spans.
    assert!(rendered.contains("serve.request"), "{}", rendered);

    let _ = std::fs::remove_dir_all(&dir);
}
