#!/usr/bin/env python3
"""Entry point of the emod benchmark of record.

    python3 perfbench/run.py --workload campaign|uarch_sweep|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the `perfbench` harness and the `emod-serve` binary from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), clears
every EMOD_* variable from the environment, and runs one workload. The
last line of standard output is the result object; the run fails unless
it holds exactly the metrics BENCHMARK.json lists for the mode (end-to-end
for --trace 0, per-layer for --trace 1), in their units. `--selftest` runs each
workload twice with the same seed and fails unless both runs print the
same answer digest. See perfbench/README.md.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign", "uarch_sweep", "serve"]
# The harness must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("EMOD_")}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def build(env):
    """Builds the harness and emod-serve; returns the harness path or None."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        print("perfbench: no emod crates next to perfbench/; nothing to build",
              file=sys.stderr)
        return None
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"),
           "-p", "perfbench", "-p", "emod-serve"]
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return os.path.join(target, "release", "perfbench")


def run(exe, env, args, capture=False):
    """Runs the harness in its own process group, so that on a timeout the
    server it started goes down with it. Returns (exit code, captured
    stdout); the code is None after a timeout."""
    proc = subprocess.Popen([exe] + args, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None, None


def selftest(exe, env):
    ok = True
    for w in WORKLOADS:
        digests = []
        for _ in range(2):
            code, out = run(exe, env, ["--workload", w, "--seed", "7", "--seconds", "1",
                                       "--trace", "0"], capture=True)
            if code != 0:
                print("selftest %s: run failed" % w)
                return 1
            digests.append([l for l in out.splitlines() if l.startswith("digest ")])
        same = bool(digests[0]) and digests[0] == digests[1]
        print("selftest %-12s %s %s" % (w, "ok" if same else "MISMATCH", digests))
        ok = ok and same
    return 0 if ok else 1


def result_problem(out, traced):
    """Returns what is wrong with the run's result line, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if traced else "end_to_end"]}
    lines = out.strip().splitlines()
    try:
        got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result object"
    if got == want:
        return None
    return "metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s" % (
        sorted(set(want) - set(got)), sorted(set(got) - set(want)),
        sorted(k for k in set(want) & set(got) if want[k] != got[k]))


def main():
    env = environment()
    exe = build(env)
    if exe is None:
        return 2
    if sys.argv[1:] == ["--selftest"]:
        return selftest(exe, env)
    code, out = run(exe, env, sys.argv[1:], capture=True)
    if code is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0:
        problem = result_problem(out, "--trace" in sys.argv and
                                 sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"])
        if problem:
            print("perfbench: " + problem, file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
