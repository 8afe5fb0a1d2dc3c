#!/usr/bin/env python3
"""Run one workload of the Hare benchmark and print its result line.

    python3 perfbench/run.py --workload fleet-hare --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark package in this
directory (release, offline, locked), runs it, checks its outputs and that
its exact figures match every earlier run of the same seed and sources,
and prints as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones of BENCHMARK.json,
with `--trace 1` the `per_layer` ones; a traced run also writes its spans
as Chrome trace-event JSON under the build directory. `--smoke` runs the
same code at tiny scale. Exits non-zero, without a result line, when the
build or the run fails; exits 1 after the result line when a check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Hash of every source the benchmark builds from, standing in for the
    commit where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", HERE]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for r in roots:
        files += [p for p in r.rglob("*")
                  if p.is_file() and not {"target", "__pycache__"} & set(p.relative_to(r).parts)]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "none"


def main():
    record = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=record["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny scale, for the tests")
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target)],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    cmd = [str(target / "release" / "hare-perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{tag}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"benchmark exited {run.returncode} without output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark exited {run.returncode}; last line is not its result")
    for line in lines[:-1]:
        print(line)

    digest = source_digest()
    print(f"# host: cores {result['metrics']['proc.cores']:.0f}, profile release, "
          f"commit {git_commit()}, sources {digest}")

    # The exact figures must repeat across processes, not only across the
    # passes of one run: compare with the first run of this seed.
    correct = result["correct"] and run.returncode == 0
    det_path = out_dir / f"exact-{tag}-{digest}.json"
    if det_path.exists():
        before = json.loads(det_path.read_text())
        diff = sorted(k for k in before.keys() | result["exact"].keys()
                      if before.get(k) != result["exact"].get(k))
        same = not diff
        if diff:
            print(f"# exact figures differ from an earlier run of this seed: {', '.join(diff)}")
    else:
        det_path.write_text(json.dumps(result["exact"], sort_keys=True))
        same = True
    print(f"check deterministic_runs {'pass' if same else 'FAIL'}")
    correct = correct and same

    # Units live in BENCHMARK.json only; the program reports names and values.
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        value = result["metrics"].get(m["name"])
        if value is None:
            fail(f"the run did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
