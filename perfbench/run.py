#!/usr/bin/env python3
"""Builds and runs the benchmark; compares and sweeps result files.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--results FILE]
    python3 perfbench/run.py sweep --out FILE [--runs 10] [--first-seed 1]
                             [--workload W ...] [--seconds S]
    python3 perfbench/run.py compare A.jsonl B.jsonl
    python3 perfbench/run.py describe [--write]

Run from the root of a checkout. The first form builds `perfbench/` with
cargo (into $CARGO_TARGET_DIR, or perfbench/target), runs one workload
under a wall-clock limit, checks what the program reports, and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--results` also appends the full record to a result file.
`sweep` runs every workload once per seed into a result file and prints
each gated metric's spread; `compare` checks two result files against the
bounds in BENCHMARK.json; `describe` prints (or writes) BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run may take 180 s, and the first one, which builds, 900 s; leave
# margin for start-up and reporting.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    return target if target.is_absolute() else Path.cwd() / target


def build():
    """Builds the benchmark program and returns its path."""
    if not (ROOT / "crates" / "caf-runtime" / "Cargo.toml").is_file():
        fail(f"{ROOT} is not a checkout of the repository: crates/ is missing")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        # Cargo reports on stderr; stdout stays free for the result line.
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=FIRST_RUN_LIMIT_S)
    except FileNotFoundError:
        fail("cargo is not installed")
    except subprocess.TimeoutExpired:
        fail(f"the build took more than {FIRST_RUN_LIMIT_S} s")
    if done.returncode != 0:
        fail(f"the build failed with code {done.returncode}")
    return target / "release" / "perfbench"


def run_once(workload, seed, seconds, trace, deadline, echo=True):
    """Runs the program once; returns (record, problems). With `echo`, the
    program's report lines are passed on to stdout."""
    binary = build()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    started = time.monotonic()
    limit = max(1.0, deadline - started)
    try:
        # The hang limit is enforced here, outside the runtime under test:
        # on expiry the child is killed and reaped.
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: killed after {limit:.0f} s without finishing"]
    if echo:
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        return None, [f"{workload}: the program exited with code {done.returncode}"]
    try:
        record = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return None, [f"{workload}: no result line ({e})"]
    record["seconds"] = seconds
    record["wall_s"] = time.monotonic() - started
    return record, benchlib.record_problems(record, trace)


def cmd_run(args):
    started = time.monotonic()
    first_build = not (target_dir() / "release" / "perfbench").exists()
    deadline = started + (FIRST_RUN_LIMIT_S if first_build else RUN_LIMIT_S)
    names = [n for n, _ in benchlib.WORKLOADS]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    record, problems = run_once(args.workload, args.seed, args.seconds, args.trace, deadline)
    if record is None:
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if problems:
        record["correct"] = False
        record.setdefault("problems", []).extend(problems)
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)
    if args.results:
        benchlib.append_result(args.results, record)
    print(benchlib.result_line(record))
    return 0


def cmd_sweep(args):
    workloads = args.workload or [n for n, _ in benchlib.WORKLOADS]
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            print(f"== {workload} seed {seed}", file=sys.stderr, flush=True)
            deadline = time.monotonic() + FIRST_RUN_LIMIT_S
            record, problems = run_once(workload, seed, args.seconds, False, deadline,
                                        echo=False)
            if record is None or problems or not record["correct"]:
                print(f"FAILED: {workload} seed {seed}: {problems}", file=sys.stderr)
            if record is not None:
                benchlib.append_result(args.out, record)
    rows = benchlib.steadiness(benchlib.load_results(args.out))
    print(f"{'workload':<18} {'metric':<14} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for workload, name, med, spread, bound, steady in rows:
        flag = "" if steady else "  NOT STEADY"
        print(f"{workload:<18} {name:<14} {med:>14.6g} {spread:>8.2%} {bound / 3:>8.2%}{flag}")
    return 0 if all(r[5] for r in rows) else 1


def cmd_compare(args):
    rows, ok = benchlib.compare(benchlib.load_results(args.base),
                                benchlib.load_results(args.new))
    print(benchlib.format_compare(rows))
    print("every gated metric agrees" if ok else "some gated metric DISAGREES")
    return 0 if ok else 1


def cmd_describe(args):
    problems = benchlib.spec_problems()
    if problems:
        fail("; ".join(problems))
    text = benchlib.describe_text()
    if args.write:
        benchlib.benchmark_json_path().write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv):
    if argv and argv[0] in ("sweep", "compare", "describe"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "sweep":
            p.add_argument("--out", required=True)
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--workload", action="append")
            p.add_argument("--seconds", type=int, default=benchlib.RUN_SECONDS)
            return cmd_sweep(p.parse_args(argv[1:]))
        if argv[0] == "compare":
            p.add_argument("base")
            p.add_argument("new")
            return cmd_compare(p.parse_args(argv[1:]))
        p.add_argument("--write", action="store_true")
        return cmd_describe(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=benchlib.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
