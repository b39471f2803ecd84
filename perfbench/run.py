#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds the benchmark and the
`pna` CLI with dune (into _build/, nothing outside the checkout); later
calls find them up to date. The benchmark's last line of output is one
JSON result object. --all runs every workload at the default seed and
run length; --self-test runs every workload at a tiny size and checks the
result lines against BENCHMARK.json. See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
PNA = os.path.join("_build", "default", "bin", "pna_cli.exe")
# Claims are developed on this seed and confirmed on the held-out seed 2.
DEFAULT_SEED = 1


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/perfbench.exe", "./bin/pna_cli.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE) and os.path.exists(PNA)


def source_id():
    """The commit when this is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def bench(args):
    cmd = [EXE] + args + ["--pna", PNA, "--commit", source_id()]
    return subprocess.run(cmd).returncode


def run_json(args):
    out = subprocess.run([EXE] + args + ["--pna", PNA], capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    return out.returncode, json.loads(last)


def self_test():
    """Tiny runs: every named metric is printed with its unit, and an
    injected reply mismatch raises failed and the exit code."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            rc, res = run_json(["--workload", name, "--seed", "7", "--seconds", "1",
                                "--trace", str(trace)])
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if rc != 0 or not res.get("correct"):
                problems.append(f"{name} trace {trace}: exit {rc}, result {res}")
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{name} trace {trace}: missing {missing} extra {extra} units {units}")
            print(f"self-test {name} trace {trace}: exit {rc}, {len(got)} metrics", flush=True)
        rc, res = run_json(["--workload", name, "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--inject-mismatch"])
        if rc == 0 or res.get("correct") or res.get("failed", 0) < 1:
            problems.append(f"{name}: injected mismatch not caught (exit {rc}, {res})")
        print(f"self-test {name} injected mismatch: exit {rc}, failed {res.get('failed')}",
              flush=True)
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def run_all():
    """Every workload at the default seed and run length, tracing off."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    codes = [bench(["--workload", w["name"], "--seed", str(DEFAULT_SEED),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"])
             for w in spec["workloads"]]
    return max(codes)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if sys.argv[1:] == ["--all"]:
        return run_all()
    return bench(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
