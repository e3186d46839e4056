#!/usr/bin/env python3
"""Build and run the xnfdb repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds perfbench/xnfbench.exe with dune,
runs the workload in fresh processes, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  setup_s is the median of three to five
set-ups, each in its own process.  --selftest runs every workload, and
those kept out of BENCHMARK.json, at tiny scale, traced and untraced,
and checks that every metric is reported with its unit, that no op
fails, and that the traced layers add up to the traced op time.  Exits non-zero, printing no result, when
the build, a run or a check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
DEADLINE_S = 170  # the whole command must end within 180 s
# setup_s is the median of MIN_SETUPS to MAX_SETUPS set-ups, each in its
# own process; set-ups stop being added once they sum to SETUP_BUDGET_S
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 5, 10.0


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    # outside an opam-initialised shell, let opam put the toolchain on PATH
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") else ["opam", "exec", "--", "dune"]
    r = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release", "./perfbench/xnfbench.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout)
    build_dir = os.environ.get("DUNE_BUILD_DIR", os.path.join(ROOT, "_build"))
    return os.path.join(build_dir, "default", "perfbench", "xnfbench.exe")


def run_exe(exe, args, deadline):
    """Run one workload process; return (meta, result) from its output."""
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        r = subprocess.run(
            [exe, "--out", OUT] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        raise BenchError("run failed (exit %d): %s" % (r.returncode, " ".join(args)))
    return json.loads(lines[0])["meta"], json.loads(lines[-1])


def select(result, wanted):
    """The metrics named in [wanted] (BENCHMARK.json entries), checking units."""
    got = result["metrics"]
    out = {}
    for w in wanted:
        m = got.get(w["name"])
        if m is None:
            raise BenchError("metric %s not reported" % w["name"])
        if m["unit"] != w["unit"]:
            raise BenchError("metric %s has unit %s, expected %s" % (w["name"], m["unit"], w["unit"]))
        out[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def source_rev():
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    lib = os.path.join(ROOT, "lib")
    for d, _, files in sorted(os.walk(lib)):
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def bench(a):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    s = spec()
    if a.workload not in [w["name"] for w in s["workloads"]]:
        raise BenchError("unknown workload " + a.workload)
    exe = build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    meta, res = run_exe(exe, args, deadline)
    if a.trace == 0:
        setups = [res["metrics"]["setup_s"]["value"]]
        while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S):
            _, r = run_exe(exe, args + ["--setup-only"], deadline)
            setups.append(r["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        meta["setup_s_samples"] = setups
        metrics = select(res, s["end_to_end"])
    else:
        metrics = select(res, s["per_layer"])
    meta.update(git_rev=source_rev(), src_digest=source_digest(),
                extra={k: v["value"] for k, v in res["metrics"].items() if k not in metrics})
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": bool(res["correct"]) and res["failed"] == 0,
                      "attempted": int(res["attempted"]), "failed": int(res["failed"]),
                      "metrics": metrics}))


# built into xnfbench.exe but not in BENCHMARK.json (see README.md); the
# self-test runs them too, so that they keep working
OFF_LIST = ["checkout", "band_extract", "wire_snapshot"]


def selftest():
    s = spec()
    exe = build()
    ok = True
    for w in [w["name"] for w in s["workloads"]] + OFF_LIST:
        for trace, wanted in ((0, s["end_to_end"]), (1, s["per_layer"])):
            deadline = time.monotonic() + 120
            _, res = run_exe(exe, ["--workload", w, "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace), "--scale", "tiny"], deadline)
            problems = []
            try:
                for name, m in select(res, wanted).items():
                    print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
            except BenchError as e:
                problems.append(str(e))
            if res["failed"] != 0 or not res["correct"]:
                problems.append("op_fail_frac = %g" % res["metrics"]["op_fail_frac"]["value"])
            if trace == 1:
                frac = res["metrics"]["trace.sum_frac"]["value"]
                if abs(frac - 1.0) > 0.05:
                    problems.append("layers sum to %.3f of traced op time" % frac)
            ok = ok and not problems
            print("%-14s trace=%d %s %s" % (w, trace, "ok" if not problems else "FAIL",
                                             "; ".join(problems)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    os.makedirs(OUT, exist_ok=True)
    try:
        if a.selftest:
            return selftest()
        if not a.workload:
            p.error("--workload is required")
        bench(a)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
