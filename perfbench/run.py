#!/usr/bin/env python3
"""zkperf benchmark driver.

Builds perfbench/ (CMake, Release) into .bench_build/ at the repository
root, or into $CARGO_TARGET_DIR when set, then runs the zkbench binary.

  run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload. The last line of standard output is the
      result object {"correct", "attempted", "failed", "metrics"}:
      end-to-end metrics untraced, per-layer metrics traced.

  run.py --all [--seed <n>] [--seconds <s>]
      Every workload (those of BENCHMARK.json and the ungated ones of
      spec.json), each in its own process; prints every
      end-to-end metric with its unit and exits non-zero unless
      ok_frac = 1.

  run.py --repeat <k> [--workload <name>] [--seed <n>] [--seconds <s>]
         [--smoke]
      k runs per workload (seeds n..n+k-1); prints each metric's median,
      quartiles and spread (IQR / median) next to its bound.

  run.py --smoke
      The same at 2^10 sizes (spec.json "smoke"), three runs per
      workload plus one traced run: checks ok_frac = 1 and that every
      metric of BENCHMARK.json is printed.

Sizes, rates and limits live in perfbench/spec.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("zkperf sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            steps.append(cfg)
        steps.append(["cmake", "--build", out, "--target", "zkbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out, "zkbench")


def zkbench_args(spec, workload, seed, seconds, trace, smoke):
    params = dict(spec["params"])
    if smoke:
        params.update({k: v for k, v in spec["smoke"].items()
                       if k != "seconds"})
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    for k, v in params.items():
        args += ["--" + k, str(v)]
    if trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, seed))]
    return args


def run_once(binary, args, echo=True):
    """Run zkbench; returns (exit code, result dict or None, host line)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it.
        fail("zkbench timed out after %d s" % RUN_TIMEOUT, 4)
    lines = p.stdout.splitlines()
    if echo:
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    host = next((l for l in lines if l.startswith('{"host"')), "")
    return p.returncode, result, host


def summarize(bench, runs, trace, gated):
    """Per-metric median, quartiles and spread over several runs.

    A gated workload must print every metric BENCHMARK.json lists;
    bounds are shown for gated workloads only."""
    kind = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: m for m in bench[kind]}
    names = list(listed) if gated else []
    for r in runs:
        names += [n for n in r["metrics"] if n not in names]
    print("%-28s %-6s %12s %12s %12s %8s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    ok = True
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r["metrics"]]
        if len(vals) != len(runs):
            print("%-28s missing in %d run(s)" %
                  (name, len(runs) - len(vals)))
            ok = False
            continue
        m = listed.get(name) or {
            "unit": runs[0]["metrics"][name]["unit"]}
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound") if gated else None
        print("%-28s %-6s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, m["unit"], med, q1, q3, spread,
               "" if bound is None else "%.2f" % bound))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    gated = [w["name"] for w in bench["workloads"]]
    workloads = gated + list(spec["ungated"])
    if a.workload is not None and a.workload not in workloads:
        fail("unknown workload %r (have: %s)" %
             (a.workload, ", ".join(workloads)))
    seconds = a.seconds or (spec["smoke"]["seconds"] if a.smoke
                            else bench["run_seconds"])
    binary = build()

    if not (a.all or a.repeat or a.smoke):
        if a.workload is None:
            fail("--workload is required")
        code, _, _ = run_once(binary, zkbench_args(
            spec, a.workload, a.seed, seconds, a.trace, False))
        sys.exit(code)

    if a.all:
        ok = True
        for w in workloads:
            print("## %s" % w)
            code, res, _ = run_once(binary, zkbench_args(
                spec, w, a.seed, seconds, False, a.smoke))
            ok = ok and code == 0 and res is not None and \
                res["metrics"]["ok_frac"]["value"] == 1
        sys.exit(0 if ok else 1)

    reps = a.repeat or 3
    chosen = [a.workload] if a.workload else workloads
    ok = True
    for w in chosen:
        runs = []
        for seed in range(a.seed, a.seed + reps):
            code, res, host = run_once(binary, zkbench_args(
                spec, w, seed, seconds, bool(a.trace), a.smoke), echo=False)
            if code != 0 or res is None:
                print("%s seed %d: exit %d" % (w, seed, code))
                ok = False
                continue
            if not a.trace and res["metrics"]["ok_frac"]["value"] != 1:
                ok = False
            runs.append(res)
        print("## %s: %d run(s) of %.0f s%s" %
              (w, len(runs), seconds, " (smoke)" if a.smoke else ""))
        print(host)
        if runs:
            ok = summarize(bench, runs, bool(a.trace),
                           a.trace or w in gated) and ok
    if a.smoke and not a.trace:
        print("## traced ladder (smoke)")
        code, res, _ = run_once(binary, zkbench_args(
            spec, chosen[0], 1, seconds, True, True), echo=False)
        ok = ok and code == 0 and res is not None
        if res is not None:
            ok = summarize(bench, [res], True, True) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
