#!/usr/bin/env python3
"""Build the benchmark driver from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver (perfbench/driver.ml) is built
with dune against the repository's libraries; build output goes to
stderr.

Closed loop with one client: until S seconds have passed, start one
driver process per repetition (a cold query at jobs = 1, as one `biomc`
invocation), and one set-up process and one reference-loop process
between repetitions.  With --trace 1 every untraced repetition is
followed by a traced one, and the per-layer metrics come from the
traced ones.  Every metric is the
median over the run's repetitions, except wall_ref, the run's mean query
time over its mean reference-loop time, and setup_s, the median set-up
time scaled by the same reference (see SETUP_REF_S).

The second-to-last line of stdout records every repetition's query time
and the reference-loop times just before and after it, so a reader can
see which speed regime the run hit.  The last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when the build fails or no repetition ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Set-up times are scaled to a machine whose reference loop takes this
# long (about its time in the container's fast regime): raw, the median
# set-up time of ten-run sets moved by up to 40% with the machine's speed.
SETUP_REF_S = 0.15

END_TO_END = [
    ("wall_ref", "ratio"),
    ("setup_s", "s"),
    ("heap_peak_mb", "MB"),
    ("decided_frac", "ratio"),
]


def child(driver, args):
    """Run one driver process; its last stdout line as JSON, or None."""
    p = subprocess.run([driver] + args, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"perfbench: {' '.join(args)} exited {p.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"perfbench: {' '.join(args)} printed {lines[-1]!r}", file=sys.stderr)
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "perfbench/driver.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    driver = os.path.join(root, "_build", "default", "perfbench", "driver.exe")
    workload_args = ["--workload", a.workload, "--seed", str(a.seed)]
    rep_args = ["--rep"] + workload_args

    refs = []

    def ref():
        r = child(driver, ["--ref"])
        if r is None:
            sys.exit(1)
        refs.append(r)
        return r

    # Each successful untraced repetition with the reference-loop times
    # just before and after it; failures count but carry no timing.
    reps, traced, setups = [], [], []
    attempted = failed = 0

    def run(args, out):
        nonlocal attempted, failed
        r = child(driver, args)
        attempted += 1
        if r is None or not r["ok"]:
            failed += 1
            return None
        out.append(r)
        return r

    before = ref()
    deadline = time.monotonic() + a.seconds
    while True:
        r = run(rep_args, reps)
        if a.trace:
            run(rep_args + ["--traced"], traced)
        else:
            s = child(driver, ["--setup"] + workload_args)
            if s is None:
                return 1
            setups += s
        after = ref()
        if r is not None:
            r["ref_s"] = (before, after)
        before = after
        if time.monotonic() >= deadline:
            break
    if not reps or (a.trace and not traced):
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1

    med = statistics.median
    if a.trace:
        metrics = {
            k: (med(r["layers"][k]["value"] for r in traced), m["unit"])
            for k, m in traced[0]["layers"].items()
        }
        metrics["wall_s"] = (med(r["wall_s"] for r in reps), "s")
        metrics["gc.major_collections"] = (med(r["gc.major_collections"] for r in reps), "count")
        metrics["gc.alloc_mb"] = (med(r["gc.alloc_mb"] for r in reps), "MB")
        metrics["trace.overhead_ratio"] = (
            med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in reps),
            "ratio",
        )
    else:
        values = {
            # A ratio of means: per-repetition ratios of the long queries
            # swung more, as the regime changes within a query.
            "wall_ref": statistics.mean(r["wall_s"] for r in reps) / statistics.mean(refs),
            "setup_s": med(setups) * SETUP_REF_S / statistics.mean(refs),
            "heap_peak_mb": med(r["heap_peak_mb"] for r in reps),
            "decided_frac": med(r["decided_frac"] for r in reps),
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END}

    ms = lambda f: [round(f(r) * 1e3, 2) for r in reps]
    print(json.dumps({
        "workload": a.workload,
        "ref_before_ms": ms(lambda r: r["ref_s"][0]),
        "ref_after_ms": ms(lambda r: r["ref_s"][1]),
        "query_ms": ms(lambda r: r["wall_s"]),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
