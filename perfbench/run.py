"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round of the workload runs in a
fresh process (perfbench/workload.py), so every round pays for start-up
and cold caches as a `throttlekit` command would.  Untraced, a run
starts half of its PROBES set-up probes, then whole rounds of the same
operations for about S seconds (at least one round; another starts only
if it should end within half a round of S), then the other probes, and
reports the end-to-end metrics.  Traced, it runs exactly one plain and
one traced round, so every count repeats for a given seed, and reports
the per-layer metrics.  Outputs are checked against oracle.py outside
the timed regions.  Exit status 0 means the run completed; the JSON's
"correct" says whether every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
from workload import SWEEPS, WORKLOADS, load_pool, monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-up samples per run besides the rounds' own; the median of about
# fourteen keeps setup_s within its bound (see README.md).
PROBES = 12
# A run kills its workload process and fails once this many seconds
# have passed, inside the 180 s a run may take.
DEADLINE_S = 170


def launch(workload: str, seed: int, out: str, deadline: float,
           probe: bool = False, trace: str | None = None) -> dict:
    """Run one workload process; return its wall time, set-up time and
    peak resident memory as measured from this process."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if probe:
        cmd.append("--probe")
    if trace:
        cmd += ["--trace", trace]
    start = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr)
    # wait4 gives this child's own peak RSS, where getrusage would give
    # the largest over all children so far.
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise TimeoutError(f"{workload} round passed the run deadline")
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return {"path": out, "launched": start, "wall_s": monotonic() - start,
            "rss_mb": usage.ru_maxrss / 1024}


def load(proc: dict) -> dict:
    with open(proc["path"]) as fh:
        result = json.load(fh)
    result.update(proc, setup_s=result["setup_end"] - proc["launched"])
    return result


def end_to_end(workload: str, seed: int, seconds: int, out: str,
               deadline: float) -> tuple[list[dict], dict]:
    def probe(i: int) -> dict:
        return launch(workload, seed, os.path.join(out, f"probe{i}.json"),
                      deadline, probe=True)

    # Half the probes run before the rounds and half after, so the
    # set-up median samples the machine across the whole run.
    probes = [probe(i) for i in range(PROBES // 2)]
    procs = []
    start = monotonic()
    while True:
        procs.append(launch(workload, seed,
                            os.path.join(out, f"round{len(procs)}.json"),
                            deadline))
        # The half-round margin keeps the round count from flipping
        # when a round takes about half of S.
        if monotonic() - start + procs[-1]["wall_s"] / 2 > seconds:
            break
    probes += [probe(i) for i in range(PROBES // 2, PROBES)]
    rounds = [load(p) for p in procs]
    op_s = [t for r in rounds for t in r["op_s"]]
    setups = [load(p)["setup_s"] for p in probes] + [r["setup_s"] for r in rounds]
    return rounds, {
        "items_per_s": len(op_s) / sum(r["timed_s"] for r in rounds),
        "op_p50_s": statistics.median(op_s),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "setup_s": statistics.median(setups),
    }


def per_layer(workload: str, seed: int, out: str,
              deadline: float) -> tuple[list[dict], dict]:
    trace = os.path.join(out, "trace.json")
    plain = load(launch(workload, seed, os.path.join(out, "round0.json"),
                        deadline))
    traced = load(launch(workload, seed, os.path.join(out, "round1.json"),
                         deadline, trace=trace))
    metrics = tracing.layer_metrics(trace)
    metrics["trace.overhead_s"] = traced["timed_s"] - plain["timed_s"]
    return [plain, traced], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "throttlekit",
                                       "__init__.py")):
        print(f"no throttlekit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    out = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if args.trace:
        rounds, metrics = per_layer(args.workload, args.seed, out, deadline)
    else:
        rounds, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                     out, deadline)
    if sorted(metrics) != sorted(m["name"] for m in listed):
        print("metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    if args.workload == "compute-mid":
        attempted, failed, problems = checks.check_compute(rounds, load_pool())
    else:
        attempted, failed, problems = checks.check_sweep(
            SWEEPS[args.workload], rounds, args.seed)
    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
