"""orbitcodes benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload code-blocks --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0     # every workload in turn

Each repetition runs the workload's operation list once, one operation at
a time, in a fresh interpreter (``worker.py``), so the package's module
caches start cold as on every CLI call.  Repetitions follow one another
(a closed loop with one client, one worker process at a time) until the
next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
operation's output is compared with the reference captured from the
parent commit (``reference.json``).  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are a readable report and the run's metadata.  The exit code is 1 when
any output is wrong, 2 on a usage error or a missing ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"
REP_TIMEOUT_S = 60.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def tail_percentile(samples: int) -> int | None:
    """The highest of the percentiles 50, 90, 99 and 99.9 (as 500, 900,
    990, 999 per mille) that has at least ten samples beyond it, or None."""
    best = None
    for per_mille in (500, 900, 990, 999):
        if samples * (1000 - per_mille) >= 10 * 1000:
            best = per_mille
    return best


def percentile(values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(per_mille * len(ordered) / 1000)
    return ordered[max(rank, 1) - 1]


def run_rep(ops: list, fields: list[str], trace: bool) -> dict:
    """One repetition in a fresh interpreter; adds ``setup_s``, measured
    from just before the interpreter starts until the worker is ready."""
    job = json.dumps({"ops": ops, "fields": fields, "trace": trace})
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), job],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if ready != "ready\n" or proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}", "setup_s": setup_s}
    result = json.loads(rest)
    result["setup_s"] = setup_s
    return result


def check_rep(rep: dict, reference: list[str]) -> list[str]:
    """Problems of one repetition: an operation whose exit code and output
    differ from the reference (``"<exit code>:<digest>"``) or that broke an
    identity; a wrapper left in an untraced process; a worker that died."""
    if "error" in rep:
        return [rep["error"]]
    problems = []
    if rep.get("wrappers", 0):
        problems.append(f"{rep['wrappers']} span wrappers in an untraced run")
    for i, (_, _, rc, digest, problem) in enumerate(rep["ops"]):
        expected_rc, _, expected_digest = reference[i].partition(":")
        if rc != int(expected_rc):
            problems.append(f"op {i}: exit code {rc}, the reference exited {expected_rc}")
        elif problem:
            problems.append(f"op {i}: {problem}")
        elif digest != expected_digest:
            problems.append(f"op {i}: output differs from the reference")
    return problems


def figures(rep: dict, scaled: bool) -> dict:
    """End-to-end figures of one repetition, speed-scaled or raw."""
    lat = [op[0] * (op[1] if scaled else 1.0) for op in rep["ops"]]
    setup = rep["setup_s"] - rep["setup_probe_s"]
    out = {
        "setup_s": setup * (rep["setup_scale"] if scaled else 1.0),
        "wall_s": sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    per_mille = tail_percentile(len(lat))
    if per_mille is not None and per_mille > 500:
        out[f"op_p{per_mille / 10:g}_ms"] = 1000 * percentile(lat, per_mille)
    return out


def medians(reps: list[dict], scaled: bool) -> dict:
    per_rep = [figures(r, scaled) for r in reps]
    return {k: statistics.median(f[k] for f in per_rep) for k in per_rep[0]}


def metadata(workload: str, seed: int, input_set: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "workload": workload,
        "seed": seed,
        "input_set": input_set,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
        "nproc": nproc,
        "loadavg_start": load,
        "loaded_at_start": load > nproc,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; print the report and return
    the result line."""
    import workloads

    ops = workloads.operations(workload, seed)
    fields = workloads.fields(ops)
    input_set = seed % workloads.POOL
    reference = json.loads(REFERENCE.read_text())["workloads"][workload][str(input_set)]
    meta = metadata(workload, seed, input_set)
    if meta["loaded_at_start"]:
        print(f"warning: load average {meta['loadavg_start']} exceeds nproc "
              f"{meta['nproc']} at start; timings are suspect", file=sys.stderr)

    plain, traced, problems, attempted, failed, durations = [], [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        t = time.perf_counter()
        rep = run_rep(ops, fields, tracing)
        durations.append(time.perf_counter() - t)
        rep_problems = check_rep(rep, reference)
        attempted += len(ops)
        # each failed operation has one problem; any other problem fails all
        whole = any(not p.startswith("op ") for p in rep_problems)
        failed += len(ops) if whole else len(rep_problems)
        problems.extend(rep_problems)
        if "error" not in rep:
            (traced if tracing else plain).append(rep)
        elapsed = time.perf_counter() - start
        enough = plain and (traced or not trace)
        if elapsed + statistics.median(durations) > seconds and (enough or len(durations) >= 3):
            break
    meta["loadavg_end"] = os.getloadavg()[0]
    meta["repetitions"] = {"untraced": len(plain), "traced": len(traced)}

    report = {"meta": meta, "operations": len(ops), "fail_frac": failed / attempted}
    metrics = {}
    if plain:
        scaled = medians(plain, True)
        report["end_to_end"] = scaled
        report["end_to_end_raw"] = medians(plain, False)
        for name, value in scaled.items():
            print(f"{workload}: {name} = {value:.6g} {dict(END_TO_END).get(name, 'ms')}")
        if not trace:
            metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{workload}: fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if trace and plain and traced:
        from spans import LAYER_METRICS

        for name, unit in LAYER_METRICS:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = medians(traced, True)["wall_s"] / report["end_to_end"]["wall_s"] - 1
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"{workload}: FAIL {problem}")
    print(json.dumps({"report": report}))
    correct = not problems and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitcodes" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    all_correct = True
    for name in names:
        line = bench(name, args.seed, args.seconds, bool(args.trace))
        all_correct = all_correct and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
