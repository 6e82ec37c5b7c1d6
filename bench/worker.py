"""One repetition of a workload in a fresh interpreter.

Takes a job ``{"ops": [...], "fields": [...], "trace": bool}`` as JSON in
its one argument, imports the package from ``src/``, builds the inputs'
fields, then prints ``ready`` (the parent stops its set-up clock on that
line).  It runs the operations one at a time, each timed on its own,
while a speed probe (see below) runs in the background.  It prints one
JSON line: per operation the latency, speed scale, exit code, output
digest and identity-check problem; the probe's time and speed scale during
set-up; the peak resident memory; and, when traced, the per-layer metrics.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

# The machine's speed drifts by a fifth and more within seconds when other
# tenants load the host.  A SIGALRM handler times a fixed slice of
# pure-Python work every PROBE_PERIOD_S seconds of wall time, from the
# start of the worker to its end.  Each operation's latency is its wall
# time minus the slices that ran inside it, multiplied by
# REFERENCE_SLICE_S over the mean slice around it.  That gives its time at
# the speed at which the slice takes REFERENCE_SLICE_S (a quiet moment of
# a 2-core x86-64 cloud VM running Python 3.11).
PROBE_LOOPS = 15_000
PROBE_PERIOD_S = 0.04
REFERENCE_SLICE_S = 0.0011


class SpeedProbe:
    """Slices of fixed work, timed from a SIGALRM handler."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.starts.append(t0)
        self.lengths.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and take a last slice, so that every window has
        a slice after it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick(None, None)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds the probe ran inside [t0, t1), speed scale there).  A
        window too short to hold a slice takes the slices on either side."""
        inside = [n for s, n in zip(self.starts, self.lengths) if t0 <= s < t1]
        if inside:
            return sum(inside), REFERENCE_SLICE_S * len(inside) / sum(inside)
        before = [n for s, n in zip(self.starts, self.lengths) if s < t0][-1:]
        after = [n for s, n in zip(self.starts, self.lengths) if s >= t1][:1]
        near = before + after
        return 0.0, REFERENCE_SLICE_S * len(near) / sum(near)


PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # before the package import, so that set-up is probed too

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Library calls go through module attributes (groups.matrix_order, ...),
# which are the names the tracer replaces.
import orbitcodes.cli  # noqa: E402
from orbitcodes import groups, poly  # noqa: E402
from orbitcodes.field import GF  # noqa: E402
from orbitcodes.matrix import Mat  # noqa: E402
from orbitcodes.poly import Poly  # noqa: E402
from orbitcodes.textio import format_poly, parse_field  # noqa: E402

DIGEST_CHARS = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def code_report_problem(text: str) -> str | None:
    """Identities every `code` report must satisfy, independent of the
    reference: D_0 = 1, sum D_i = |C|, and |C| divides |G|."""
    report = json.loads(text)
    dist = report["distance_distribution"]
    card = report["cardinality"]
    if dist[0] != 1:
        return f"D_0 = {dist[0]}, expected 1"
    if sum(dist) != card:
        return f"sum of the distribution {sum(dist)} != |C| = {card}"
    if report["group_order"] % card:
        return f"|C| = {card} does not divide |G| = {report['group_order']}"
    return None


def field_text(f) -> str:
    """The modulus and a sample of products, enough to pin down the tables."""
    products = [f.mul(a, (7 * a + 3) % f.q) for a in range(min(f.q, 256))]
    return f"GF({f.p}^{f.m}) modulus {list(f.modulus)} products {products}\n"


def factor_problem(f: Poly, parts) -> str | None:
    product = Poly.one(f.field)
    for p, e in parts:
        product = product * p**e
    return None if product == f else "the factors do not multiply back to f"


def run_op(op: list, fields: dict) -> tuple[float, float, int, str, str | None]:
    """(start, end, exit code, output, problem) of one operation; only the
    call itself is inside the clock."""
    kind = op[0]
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = orbitcodes.cli.main(op[1])
            t1 = time.perf_counter()
        text = out.getvalue()
        problem = None
        if rc == 0 and op[1][0] == "code":
            problem = code_report_problem(text)
        return t0, t1, rc, text, problem
    if kind == "field":
        t0 = time.perf_counter()
        f = GF(op[1], op[2])
        t1 = time.perf_counter()
        return t0, t1, 0, field_text(f), None
    f = fields[op[1]]
    if kind == "matrix_order":
        a = Mat(f, op[2], op[2], op[3])
        t0 = time.perf_counter()
        n = groups.matrix_order(a)
        t1 = time.perf_counter()
        return t0, t1, 0, f"{n}\n", None
    g = Poly(f, op[2])
    if kind == "is_irreducible":
        t0 = time.perf_counter()
        irreducible = poly.is_irreducible(g)
        t1 = time.perf_counter()
        return t0, t1, 0, f"{irreducible}\n", None
    if kind == "factor":
        t0 = time.perf_counter()
        parts = poly.factor(g)
        t1 = time.perf_counter()
        text = " ".join(f"({format_poly(p)})^{e}" for p, e in parts) + "\n"
        return t0, t1, 0, text, factor_problem(g, parts)
    raise ValueError(f"unknown operation kind {kind!r}")


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    fields = {d: parse_field(d) for d in job["fields"]}
    ready = time.perf_counter()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    ops, windows = [], []
    for op in job["ops"]:
        t0, t1, rc, text, problem = run_op(op, fields)
        windows.append((t0, t1))
        ops.append([rc, digest(text), problem])
    PROBE.stop()
    for op, (t0, t1) in zip(ops, windows):
        busy, scale = PROBE.window(t0, t1)
        op[:0] = [t1 - t0 - busy, scale]
    setup_busy, setup_scale = PROBE.window(PROBE.starts[0], ready)
    result = {
        "ops": ops,  # [latency, scale, exit code, digest, problem]
        "setup_probe_s": setup_busy,
        "setup_scale": setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    else:
        from spans import installed_wrappers

        result["wrappers"] = installed_wrappers()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
