"""In-memory span tracing of orbitcodes' layers, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper under
every name its callers look it up by: module globals such as
``orbitcodes.codes.rref`` (which is also ``orbitcodes.matrix.rref``), values
of module-level dicts (``verify._SUITE_FUNCS``), and class attributes such
as ``Mat.__mul__``.  Each call records a span ``(id, name, site, start,
end, parent, value)``: ``site`` is the module whose name was called, so a
call to ``rref`` from ``codes`` is told apart from one inside ``matrix``;
``value`` is an optional count taken from the result.  ``uninstall`` puts
every original back.

Field arithmetic (``GF.add``, ``GF.mul``, ...) and ``Mat.__init__`` run
millions of times per workload and are not wrapped: their time is counted
in the calls that use them.  ``textio`` is not wrapped either, so parsing
and formatting count as the CLI's own time (``cli.self_s``).
"""

from __future__ import annotations

import sys
import time
from typing import Callable

MARK = "__bench_span__"

# (span name, owner module, attribute, value taken from the result)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("field.construct", "field", "GF.__init__", None),
    ("poly.irreducibles", "poly", "irreducibles", None),
    ("poly.is_irreducible", "poly", "is_irreducible", None),
    ("poly.factor", "poly", "factor", None),
    ("poly.order", "poly", "order", None),
    ("matrix.mul", "matrix", "Mat.__mul__", None),
    ("matrix.pow", "matrix", "Mat.__pow__", None),
    ("matrix.inverse", "matrix", "Mat.inverse", None),
    ("matrix.rref", "matrix", "rref", None),
    ("rcf.elementary_divisors", "rcf", "elementary_divisors", None),
    ("rcf.rcf_from_divisors", "rcf", "rcf_from_divisors", None),
    ("groups.matrix_order", "groups", "matrix_order", None),
    ("groups.class_representatives", "groups", "class_representatives", None),
    ("groups.closure", "groups", "closure", lambda g: g.order),
    ("groups.conjugacy_witness", "groups", "conjugacy_witness", None),
    ("codes.subspace", "codes", "subspace", None),
    ("codes.block_structure", "codes", "block_structure", None),
    ("codes.orbit_code", "codes", "orbit_code", len),
    ("codes.distance_distribution", "codes", "distance_distribution", None),
    ("codes.min_distance", "codes", "min_distance", None),
    ("codes.block_bound", "codes", "block_bound", None),
    ("codes.block_bound_refined", "codes", "block_bound_refined", None),
    ("codes.component_codes", "codes", "component_codes", None),
    ("codes.orbit_period", "codes", "orbit_period", None),
    ("codes.stabilizer_order", "codes", "stabilizer_order", None),
    ("verify.algebra", "verify", "suite_algebra", lambda r: r.checks),
    ("verify.rcf", "verify", "suite_rcf", lambda r: r.checks),
    ("verify.groups", "verify", "suite_groups", lambda r: r.checks),
    ("verify.codes", "verify", "suite_codes", lambda r: r.checks),
    ("verify.bounds", "verify", "suite_bounds", lambda r: r.checks),
    ("cli.main", "cli", "main", None),
)

# Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = (
    ("matrix.mul_calls", "count"),
    ("matrix.mul_s", "s"),
    ("matrix.rref_calls", "count"),
    ("matrix.rref_s", "s"),
    ("codes.orbit_code_s", "s"),
    ("codes.distance_distribution_s", "s"),
    ("codes.min_distance_s", "s"),
    ("codes.block_bounds_s", "s"),
    ("codes.codewords", "count"),
    ("codes.rref_per_codeword", "ratio"),
    ("field.construct_calls", "count"),
    ("field.construct_s", "s"),
    ("poly.irreducibles_s", "s"),
    ("poly.is_irreducible_s", "s"),
    ("poly.factor_calls", "count"),
    ("poly.factor_s", "s"),
    ("poly.order_calls", "count"),
    ("poly.order_s", "s"),
    ("rcf.elementary_divisors_calls", "count"),
    ("rcf.elementary_divisors_s", "s"),
    ("rcf.cache_hit_ratio", "ratio"),
    ("groups.matrix_order_s", "s"),
    ("groups.class_representatives_s", "s"),
    ("groups.closure_s", "s"),
    ("groups.closure_elements", "count"),
    ("verify.algebra_s", "s"),
    ("verify.rcf_s", "s"),
    ("verify.groups_s", "s"),
    ("verify.codes_s", "s"),
    ("verify.bounds_s", "s"),
    ("verify.checks", "count"),
    ("cli.self_s", "s"),
)


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "orbitcodes" or name.startswith("orbitcodes."))
    ]


def _resolve(owner: str, attr: str):
    """(holder, attribute name) of a target: a module or, for
    ``Class.method``, the class."""
    holder = sys.modules[f"orbitcodes.{owner}"]
    if "." in attr:
        cls, attr = attr.split(".")
        holder = getattr(holder, cls)
    return holder, attr


def installed_wrappers() -> int:
    """Number of span wrappers reachable from the package's modules,
    their dicts and their classes; 0 in an untraced process."""
    count = 0
    for module in _package_modules():
        for value in list(vars(module).values()):
            if isinstance(value, dict):
                count += sum(1 for v in value.values() if hasattr(v, MARK))
            elif isinstance(value, type):
                count += sum(1 for v in vars(value).values() if hasattr(v, MARK))
            elif hasattr(value, MARK):
                count += 1
    return count


class Tracer:
    """Spans of one traced repetition, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (holder, key, original, is_attribute)
        self.originals: dict[str, Callable] = {}

    def _wrapper(self, name: str, site: str, fn: Callable, value: Callable | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = value(result) if value is not None and result is not None else 0
                spans.append((span_id, name, site, start, end, parent, count))

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, owner, attr, value in TARGETS:
            holder, key = _resolve(owner, attr)
            original = vars(holder)[key]
            self.originals[name] = original
            if isinstance(holder, type):
                site = holder.__module__
                setattr(holder, key, self._wrapper(name, site, original, value))
                self._patches.append((holder, key, original, True))
                continue
            for module in modules:
                site = module.__name__
                namespace = vars(module)
                for k, v in list(namespace.items()):
                    if v is original:
                        setattr(module, k, self._wrapper(name, site, original, value))
                        self._patches.append((module, k, original, True))
                    elif isinstance(v, dict):
                        for dk, dv in v.items():
                            if dv is original:
                                v[dk] = self._wrapper(name, site, original, value)
                                self._patches.append((v, dk, original, False))

    def uninstall(self) -> None:
        for holder, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of ``LAYER_METRICS`` from the recorded spans."""
        spans = self.spans
        cache = self.originals["rcf.elementary_divisors"].cache_info()
        codewords = sum(
            s[6] for s in spans
            if s[1] == "codes.orbit_code" and s[2] != "orbitcodes.codes"
        )
        rref_from_codes = sum(
            1 for s in spans if s[1] == "matrix.rref" and s[2] == "orbitcodes.codes"
        )
        lookups = cache.hits + cache.misses
        parent_of = {s[0]: s[5] for s in spans}

        def incl(*names: str) -> float:
            return inclusive(spans, set(names), parent_of)

        m = {
            "matrix.mul_calls": calls(spans, "matrix.mul"),
            "matrix.mul_s": incl("matrix.mul"),
            "matrix.rref_calls": calls(spans, "matrix.rref"),
            "matrix.rref_s": incl("matrix.rref"),
            "codes.orbit_code_s": incl("codes.orbit_code"),
            "codes.distance_distribution_s": incl("codes.distance_distribution"),
            "codes.min_distance_s": incl("codes.min_distance"),
            "codes.block_bounds_s": incl(
                "codes.block_bound", "codes.block_bound_refined", "codes.component_codes"
            ),
            "codes.codewords": codewords,
            "codes.rref_per_codeword": rref_from_codes / codewords if codewords else 0.0,
            "field.construct_calls": calls(spans, "field.construct"),
            "field.construct_s": incl("field.construct"),
            "poly.irreducibles_s": incl("poly.irreducibles"),
            "poly.is_irreducible_s": incl("poly.is_irreducible"),
            "poly.factor_calls": calls(spans, "poly.factor"),
            "poly.factor_s": incl("poly.factor"),
            "poly.order_calls": calls(spans, "poly.order"),
            "poly.order_s": incl("poly.order"),
            "rcf.elementary_divisors_calls": calls(spans, "rcf.elementary_divisors"),
            "rcf.elementary_divisors_s": incl("rcf.elementary_divisors"),
            "rcf.cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
            "groups.matrix_order_s": incl("groups.matrix_order"),
            "groups.class_representatives_s": incl("groups.class_representatives"),
            "groups.closure_s": incl("groups.closure"),
            "groups.closure_elements": sum(s[6] for s in spans if s[1] == "groups.closure"),
            "verify.checks": sum(s[6] for s in spans if s[1].startswith("verify.")),
            "cli.self_s": self_time(spans, "cli.main"),
        }
        for suite in ("algebra", "rcf", "groups", "codes", "bounds"):
            m[f"verify.{suite}_s"] = incl(f"verify.{suite}")
        return m


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def inclusive(spans, names: set[str], parent_of: dict | None = None) -> float:
    """Total duration of the spans named in ``names`` that have no ancestor
    named in ``names``, so nested and recursive calls count once.
    ``parent_of`` maps span id to parent id; pass it to save rebuilding it."""
    if parent_of is None:
        parent_of = {s[0]: s[5] for s in spans}
    named = {s[0] for s in spans if s[1] in names}
    total = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p = s[5]
        while p != -1 and p not in named:
            p = parent_of.get(p, -1)
        if p == -1:
            total += s[4] - s[3]
    return total


def self_time(spans, name: str) -> float:
    """Total self time of the spans named ``name``: each span's duration
    minus the durations of its direct children."""
    children = {}
    for s in spans:
        children[s[5]] = children.get(s[5], 0.0) + (s[4] - s[3])
    return sum(s[4] - s[3] - children.get(s[0], 0.0) for s in spans if s[1] == name)
