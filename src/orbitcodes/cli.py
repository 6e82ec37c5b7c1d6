"""Command-line surface.

Subcommands:

* classify: one row per conjugacy class of cyclic subgroups of GL_n(F_q).
* code: build a cyclic orbit code from block divisors and a base subspace,
  reporting parameters and both distance bounds as JSON/CSV/text.
* verify: run the property suites; exit 0 only if every hard check passes
  (documented-ambiguity findings are WARN lines and never fail a run).
* examples: reproduce the two small non-extendability counterexamples
  end to end, printing one PASS line per claim.

classify and code only build their records, and one formatter, _render,
writes them as JSON, CSV or text; the code CSV columns lead its JSON report.
Neither builds an n x n generator: orders come from the divisors and each
generator is written from its blocks' rows (textio.format_companion_diag).

Exit codes: 0 success, 1 hard-assertion failure (a failed verify check or
an internal invariant, reported in one line on stderr), 2 usage or parse
error (an --out path that cannot be written included).
Identical arguments (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys

from .codes import (
    block_bound,
    block_bound_refined,
    block_structure,
    subspace,
)
from .errors import ParseError
from .groups import (
    CyclicGroup,
    class_representatives,
    closure,
    conjugacy_witness,
    divisors_order,
)
from .poly import Poly, factor
from .textio import (
    format_companion_diag,
    format_mat,
    format_poly,
    parse_designator,
    parse_field,
    parse_mat,
    parse_rows,
)
from .verify import SUITES, run_suites

_DEFAULT_MAX_BITS = 22


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcodes",
        description="cyclic orbit codes over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, field: bool) -> None:
        if field:
            p.add_argument("--field", default="2", help='field designator "p" or "p^m"')
            p.add_argument("--modulus", default=None, help="modulus coefficients over F_p")
        p.add_argument("--out", default=None, help="write output to this path")

    p_classify = sub.add_parser("classify", help="conjugacy classes of cyclic subgroups")
    common(p_classify, field=True)
    p_classify.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_classify.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_classify.add_argument(
        "--max-bits",
        type=int,
        default=_DEFAULT_MAX_BITS,
        help="refuse when n*log2(q) exceeds this budget",
    )

    p_code = sub.add_parser("code", help="construct and analyze one orbit code")
    common(p_code, field=True)
    p_code.add_argument("--n", type=int, required=True)
    p_code.add_argument(
        "--divisors",
        required=True,
        help="semicolon-separated block polynomials, each a power of an irreducible",
    )
    p_code.add_argument(
        "--subspace",
        required=True,
        help="a matrix whose row space is the base point; its rows may be dependent",
    )
    p_code.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_verify = sub.add_parser("verify", help="run the property suites")
    common(p_verify, field=False)
    p_verify.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)}, or all")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)

    p_examples = sub.add_parser("examples", help="reproduce the two counterexamples")
    common(p_examples, field=False)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _render(fmt: str, doc: dict, columns: list[str], rows, lines) -> str:
    """One report as text: the JSON document, the CSV columns and rows (a list
    cell joined by "|"), or the text lines.  rows and lines are iterables read
    only for their own format, so the formats not chosen are never built."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["|".join(map(str, v)) if isinstance(v, list) else v for v in row])
        return buf.getvalue()
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    p, m, _ = parse_designator(args.field, args.modulus)
    if args.n < 1:
        raise ParseError("--n must be a positive integer", 0)
    # exact for q = 2^m; q = 0 (p = 0) is left for GF to reject
    bits = math.ceil(args.n * math.log2(max(p**m, 1)))
    if bits > args.max_bits:  # before GF is built: finding its modulus is work too
        sys.stderr.write(
            f"refusing: n*log2(q) = {bits} exceeds the budget {args.max_bits}; "
            "raise --max-bits to force\n"
        )
        return 2
    field = parse_field(args.field, args.modulus)
    block_rows = {}  # each companion block's rows, formatted once per call
    classes = [
        {
            "class": i,
            "group_order": rep.order,
            "signature": rep.signature,
            "divisors": [
                {"p": format_poly(p), "e": e} for p, e in rep.rcf.divisors
            ],
            "generator": format_companion_diag(rep.rcf.divisors, block_rows),
        }
        for i, rep in enumerate(class_representatives(field, args.n))
    ]
    rows = (
        [
            c["class"],
            c["group_order"],
            [f"{o}:{e}:{d}" for o, e, d in c["signature"]],
            [f"{d['p']}^{d['e']}" for d in c["divisors"]],
            c["generator"],
        ]
        for c in classes
    )

    def text_line(c: dict) -> str:
        sig = ", ".join(f"(ord={o}, e={e}, deg={d})" for o, e, d in c["signature"])
        divs = "; ".join(f"({d['p']})^{d['e']}" for d in c["divisors"])
        return (
            f"  class {c['class']}: order {c['group_order']}, "
            f"signature [{sig}], divisors {divs}, generator {c['generator']}"
        )

    header = f"cyclic subgroup classes of GL_{args.n}(F_{field.q}): {len(classes)}"
    doc = {"q": field.q, "n": args.n, "classes": classes}
    columns = ["class", "group_order", "signature", "divisors", "generator"]
    lines = itertools.chain([header], map(text_line, classes))
    _emit(_render(args.format, doc, columns, rows, lines), args.out)
    return 0


def cmd_code(args: argparse.Namespace) -> int:
    field = parse_field(args.field, args.modulus)
    divisors = []
    for codes, offset in parse_rows(field, args.divisors, "polynomial"):
        parts = factor(Poly(field, codes).monic())
        if len(parts) != 1:
            text = ",".join(map(str, codes))
            raise ParseError(f"divisor {text!r} is not a power of a single irreducible", offset)
        divisors.append(parts[0])
    degrees = sum(int(p.degree) * e for p, e in divisors)
    if degrees != args.n:
        raise ParseError(
            f"divisor degrees sum to {degrees}, but --n is {args.n}", 0
        )
    base = subspace(parse_mat(field, args.subspace))
    if base.n != args.n:
        raise ParseError(
            f"subspace lives in dimension {base.n}, but --n is {args.n}", 0
        )
    bs = block_structure(base, divisors)
    # a cyclic group is its divisors: no generator matrix is built here
    group_order = divisors_order(bs.divisors)
    profile = bs.profile
    if group_order % profile.period:
        raise AssertionError("orbit period does not divide the group order")
    literal, lcm_card = block_bound(bs)
    refined = block_bound_refined(bs)
    dist = list(profile.distribution)
    components = []
    for blk in bs.blocks:
        p, e = blk.divisor
        entry = {
            "block": blk.index,
            "p": format_poly(p),
            "e": e,
            "degree": blk.degree,
            "k": blk.k,
        }
        if blk.profile is None:
            entry["cardinality"] = None
        else:
            # the component code's size and distance, from the block's profile
            entry["cardinality"] = blk.profile.period
            entry["min_distance"] = blk.profile.min_distance
        components.append(entry)
    # the code's parameters lead the report and are its CSV columns
    summary = {
        "q": field.q,
        "n": args.n,
        "k": base.k,
        "group_order": group_order,
        "cardinality": profile.period,
        "min_distance": profile.min_distance,
        "distance_distribution": dist,
        "bound_literal": literal,
        "bound_refined": refined,
        "lcm_cardinality": lcm_card,
    }
    report = {
        **summary,
        "components": components,
        "base_subspace": format_mat(base.basis),
        "generator": format_companion_diag(bs.divisors, {}),
    }

    def text_lines():
        yield f"orbit code in Gr(q={field.q}, k={base.k}, n={args.n})"
        yield f"  group order {group_order}, cardinality {profile.period}"
        yield f"  min distance {profile.min_distance}, distribution {dist}"
        yield f"  bounds: per-component {literal}, refined {refined}, lcm cardinality {lcm_card}"
        for c in components:
            yield (
                f"  block {c['block']}: ({c['p']})^{c['e']} degree {c['degree']}, "
                f"k_i={c['k']}, |C_i|={c['cardinality']}"
            )

    text = _render(args.format, report, list(summary), [summary.values()], text_lines())
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        results = run_suites(names, seed=args.seed, trials=args.trials)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    lines = []
    failed = False
    for res in results:
        for finding in res.findings:
            lines.append(str(finding))
        status = "FAIL" if res.failed else "ok"
        failed = failed or res.failed
        lines.append(f"suite {res.suite}: {res.checks} checks, {status}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if failed else 0


def cmd_examples(args: argparse.Namespace) -> int:
    lines = []
    passed = True

    def claim(name: str, ok: bool, detail: str) -> None:
        nonlocal passed
        passed = passed and ok
        lines.append(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")

    f2 = parse_field("2")
    a = parse_mat(f2, "0,1,0;0,0,1;1,1,0")
    at = a.transpose()
    ga = CyclicGroup(a)
    claim("cyclic group order", ga.order == 7, f"|<A>| = {ga.order}")
    big = closure([a, at])
    expected = 1
    for i in range(3):
        expected *= 2**3 - 2**i
    claim(
        "pair closure is the full linear group",
        big.order == expected == 168,
        f"|<A, A^t>| = {big.order}, product formula {expected}",
    )
    claim(
        "equal divisors, non-conjugate groups",
        ga.order != big.order,
        f"{ga.order} != {big.order} denies conjugacy by cardinality",
    )

    f4 = parse_field("2^2")
    a4 = parse_mat(f4, "0,1,0;0,0,1;1,1,0")
    b1 = parse_mat(f4, "0,1,0;0,0,1;1,0,1")
    b2 = parse_mat(f4, "3,1,2;2,2,3;0,1,0")
    witness = conjugacy_witness(b1, b2)
    claim(
        "matrices conjugate over GF(4)",
        witness == 1,
        f"B1 ~ B2 with witness power {witness}",
    )
    g1 = closure([a4, b1])
    g2 = closure([a4, b2])
    claim(
        "conjugate generators, non-conjugate pairs",
        g1.order != g2.order,
        f"|<A,B1>| = {g1.order} != {g2.order} = |<A,B2>|",
    )

    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed else 1


_COMMANDS = {
    "classify": cmd_classify,
    "code": cmd_code,
    "verify": cmd_verify,
    "examples": cmd_examples,
}


# built on the first main() call, not at import, and reused by later calls
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, AssertionError) as exc:
        # an internal invariant failed: one line of text, never a traceback
        message = " ".join(str(exc).split()) or type(exc).__name__
        sys.stderr.write(f"internal error: {message}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
