"""Text formats for fields, polynomials, and matrices.

Polynomial: comma-separated ascending coefficient codes ("1,1,0,1" is
x^3 + x + 1 over GF(2)).  Matrix: rows joined by ";", entries by ","
("0,1,0;0,0,1;1,1,0").  Field designator: "p" or "p^m", optionally with a
separate modulus coefficient string over F_p.  format_companion_diag writes
diag(companion(p_i^e_i)) in the matrix format from its blocks' rows.

Parse errors carry the character position of the offending token.
"""

from __future__ import annotations

from .errors import ParseError
from .field import GF
from .matrix import Mat, _companion_power
from .poly import Poly


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def format_mat(m: Mat) -> str:
    return ";".join([",".join(map(str, m.row(i))) for i in range(m.rows)])


def format_companion_diag(divisors, block_rows: dict) -> str:
    """format_mat(companion_diag(divisors)), written from the blocks' rows
    without building the n x n matrix: a row of block companion(p^e), with
    `left` columns before the block and `right` after it, is
    "0,"*left + its text + ",0"*right.  block_rows maps each (p, e) to its
    rows' text; a pair missing from it is formatted once and added, so a
    caller formatting many generators passes one dict to them all."""
    blocks = []
    for p, e in divisors:
        rows = block_rows.get((p, e))
        if rows is None:
            rows = block_rows[p, e] = format_mat(_companion_power(p, e)).split(";")
        blocks.append(rows)
    left, right = 0, sum(map(len, blocks))
    out = []
    for rows in blocks:
        right -= len(rows)
        before, after = "0," * left, ",0" * right
        out.extend([before + row + after for row in rows])
        left += len(rows)
    return ";".join(out)


def _numbers(text: str, offset: int, what: str):
    """Yield each ","-separated token of text as (value, position): the one
    tokenizer of element codes and of modulus coefficients."""
    pos = offset
    for token in text.split(","):
        stripped = token.strip()
        if not stripped.isdecimal():
            raise ParseError(f"expected {what}, got {stripped!r}", pos)
        yield int(stripped), pos
        pos += len(token) + 1


def _parse_codes(field: GF, text: str, offset: int) -> list[int]:
    out = []
    for value, pos in _numbers(text, offset, "an element code"):
        if value >= field.q:
            raise ParseError(f"code {value} out of range for {field!r}", pos)
        out.append(value)
    return out


def parse_poly(field: GF, text: str) -> Poly:
    if not text.strip():
        raise ParseError("empty polynomial", 0)
    return Poly(field, _parse_codes(field, text, 0))


def parse_rows(field: GF, text: str, what: str):
    """Yield each ";"-separated row's element codes and starting position:
    the one splitter of matrices and of divisor lists."""
    if not text.strip():
        raise ParseError(f"empty {what}", 0)
    offset = 0
    for chunk in text.split(";"):
        yield _parse_codes(field, chunk, offset), offset
        offset += len(chunk) + 1


def parse_mat(field: GF, text: str) -> Mat:
    rows = []
    for row, offset in parse_rows(field, text, "matrix"):
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"row has {len(row)} entries, expected {len(rows[0])}", offset)
        rows.append(row)
    return Mat.from_rows(field, rows)


def parse_designator(
    designator: str, modulus: str | None = None
) -> tuple[int, int, list[int] | None]:
    """The (p, m, modulus coefficients) of "p" or "p^m" plus an optional
    modulus string, read but not checked: parse_field builds the field."""
    text = designator.strip()
    if "^" in text:
        p_text, _, m_text = text.partition("^")
    else:
        p_text, m_text = text, "1"
    if not p_text.strip().isdecimal():
        raise ParseError(f"expected a prime, got {p_text.strip()!r}", 0)
    if not m_text.strip().isdecimal():
        raise ParseError(
            f"expected an extension degree, got {m_text.strip()!r}",
            text.index("^") + 1 if "^" in text else 0,
        )
    p = int(p_text)
    m = int(m_text)
    mod = None if modulus is None else [c for c, _ in _numbers(modulus, 0, "a coefficient")]
    return p, m, mod


def parse_field(designator: str, modulus: str | None = None) -> GF:
    """Build a field from "p" or "p^m" plus an optional modulus string."""
    p, m, mod = parse_designator(designator, modulus)  # its errors keep their positions
    try:
        return GF(p, m, mod)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
