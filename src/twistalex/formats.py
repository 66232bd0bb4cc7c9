"""Parsers for the input formats: monodromies, Seifert and Laurent
matrices, homomorphisms and presentations.

The program reads these formats and never writes them back; errors carry
the offending line.
"""

from __future__ import annotations

import re

from .errors import ParseError, WordLengthError
from .exactla import IntMatrix, LambdaMatrix
from .freegrp import MAX_WORD_LETTERS, FreeEndo, Word
from .grouphom import (CyclicTarget, FiniteHom, PermutationTarget, Presentation,
                       alternating, check_closure_bound, cyclic,
                       perm_from_cycle_text, symmetric)
from .laurent import parse_laurent
from .seifert import SeifertMatrix

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


def _nonblank_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_word(text: str, names: dict[str, int], line: int | None = None) -> Word:
    """A word as whitespace-separated letters ``name``, ``name^-1``, ``name^k``."""
    letters = []
    for tok in text.split():
        name, _, exp_text = tok.partition("^")
        if name not in names:
            raise ParseError(f"unknown generator {name!r}", line)
        if exp_text:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ParseError(f"malformed exponent in {tok!r}", line) from None
            if exp == 0:
                raise ParseError(f"zero exponent in {tok!r}", line)
        else:
            exp = 1
        letters.append((names[name], exp))
    try:
        return Word(letters)
    except WordLengthError:
        shown = " ".join(text.split())
        if len(shown) > 40:
            shown = shown[:37] + "..."
        where = "" if line is None else f" (line {line})"
        raise WordLengthError(f"the input word {shown!r}{where} has more than "
                              f"{MAX_WORD_LETTERS} letters") from None


def _parse_generators(lines, what: str) -> tuple[list[str], dict[str, int]]:
    """The ``generators: x y ...`` line a monodromy or presentation file
    starts with: distinct names, and each name's index."""
    if not lines or not lines[0][1].startswith("generators:"):
        raise ParseError(f"{what} file must start with a 'generators:' line",
                         lines[0][0] if lines else 1)
    lineno, header = lines[0]
    names = header[len("generators:"):].split()
    if not names or any(not _NAME_RE.match(n) for n in names):
        raise ParseError("malformed generator names", lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names", lineno)
    return names, {n: i for i, n in enumerate(names)}


# -- monodromy files ---------------------------------------------------------


def parse_monodromy(text: str) -> tuple[FreeEndo, list[str]]:
    """Format: a ``generators: x y ...`` line, then one ``x -> image`` line
    per generator."""
    lines = list(_nonblank_lines(text))
    names, index = _parse_generators(lines, "monodromy")
    images: dict[int, Word] = {}
    for lineno, line in lines[1:]:
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("expected 'generator -> image' line", lineno)
        name = lhs.strip()
        if name not in index:
            raise ParseError(f"unknown generator {name!r}", lineno)
        if index[name] in images:
            raise ParseError(f"duplicate image for {name!r}", lineno)
        images[index[name]] = parse_word(rhs, index, lineno)
    missing = [n for n in names if index[n] not in images]
    if missing:
        raise ParseError(f"missing image for generator(s): {', '.join(missing)}")
    endo = FreeEndo(len(names), [images[i] for i in range(len(names))])
    return endo, names


# -- matrix files ------------------------------------------------------------


def parse_seifert(text: str) -> SeifertMatrix:
    """Format: first line the size, then that many rows of integers."""
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError("empty Seifert matrix file", 1)
    lineno, first = lines[0]
    try:
        size = int(first)
    except ValueError:
        raise ParseError("first line must be the matrix size", lineno) from None
    if size < 0:
        raise ParseError(f"negative matrix size {size}", lineno)
    rows = []
    for lineno, line in lines[1:]:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError("malformed integer row", lineno) from None
        if len(row) != size:
            raise ParseError(f"expected {size} entries in row", lineno)
        rows.append(row)
    if len(rows) != size:
        raise ParseError(f"expected {size} rows, got {len(rows)}")
    return SeifertMatrix(IntMatrix.from_rows(rows))


def parse_lambda_matrix(text: str) -> LambdaMatrix:
    """Same shape header, entries as compact polynomial tokens like ``s^2-s+1``.

    Each distinct token is parsed once and its value, immutable, shared by
    every entry that repeats it; a bad token raises at its first line."""
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError("empty matrix file", 1)
    lineno, first = lines[0]
    try:
        rows, cols = map(int, first.split())
    except ValueError:
        raise ParseError("first line must be 'rows cols'", lineno) from None
    if rows < 0 or cols < 0:
        raise ParseError(f"negative matrix shape {rows} x {cols}", lineno)
    entries, parsed = [], {}
    for lineno, line in lines[1:]:
        for tok in line.split():
            entry = parsed.get(tok)
            if entry is None:
                entry = parsed[tok] = parse_laurent(tok, line=lineno)
            entries.append(entry)
    if len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
    return LambdaMatrix(rows, cols, entries)


# -- homomorphism and presentation files --------------------------------------


def _parse_target(text: str, lineno: int | None = None):
    text = text.strip()
    if text.startswith("Z/"):
        digits = text[2:]
        try:
            r = int(digits)
        except ValueError:
            if digits.isdecimal():  # more digits than int() converts
                raise ParseError(f"cyclic order of {len(digits)} digits is too long",
                                 lineno) from None
            raise ParseError(f"malformed cyclic target {text!r}", lineno) from None
        if r < 1:
            raise ParseError("cyclic order must be >= 1", lineno)
        return cyclic(r)
    m = re.match(r"([AS])(\d+)$", text)
    if not m:
        raise ParseError(f"unknown target group {text!r}", lineno)
    try:
        degree = int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise ParseError(f"permutation degree of {len(m.group(2))} digits is too long",
                         lineno) from None
    return alternating(degree) if m.group(1) == "A" else symmetric(degree)


def _parse_assignments(target, items, names: list[str]) -> FiniteHom:
    """The homomorphism onto ``target`` given by ``items``, (line, text)
    pairs of ``name = value`` assignments, one for each generator in
    ``names``.  A file's errors name the line; the inline spelling's
    (line None) name the assignment."""

    def error(message, line, item):
        if line is None:
            return ParseError(f"{message} in assignment {item.strip()!r}")
        return ParseError(message, line)

    seen: dict[str, object] = {}
    for lineno, item in items:
        name, eq, rhs = item.partition("=")
        if not eq:
            raise error("expected 'generator = value'" + ("" if lineno is None else " line"),
                        lineno, item)
        name = name.strip()
        rhs = rhs.strip()
        if not _NAME_RE.match(name):
            raise error(f"malformed generator name {name!r}", lineno, item)
        if name in seen:
            raise error(f"duplicate value for {name!r}", lineno, item)
        if isinstance(target, CyclicTarget):
            try:
                value: object = int(rhs) % target.order
            except ValueError:
                raise error(f"expected an integer for cyclic target, got {rhs!r}",
                            lineno, item) from None
        else:
            value = perm_from_cycle_text(rhs, target.degree, lineno)
        seen[name] = value
    missing = [n for n in names if n not in seen]
    if missing:
        raise ParseError(f"missing value for generator(s): {', '.join(missing)}")
    extra = [n for n in seen if n not in names]
    if extra:
        raise ParseError(f"unexpected generator(s): {', '.join(extra)}")
    return FiniteHom(len(names), target, [seen[n] for n in names])


def parse_hom(text: str, names: list[str]) -> FiniteHom:
    """Format: a ``target: A5`` line, then ``a = (1 3 2)`` (or ``a = 4`` for
    cyclic targets) for each generator in ``names``, in any order."""
    lines = list(_nonblank_lines(text))
    if not lines or not lines[0][1].startswith("target:"):
        raise ParseError("homomorphism file must start with a 'target:' line",
                         lines[0][0] if lines else 1)
    lineno, header = lines[0]
    target = _parse_target(header[len("target:"):], lineno)
    if isinstance(target, PermutationTarget):
        check_closure_bound(target)  # before any assignment builds a list of its points
    return _parse_assignments(target, lines[1:], names)


def parse_inline_alpha(text: str, names: list[str]) -> FiniteHom:
    """The homomorphism file format on one line, for cyclic targets:
    ``Z/3:x=1,y=1`` is the target, a colon, then the assignments separated
    by commas."""
    head, colon, body = text.partition(":")
    if not colon:
        raise ParseError(f"malformed inline homomorphism {text!r}")
    target = _parse_target(head)
    if not isinstance(target, CyclicTarget):
        raise ParseError("inline homomorphisms support cyclic targets only")
    return _parse_assignments(target, [(None, item) for item in body.split(",")], names)


def parse_presentation(text: str) -> tuple[Presentation, list[str]]:
    """Format: a ``generators:`` line, then ``relator: <word>`` lines with
    relators written to evaluate to the identity."""
    lines = list(_nonblank_lines(text))
    names, index = _parse_generators(lines, "presentation")
    relators = []
    for lineno, line in lines[1:]:
        key, colon, rhs = line.partition(":")
        if not colon or key.strip() != "relator":
            raise ParseError("expected 'relator: <word>' line", lineno)
        relators.append(parse_word(rhs, index, lineno))
    return Presentation(len(names), relators), names
