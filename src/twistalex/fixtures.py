"""Built-in named fixtures: the trefoil monodromy, two small Seifert
matrices, and the 12-generator surgery presentation with its A5
assignment.  Each is stored in its file format and run through the
ordinary parsers."""

from __future__ import annotations

import dataclasses

from . import formats
from .errors import InvariantError
from .freegrp import FreeEndo
from .grouphom import FiniteHom, Presentation

TREFOIL_MONODROMY = """\
generators: x y
x -> y^-1
y -> x y
"""

TREFOIL_SEIFERT = """\
2
-1 1
0 -1
"""

FIGURE8_SEIFERT = """\
2
1 1
0 -1
"""

# Wirtinger relations of the doubled surgery diagram plus the two surgery
# relations; any one Wirtinger relation is redundant but all are kept.
S5_PRESENTATION = """\
generators: a b c d e f p q r s t u
relator: q^-1 f q a^-1
relator: p^-1 a p b^-1
relator: e^-1 b e c^-1
relator: s c s^-1 d^-1
relator: r d r^-1 e^-1
relator: b^-1 e b f^-1
relator: b^-1 u b p^-1
relator: a^-1 p a q^-1
relator: t^-1 q t r^-1
relator: d r d^-1 s^-1
relator: c s c^-1 t^-1
relator: q^-1 t q u^-1
relator: q p e s^-1 r^-1 b f^-1
relator: b a t d^-1 c^-1 q u^-1
"""

S5_HOM = """\
target: A5
a = (132)
b = (142)
c = (125)
d = (243)
e = (145)
f = (152)
p = (13542)
q = (15432)
r = (12534)
s = (14523)
t = (15324)
u = (14352)
"""


@dataclasses.dataclass(frozen=True)
class MonodromyFixture:
    endo: FreeEndo
    names: list[str]


@dataclasses.dataclass(frozen=True)
class HomCheckFixture:
    presentation: Presentation
    hom: FiniteHom
    names: list[str]


# name -> (kind, text); a homcheck fixture's text is its presentation and
# its homomorphism
FIXTURES = {
    "trefoil-monodromy": ("monodromy", TREFOIL_MONODROMY),
    "trefoil-seifert": ("seifert", TREFOIL_SEIFERT),
    "figure8-seifert": ("seifert", FIGURE8_SEIFERT),
    "paper-s5": ("homcheck", (S5_PRESENTATION, S5_HOM)),
}
FIXTURE_NAMES = tuple(FIXTURES)


def load_fixture(name: str):
    """Load a built-in fixture by name.

    Returns a MonodromyFixture, a SeifertMatrix, or a HomCheckFixture
    depending on the fixture kind.
    """
    if name not in FIXTURES:
        raise InvariantError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    kind, text = FIXTURES[name]
    if kind == "monodromy":
        return MonodromyFixture(*formats.parse_monodromy(text))
    if kind == "seifert":
        return formats.parse_seifert(text)
    pres, names = formats.parse_presentation(text[0])
    return HomCheckFixture(pres, formats.parse_hom(text[1], names), names)
