"""Seeded mutation fuzz of the eight input parsers: every mutated text
either parses or raises a TwistError, the class that the command line
reports as the input's fault.  Any other exception is a fault in the
program."""

import random

import pytest

from twistalex import formats
from twistalex.errors import TwistError
from twistalex.grouphom import perm_from_cycle_text
from twistalex.laurent import parse_laurent

NAMES = ["x", "y"]

PARSERS = {
    "laurent": (parse_laurent, "s^4 - s^3 + 2s^-1 - 7"),
    "cycles": (lambda text: perm_from_cycle_text(text, 5), "(1 3 2)(4 5)"),
    "monodromy": (formats.parse_monodromy, "generators: x y\nx -> y^-1\ny -> x y\n"),
    "presentation": (formats.parse_presentation,
                     "generators: a b\nrelator: a b a b^-1 a^-1 b^-1\n"),
    "seifert": (formats.parse_seifert, "2\n-1 1\n0 -1\n"),
    "lambda-matrix": (formats.parse_lambda_matrix, "2 3\ns-1 1 s^2\n1 s^-1 0\n"),
    "hom": (lambda text: formats.parse_hom(text, NAMES),
            "target: A5\nx = (1 2 3)\ny = (3 4 5)\n"),
    "inline-alpha": (lambda text: formats.parse_inline_alpha(text, NAMES), "Z/3:x=1,y=2"),
}

# characters the formats use, digits that int() refuses (superscripts) or
# reads (Arabic-Indic), and separators
ALPHABET = list("0123456789 \n\t-+^()/,:=#_xyzstabASZ") + ["²", "٣", "->", "generators:",
                                                         "relator:", "target:"]


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op == 3:
            j = rng.randint(i, min(len(text), i + 8))
            text = text[:j] + text[i:j] + text[j:]
        else:  # a numeral of any length, up to past int()'s digit limit
            text = text[:i] + "9" * rng.choice((1, 2, 7, 20, 5000)) + text[i:]
    return text


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_mutated_text_parses_or_raises_a_twist_error(name):
    parse, seed_text = PARSERS[name]
    parse(seed_text)
    rng = random.Random(f"parser fuzz {name}")
    refused = 0
    for _ in range(4000):
        text = mutate(seed_text, rng)
        try:
            parse(text)
        except TwistError:
            refused += 1
        except Exception as exc:  # any other class is a fault in the program
            pytest.fail(f"{name} parser raised {type(exc).__name__}: {exc} on {text!r}")
    assert refused  # the mutations reach the refusals
