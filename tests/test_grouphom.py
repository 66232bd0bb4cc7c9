import random

import pytest

from twistalex.errors import InvariantError, SizeLimitError
from twistalex.fixtures import load_fixture
from twistalex.freegrp import Word
from twistalex.grouphom import (FiniteHom, Perm, Presentation, _closure, alternating,
                                cyclic, generated_subgroup_order,
                                perm_from_cycle_text, perm_to_cycle_text,
                                symmetric, verify_homomorphism)

from word_oracle import inverse, product


def C(text, degree=5) -> Perm:
    return perm_from_cycle_text(text, degree)


class TestPerm:
    def test_composition_applies_rightmost_first(self):
        q = C("(15432)")
        f = C("(152)")
        assert q.inverse() * f * q == C("(132)")

    def test_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            images = list(range(6))
            rng.shuffle(images)
            p = Perm(tuple(images))
            assert p * p.inverse() == Perm.identity(6)

    def test_rejects_non_bijection(self):
        with pytest.raises(InvariantError):
            Perm((0, 0, 2))

    def test_parity(self):
        assert C("(123)").is_even
        assert not C("(12)").is_even
        assert C("(12)(34)").is_even
        assert C("(12345)").is_even

    def test_cycle_text_round_trip(self):
        rng = random.Random(2)
        for _ in range(60):
            degree = rng.randint(1, 9)
            images = list(range(degree))
            rng.shuffle(images)
            p = Perm(tuple(images))
            assert perm_from_cycle_text(perm_to_cycle_text(p), degree) == p

    def test_juxtaposed_and_spaced_forms(self):
        assert C("(132)") == C("(1 3 2)")
        assert C("(12)(34)") == C("(1 2)(3 4)")
        assert perm_from_cycle_text("()", 4) == Perm.identity(4)


def phi0():
    return load_fixture("paper-s5").hom


class TestEvaluate:
    def test_wirtinger_conjugation(self):
        # a = q^-1 f q must hold for the A5 assignment
        hom = phi0()
        names = load_fixture("paper-s5").names
        idx = {n: i for i, n in enumerate(names)}
        w = Word([(idx["q"], -1), (idx["f"], 1), (idx["q"], 1)])
        assert hom.evaluate(w) == C("(132)")
        assert hom.evaluate(w) == hom.images[idx["a"]]

    def test_empty_word(self):
        hom = phi0()
        assert hom.evaluate(Word()) == Perm.identity(5)

    def test_word_times_inverse(self):
        rng = random.Random(3)
        hom = phi0()
        for _ in range(20):
            w = Word([(rng.randrange(12), rng.choice((1, -1))) for _ in range(10)])
            assert hom.evaluate(product(w, inverse(w))) == Perm.identity(5)


class TestVerifyHomomorphism:
    def test_s5_fixture_all_killed(self):
        fx = load_fixture("paper-s5")
        assert verify_homomorphism(fx.hom, fx.presentation) == ()

    def test_trivial_hom(self):
        fx = load_fixture("paper-s5")
        trivial = FiniteHom(12, alternating(5), [Perm.identity(5)] * 12)
        assert verify_homomorphism(trivial, fx.presentation) == ()

    def test_perturbation_breaks_some_relation(self):
        fx = load_fixture("paper-s5")
        images = list(fx.hom.images)
        images[0] = C("(123)")  # replace phi0(a)
        broken = FiniteHom(12, alternating(5), images)
        assert verify_homomorphism(broken, fx.presentation) != ()


class TestSubgroupOrder:
    def test_s5_images_generate_a5(self):
        assert generated_subgroup_order(phi0()) == 60

    def test_single_three_cycle(self):
        hom = FiniteHom(1, alternating(5), [C("(123)")])
        assert generated_subgroup_order(hom) == 3

    def test_klein_four(self):
        hom = FiniteHom(2, alternating(5), [C("(12)(34)"), C("(13)(24)")])
        assert generated_subgroup_order(hom) == 4

    def test_lagrange(self):
        rng = random.Random(5)
        target = symmetric(4)
        elements = target.elements()
        for _ in range(25):
            images = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
            hom = FiniteHom(len(images), target, images)
            assert target.order % generated_subgroup_order(hom) == 0

    def test_bound(self):
        hom = FiniteHom(1, symmetric(10), [Perm.identity(10)])
        with pytest.raises(SizeLimitError):
            generated_subgroup_order(hom)


class TestClosure:
    @pytest.mark.parametrize("target, images", [
        (cyclic(7), [3, 5]),
        (symmetric(3), [C("(12)", 3), C("(123)", 3)]),
        (alternating(4), [C("(234)", 4), C("(124)", 4)]),
        (alternating(5), [C("(12345)"), C("(123)")]),
    ], ids=["Z7", "S3", "A4", "A5"])
    def test_product_rows(self, target, images):
        # each element's row holds the indices of its products with the
        # images, and the edge that first reached an element is in its row
        elements, parent, products = _closure(FiniteHom(len(images), target, images))
        index = {x: k for k, x in enumerate(elements)}
        assert len(elements) == target.order
        assert products == [tuple(index[target.mul(x, a)] for a in images) for x in elements]
        assert all(products[k][g] == j for j, (k, g) in enumerate(parent[1:], start=1))


class TestTargets:
    def test_parity_constraint(self):
        with pytest.raises(InvariantError):
            FiniteHom(1, alternating(5), [C("(12)")])

    def test_identity_first_in_elements(self):
        for target in (cyclic(4), symmetric(3), alternating(4)):
            assert target.elements()[0] == target.identity

    def test_orders(self):
        assert cyclic(7).order == 7
        assert symmetric(4).order == 24
        assert alternating(4).order == 12

    def test_presentation_validates_generators(self):
        with pytest.raises(ValueError):
            Presentation(2, [Word(((3, 1),))])
