"""Words and endomorphisms of twistalex.freegrp, and the word oracle of
tests/word_oracle.py that the lift's differential tests read f^d from."""

import random

import pytest

from twistalex.errors import WordLengthError
from twistalex.exactla import IntMatrix
from twistalex.freegrp import FreeEndo, Word
from twistalex.grouphom import FiniteHom, cyclic

from word_oracle import (apply, compatible, identity, inverse, power, product,
                         random_automorphism)


def trefoil_monodromy() -> FreeEndo:
    # x -> y^-1, y -> x y
    return FreeEndo(2, [Word(((1, -1),)), Word(((0, 1), (1, 1)))])


def naive_reduce(letters, rng):
    """Cancel adjacent inverse pairs in random order until none remain."""
    letters = list(letters)
    while True:
        spots = [i for i in range(len(letters) - 1)
                 if letters[i][0] == letters[i + 1][0]
                 and letters[i][1] == -letters[i + 1][1]]
        if not spots:
            return letters
        i = rng.choice(spots)
        del letters[i:i + 2]


def random_letters(rng, rank, length):
    return [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(length)]


class TestWord:
    def test_reduction(self):
        w = Word([(0, 1), (1, 1), (1, -1), (0, 1)])
        assert w.blocks == ((0, 2),)

    def test_inverse(self):
        w = Word([(0, 1), (1, -2)])
        assert product(w, inverse(w)) == Word()
        assert product(inverse(w), w) == Word()

    def test_no_adjacent_inverse_pairs(self):
        rng = random.Random(1)
        for _ in range(50):
            w = Word(random_letters(rng, 3, 30))
            assert all(e for _, e in w.blocks)
            assert all(a[0] != b[0] for a, b in zip(w.blocks, w.blocks[1:]))

    def test_reduction_is_confluent(self):
        rng = random.Random(2)
        for _ in range(60):
            letters = random_letters(rng, 2, 24)
            reference = Word(letters)
            for attempt in range(4):
                scrambled = naive_reduce(letters, rng)
                assert Word(scrambled).blocks == reference.blocks

    def test_length_cap(self):
        with pytest.raises(WordLengthError):
            Word(((0, 10**7 + 1),))


class TestApply:
    def test_trefoil_on_x(self):
        h = trefoil_monodromy()
        assert apply(h, Word(((0, 1),))) == Word(((1, -1),))

    def test_empty_word(self):
        h = trefoil_monodromy()
        assert apply(h, Word()) == Word()

    def test_trefoil_on_xy(self):
        # substitute: y^-1 * (x y) = y^-1 x y
        h = trefoil_monodromy()
        assert apply(h, Word([(0, 1), (1, 1)])) == Word([(1, -1), (0, 1), (1, 1)])

    def test_homomorphism_law(self):
        rng = random.Random(3)
        h = trefoil_monodromy()
        for _ in range(40):
            u = Word(random_letters(rng, 2, 12))
            v = Word(random_letters(rng, 2, 12))
            assert apply(h, product(u, v)) == product(apply(h, u), apply(h, v))

    def test_matches_product_by_product(self):
        rng = random.Random(9)
        for _ in range(60):
            rank = rng.choice((2, 3))
            f = FreeEndo(rank, [Word(random_letters(rng, rank, rng.randint(0, 6)))
                                for _ in range(rank)])
            w = Word(random_letters(rng, rank, rng.randint(0, 20)))
            expected = Word()
            for g, e in w.blocks:  # re-reduce the accumulated word at every product
                image = f.images[g] if e > 0 else inverse(f.images[g])
                expected = product(expected, *[image] * abs(e))
            assert apply(f, w) == expected

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            FreeEndo(2, [Word(((5, 1),)), Word(((1, 1),))])


class TestPower:
    def test_trefoil_square_matches_worked_example(self):
        h2 = power(trefoil_monodromy(), 2)
        # x -> y^-1 x^-1 and y -> y^-1 x y
        assert h2.images[0] == Word([(1, -1), (0, -1)])
        assert h2.images[1] == Word([(1, -1), (0, 1), (1, 1)])

    def test_power_one_is_unchanged(self):
        h = trefoil_monodromy()
        assert power(h, 1) == h

    def test_power_zero_is_identity(self):
        h = trefoil_monodromy()
        assert power(h, 0) == identity(2)

    def test_power_is_associative(self):
        h = trefoil_monodromy()
        assert power(h, 4) == power(power(h, 2), 2)
        assert power(h, 5) == FreeEndo(2, [apply(h, w) for w in power(h, 4).images])


class TestAbelianization:
    def test_trefoil(self):
        t = trefoil_monodromy().abelianization_matrix()
        assert t == IntMatrix.from_rows([[0, 1], [-1, 1]])

    def test_identity(self):
        assert identity(3).abelianization_matrix() == IntMatrix.identity(3)

    def test_square(self):
        h = trefoil_monodromy()
        t2 = power(h, 2).abelianization_matrix()
        assert t2 == IntMatrix.from_rows([[-1, 1], [-1, 0]])
        assert t2 == h.abelianization_matrix() ** 2

    def test_functorial_on_random_powers(self):
        rng = random.Random(4)
        for _ in range(20):
            f = random_automorphism(rng.choice((2, 3)), rng.randint(1, 6), rng)
            t = f.abelianization_matrix()
            for d in range(1, 6):
                assert power(f, d).abelianization_matrix() == t ** d


class TestCompatibility:
    def test_trefoil_square_with_z3(self):
        alpha = FiniteHom(2, cyclic(3), [1, 1])
        h = trefoil_monodromy()
        assert compatible(h, alpha, 2)

    def test_identity_with_anything(self):
        alpha = FiniteHom(2, cyclic(5), [2, 3])
        assert compatible(identity(2), alpha)

    def test_trefoil_first_power_fails(self):
        alpha = FiniteHom(2, cyclic(3), [1, 1])
        assert not compatible(trefoil_monodromy(), alpha)

    def test_matches_abelianized_criterion_for_cyclic_targets(self):
        # alpha . f^d = alpha  iff  chi * (T^d - I) = 0 mod r
        rng = random.Random(6)
        for _ in range(40):
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 6), rng)
            d = rng.randint(1, 3)
            r = rng.randint(2, 4)
            chi = [rng.randrange(r) for _ in range(rank)]
            alpha = FiniteHom(rank, cyclic(r), chi)
            t = f.abelianization_matrix() ** d
            eye = IntMatrix.identity(rank)
            m = t - eye
            algebraic = all(
                sum(chi[i] * m.at(i, j) for i in range(rank)) % r == 0
                for j in range(rank))
            assert compatible(f, alpha, d) == algebraic


class TestNielsenAutomorphisms:
    def test_abelianization_is_unimodular(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_automorphism(rng.choice((2, 3)), rng.randint(0, 8), rng)
            assert f.abelianization_matrix().det() in (1, -1)
