import random

import pytest

from twistalex.errors import WordLengthError
from twistalex.exactla import IntMatrix
from twistalex.freegrp import (FreeEndo, Word, check_compatibility,
                               random_nielsen_automorphism)
from twistalex.grouphom import FiniteHom, cyclic


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
        assert (w * w.inverse()).is_identity
        assert (w.inverse() * w).is_identity

    def test_no_adjacent_inverse_pairs(self):
        rng = random.Random(1)
        for _ in range(50):
            w = Word(random_letters(rng, 3, 30))
            expanded = list(w.letters())
            for a, b in zip(expanded, expanded[1:]):
                assert not (a[0] == b[0] and a[1] == -b[1])

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
        assert h(Word.generator(0)) == Word(((1, -1),))

    def test_empty_word(self):
        h = trefoil_monodromy()
        assert h(Word.identity()).is_identity

    def test_trefoil_on_xy(self):
        # substitute: y^-1 * (x y) = y^-1 x y
        h = trefoil_monodromy()
        assert h(Word([(0, 1), (1, 1)])) == Word([(1, -1), (0, 1), (1, 1)])

    def test_homomorphism_law(self):
        rng = random.Random(3)
        h = trefoil_monodromy()
        for _ in range(40):
            u = Word(random_letters(rng, 2, 12))
            v = Word(random_letters(rng, 2, 12))
            assert h(u * v) == h(u) * h(v)

    def test_matches_product_by_product(self):
        rng = random.Random(9)
        for _ in range(60):
            rank = rng.choice((2, 3))
            f = FreeEndo(rank, [Word(random_letters(rng, rank, rng.randint(0, 6)))
                                for _ in range(rank)])
            w = Word(random_letters(rng, rank, rng.randint(0, 20)))
            expected = Word.identity()
            for g, e in w.blocks:  # re-reduce the accumulated word at every product
                expected = expected * f.images[g] ** e
            assert f(w) == expected

    def test_out_of_range_generator(self):
        h = trefoil_monodromy()
        with pytest.raises(ValueError):
            h(Word.generator(5))


class TestPower:
    def test_trefoil_square_matches_worked_example(self):
        h2 = trefoil_monodromy().power(2)
        # x -> y^-1 x^-1 and y -> y^-1 x y
        assert h2.images[0] == Word([(1, -1), (0, -1)])
        assert h2.images[1] == Word([(1, -1), (0, 1), (1, 1)])

    def test_power_one_is_unchanged(self):
        h = trefoil_monodromy()
        assert h.power(1) == h

    def test_power_zero_is_identity(self):
        h = trefoil_monodromy()
        assert h.power(0) == FreeEndo.identity(2)

    def test_power_is_associative(self):
        h = trefoil_monodromy()
        assert h.power(4) == h.power(2).power(2)
        assert h.power(5) == h.compose(h.power(4))

    def test_no_square_past_the_answer(self):
        # x -> x^2: f^16 has 2^16 letters, while f^32 would pass the letter cap
        doubling = FreeEndo(1, [Word(((0, 2),))])
        assert doubling.power(16).images == (Word(((0, 2**16),)),)
        w = Word(((0, 10**7 // 2 + 1),))  # its square would pass the cap too
        assert w ** 1 == w and w ** -1 == w.inverse()

    def test_word_powers_match_repeated_products(self):
        w = Word([(0, 1), (1, -2), (0, 1)])
        for n in range(-6, 7):
            expected = Word.identity()
            for _ in range(abs(n)):
                expected = expected * (w if n > 0 else w.inverse())
            assert w ** n == expected


class TestAbelianization:
    def test_trefoil(self):
        t = trefoil_monodromy().abelianization_matrix()
        assert t == IntMatrix.from_rows([[0, 1], [-1, 1]])

    def test_identity(self):
        assert FreeEndo.identity(3).abelianization_matrix() == IntMatrix.identity(3)

    def test_square(self):
        h = trefoil_monodromy()
        t2 = h.power(2).abelianization_matrix()
        assert t2 == IntMatrix.from_rows([[-1, 1], [-1, 0]])
        assert t2 == h.abelianization_matrix() ** 2

    def test_functorial_on_random_powers(self):
        rng = random.Random(4)
        for _ in range(20):
            f = random_nielsen_automorphism(rng.choice((2, 3)), rng.randint(1, 6), rng)
            t = f.abelianization_matrix()
            for d in range(1, 6):
                assert f.power(d).abelianization_matrix() == t ** d


class TestCompatibility:
    def test_trefoil_square_with_z3(self):
        alpha = FiniteHom(2, cyclic(3), [1, 1])
        h = trefoil_monodromy()
        assert check_compatibility(h.power(2), alpha)

    def test_identity_with_anything(self):
        alpha = FiniteHom(2, cyclic(5), [2, 3])
        assert check_compatibility(FreeEndo.identity(2), alpha)

    def test_trefoil_first_power_fails(self):
        alpha = FiniteHom(2, cyclic(3), [1, 1])
        assert not check_compatibility(trefoil_monodromy(), alpha)

    def test_matches_abelianized_criterion_for_cyclic_targets(self):
        # alpha . f^d = alpha  iff  chi * (T^d - I) = 0 mod r
        rng = random.Random(6)
        for _ in range(40):
            rank = rng.choice((2, 3))
            f = random_nielsen_automorphism(rank, rng.randint(1, 6), rng)
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
            assert check_compatibility(f.power(d), alpha) == algebraic

    def test_power_argument_matches_the_expanded_power(self):
        rng = random.Random(10)
        hits = 0
        for _ in range(60):
            rank = rng.choice((2, 3))
            f = random_nielsen_automorphism(rank, rng.randint(1, 6), rng)
            d = rng.randint(1, 5)
            r = rng.randint(2, 5)
            alpha = FiniteHom(rank, cyclic(r), [rng.randrange(r) for _ in range(rank)])
            expected = check_compatibility(f.power(d), alpha)
            assert check_compatibility(f, alpha, d) == expected
            hits += expected
        assert 0 < hits < 60


class TestNielsenAutomorphisms:
    def test_abelianization_is_unimodular(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_nielsen_automorphism(rng.choice((2, 3)), rng.randint(0, 8), rng)
            assert f.abelianization_matrix().det() in (1, -1)
