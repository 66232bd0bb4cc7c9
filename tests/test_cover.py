import itertools
import math
import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from twistalex import cover as cover_module
from twistalex.cover import (branched_cover_homology_from_monodromy,
                             build_cover, lift_power_matrix,
                             twisted_invariants)
from twistalex.errors import InternalError, InvariantError, SizeLimitError
from twistalex.exactla import IntMatrix, char_poly, rank_over_fractions
from twistalex.fixtures import load_fixture
from twistalex.freegrp import FreeEndo, Word
from twistalex.grouphom import (FiniteHom, Perm, alternating, cyclic,
                                generated_subgroup_order,
                                perm_from_cycle_text, symmetric)
from twistalex.laurent import canonicalize, is_monic, parse_laurent

from bareiss_oracle import si_minus
from chain_oracle import chain_map_lift
from table_mutations import (every_row_translating_the_other_way,
                             generator_row_block_one_reads_block_zero,
                             generator_row_off_in_block_one, generator_row_off_in_its_last_block,
                             generator_row_with_two_vertices_swapped, last_row_is_the_one_before)
from word_oracle import (apply, compatible, identity, inverse, power, product,
                         random_automorphism)


def P(text):
    return parse_laurent(text)


# -- the word-walking lift, kept as the oracle for lift_power_matrix ----------

def tree_word(cover, v: int) -> Word:
    """The word spelled by the tree path from the identity vertex to v."""
    gens = []
    while cover.tree[v] is not None:
        v, g = cover.tree[v]
        gens.append(g)
    return Word((g, 1) for g in reversed(gens))


def schreier_word(cover, vertex: int, gen: int) -> Word:
    """The loop class of an edge: tree word in, the edge, tree word out."""
    head = cover.edge_target[vertex][gen]
    return product(tree_word(cover, vertex), Word(((gen, 1),)),
                   inverse(tree_word(cover, head)))


def lift_action_matrix(cover, f: FreeEndo) -> IntMatrix:
    """Matrix of the lift of f fixing the identity vertex, on the H1 basis,
    for f compatible with the cover's alpha.

    Column k is the homology class of the image of the k-th basis cycle:
    the image loop word is spelled as an edge path from the identity
    vertex, tree edges contributing nothing and each non-tree edge its
    basis vector.
    """
    edge_source = [[0] * cover.rank for _ in range(cover.group_order)]
    for v, heads in enumerate(cover.edge_target):
        for g, w in enumerate(heads):
            edge_source[w][g] = v
    basis_idx = {edge: k for k, edge in enumerate(cover.basis)}
    n = cover.h1_rank
    columns = []
    for (v, g) in cover.basis:
        vec = [0] * n
        cur = 0
        for gen, e in apply(f, schreier_word(cover, v, g)).blocks:
            for _ in range(abs(e)):
                if e > 0:
                    k = basis_idx.get((cur, gen))
                    if k is not None:
                        vec[k] += 1
                    cur = cover.edge_target[cur][gen]
                else:
                    prev = edge_source[cur][gen]
                    k = basis_idx.get((prev, gen))
                    if k is not None:
                        vec[k] -= 1
                    cur = prev
        assert cur == 0, "image of a kernel word did not close up"
        columns.append(vec)
    return IntMatrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])


def trefoil():
    return load_fixture("trefoil-monodromy").endo


def z3_alpha():
    return FiniteHom(2, cyclic(3), [1, 1])


def compatible_cyclic_alphas(f: FreeEndo, d: int, max_order: int):
    """All surjective cyclic characters compatible with f^d, orders 1..max_order."""
    fd = power(f, d)
    out = []
    for r in range(1, max_order + 1):
        for chi in itertools.product(range(r), repeat=f.rank):
            if math.gcd(r, *chi) != 1:
                continue
            alpha = FiniteHom(f.rank, cyclic(r), list(chi))
            if compatible(fd, alpha):
                out.append(alpha)
    return out


A4, A5 = alternating(4), alternating(5)
A4_ELEMENTS, A5_ELEMENTS = ([p for p in map(Perm, itertools.permutations(range(k))) if p.is_even]
                            for k in (4, 5))


class TestBuildCover:
    def test_trefoil_z3_cover(self):
        cover = build_cover(2, z3_alpha())
        assert cover.group_order == 3
        assert cover.group_order * cover.rank == 6  # edge count
        assert cover.h1_rank == 4

    def test_trivial_group_is_the_bouquet(self):
        cover = build_cover(1, FiniteHom(1, cyclic(1), [0]))
        assert cover.group_order == 1
        assert cover.h1_rank == 1

    def test_z2_euler_count(self):
        cover = build_cover(2, FiniteHom(2, cyclic(2), [1, 0]))
        assert cover.group_order == 2
        assert cover.h1_rank == 3

    def test_rejects_non_surjective(self):
        with pytest.raises(InvariantError, match="proper subgroup"):
            build_cover(2, FiniteHom(2, cyclic(4), [2, 2]))

    def test_permutation_group_cover(self):
        from twistalex.grouphom import alternating, perm_from_cycle_text
        alpha = FiniteHom(2, alternating(5),
                          [perm_from_cycle_text("(1 2 3 4 5)", 5),
                           perm_from_cycle_text("(1 2 3)", 5)])
        cover = build_cover(2, alpha)
        assert cover.group_order == 60
        assert cover.h1_rank == 61
        h = lift_power_matrix(cover, identity(2), 1)
        assert h == IntMatrix.identity(61)

    def test_rank_bookkeeping_random(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randint(1, 3)
            r = rng.randint(1, 5)
            chi = [rng.randrange(r) for _ in range(n)]
            if math.gcd(r, *chi) != 1:
                continue
            cover = build_cover(n, FiniteHom(n, cyclic(r), chi))
            assert cover.h1_rank == n * r - r + 1


class TestLiftActionMatrix:
    def test_trefoil_square_charpoly(self):
        # basis differs from the worked example's, so the basis-invariant
        # characteristic polynomial is the anchor
        cover = build_cover(2, z3_alpha())
        h = lift_power_matrix(cover, trefoil(), 2)
        assert canonicalize(char_poly(h)) == P("s^4 - s^3 - s + 1")
        assert h.det() == 1

    def test_identity_endomorphism(self):
        cover = build_cover(2, z3_alpha())
        h = lift_power_matrix(cover, identity(2), 1)
        assert h == IntMatrix.identity(4)

    def test_trivial_cover_gives_abelianization(self):
        cover = build_cover(2, FiniteHom(2, cyclic(1), [0, 0]))
        h = lift_power_matrix(cover, trefoil(), 1)
        assert h == IntMatrix.from_rows([[0, 1], [-1, 1]])

    def test_incompatible_raises(self):
        cover = build_cover(2, z3_alpha())
        with pytest.raises(InvariantError, match="no lift"):
            lift_power_matrix(cover, trefoil(), 1)
        with pytest.raises(InvariantError, match="no lift"):
            lift_power_matrix(cover, trefoil(), 3)


class TestTwistedInvariants:
    def test_trefoil_worked_example(self):
        inv = twisted_invariants(trefoil(), 2, z3_alpha())
        assert inv.delta == P("s^4 - s^3 - s + 1")
        assert inv.h_matrix.rows == 4

    def test_classical_specialization(self):
        # d = 1, trivial G: delta is the classical Alexander polynomial
        inv = twisted_invariants(trefoil(), 1, FiniteHom(2, cyclic(1), [0, 0]))
        assert inv.delta == P("s^2 - s + 1")

    def test_identity_monodromy(self):
        inv = twisted_invariants(identity(1), 1, FiniteHom(1, cyclic(1), [0]))
        assert inv.delta == P("s - 1")

    def test_delta_matches_minor_gcd_route(self):
        from twistalex.exactla import maximal_minor_gcd
        inv = twisted_invariants(trefoil(), 2, z3_alpha())
        assert maximal_minor_gcd(si_minus(inv.h_matrix)) == inv.delta


class TestBranchedHomologyFromMonodromy:
    def test_trefoil_double_cover(self):
        inv = branched_cover_homology_from_monodromy(trefoil(), 2)
        assert inv.torsion == (3,) and inv.free_rank == 0

    def test_finite_order_abelianization(self):
        # T^d = I forces a free abelian group of full rank
        f = FreeEndo(2, [Word(((1, 1),)), Word(((0, -1),))])  # T order 4
        inv = branched_cover_homology_from_monodromy(f, 4)
        assert inv.torsion == () and inv.free_rank == 2

    def test_trefoil_sixfold(self):
        inv = branched_cover_homology_from_monodromy(trefoil(), 6)
        assert inv.torsion == () and inv.free_rank == 2


class TestStructuralProperties:
    def test_inner_twist_invariance(self):
        # conjugating f^d by a kernel word does not change delta
        f = trefoil()
        alpha = z3_alpha()
        d = 2
        cover = build_cover(2, alpha)
        base = twisted_invariants(f, d, alpha)
        fd = power(f, d)
        for edge in cover.basis[:3]:
            w = schreier_word(cover, *edge)
            assert alpha.evaluate(w) == 0  # kernel word
            twisted = FreeEndo(2, [product(w, img, inverse(w)) for img in fd.images])
            h = lift_power_matrix(cover, twisted, 1)
            assert canonicalize(char_poly(h)) == base.delta

    def test_nielsen_automorphism_suite(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(40):
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 8), rng)
            d = rng.randint(1, 3)
            for alpha in compatible_cyclic_alphas(f, d, 4):
                inv = twisted_invariants(f, d, alpha)
                assert inv.h_matrix.det() in (1, -1)
                assert is_monic(inv.delta)
                assert inv.delta == canonicalize(inv.delta)
                assert rank_over_fractions(si_minus(inv.h_matrix)) == inv.h_matrix.rows
                checked += 1
        assert checked >= 40

    def test_trivial_group_specialization(self):
        rng = random.Random(4)
        for _ in range(15):
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 6), rng)
            d = rng.randint(1, 3)
            alpha = FiniteHom(rank, cyclic(1), [0] * rank)
            inv = twisted_invariants(f, d, alpha)
            t = power(f, d).abelianization_matrix()
            assert inv.delta == canonicalize(char_poly(t))


def figure_eight():
    return FreeEndo(2, [Word(((0, 1), (1, 1))), Word(((1, 1), (0, 1), (1, 1)))])


def random_endomorphism(rank, rng):
    """Random generator images of length 0..4: as a rule not an automorphism."""
    return FreeEndo(rank, [Word((rng.randrange(rank), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 4)))
                           for _ in range(rank)])


class TestChainLiftAgainstWordLift:
    """lift_power_matrix against the word-walking oracle on f^d: the same
    matrix, entry for entry, in the same basis."""

    @staticmethod
    def assert_same_lift(f, d, alpha):
        cover = build_cover(f.rank, alpha)
        assert lift_power_matrix(cover, f, d) == lift_action_matrix(cover, power(f, d))

    def test_nielsen_automorphisms_cyclic_targets(self):
        rng = random.Random(11)
        cases = {2: 0, 3: 0}
        for _ in range(30):
            rank = rng.choice((2, 3))
            f = random_automorphism(rank, rng.randint(1, 8), rng)
            for d in range(1, 6):
                for alpha in compatible_cyclic_alphas(f, d, 5 if rank == 2 else 3)[-3:]:
                    self.assert_same_lift(f, d, alpha)
                    cases[rank] += 1
        assert min(cases.values()) >= 40

    def test_permutation_target_a5(self):
        s5 = load_fixture("paper-s5")
        images = s5.hom.images
        alpha = FiniteHom(2, s5.hom.target, [images[0], images[4]])  # (1 3 2), (1 4 5)
        assert generated_subgroup_order(alpha) == 60
        rng = random.Random(12)
        powers = []
        while len(powers) < 6:
            f = random_automorphism(2, rng.randint(2, 6), rng)
            d = next((d for d in range(2, 6) if compatible(f, alpha, d)), None)
            if d is not None:
                self.assert_same_lift(f, d, alpha)
                powers.append(d)
        assert max(powers) >= 3

    def test_endomorphisms_that_are_not_automorphisms(self):
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            rank = rng.choice((2, 3))
            f = random_endomorphism(rank, rng)
            if f.abelianization_matrix().det() in (1, -1):
                continue
            d = rng.randint(2, 4)
            for alpha in compatible_cyclic_alphas(f, d, 4)[-2:]:
                if alpha.target.order > 1:
                    self.assert_same_lift(f, d, alpha)
                    checked += 1

    def test_a_generator_with_trivial_image(self):
        f = FreeEndo(2, [Word(), Word(((1, 1), (0, -2), (1, 1)))])
        for alpha in compatible_cyclic_alphas(f, 3, 6):
            self.assert_same_lift(f, 3, alpha)

    def test_figure_eight_d100(self):
        # far past what expanding f^100 could reach: independent checks only
        inv = twisted_invariants(figure_eight(), 100, FiniteHom(2, cyclic(11), [0, 1]))
        h = inv.h_matrix
        assert h.rows == 12
        assert max(abs(x) for x in h.entries).bit_length() > 130
        assert h.det() in (1, -1)
        assert is_monic(inv.delta) and inv.delta.degree == 12


class TestLiftAgainstChainMapOracle:
    """lift_power_matrix against the per-column chain-map lift, at covers
    and powers where expanding f^d for the word oracle is out of reach."""

    @staticmethod
    def assert_same_lift(f, d, alpha):
        cover = build_cover(f.rank, alpha)
        h = lift_power_matrix(cover, f, d)
        assert h == chain_map_lift(cover, f, d)
        return h

    def test_figure_eight_z21_d16(self):
        h = self.assert_same_lift(figure_eight(), 16, FiniteHom(2, cyclic(21), [0, 1]))
        assert h.rows == 22

    def test_trefoil_a4_d4(self):
        alpha = FiniteHom(2, alternating(4), [perm_from_cycle_text("(2 3 4)", 4),
                                              perm_from_cycle_text("(1 2 4)", 4)])
        assert self.assert_same_lift(trefoil(), 4, alpha).rows == 13

    def test_figure_eight_a5_at_its_period(self):
        alpha = FiniteHom(2, alternating(5), [perm_from_cycle_text("(1 2 3 4 5)", 5),
                                              perm_from_cycle_text("(2 4 5)", 5)])
        assert not any(compatible(figure_eight(), alpha, d) for d in range(1, 12))
        h = self.assert_same_lift(figure_eight(), 25, alpha)
        assert max(abs(x) for x in h.entries) > 2**20  # f^25's images: over 10^10 letters

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32), st.sampled_from(["cyclic", "A4", "A5"]),
           st.data())
    def test_random_automorphisms(self, rank, seed, kind, data):
        # random automorphisms of rank 2-3 over cyclic targets up to Z/12,
        # A4 and A5, at a multiple d <= 8 of alpha's period under f
        rng = random.Random(seed)
        f = random_automorphism(rank, rng.randint(1, 8), rng)
        if kind == "cyclic":
            r = data.draw(st.integers(1, 12))
            chi = data.draw(st.lists(st.integers(0, r - 1), min_size=rank, max_size=rank))
            assume(math.gcd(r, *chi) == 1)
            alpha = FiniteHom(rank, cyclic(r), chi)
        else:
            target, elements = (A4, A4_ELEMENTS) if kind == "A4" else (A5, A5_ELEMENTS)
            images = data.draw(st.lists(st.sampled_from(elements), min_size=rank, max_size=rank))
            alpha = FiniteHom(rank, target, images)
            assume(generated_subgroup_order(alpha) == target.order)
        beta = alpha.precompose(f)
        period = 1
        while beta.images != alpha.images and period < 8:
            beta, period = beta.precompose(f), period + 1
        assume(beta.images == alpha.images)
        d = data.draw(st.sampled_from(range(period, 9, period)))
        event(f"{alpha.target.name()} rank {rank}")
        self.assert_same_lift(f, d, alpha)


class TestLeftTranslations:
    @pytest.mark.parametrize("target, images", [
        (cyclic(7), [3, 5]),
        (symmetric(3), [perm_from_cycle_text("(12)", 3), perm_from_cycle_text("(123)", 3)]),
        (alternating(4), [perm_from_cycle_text("(234)", 4), perm_from_cycle_text("(124)", 4)]),
        (alternating(5), [perm_from_cycle_text("(12345)", 5), perm_from_cycle_text("(123)", 5)]),
    ], ids=["Z7", "S3", "A4", "A5"])
    def test_table(self, target, images):
        # built from the tree walk and compositions alone, every block of
        # the table is the group law: back[v][l|G| + (v w)] = l|G| + w
        cover = build_cover(len(images), FiniteHom(len(images), target, images))
        back = cover_module._translations(cover)
        vertices, order = cover.vertices, cover.group_order
        index = {x: k for k, x in enumerate(vertices)}
        expected = [[None] * (len(images) * order) for _ in vertices]
        for row, v in zip(expected, vertices):
            for l in range(len(images)):
                for k, w in enumerate(vertices):
                    row[l * order + index[target.mul(v, w)]] = l * order + k
        assert back == expected


class TestChainLiftFuzz:
    """Hypothesis pair: lift_power_matrix against the word oracle, for
    random automorphisms of rank 2-3, cyclic and A5 targets and d = 1..6.
    The lift refuses f^d exactly when alpha(f^d(x_i)) != alpha(x_i) for
    some generator, and otherwise gives the oracle's matrix."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32), st.booleans(), st.data())
    def test_against_word_oracle(self, rank, seed, a5, data):
        rng = random.Random(seed)
        f = random_automorphism(rank, rng.randint(1, 8), rng)
        if a5:
            images = data.draw(st.lists(st.sampled_from(A5_ELEMENTS),
                                        min_size=rank, max_size=rank))
            alpha = FiniteHom(rank, A5, images)
            assume(generated_subgroup_order(alpha) == 60)
        else:
            r = data.draw(st.integers(1, 6))
            chi = data.draw(st.lists(st.integers(0, r - 1), min_size=rank, max_size=rank))
            assume(math.gcd(r, *chi) == 1)
            alpha = FiniteHom(rank, cyclic(r), chi)
        powers = [power(f, d) for d in range(1, 7)]
        lifts = [d for d, fd in enumerate(powers, start=1) if compatible(fd, alpha)]
        # lean towards a power that lifts, which a random one rarely does
        d = data.draw(st.sampled_from(lifts) if lifts and data.draw(st.booleans())
                      else st.integers(1, 6))
        event(f"{alpha.target.name()} {'lifts' if d in lifts else 'refused'}")
        cover = build_cover(rank, alpha)
        if d in lifts:
            assert lift_power_matrix(cover, f, d) == lift_action_matrix(cover, powers[d - 1])
        else:
            with pytest.raises(InvariantError, match="no lift"):
                lift_power_matrix(cover, f, d)


class TestLiftChecks:
    def test_rejects_d_below_one(self):
        with pytest.raises(ValueError, match="positive"):
            lift_power_matrix(build_cover(2, z3_alpha()), identity(2), 0)

    def test_work_cap_fails_fast_on_a_huge_power(self, monkeypatch):
        def unreachable(f, alpha, d):  # d steps of it would not end
            raise AssertionError("the cap must fire before any O(d) work")

        monkeypatch.setattr(cover_module, "_alpha_chain", unreachable)
        cover = build_cover(2, z3_alpha())
        with pytest.raises(SizeLimitError, match="above the cap"):
            lift_power_matrix(cover, trefoil(), 10**12)

    def test_an_oversized_cover_is_refused_before_it_is_built(self, monkeypatch):
        # the trefoil map over Z/999983 at d = 6: the charge, taken from the
        # target's order, refuses the lift with the message the lift gives,
        # onto or not, and before the cover's million edges are built
        def unreachable(rank, alpha):
            raise AssertionError("the charge must refuse the cover before it is built")

        monkeypatch.setattr(cover_module, "build_cover", unreachable)
        for images in ([1, 1], [0, 0]):
            with pytest.raises(SizeLimitError) as info:
                twisted_invariants(trefoil(), 6, FiniteHom(2, cyclic(999983), images))
            assert str(info.value) == ("lifting f^6 needs at least 29999040008250 units of "
                                       "chain work, above the cap of 20000000")

    def test_work_cap_on_entry_growth(self):
        doubling = FreeEndo(1, [Word(((0, 2),))])
        cover = build_cover(1, FiniteHom(1, cyclic(1), [0]))
        assert lift_power_matrix(cover, doubling, 40) == IntMatrix.from_rows([[2**40]])
        with pytest.raises(SizeLimitError, match="bits"):
            lift_power_matrix(cover, doubling, 30000)

    def test_figure_eight_d100_is_well_inside_the_cap(self, monkeypatch):
        monkeypatch.setattr(cover_module, "MAX_LIFT_WORK", cover_module.MAX_LIFT_WORK // 20)
        twisted_invariants(figure_eight(), 100, FiniteHom(2, cyclic(25), [0, 1]))

    @pytest.mark.parametrize("block", [0, -1], ids=["block0", "last-block"])
    @pytest.mark.parametrize("alpha", [
        FiniteHom(2, cyclic(7), [3, 5]),
        FiniteHom(2, A5, [perm_from_cycle_text("(12345)", 5), perm_from_cycle_text("(123)", 5)]),
        FiniteHom(3, cyclic(6), [2, 3, 1]),
    ], ids=["Z7", "A5", "rank3"])
    def test_an_entry_off_by_one_does_not_close_up(self, monkeypatch, alpha, block):
        # one coefficient of the last generator's pushed chain, at edge
        # (w, l) with w the last vertex, is off by one: that chain is no
        # chain map's image, and some column of H is no cycle
        spell, n = cover_module._spell, alpha.rank
        order = build_cover(n, alpha).group_order
        pushed = []

        def off_by_one(word, chains, images, back):
            out = spell(word, chains, images, back)
            pushed.append(out)
            if len(pushed) == n:
                out[block % n * order + order - 1] += 1
            return out

        monkeypatch.setattr(cover_module, "_spell", off_by_one)
        with pytest.raises(InternalError, match="did not close up"):
            lift_power_matrix(build_cover(n, alpha), identity(n), 1)
        assert len(pushed) == n

    @pytest.mark.parametrize("corruption", [generator_row_off_in_its_last_block,
                                            generator_row_off_in_block_one,
                                            generator_row_block_one_reads_block_zero,
                                            generator_row_with_two_vertices_swapped,
                                            last_row_is_the_one_before,
                                            every_row_translating_the_other_way],
                             ids=["generator-row", "block1-off-by-one",
                                  "block1-from-block0", "two-swapped", "basis-head",
                                  "other-way"])
    @pytest.mark.parametrize("alpha", [
        FiniteHom(2, cyclic(7), [3, 5]),
        FiniteHom(2, A5, [perm_from_cycle_text("(12345)", 5), perm_from_cycle_text("(123)", 5)]),
        FiniteHom(3, cyclic(6), [2, 3, 1]),
    ], ids=["Z7", "A5", "rank3"])
    def test_a_corrupt_translation_table_does_not_close_up(self, monkeypatch, alpha,
                                                           corruption):
        # the identity map pushes its chains through the identity's row
        # alone, so they close up and the table's own checks must fire
        monkeypatch.setattr(cover_module, "_translations", corruption(cover_module._translations))
        with pytest.raises(InternalError, match="did not close up"):
            lift_power_matrix(build_cover(alpha.rank, alpha), identity(alpha.rank), 1)

    def test_open_image_chain_is_an_internal_error(self, monkeypatch):
        # alpha . f != alpha: the basis cycles of the alpha cover are no
        # cycles of the alpha . f cover, and their images do not close up
        chain = cover_module._alpha_chain  # its last member is alpha: the check passes
        monkeypatch.setattr(cover_module, "_alpha_chain",
                            lambda f, alpha, d: chain(f, alpha, d)[:-1] + [alpha])
        with pytest.raises(InternalError, match="did not close up"):
            twisted_invariants(trefoil(), 1, FiniteHom(2, cyclic(3), [1, 0]))
