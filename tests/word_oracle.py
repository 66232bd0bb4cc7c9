"""The word algebra that the program never runs: products, inverses and
substitution of free-group words, so that f^d(w) can be spelled letter by
letter, and random automorphisms by Nielsen moves.  The chain-map lift of
``cover.lift_power_matrix`` is tested against lifts read off these words.
"""

import random

from twistalex.freegrp import FreeEndo, Word


def product(*words: Word) -> Word:
    return Word(block for w in words for block in w.blocks)


def inverse(w: Word) -> Word:
    return Word((g, -e) for g, e in reversed(w.blocks))


def identity(rank: int) -> FreeEndo:
    return FreeEndo(rank, [Word(((i, 1),)) for i in range(rank)])


def apply(f: FreeEndo, w: Word) -> Word:
    """f(w): substitute every image, then freely reduce once."""
    def blocks():
        for g, e in w.blocks:
            image = f.images[g] if e > 0 else inverse(f.images[g])
            for _ in range(abs(e)):
                yield from image.blocks

    return Word(blocks())


def power(f: FreeEndo, d: int) -> FreeEndo:
    """f^d, by d - 1 substitutions into f's images."""
    if d == 0:
        return identity(f.rank)
    images = f.images
    for _ in range(d - 1):
        images = [apply(f, w) for w in images]
    return FreeEndo(f.rank, images)


def compatible(f: FreeEndo, alpha, d: int = 1) -> bool:
    """alpha(f^d(x_i)) == alpha(x_i) for every generator: f^d lifts."""
    return all(alpha.evaluate(w) == a for w, a in zip(power(f, d).images, alpha.images))


def random_automorphism(rank: int, moves: int, rng: random.Random) -> FreeEndo:
    """Up to ``moves`` elementary Nielsen moves, each applied after the
    ones before: swap two generators, invert one, or right-multiply one
    by another or its inverse."""
    f = identity(rank)
    for _ in range(moves):
        kind = rng.randrange(3)
        images = [Word(((i, 1),)) for i in range(rank)]
        if kind == 0 and rank >= 2:
            i, j = rng.sample(range(rank), 2)
            images[i], images[j] = images[j], images[i]
        elif kind == 1:
            i = rng.randrange(rank)
            images[i] = Word(((i, -1),))
        else:
            if rank < 2:
                continue
            i, j = rng.sample(range(rank), 2)
            images[i] = Word(((i, 1), (j, rng.choice((1, -1)))))
        move = FreeEndo(rank, images)
        f = FreeEndo(rank, [apply(move, w) for w in f.images])
    return f
