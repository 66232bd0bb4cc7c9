"""The per-column chain-map lift, kept as an oracle for
``cover.lift_power_matrix``: every basis cycle, as a sparse edge chain, is
pushed through every chain map Phi_d, ..., Phi_1 in turn.  Like the
program's lift it never expands f^d, so it runs in time polynomial in d
and reaches covers and powers that the word oracle of ``word_oracle.py``
cannot; unlike it, it makes no use of the maps' equivariance.
"""

from twistalex.exactla import IntMatrix


def chain_map_lift(cover, f, d: int) -> IntMatrix:
    """Matrix of the lift of f^d on the cover's H1 basis, for f^d
    compatible with the cover's alpha."""
    homs = [cover.alpha]  # a_k = alpha . f^k
    for _ in range(d):
        homs.append(homs[-1].precompose(f))
    if homs[-1].images != cover.alpha.images:
        raise AssertionError("f^d has no lift")
    index = {x: k for k, x in enumerate(cover.vertices)}
    columns = [basis_cycle(cover, v, g) for v, g in cover.basis]
    for hom in reversed(homs[:-1]):  # Phi_d first
        phi = chain_map(f, hom, cover.vertices, index)
        columns = [push(phi, c) for c in columns]
    if not all(is_closed(cover, c) for c in columns):  # no assert: tests also run under -O
        raise AssertionError("image of a basis cycle did not close up")
    n = cover.rank
    return IntMatrix.from_rows([[c[v * n + g] for c in columns] for v, g in cover.basis])


def basis_cycle(cover, v: int, g: int) -> list[int]:
    """Edge chain tree(v) + e_(v,g) - tree(head); edge (v, i) has index v*n + i."""
    n = cover.rank
    chain = [0] * (n * cover.group_order)
    chain[v * n + g] += 1
    for u, sign in ((v, 1), (cover.edge_target[v][g], -1)):
        while cover.tree[u] is not None:
            u, h = cover.tree[u]
            chain[u * n + h] += sign
    return chain


def chain_map(f, hom, vertices, index) -> list[tuple]:
    """Phi for f over hom: for each edge v*n + i, the edges that the path
    f(x_i) spells from v in the Cayley graph of (G, hom) crosses forwards,
    and those it crosses backwards."""
    target = hom.target
    n = f.rank
    forward = [[index[target.mul(x, a)] for a in hom.images] for x in vertices]
    inverses = [target.pow(a, -1) for a in hom.images]
    backward = [[index[target.mul(x, a)] for a in inverses] for x in vertices]
    phi = []
    for v in range(len(vertices)):
        for word in f.images:
            plus, minus = [], []
            u = v
            for j, e in word.blocks:
                for _ in range(abs(e)):
                    if e > 0:
                        plus.append(u * n + j)
                        u = forward[u][j]
                    else:
                        u = backward[u][j]
                        minus.append(u * n + j)
            phi.append((plus, minus))
    return phi


def push(phi: list[tuple], chain: list[int]) -> list[int]:
    out = [0] * len(chain)
    for edge, x in enumerate(chain):
        if x:
            plus, minus = phi[edge]
            for image in plus:
                out[image] += x
            for image in minus:
                out[image] -= x
    return out


def is_closed(cover, chain: list[int]) -> bool:
    """Zero boundary at every vertex."""
    n = cover.rank
    boundary = [0] * cover.group_order
    for edge, x in enumerate(chain):
        if x:
            v, g = divmod(edge, n)
            boundary[v] -= x
            boundary[cover.edge_target[v][g]] += x
    return not any(boundary)
