"""Exact integer simplicial (co)homology: an acyclic subcomplex, pairing, then one sparse SNF.

A flag complex K first grows a contractible full subcomplex A on bitsets (strong
collapses, Barmak-Minian, Discrete Comput. Geom. 47, 2012), and H~(K) = H(K, A)
(Mrozek-Pilarczyk-Zelazna, Comput. Math. Appl. 55, 2008) leaves only the cliques
outside A as cells.  Cells are paired off along +-1 incidences with no arithmetic:
coreductions (Mrozek-Batko, Discrete Comput. Geom. 41, 2009) and free faces
(Kaczynski-Mrozek-Slusarek, Comput. Math. Appl. 35, 1998).  The boundary of the
cells left goes, as sparse rows, to one Smith normal form kernel, which gives the
rank and all torsion in arbitrary-precision integers (fixed-width words would
overflow silently there); its +-1 pivots are exact Schur complements over Z.  A
graph (dimension <= 1) needs no matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, link, one_skeleton
from .graphs import _dismantled, components, iter_bits

__all__ = [
    "IntegerMatrix",
    "boundary_matrix",
    "SmithNormalForm",
    "smith_normal_form",
    "AbelianGroup",
    "TRIVIAL_GROUP",
    "INTEGERS",
    "GradedGroups",
    "reduced_homology",
    "reduced_cohomology",
    "universal_coefficients",
    "local_homology",
]


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix; row-major tuple storage, shape kept explicit."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("column count mismatch")


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------


def _cells(L: SimplicialComplex) -> tuple[list[dict[int, int]], list[range]]:
    """The cells of L's augmented chain complex, numbered, with their faces.

    Cell 0 is the empty simplex; ``levels[k + 1]`` numbers the k-simplices in
    storage order.  ``faces[c]`` maps c's face without position i to (-1)^i.
    """
    index: dict[tuple[str, ...], int] = {(): 0}
    faces: list[dict[int, int]] = [{}]
    levels = [range(1)]  # the empty cell
    for k, level in enumerate(L.simplices):
        signs = [(-1) ** i for i in range(k, -1, -1)]  # combinations drop the last vertex first
        faces += (dict(zip(map(index.__getitem__, combinations(s, k)), signs)) for s in level)
        levels.append(range(levels[-1].stop, len(faces)))
        index.update(zip(level, levels[-1]))
    return faces, levels


def _rows(faces: list[dict[int, int]], cols: Sequence[int], rows: Sequence[int]) -> list[dict]:
    """The boundary from cells ``cols`` to cells ``rows``, as sparse rows ``{column: +-1}``."""
    at = {b: i for i, b in enumerate(rows)}
    out: list[dict[int, int]] = [{} for _ in at]
    for j, c in enumerate(cols):
        for b, sign in faces[c].items():
            if b in at:
                out[at[b]][j] = sign
    return out


def boundary_matrix(L: SimplicialComplex, k: int, reduced: bool = False) -> IntegerMatrix:
    """The boundary operator from k-chains to (k-1)-chains, alternating signs.

    With ``reduced`` the k = 0 operator is the augmentation row (all ones)
    into the rank-one chain group on the empty simplex.  Out-of-range k
    yields the appropriately shaped zero-sized matrix.
    """
    faces, levels = _cells(L)
    level = dict(enumerate(levels, -1))
    cols = level.get(k, ()) if k >= 0 else ()
    rows = _rows(faces, cols, level.get(k - 1, ()) if k or reduced else ())
    entries = tuple(tuple(row.get(j, 0) for j in range(len(cols))) for row in rows)
    return IntegerMatrix(len(rows), len(cols), entries)


def _pair_off(faces: list[dict[int, int]]) -> bytearray:
    """Pair off cells along +-1 incidences; return which cells are left.

    A cell with one face left pairs with it (a coreduction, breadth first from the
    cells with one face); when none is, a cell with one coface left pairs with that
    (a free face).  Each pair splits off an acyclic Z -> Z, so the cells left, under
    the restricted boundary, have the same homology.
    """
    cofaces: list[list[int]] = [[] for _ in faces]
    for c, fs in enumerate(faces):
        for b in fs:
            cofaces[b].append(c)
    nf, ncf = list(map(len, faces)), list(map(len, cofaces))
    alive = bytearray([1]) * len(faces)
    coreduce = deque(c for c, n in enumerate(nf) if n == 1)
    free = [b for b, n in enumerate(ncf) if n == 1]
    while coreduce or free:
        if coreduce:
            x, partners, left = coreduce.popleft(), faces, nf
        else:
            x, partners, left = free.pop(), cofaces, ncf
        if not alive[x] or left[x] != 1:
            continue
        for y in partners[x]:
            if alive[y]:
                break
        alive[x] = alive[y] = 0
        for c in cofaces[x] + cofaces[y]:  # the counts of cells no longer alive go unread
            nf[c] -= 1
            if nf[c] == 1:
                coreduce.append(c)
        for c in [*faces[x], *faces[y]]:
            ncf[c] -= 1
            if ncf[c] == 1:
                free.append(c)
    return alive


def _smith(rows: list[dict[int, int]], cols: int) -> tuple[int, tuple[int, ...]]:
    """Rank and non-unit invariant factors of sparse rows ``{column: entry}``, over Z.

    Columns are visited in order.  The pivot is the column's entry of least
    magnitude, in the row with the fewest entries on ties, and every other
    row holding the column is reduced by it to a remainder: a Euclidean
    descent, which on a +-1 pivot is the exact Schur complement over Z.
    Once the column is the pivot row's alone, column operations, which touch
    no other row, reduce the rest of that row the same way; a remainder left
    there is swapped into the column and the descent goes on.  The diagonal
    this leaves becomes a divisibility chain by gcd and lcm over its non-unit
    entries.  ``rows`` is consumed.
    """
    holders: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    diagonal = []
    for c in range(cols):
        while holders[c]:
            pivot = min(holders[c], key=lambda i: (abs(rows[i][c]), len(rows[i])))
            prow = rows[pivot]
            p = prow[c]
            for i in holders[c] - {pivot}:
                row = rows[i]
                q = row[c] // p
                for j, x in prow.items():
                    y = row.get(j, 0) - q * x
                    if y:
                        if j not in row:
                            holders[j].add(i)
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(i)
            if len(holders[c]) > 1:
                continue
            for j in prow:  # the row leaves the matrix, or comes back as its remainders
                holders[j].discard(pivot)
            rest = {j: r for j, x in prow.items() if (r := x % p)}  # p % p is 0
            if not rest:
                diagonal.append(abs(p))
                continue
            rows[pivot] = rest
            for j in rest:
                holders[j].add(pivot)
            j = min(rest, key=lambda j: abs(rest[j]))  # swap columns c and j
            for i in holders[j]:
                rows[i][c] = rows[i].pop(j)
            holders[c], holders[j] = holders[j], {pivot}
            rest[j] = p
    factors = [d for d in diagonal if d > 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            d = gcd(factors[i], factors[j])
            factors[i], factors[j] = d, factors[i] * factors[j] // d
    torsion = tuple(d for d in factors if d > 1)
    for x, y in zip(torsion, torsion[1:]):
        assert y % x == 0, "invariant factors must form a divisibility chain"
    return len(diagonal), torsion


@dataclass(frozen=True)
class SmithNormalForm:
    """Rank and invariant factors d_1 | d_2 | ... | d_r of a diagonalised matrix."""

    rank: int
    invariant_factors: tuple[int, ...]


def smith_normal_form(m: IntegerMatrix) -> SmithNormalForm:
    """Diagonalise ``m`` over Z by unimodular row and column operations."""
    rank, torsion = _smith([{j: x for j, x in enumerate(row) if x} for row in m.entries], m.cols)
    return SmithNormalForm(rank, (1,) * (rank - len(torsion)) + torsion)


# ---------------------------------------------------------------------------
# abelian groups and graded collections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank plus cyclic torsion factors.

    Torsion entries are >= 2 and form a divisibility chain, matching the
    invariant-factor normal form.
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion factors must be at least 2")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x:
                raise ValueError("torsion factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroup()
INTEGERS = AbelianGroup(1)


@dataclass
class GradedGroups:
    """Degree-indexed abelian groups; only the nontrivial ones are kept.

    ``by_degree`` is normalised once, to its nontrivial groups in degree
    order, so equality is plain field equality and :meth:`group` answers
    any degree, trivial ones included.
    """

    by_degree: dict[int, AbelianGroup]

    def __post_init__(self) -> None:
        self.by_degree = {d: g for d, g in sorted(self.by_degree.items()) if not g.is_trivial}

    def group(self, degree: int) -> AbelianGroup:
        return self.by_degree.get(degree, TRIVIAL_GROUP)

    def nontrivial(self) -> dict[int, AbelianGroup]:
        return dict(self.by_degree)

    @property
    def is_trivial_everywhere(self) -> bool:
        return not self.by_degree

    def shifted(self, offset: int) -> "GradedGroups":
        return GradedGroups({d + offset: g for d, g in self.by_degree.items()})

    def __str__(self) -> str:
        return ", ".join(f"[{d}]={g}" for d, g in self.by_degree.items()) or "0"


# ---------------------------------------------------------------------------
# homology and cohomology
# ---------------------------------------------------------------------------


def graph_homology(v: int, e: int, c: int) -> GradedGroups:
    """Reduced homology of a complex of dimension <= 1 with v vertices, e edges, c components.

    H~[0] = Z^(c-1), H~[1] = Z^(e-v+c), no torsion.  With no vertex this is
    the empty complex, whose only group is Z in degree -1.
    """
    if not v:
        return GradedGroups({-1: INTEGERS})
    return GradedGroups({0: AbelianGroup(c - 1), 1: AbelianGroup(e - v + c)})


def _groups(faces: list[dict[int, int]], levels: list[range]) -> GradedGroups:
    """Homology of the cells ``levels[k + 1]`` in degree k under the boundary ``faces``:
    pairing, then one Smith normal form per boundary between the cells left."""
    alive = _pair_off(faces)
    left = [[c for c in level if alive[c]] for level in levels]  # left[k + 1]: degree k
    top = len(left)
    rank, torsion = [0] * (top + 1), [()] * (top + 1)  # of the boundary out of left[i]
    for i in range(1, top):
        if left[i - 1] and left[i]:
            rank[i], torsion[i] = _smith(_rows(faces, left[i], left[i - 1]), len(left[i]))
    free = [len(cells) - r - s for cells, r, s in zip(left, rank, rank[1:])]
    return GradedGroups({i - 1: AbelianGroup(free[i], torsion[i + 1]) for i in range(top)})


def flag_homology(rows: Sequence[int], mask: int) -> GradedGroups:
    """Reduced integral homology of the flag complex K the graph ``rows`` induces on bitset
    ``mask``; without a triangle (the empty mask too) :func:`graph_homology` counts give it.

    A contractible full subcomplex A grows from the lowest vertex: w joins when its
    link in A dismantles to one vertex, and only the neighbours of a vertex that joined
    are tested again.  The cells of H(K, A) = H~(K) are the cliques meeting R = K - A,
    each r in R with the cliques of its neighbours in A or in R above r; a face inside
    A is dropped, and the others keep the sign of the dropped vertex's position.
    """
    if not any(rows[i] & rows[j] & mask for i in iter_bits(mask) for j in iter_bits(rows[i] & mask)):
        return graph_homology(*components(rows, mask))
    closed = {i: rows[i] | 1 << i for i in iter_bits(mask)}
    a = mask & -mask
    todo = rows[a.bit_length() - 1] & mask
    while todo:
        w = todo & -todo
        todo ^= w
        row = rows[w.bit_length() - 1]
        if _dismantled(closed, row & a).bit_count() == 1:
            a |= w
            todo |= row & mask & ~a
    r = mask & ~a
    index: dict[int, int] = {}  # cell numbers, by clique bitset
    faces: list[dict[int, int]] = []
    levels = [range(0)]  # no cell in degree -1: the empty simplex lies in A
    frontier = [(1 << v, rows[v] & (a | r >> v + 1 << v + 1)) for v in iter_bits(r)]
    while frontier:
        for s, _ in frontier:
            index[s] = len(faces)
            faces.append({index[s ^ 1 << v]: -1 if p % 2 else 1
                          for p, v in enumerate(iter_bits(s)) if s & r & ~(1 << v)})
        levels.append(range(levels[-1].stop, len(faces)))
        frontier = [(s | 1 << v, c & rows[v] >> v + 1 << v + 1) for s, c in frontier for v in iter_bits(c)]
    return _groups(faces, levels)


def reduced_homology(L: SimplicialComplex) -> GradedGroups:
    """Reduced integral homology, computed in every degree -1 .. dim(L).

    The empty complex reports Z in degree -1.  A flag complex made here goes to
    :func:`flag_homology`; one given by its faces has its groups read off counts
    up to dimension 1, and above it every cell of its augmented chain complex is
    paired off.  No call is cached: each analysis keeps its own reuse.
    """
    full = (1 << L.vertex_count) - 1
    if L.rows is not None:
        return flag_homology(L.rows, full)
    if L.dimension <= 1:
        return graph_homology(*components(one_skeleton(L).adj, full))
    return _groups(*_cells(L))


def universal_coefficients(h: GradedGroups) -> GradedGroups:
    """Reduced integral cohomology from reduced homology ``h``: H~^k has the
    free part of H~_k and the torsion of H~_{k-1}."""
    degrees = {k for d in h.by_degree for k in (d, d + 1)}
    return GradedGroups({k: AbelianGroup(h.group(k).rank, h.group(k - 1).torsion) for k in degrees})


def reduced_cohomology(L: SimplicialComplex) -> GradedGroups:
    """Reduced integral cohomology, by universal coefficients."""
    return universal_coefficients(reduced_homology(L))


def local_homology(L: SimplicialComplex, simplex: Iterable[str]) -> GradedGroups:
    """Local homology at a simplex: the link's reduced homology, shifted.

    The shift is dim(simplex) + 1, so a facet of an n-complex reports Z in
    degree n (its link is empty, the (-1)-sphere).
    """
    s = L.simplex(simplex)
    return reduced_homology(link(L, s)).shifted(len(s))
