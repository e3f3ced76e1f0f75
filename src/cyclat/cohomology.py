"""Cohomology of subgroup towers acting on integer lattices.

For a lattice M with generator action A and the subgroup of order p^j
generated by s = A^(p^(n-j)), the two groups computed here are

  * ``tate_h1``:  ker(Norm_j) / im(s - 1)   (the degree -1 group, which for
    a cyclic subgroup is the same as first cohomology), and
  * ``tate_h0``:  fixed points of s modulo Norm_j applied to the lattice,

both returned as finite module presentations in the coordinates of an
integer basis of the ambient kernel (resp. fixed) sublattice.  Restriction
down the tower acts on representatives by the relative norm; corestriction
up the tower is induced by the literal inclusion of norm kernels.  The
whole tower assembles into a ladder diagram (``yakovlev_diagram``) whose
rung identities hold on the nose and are re-checked on every build.
"""

from __future__ import annotations

from . import intmat
from .diagrams import YakovlevDiagram, _check_diagram, _minimized_diagram
from .finmod import FiniteGammaModule, GammaMap


def _tate_group(lattice, j, kernel_of, image_of):
    """(module, basis, factor): ker(kernel_of(j)) / im(image_of(j)) at level j.

    ``kernel_of`` and ``image_of`` are lattice methods giving the level-j
    matrices: the norm N_j and s_j - 1 for the degree -1 group, the other
    way round for the degree 0 group.  ``basis`` has a basis of the kernel
    as columns and ``factor`` is its one ``intmat.factor_full_column_rank``;
    the module presents the kernel modulo the image, in those coordinates,
    with the induced sigma action.  j = 0, rank 0 and a trivial kernel give
    the zero module with basis and factor None.  The order-p^j subgroup
    kills the group, so the relations contain p^j . Z^k and their Hermite
    form is taken modulo p^j; the module constructor finds it already
    saturated.  The module is built unchecked: each caller checks it once.
    """
    params = lattice.params
    params.check_level(j)
    zero = (FiniteGammaModule.zero(params), None, None)
    if j == 0 or lattice.rank == 0:
        return zero
    basis = intmat.kernel(kernel_of(j), ncols=lattice.rank)
    k = len(basis[0]) if basis and basis[0] else 0
    if k == 0:
        return zero
    factor = intmat.factor_full_column_rank(basis)
    relations = intmat.solve_factored(factor, image_of(j))
    relations = intmat.hnf_mod_prime_power(relations, params.p, j)
    action = intmat.solve_factored(factor, intmat.mat_mul(lattice.action, basis))
    return FiniteGammaModule(params, k, relations, action, _trusted=True), basis, factor


def _h1_data(lattice, j):
    """(module, kernel_basis, factor) of the level-j degree -1 group, cached.

    ker(N_j) / im(s_j - 1) from ``_tate_group``: the relations, the action
    and the rung maps into this level (``up_map``, ``down_map``) all solve
    against the one ``factor``, and since the basis is saturated its
    back-substitution is empty.  The module is validated once, on its
    invariant-factor form, whose p-power diagonal relations keep the check
    small.
    """
    cache = lattice.__dict__.setdefault("_h1_cache", {})
    if j not in cache:
        data = _tate_group(lattice, j, lattice.norm_matrix, lattice.moved_matrix)
        data[0].minimized()[0]._validate()
        cache[j] = data
    return cache[j]


def tate_h1(lattice, j):
    """Degree -1 group of the order-p^j subgroup acting on the lattice."""
    return _h1_data(lattice, j)[0]


def tate_h0(lattice, j):
    """Fixed points of the order-p^j subgroup modulo its norm image.

    ker(s_j - 1) / im(N_j) from ``_tate_group``, validated once.
    """
    module = _tate_group(lattice, j, lattice.moved_matrix, lattice.norm_matrix)[0]
    module._validate()
    return module


def fixed_rank(lattice, j):
    """Rank of the sublattice fixed by the order-p^j subgroup."""
    if lattice.rank == 0:
        return 0
    if j == 0:
        return lattice.rank
    return lattice.rank - intmat.rank(lattice.moved_matrix(j))


def down_map(lattice, i, _trusted=False):
    """Restriction from level i to level i-1 (1 <= i <= n).

    On norm-kernel representatives this is the relative norm of the step,
    which lands in the lower norm kernel.  For i = 1 the target level is the
    zero module, so the map is the zero map.  ``_trusted`` skips the map
    check, for callers that check the map themselves.
    """
    if not 1 <= i <= lattice.params.n:
        raise ValueError(f"down map level {i} outside 1..{lattice.params.n}")
    src, src_basis, _ = _h1_data(lattice, i)
    tgt, tgt_basis, tgt_factor = _h1_data(lattice, i - 1)
    if src_basis is None or tgt_basis is None:
        return GammaMap.zero(src, tgt)
    moved = lattice.apply_relative_norm(i, src_basis)
    return GammaMap(src, tgt, intmat.solve_factored(tgt_factor, moved), _trusted=_trusted)


def up_map(lattice, i, _trusted=False):
    """Corestriction from level i-1 to level i (1 <= i <= n).

    Induced by the inclusion of the lower norm kernel in the upper one.
    For i = 1 the source level is the zero module, so the map is zero.
    ``_trusted`` skips the map check, as for :func:`down_map`.
    """
    if not 1 <= i <= lattice.params.n:
        raise ValueError(f"up map level {i} outside 1..{lattice.params.n}")
    src, src_basis, _ = _h1_data(lattice, i - 1)
    tgt, tgt_basis, tgt_factor = _h1_data(lattice, i)
    if src_basis is None or tgt_basis is None:
        return GammaMap.zero(src, tgt)
    return GammaMap(src, tgt, intmat.solve_factored(tgt_factor, src_basis), _trusted=_trusted)


def yakovlev_diagram(lattice):
    """Full ladder diagram of the lattice, on minimized level presentations.

    The rung maps are built unchecked on the raw presentations, transported
    to the minimized ones, and checked exactly once there, together with
    the ladder identities, by ``_check_diagram``.
    """
    n = lattice.params.n
    levels = [tate_h1(lattice, i) for i in range(1, n + 1)]
    ups = [up_map(lattice, i, _trusted=True) for i in range(2, n + 1)]
    downs = [down_map(lattice, i, _trusted=True) for i in range(2, n + 1)]
    diagram = _minimized_diagram(YakovlevDiagram(lattice.params, levels, ups, downs))
    _check_diagram(diagram)
    return diagram


def is_cohomologically_trivial(lattice):
    """Whether every subgroup level has vanishing degree -1 and 0 groups."""
    return all(
        tate_h1(lattice, j).is_zero() and tate_h0(lattice, j).is_zero()
        for j in range(1, lattice.params.n + 1)
    )
