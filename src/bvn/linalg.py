"""Dense complex linear algebra: states, channels and the subspace lattice.

A proposition about a quantum system is a closed subspace of its state
space; this module supplies that lattice (meet, join, orthocomplement,
Sasaki implication, inclusion) together with channel actions on states and
subspaces.  Everything downstream reduces to these kernels.

Subspaces are stored as orthonormal column bases (rank explicit, projector
derivable as B @ B.conj().T).  Two thresholds decide everything.  tau_rank
cuts the spectrum of a spanning set (spans, supports, every image but a
unitary one); the range of a projector is its eigenvectors above 1/2, with no
threshold.  tau_sub cuts the sines of the principal angles between two
bases, read off the residual R = Y - X X^dagger Y of one basis off the
other: when its Frobenius norm is at most tau_sub, y lies in x and nothing
is factored; otherwise eigendecompositions of the small r2 x r2 matrix
R^dagger R, and of its part with sines below 1e-4, give the principal
vectors.  Inclusion, equality, meet, join and Sasaki implication keep or
drop principal vectors by their sines, so they agree with one another.  One kernel,
``_meet_from(x, y)``, takes x ^ y with its basis inside x; the meet, Sasaki
implication, the wlp of a projector, ker P (+) (ran P ^ x), and the case and
loop wlps in ``programs`` all call it.  Unitary images and wlps are products
U B and U^dagger B.  The image under a projector P = E E^dagger is E U, for U
the tau_rank cut of E^dagger B: the same singular values as P B (the cosines
of B's angles off ran P), on r rows instead of d; E is the range of the split
(ker, ran) that a projective channel carries from its construction.  Complements come
from a complete QR and are left to negation, Sasaki implication and the wlp
of general channels.

A channel embedded from a few variables into a larger space keeps only its
local Kraus operators and the tensor legs they act on, and a subspace only
its basis on the legs it constrains, tensored with the whole space of the
others; without a layout it is the dense form, and the zero and full
subspaces constrain no leg.  A lattice kernel places both operands on the
union of their legs (``_placed``) and runs the same arithmetic there; a meet
of subspaces on disjoint legs is the Kronecker product of their bases, with
no factorization and no threshold.  A channel action contracts the local
operators onto the legs of its operand placed on the union of its legs and
the channel's, so it costs O(d_union * columns * d_local); ``ortho`` stays on
its operand's legs.  Tensoring with an identity repeats every principal
angle and singular value and changes none, so every decision is the dense
one up to rounding.  A unitary on legs disjoint from x's leaves x, and a
projector maps it to x (x) ran P; every other action ends in ``_trimmed``,
which drops each leg it added on which the result is still the whole
space up to the tau_rank cut, so a subspace stays on the legs it
constrains.  A drop moves it by a sine of the size of the tau_rank cut of
the other images, never by tau_sub, so a chain of actions does not wear
the lattice's threshold away.  The global basis (``Subspace.basis``) is
placed on first use, only at the edges: a printed basis, a witness
(tensored with e_0 on the legs outside the union, which keeps its sine), a
Born probability and ``run``'s divergence trap; a state's support is dense
from the start.  A state is held as its factor V, ρ = V V†, and a channel is
compared on its Choi factor; only ``StateDensity.matrix`` forms a dense ρ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatchError,
    FixpointError,
    InvalidChannelError,
    InvalidStateError,
)

__all__ = [
    "StateDensity",
    "Subspace",
    "Channel",
    "support",
    "lattice_join",
    "lattice_meet",
    "ortho",
    "sasaki_implies",
    "includes",
    "inclusion_witness",
    "subspace_equal",
    "lattice_fixpoint",
    "channel_apply",
    "channel_image",
    "channel_wlp",
    "channel_adjoint",
    "channel_equal",
    "orthonormal_columns",
]


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


# Below this absolute scale a spectrum is indistinguishable from the noise
# that dense factorizations spray into structurally-zero entries; a purely
# relative rank cutoff would otherwise manufacture rank out of it (e.g. the
# guard-1 image of an exactly reset state).
_NOISE_FLOOR = 1e-13


def orthonormal_columns(vectors: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """SVD-based orthonormal basis of the column space of ``vectors``.

    Columns with singular value below tau_rank * sigma_max are dropped, so
    the result has a well-defined numerical rank; a spectrum entirely below
    the machine-noise floor counts as zero.
    """
    vectors = _as_complex(vectors)
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        return np.zeros((vectors.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    rank = np.count_nonzero(s > tol.tau_rank * s[0]) if s.size and s[0] > _NOISE_FLOOR else 0
    return np.ascontiguousarray(u[:, :rank])


def _psd_factor(m: np.ndarray, cut: float) -> np.ndarray:
    """F with F F† = m, for m Hermitian and positive up to rounding: m's
    eigenvectors scaled by the square roots of the eigenvalues above cut,
    the largest always kept, a negative one read as 0."""
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    keep = w >= min(cut, w[-1])
    return u[:, keep] * np.sqrt(np.clip(w[keep], 0, None))


def projector_split(p: np.ndarray) -> tuple:
    """(ker, ran): orthonormal bases of the kernel and the range of a
    projector, its eigenvectors of eigenvalue at most and above 1/2.  The
    eigenvalues of a projector validated within tau_num lie within about
    dim * tau_num of 0 or 1, so no threshold enters."""
    evals, evecs = np.linalg.eigh((p + p.conj().T) / 2)
    return tuple(np.ascontiguousarray(evecs[:, keep]) for keep in (evals <= 0.5, evals > 0.5))


def place_on_legs(basis: np.ndarray, legs: tuple, layout: tuple) -> np.ndarray:
    """A basis of a subspace of the factors ``legs`` of the tensor product
    ``layout``, tensored with the whole space of the other factors; an empty
    layout means the basis is already on the whole space."""
    if not layout:
        return basis
    # wide[a, j, b, r] = basis[a, j] * (b == r): column (j, r) is basis column
    # j tensored with e_r on the rest; row legs (a, b) go into layout order.
    rest = [g for g in range(len(layout)) if g not in legs]
    rest_dim = math.prod(layout[g] for g in rest)
    wide = np.multiply.outer(basis, np.eye(rest_dim, dtype=np.complex128)).reshape(
        [layout[g] for g in legs] + [basis.shape[1]] + [layout[g] for g in rest] + [rest_dim]
    )
    k = len(legs)
    rows = [legs.index(g) if g in legs else k + 1 + rest.index(g) for g in range(len(layout))]
    return wide.transpose(rows + [k, wide.ndim - 1]).reshape(
        math.prod(layout), basis.shape[1] * rest_dim)


@dataclass(frozen=True, init=False)
class StateDensity:
    """A partial density operator ρ = V V†, held as its factor V (d x r).
    Branch probabilities are folded into the trace (Selinger convention).
    The constructor checks the matrix ρ (finite, Hermitian and positive
    within tau_num, trace at most 1) and factors it once; the package builds
    states from factors with ``_of``.  ``matrix`` forms ρ on first use."""

    factor: np.ndarray

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOL):
        m = _as_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidStateError("density matrix has a non-finite entry")
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        if np.abs(m - m.conj().T).max(initial=0.0) > tol.tau_num * scale:
            raise InvalidStateError("density matrix is not Hermitian within tolerance")
        evals, evecs = np.linalg.eigh((m + m.conj().T) / 2)
        if evals.size and evals.min() < -tol.tau_num * scale:
            raise InvalidStateError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        tr = float(np.real(np.trace(m)))
        if tr > 1.0 + tol.tau_num:
            raise InvalidStateError(f"density matrix has trace {tr} > 1")
        keep = evals > 0
        object.__setattr__(self, "factor", evecs[:, keep] * np.sqrt(evals[keep]))

    @staticmethod
    def _of(factor: np.ndarray) -> "StateDensity":
        """The state V V†.  A factor wider than it is tall becomes the square
        R†, for V† = Q R: V V† = R† R exactly, so no mass is cut."""
        if factor.shape[1] > factor.shape[0]:
            factor = np.linalg.qr(factor.conj().T, mode="r").conj().T
        state = object.__new__(StateDensity)
        object.__setattr__(state, "factor", factor)
        return state

    @staticmethod
    def pure(vector) -> "StateDensity":
        """The projector onto the ray of ``vector``, normalized."""
        v = _as_complex(vector).reshape(-1, 1)
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            n = np.linalg.norm(v)
        if not np.isfinite(n):
            raise InvalidStateError("state vector has a non-finite entry or norm")
        if n == 0.0:
            raise InvalidStateError("cannot normalize the zero vector")
        return StateDensity._of(v / n)

    @staticmethod
    def maximally_mixed(dim: int) -> "StateDensity":
        return StateDensity._of(np.eye(dim, dtype=np.complex128) / math.sqrt(dim))

    @staticmethod
    def zero(dim: int) -> "StateDensity":
        return StateDensity._of(np.zeros((dim, 0), dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @functools.cached_property
    def trace(self) -> float:
        return float(np.vdot(self.factor, self.factor).real)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^dim, held as an orthonormal column basis.

    With an empty ``layout`` the basis ``local`` is on the whole space.
    Otherwise the space is the tensor product of ``layout``, ``local`` is a
    basis on the factors at positions ``legs``, and the subspace is its span
    tensored with the whole space of the other factors; legs that are the
    whole layout in order are stored as the whole space.  ``dim`` and
    ``rank`` are global, and ``basis`` is the global basis, placed on first
    use.  rank == 0 encodes the zero subspace; rank == dim the full space,
    which ``zero`` and ``full`` build on no legs.  Channel images and wlps
    drop each leg they add on which their result is the whole space, up to
    the tau_rank cut (``_trimmed``), so legs grow only where a subspace is
    constrained.  The kernels rely on the basis being orthonormal; use
    ``from_span`` otherwise.
    """

    dim: int
    local: np.ndarray
    legs: tuple = ()
    layout: tuple = ()

    def __post_init__(self):
        b = _as_complex(self.local)
        legs, layout = tuple(self.legs), tuple(self.layout)
        if legs == tuple(range(len(layout))):
            legs, layout = (), ()
        if not (len(set(legs)) == len(legs) and set(legs) <= set(range(len(layout)))):
            raise DimensionMismatchError(f"legs {legs} do not fit layout {layout}")
        side = math.prod(layout[g] for g in legs) if layout else self.dim
        if b.ndim != 2 or b.shape[0] != side or (layout and math.prod(layout) != self.dim):
            raise DimensionMismatchError(
                f"basis shape {b.shape} on legs {legs} of {layout} does not match "
                f"ambient dimension {self.dim}")
        object.__setattr__(self, "local", b)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "layout", layout)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        return place_on_legs(self.local, self.legs, self.layout)

    @staticmethod
    def from_span(vectors, dim: int | None = None, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the given vectors (rows of any matrix-like,
        or a dim x k array of columns)."""
        v = _as_complex(vectors)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if dim is None:
            dim = v.shape[0]
        return Subspace(dim, orthonormal_columns(v, tol))

    @staticmethod
    def zero(dim: int) -> "Subspace":
        return Subspace(dim, np.zeros((1, 0), dtype=np.complex128), (), (dim,))

    @staticmethod
    def full(dim: int) -> "Subspace":
        return Subspace(dim, np.ones((1, 1), dtype=np.complex128), (), (dim,))

    @property
    def rank(self) -> int:
        return self.local.shape[1] * (self.dim // self.local.shape[0])

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def is_full(self) -> bool:
        return self.local.shape[1] == self.local.shape[0]


@dataclass(frozen=True)
class Channel:
    """A completely positive trace-nonincreasing map in Kraus form on a space
    of dimension ``dim``.  The kernels rely on kind="unitary" meaning one
    unitary Kraus operator and on kind="projective" meaning one orthogonal
    projector: the shape is checked here, unitarity once in ``validated``, and
    projectors come from validated measurement bindings.  A projective
    channel carries ``split``, orthonormal bases (ker, ran) of its
    projector's kernel and range on its legs, which ``channel_image`` (ran)
    and ``channel_wlp`` (both) read; one built without it is split here, once.

    With an empty ``layout`` the Kraus operators are square matrices on the
    whole space, which fixes ``dim``.  Otherwise the space is the tensor
    product of ``layout`` and they are square on the factors at positions
    ``legs``, identity on the others; legs that are the whole layout in order
    are stored as the whole space."""

    kraus: tuple
    kind: str = "general"  # unitary | projective | general
    legs: tuple = ()
    layout: tuple = ()
    split: tuple = field(default=(), repr=False, compare=False)
    dim: int = field(default=0, init=False)

    def __post_init__(self):
        ops = tuple(_as_complex(k) for k in self.kraus)
        legs, layout = tuple(self.legs), tuple(self.layout)
        if legs == tuple(range(len(layout))):
            legs, layout = (), ()
        if not ops:
            raise InvalidChannelError("a channel needs at least one Kraus operator")
        if self.kind not in ("unitary", "projective", "general"):
            raise InvalidChannelError(f"unknown channel kind {self.kind!r}")
        side = ops[0].shape[0] if ops[0].ndim else 0
        if self.kind != "general" and (len(ops) != 1 or ops[0].shape != (side, side)):
            raise InvalidChannelError(f"a {self.kind} channel has exactly one square Kraus operator")
        if layout:
            if not (len(set(legs)) == len(legs) and set(legs) <= set(range(len(layout)))):
                raise InvalidChannelError(f"legs {legs} do not fit layout {layout}")
            side = math.prod(layout[g] for g in legs)
        for k in ops:
            if k.shape != (side, side):
                raise InvalidChannelError(f"Kraus operator shape {k.shape} != {(side, side)}")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "dim", math.prod(layout) if layout else side)
        if self.kind == "projective" and not self.split:
            object.__setattr__(self, "split", projector_split(ops[0]))

    @staticmethod
    def validated(kraus: Sequence, kind: str = "general",
                  tol: Tolerances = DEFAULT_TOL) -> "Channel":
        ch = Channel(tuple(kraus), kind)
        if not all(np.isfinite(k).all() for k in ch.kraus):
            raise InvalidChannelError("Kraus operator has a non-finite entry")
        dev = sum(k.conj().T @ k for k in ch.kraus) - np.eye(ch.dim)
        evals = np.linalg.eigvalsh((dev + dev.conj().T) / 2)
        if evals.size and evals.max() > tol.tau_num:
            raise InvalidChannelError(
                f"Kraus operators increase trace (max eigenvalue excess {evals.max():.3e})"
            )
        if kind == "unitary" and np.abs(dev).max() > tol.tau_num:
            raise InvalidChannelError("matrix bound to a unitary symbol is not unitary")
        return ch

    @staticmethod
    def unitary(u, tol: Tolerances = DEFAULT_TOL) -> "Channel":
        return Channel.validated([u], kind="unitary", tol=tol)

    @staticmethod
    def identity(dim: int) -> "Channel":
        return Channel((np.eye(dim, dtype=np.complex128),), "unitary")


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def support(rho: StateDensity, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors of ρ = V V† with eigenvalue above the rank
    cutoff: the left singular vectors of V whose squared singular value, an
    eigenvalue of ρ, passes it, from one SVD of V."""
    u, s, _ = np.linalg.svd(rho.factor, full_matrices=False)
    evals = s ** 2
    if not evals.size or evals[0] <= _NOISE_FLOOR:
        return Subspace.zero(rho.dim)
    return Subspace(rho.dim, np.ascontiguousarray(u[:, evals > tol.tau_rank * evals[0]]))


def _check_same_dim(xs: Iterable[Subspace]) -> int:
    dims = {x.dim for x in xs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"subspaces live in different ambient dimensions {sorted(dims)}")
    return dims.pop()


def _span(xs: Sequence[Subspace], e: Channel | None = None) -> tuple:
    """(legs, layout) to place xs, and e's legs, on together: their legs
    when they all have the same, else the sorted union of their legs, on
    their one layout; or ((), ()), the whole space, when one of them is
    dense.  A zero or full subspace constrains no leg."""
    bound = [x for x in xs if 0 < x.rank < x.dim] + ([] if e is None else [e])
    if any(not x.layout for x in bound):
        return (), ()
    layouts = {x.layout for x in bound} or {next((x.layout for x in xs if x.layout), ())}
    if len(layouts) > 1:
        raise DimensionMismatchError(f"subspaces live on different tensor layouts {layouts}")
    legs = {x.legs for x in bound}
    return legs.pop() if len(legs) == 1 else tuple(sorted(set().union(*legs))), layouts.pop()


def _on(x: Subspace, legs: tuple, layout: tuple) -> np.ndarray:
    """x's basis on the factors ``legs`` of ``layout``, which hold x's legs;
    the global basis for an empty layout."""
    if not layout:
        return x.basis
    if (x.legs, x.layout) == (legs, layout):
        return x.local
    side = math.prod(layout[g] for g in legs)
    if x.rank == 0 or x.is_full():
        return np.eye(side, dtype=np.complex128)[:, :side if x.rank else 0]
    return place_on_legs(x.local, tuple(legs.index(g) for g in x.legs),
                         tuple(layout[g] for g in legs))


def _placed(*xs: Subspace) -> tuple:
    """The bases of xs on the union of their legs, and that (legs, layout)."""
    where = _span(xs)
    return [_on(x, *where) for x in xs], where


def _direct_sum(xs: Sequence[Subspace]) -> Subspace:
    """The join of mutually orthogonal subspaces: their bases side by side."""
    bases, where = _placed(*xs)
    return Subspace(xs[0].dim, np.hstack(bases), *where)


_SMALL_SINE = 1e-4


def _principal(x: np.ndarray, y: np.ndarray, tol: Tolerances) -> tuple:
    """(W, R, sines): the principal vectors of y with respect to x, their
    residuals off x and the sines of the principal angles, for bases x and
    y placed on one (legs, layout) by ``_placed``, where the angles are
    those of the global bases, each repeated.  They are read off the residual
    R = Y - X X^dagger Y, not off cosines (Knyazev and Argentati, 2002).
    When ||R||_F <= tau_sub, no sine exceeds it and W = Y.  Otherwise the
    eigenvectors V of R^dagger R (ascending) give W = Y V and residuals R V,
    whose norms are the sines (Bjorck and Golub, 1973).  Beside a large
    angle that eigh mixes the vectors of sines below about 1e-8, so where
    those below _SMALL_SINE reach tau_sub an eigh of their own Gram matrix
    separates them."""
    if x.shape[1] == 0 or y.shape[1] == 0:
        return y, y, np.ones(y.shape[1])
    r = y - x @ (x.conj().T @ y)
    if np.linalg.norm(r) <= tol.tau_sub:
        return y, r, np.linalg.norm(r, axis=0)
    _, v = np.linalg.eigh(r.conj().T @ r)
    w, r = y @ v, r @ v
    sines = np.linalg.norm(r, axis=0)
    small = sines < _SMALL_SINE
    if not small.all() and np.linalg.norm(r[:, small]) > tol.tau_sub:
        _, v = np.linalg.eigh(r[:, small].conj().T @ r[:, small])
        w[:, small], r[:, small] = w[:, small] @ v, r[:, small] @ v
        sines[small] = np.linalg.norm(r[:, small], axis=0)
    return w, r, sines


def _meet_from(x: Subspace, y: Subspace, tol: Tolerances) -> Subspace:
    """x ^ y with its basis inside x: the principal vectors of x within
    tau_sub of y; x itself when y is the full space, and the Kronecker
    product of their bases when their legs are disjoint."""
    if y.is_full():
        return x
    if x.layout and x.layout == y.layout and not set(x.legs) & set(y.legs):
        return Subspace(x.dim, np.kron(x.local, y.local), x.legs + y.legs, x.layout)
    (yb, xb), where = _placed(y, x)
    w, _, sines = _principal(yb, xb, tol)
    return Subspace(x.dim, w[:, sines <= tol.tau_sub], *where)


def _join2(x: Subspace, y: Subspace, tol: Tolerances) -> Subspace:
    """The basis of the higher-rank argument (the second on a tie) plus the
    residuals of the other's principal vectors farther than tau_sub from it.

    Meet and join of x and y, and x <= y, threshold the same call
    _principal(y, x) when rank x <= rank y, so they agree exactly."""
    if x.rank > y.rank:
        x, y = y, x
    (yb, xb), where = _placed(y, x)
    _, r, sines = _principal(yb, xb, tol)
    keep = sines > tol.tau_sub
    if not keep.any():
        return y
    r = r[:, keep] / sines[keep]
    r -= yb @ (yb.conj().T @ r)  # a second pass restores orthogonality to y
    q, _ = np.linalg.qr(r)
    return Subspace(y.dim, np.hstack([yb, q]), *where)


def lattice_join(xs: Sequence[Subspace], tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Closed span of the union, folded pairwise; the empty join is the
    zero subspace."""
    xs = list(xs)
    if not xs:
        raise DimensionMismatchError("empty join has no ambient dimension; use Subspace.zero")
    dim = _check_same_dim(xs)
    if any(x.is_full() for x in xs):
        return Subspace.full(dim)
    return functools.reduce(lambda a, b: _join2(a, b, tol), xs)


def ortho(x: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthocomplement: all vectors orthogonal to x, on x's legs."""
    side = x.local.shape[0]
    if x.rank == 0 or x.is_full():
        return Subspace(x.dim, np.eye(side, dtype=np.complex128)[:, :0 if x.rank else side],
                        x.legs, x.layout)
    # Null space of B^dagger: trailing columns of a complete QR of the basis.
    q, _ = np.linalg.qr(x.local, mode="complete")
    return Subspace(x.dim, np.ascontiguousarray(q[:, x.local.shape[1]:]), x.legs, x.layout)


def lattice_meet(xs: Sequence[Subspace], tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection, folded pairwise; the empty meet is the full space."""
    xs = list(xs)
    if not xs:
        raise DimensionMismatchError("empty meet has no ambient dimension; use Subspace.full")
    dim = _check_same_dim(xs)
    proper = [x for x in xs if not x.is_full()]
    if not proper:
        return Subspace.full(dim)
    # each meet is taken from the lower-rank argument (the first on a tie)
    return functools.reduce(
        lambda a, b: _meet_from(a, b, tol) if a.rank <= b.rank else _meet_from(b, a, tol), proper)


def sasaki_implies(x: Subspace, y: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Sasaki implication x -> y = x_perp v (x ^ y), the one orthomodular
    implication satisfying import-export.  x ^ y is taken from x's side, so
    it is orthogonal to x_perp and the join is a direct sum."""
    _check_same_dim([x, y])
    return _direct_sum([ortho(x, tol), _meet_from(x, y, tol)])


def inclusion_witness(x: Subspace, y: Subspace, tol: Tolerances = DEFAULT_TOL):
    """None if y is contained in x; otherwise the principal vector of y with
    the largest sine off x, a unit vector of y farther than tau_sub from x.
    Found on the union of their legs, it is tensored with e_0 on the others,
    which keeps its sine."""
    _check_same_dim([x, y])
    if y.rank == 0 or x.is_full():
        return None
    (xb, yb), where = _placed(x, y)
    w, _, sines = _principal(xb, yb, tol)
    k = int(np.argmax(sines))
    if sines[k] <= tol.tau_sub:
        return None
    return place_on_legs(w[:, [k]], *where)[:, 0]


def includes(x: Subspace, y: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff y is contained in x: every principal angle of y off x has
    sine at most tau_sub."""
    return inclusion_witness(x, y, tol) is None


def subspace_equal(x: Subspace, y: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Equal ranks and inclusion; the principal angles are symmetric."""
    _check_same_dim([x, y])
    return x.rank == y.rank and includes(x, y, tol)


def lattice_fixpoint(step, start: Subspace, what: str, tol: Tolerances = DEFAULT_TOL,
                     ranks: list | None = None) -> Subspace:
    """Iterate z <- step(z) from ``start`` until an iterate repeats; return it.

    Every loop and quantifier of the package is a monotone chain of this
    kind, which changes rank at every non-final step and so stabilizes
    within dim + 1 steps.  The rank trace is the start's rank, then each
    iterate's rank; ``ranks`` collects it, and FixpointError carries it."""
    ranks = [] if ranks is None else ranks
    z = start
    ranks.append(z.rank)
    for _ in range(start.dim + 1):
        nxt = step(z)
        ranks.append(nxt.rank)
        if subspace_equal(nxt, z, tol):
            return z
        z = nxt
    raise FixpointError(what, ranks)


# ---------------------------------------------------------------------------
# channel actions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _axes(legs: tuple, n: int) -> tuple:
    """The axis permutations that bring the factors ``legs`` of an operand
    reshaped to (n factors, columns) to the front, and back again."""
    order = legs + tuple(g for g in range(n + 1) if g not in legs)
    return order, tuple(np.argsort(order).tolist())


def _on_legs(k: np.ndarray, legs: tuple, layout: tuple, m: np.ndarray) -> np.ndarray:
    """k times m, k acting on the factors ``legs`` of m's rows reshaped to
    ``layout`` (on all of them for an empty layout): those legs are
    transposed to the front, multiplied by k and transposed back."""
    if not layout:
        return k @ m
    order, back = _axes(legs, len(layout))
    t = m.reshape(layout + (m.shape[1],)).transpose(order)
    t = (k @ t.reshape(k.shape[1], -1)).reshape(t.shape)
    return t.transpose(back).reshape(m.shape)


def _acting(e: Channel, legs: tuple, layout: tuple) -> tuple:
    """(legs, layout) on which e's Kraus operators act on an operand placed
    on the factors ``legs`` of ``layout``, or on the whole space."""
    if not layout:
        return e.legs, e.layout
    return tuple(legs.index(g) for g in e.legs), tuple(layout[g] for g in legs)


def _range_image(ran: np.ndarray, legs: tuple, layout: tuple, b: np.ndarray,
                 tol: Tolerances) -> np.ndarray:
    """A basis of the span of P b, for P = E E^dagger (E = ``ran``) acting as
    ``_on_legs`` does: E U, for U the tau_rank cut of E^dagger b, whose
    singular values are those of P b (Bjorck and Golub, 1973)."""
    if not layout:
        return ran @ orthonormal_columns(ran.conj().T @ b, tol)
    order, back = _axes(legs, len(layout))
    t = b.reshape(layout + (b.shape[1],)).transpose(order)
    c = ran.conj().T @ t.reshape(ran.shape[0], -1)  # rows: (r, other factors)
    u = orthonormal_columns(c.reshape(-1, b.shape[1]), tol)
    out = ran @ u.reshape(ran.shape[1], c.shape[1] // b.shape[1] * u.shape[1])
    return out.reshape(t.shape[:-1] + (u.shape[1],)).transpose(back).reshape(b.shape[0], -1)


def global_kraus(e: Channel) -> tuple:
    """e's Kraus operators as matrices on the whole space."""
    if not e.layout:
        return e.kraus
    eye = np.eye(e.dim, dtype=np.complex128)
    return tuple(_on_legs(k, e.legs, e.layout, eye) for k in e.kraus)


def channel_apply(e: Channel, rho: StateDensity) -> StateDensity:
    """Schroedinger action sum_k K ρ K†, on the factor: [K_1 V, ..., K_m V]."""
    if rho.dim != e.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel dim {e.dim}")
    return StateDensity._of(np.hstack([_on_legs(k, e.legs, e.layout, rho.factor)
                                       for k in e.kraus]))


@functools.lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """A fixed unit vector of C^n."""
    v = np.random.default_rng(n).standard_normal((n, 2)) @ np.array([1, 1j])
    return v / np.linalg.norm(v)


def _trimmed(y: Subspace, e: Channel, x: Subspace, tol: Tolerances) -> Subspace:
    """y, e's image or wlp of x, without each leg e added to x's on which y
    is the whole space up to rounding.  For such a leg g of dimension d, the
    slices B_i = (<i|_g (x) I) B of y's basis B (c columns), side by side,
    form C, of rank k = c / d when y = ran C (x) H_g, and sigma_1 <= sqrt d.
    One SVD of C decides: g goes, for C's first k left singular vectors,
    iff the norm t of the singular values past them is at most
    tau_rank * sigma_1, the scale of ``orthonormal_columns``' cut.  Every unit b
    of ran B then lies within t of the trimmed form, which has the same
    rank, so each dropped leg moves y by a sine of at most t, and one call
    by at most the sum over its dropped legs: rounding, never tau_sub.  g
    stays, unfactored, when d does not divide c, or when the vectors
    B_i^dagger v = B^dagger (e_i (x) v), for a fixed unit probe v, have a
    Gram matrix G farther than 2 tau_rank sqrt d from G_00 I in some entry:
    G is the trimmed form's, a multiple of I, moved by at most t off the
    diagonal and 2t on it."""
    layout = e.layout or x.layout  # a dense channel acts on every leg of x's layout
    if not (x.layout and 0 < y.rank < y.dim):
        return y
    b, legs = y.local, y.legs if y.layout else tuple(range(len(layout)))
    for g in [g for g in legs if g not in x.legs]:
        d, c = layout[g], b.shape[1]
        if c % d:
            continue
        at = legs.index(g)
        order = _axes((at,), len(legs))[0]
        slices = b.reshape([layout[h] for h in legs] + [c]).transpose(order).reshape(d, -1, c)
        q = _probe(slices.shape[1]) @ slices  # row i: (B_i^dagger v)^*, v the probe's conjugate
        gram = q @ q.conj().T
        gram.flat[::d + 1] -= gram[0, 0]
        if np.abs(gram).max() > 2 * tol.tau_rank * math.sqrt(d):
            continue
        u, s, _ = np.linalg.svd(slices.transpose(1, 0, 2).reshape(slices.shape[1], d * c),
                                full_matrices=False)
        if s[c // d:] @ s[c // d:] <= (tol.tau_rank * s[0]) ** 2:
            b, legs = np.ascontiguousarray(u[:, :c // d]), legs[:at] + legs[at + 1:]
    return y if b is y.local else Subspace(y.dim, b, legs, layout)


def _misses(e: Channel, x: Subspace) -> bool:
    """Whether e acts on none of x's legs, of which x has some."""
    return bool(x.legs) and x.layout == e.layout and not set(x.legs) & set(e.legs)


def _unitary_image(u: np.ndarray, e: Channel, x: Subspace, tol: Tolerances) -> Subspace:
    """u x, for u the unitary of e or its adjoint: x itself when e misses
    x's legs."""
    if _misses(e, x):
        return x
    where = _span([x], e)
    return _trimmed(Subspace(e.dim, _on_legs(u, *_acting(e, *where), _on(x, *where)), *where),
                    e, x, tol)


def channel_image(e: Channel, x: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Forward image of a subspace: the support of e applied to the
    projector onto x, i.e. the span of all K_k b over basis columns b, on
    the union of the legs of x and e; for a projector, factored on its
    range."""
    if x.dim != e.dim:
        raise DimensionMismatchError(f"subspace dim {x.dim} != channel dim {e.dim}")
    if x.rank == 0:
        return Subspace.zero(e.dim)
    if e.kind == "unitary":
        return _unitary_image(e.kraus[0], e, x, tol)
    if e.kind == "projective" and _misses(e, x):  # P x = x (x) ran P
        return Subspace(e.dim, np.kron(x.local, e.split[1]), x.legs + e.legs, x.layout)
    where = _span([x], e)
    b, at = _on(x, *where), _acting(e, *where)
    if e.kind == "projective":
        b = _range_image(e.split[1], *at, b, tol)
    else:
        b = orthonormal_columns(np.hstack([_on_legs(k, *at, b) for k in e.kraus]), tol)
    return _trimmed(Subspace(e.dim, b, *where), e, x, tol)


def channel_adjoint(e: Channel) -> Channel:
    """Heisenberg dual: Kraus operators are the adjoints, on the same legs.
    A projector is its own adjoint, so a projective channel comes back as
    it is, with its split."""
    if e.kind == "projective":
        return e
    return Channel(tuple(k.conj().T for k in e.kraus),
                   "unitary" if e.kind == "unitary" else "general", e.legs, e.layout)


def channel_wlp(e: Channel, x: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Largest subspace of inputs that the channel sends into x:
    the complement of the adjoint image of the complement of x.

    rho in channel_wlp(e, x)  iff  channel_apply(e, rho) in x.

    Every channel sends everything into the full space.  For a projector P
    it is the direct sum ker P (+) (ran P ^ x), both parts read off the 1/2
    split of P that the channel carries.
    """
    if x.dim != e.dim:
        raise DimensionMismatchError(f"subspace dim {x.dim} != channel dim {e.dim}")
    if x.is_full():
        return x
    if e.kind == "unitary":
        return _unitary_image(e.kraus[0].conj().T, e, x, tol)
    if e.kind == "projective":
        # P v = v_ran lies in x iff v_ran does
        ker, ran = (Subspace(e.dim, b, e.legs, e.layout) for b in e.split)
        return _trimmed(_direct_sum([ker, _meet_from(ran, x, tol)]), e, x, tol)
    # the image of x's complement is trimmed, so its complement is too
    return ortho(channel_image(channel_adjoint(e), ortho(x, tol), tol), tol)


_BLOCK = 2 ** 20  # entries of J1 - J2 that channel_equal forms at a time, largest rows first


def channel_equal(e1: Channel, e2: Channel, tol: Tolerances = DEFAULT_TOL) -> bool:
    """No entry of J1 - J2 = WS W^dagger above tau_num, for W_i e_i's Choi factor, W = [W1 W2]
    = Q R and WS = [W1 -W2]; only rows whose norm, WS R^dagger's, passes tau_num are formed."""
    if e1.dim != e2.dim:
        raise DimensionMismatchError("cannot compare channels of different signature")
    w = np.stack([k.reshape(-1) for e in (e1, e2) for k in global_kraus(e)], axis=1)
    ws = w * np.repeat([1, -1], [len(e1.kraus), len(e2.kraus)])
    norms = np.linalg.norm(ws @ np.linalg.qr(w, mode="r").conj().T, axis=1)
    rows, a, step = np.argsort(-norms)[:np.count_nonzero(norms > tol.tau_num)], 0, 1
    while a < rows.size and np.abs(ws[rows[a:a + step]].conj() @ w.T).max() <= tol.tau_num:
        a, step = a + step, min(2 * step, _BLOCK // len(w) or 1)  # 1, 2, 4, ... rows
    return a >= rows.size
