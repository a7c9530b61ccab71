import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from bvn import (
    Channel,
    DimensionMismatchError,
    InterpretationError,
    InvalidChannelError,
    InvalidStateError,
    StateDensity,
    Subspace,
    channel_apply,
    channel_equal,
    channel_image,
    channel_wlp,
    includes,
    lattice_join,
    lattice_meet,
    ortho,
    sasaki_implies,
    build,
    subspace_equal,
    support,
)
from bvn.config import DEFAULT_TOL, Tolerances
from bvn.interp import embed
from bvn.linalg import _principal, channel_adjoint


def span(*vectors):
    cols = np.array(vectors, dtype=complex).T
    return Subspace.from_span(cols, cols.shape[0])


e0, e1 = np.eye(2)[:, 0], np.eye(2)[:, 1]
plus = np.array([1, 1]) / np.sqrt(2)


class TestSupport:
    def test_diagonal(self):
        s = support(StateDensity(np.diag([0.5, 0.5, 0.0]).astype(complex)))
        assert subspace_equal(s, span([1, 0, 0], [0, 1, 0]))

    def test_rank_one_projector(self):
        s = support(StateDensity.pure(plus))
        assert s.rank == 1
        assert subspace_equal(s, span(plus))

    def test_tiny_eigenvalue_cut(self):
        s = support(StateDensity(np.diag([1e-15, 1.0]).astype(complex)))
        assert subspace_equal(s, span(e1))

    def test_zero_state(self):
        assert support(StateDensity.zero(3)).rank == 0

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError):
            support(StateDensity(np.array([[0, 1], [0, 0]], dtype=complex)))


class TestLattice:
    def test_join_coordinate_lines(self):
        assert lattice_join([span(e0), span(e1)]).rank == 2

    def test_join_with_zero(self):
        x = span(plus)
        assert subspace_equal(lattice_join([x, Subspace.zero(2)]), x)

    def test_join_oblique(self):
        assert lattice_join([span(e0), span(plus)]).rank == 2

    def test_meet_idempotent(self):
        x = span(plus)
        assert subspace_equal(lattice_meet([x, x]), x)

    def test_meet_distinct_lines_is_zero(self):
        assert lattice_meet([span(e0), span(plus)]).rank == 0

    def test_meet_with_top(self):
        x = span(e0)
        assert subspace_equal(lattice_meet([x, Subspace.full(2)]), x)

    def test_ortho_zero_and_involution(self):
        assert ortho(Subspace.zero(3)).rank == 3
        x = span([1, 2j, 0], [0, 1, 1])
        assert subspace_equal(ortho(ortho(x)), x)

    def test_ortho_coordinate(self):
        x = Subspace.from_span(np.eye(3)[:, [0]], 3)
        assert subspace_equal(ortho(x), span([0, 1, 0], [0, 0, 1]))

    def test_sasaki_self_is_top(self):
        x = span(plus)
        assert sasaki_implies(x, x).rank == 2

    def test_sasaki_from_top(self):
        y = span(e1)
        assert subspace_equal(sasaki_implies(Subspace.full(2), y), y)

    def test_sasaki_disjoint_lines(self):
        # meet is zero, so the implication collapses to the complement
        assert subspace_equal(sasaki_implies(span(e0), span(plus)), span(e1))

    def test_includes(self):
        assert includes(Subspace.full(2), span(e0))
        assert not includes(Subspace.zero(2), span(e0))
        assert includes(span(e0, e1), span(plus))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lattice_join([span(e0), Subspace.full(3)])

    def test_distributivity_counterexample(self):
        x, y, z = span(e0), span(e1), span(plus)
        lhs = lattice_meet([z, lattice_join([x, y])])
        rhs = lattice_join([lattice_meet([z, x]), lattice_meet([z, y])])
        assert subspace_equal(lhs, z)
        assert rhs.rank == 0


@st.composite
def dim_and_seed(draw):
    return draw(st.sampled_from([2, 3, 4, 8])), draw(st.integers(0, 10_000))


class TestLatticeLaws:
    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_orthomodularity(self, ds):
        dim, seed = ds
        rng = np.random.default_rng(seed)
        x = helpers.random_subspace(rng, dim)
        y = lattice_join([x, helpers.random_subspace(rng, dim)])  # x <= y
        back = lattice_join([x, lattice_meet([ortho(x), y])])
        assert subspace_equal(back, y)

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_contradiction_and_excluded_middle(self, ds):
        dim, seed = ds
        x = helpers.random_subspace(np.random.default_rng(seed), dim)
        assert lattice_meet([x, ortho(x)]).rank == 0
        assert lattice_join([x, ortho(x)]).rank == dim

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_modularity(self, ds):
        dim, seed = ds
        rng = np.random.default_rng(seed)
        x = helpers.random_subspace(rng, dim)
        y = lattice_join([x, helpers.random_subspace(rng, dim)])
        z = helpers.random_subspace(rng, dim)
        lhs = lattice_join([x, lattice_meet([z, y])])
        rhs = lattice_meet([lattice_join([x, z]), y])
        assert subspace_equal(lhs, rhs)

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_sasaki_unit_iff_inclusion(self, ds):
        dim, seed = ds
        rng = np.random.default_rng(seed)
        a = helpers.random_subspace(rng, dim)
        b = helpers.random_subspace(rng, dim)
        assert (sasaki_implies(a, b).rank == dim) == includes(b, a)
        below = helpers.random_subspace_inside(rng, b)
        assert sasaki_implies(below, b).rank == dim

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_sasaki_modus_ponens(self, ds):
        dim, seed = ds
        rng = np.random.default_rng(seed)
        a, b = (helpers.random_subspace(rng, dim) for _ in range(2))
        assert includes(b, lattice_meet([a, sasaki_implies(a, b)]))

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_sasaki_import_direction(self, ds):
        # a <= (b -> c) implies a ^ b <= c; the converse fails on
        # incompatible subspaces, see the projection adjunction below
        dim, seed = ds
        rng = np.random.default_rng(seed)
        b, c = (helpers.random_subspace(rng, dim) for _ in range(2))
        a = helpers.random_subspace_inside(rng, sasaki_implies(b, c))
        assert includes(c, lattice_meet([a, b]))

    @given(dim_and_seed())
    @settings(max_examples=60, deadline=None)
    def test_sasaki_projection_adjunction(self, ds):
        # the projection phi_b(a) = b ^ (b_perp v a) is adjoint to b -> .
        dim, seed = ds
        rng = np.random.default_rng(seed)
        a, b, c = (helpers.random_subspace(rng, dim) for _ in range(3))
        phi = lattice_meet([b, lattice_join([ortho(b), a])])
        assert includes(c, phi) == includes(sasaki_implies(b, c), a)


class TestChannels:
    def test_identity_apply(self, rng):
        rho = helpers.random_state(rng, 3)
        out = channel_apply(Channel.identity(3), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_bit_flip_apply(self):
        bf = Channel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * helpers.X))
        out = channel_apply(bf, StateDensity.pure(e0))
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]))

    def test_projective_apply_subnormalizes(self):
        m0 = Channel((helpers.P0,), "projective")
        out = channel_apply(m0, StateDensity.pure(plus))
        assert np.allclose(out.matrix, np.diag([0.5, 0.0]))
        assert abs(out.trace - 0.5) < 1e-12

    def test_unitary_image(self, rng):
        u = helpers.random_unitary(rng, 4)
        x = helpers.random_subspace(rng, 4, 2)
        img = channel_image(Channel.unitary(u), x)
        assert img.rank == 2
        assert subspace_equal(img, Subspace(4, u @ x.basis))

    def test_cnot_image(self):
        c = Channel.unitary(helpers.CNOT)
        x = Subspace.from_span(np.eye(4)[:, [2]], 4)  # |10>
        assert subspace_equal(channel_image(c, x), Subspace.from_span(np.eye(4)[:, [3]], 4))

    def test_bit_flip_image_fills_space(self):
        bf = Channel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * helpers.X))
        assert channel_image(bf, span(e0)).rank == 2

    def test_wlp_identity(self, rng):
        x = helpers.random_subspace(rng, 3, 2)
        assert subspace_equal(channel_wlp(Channel.identity(3), x), x)

    def test_wlp_unitary_is_adjoint_image(self, rng):
        u = helpers.random_unitary(rng, 4)
        x = helpers.random_subspace(rng, 4, 2)
        w = channel_wlp(Channel.unitary(u), x)
        assert subspace_equal(w, Subspace(4, u.conj().T @ x.basis))

    def test_wlp_reset_to_unreachable_target(self):
        reset = Channel((np.outer(e0, e0), np.outer(e0, e1)))
        assert channel_wlp(reset, span(e1)).rank == 0

    def test_wlp_membership_characterization(self, rng):
        for _ in range(25):
            e = helpers.random_channel(rng, 4, 2)
            x = helpers.random_subspace(rng, 4)
            w = channel_wlp(e, x)
            rho = helpers.random_state(rng, 4)
            forward = x.rank == 4 or includes(x, support(channel_apply(e, rho)))
            backward = includes(w, support(rho))
            assert forward == backward or support(channel_apply(e, rho)).rank == 0
            if w.rank:
                inside = helpers.random_state_inside(rng, w)
                out = channel_apply(e, inside)
                if out.trace > 1e-12:
                    assert includes(x, support(out))

    def test_channel_equal(self):
        ident = Channel.identity(2)
        xx = helpers.channel_compose(Channel.unitary(helpers.X), Channel.unitary(helpers.X))
        assert channel_equal(ident, ident)
        assert channel_equal(xx, ident)
        bf = Channel((np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * helpers.X))
        assert not channel_equal(bf, ident)

    def test_adjoint_of_unitary(self):
        c = channel_adjoint(Channel.unitary(helpers.H))
        assert np.allclose(c.kraus[0], helpers.H.conj().T)

    def test_trace_increasing_rejected(self):
        with pytest.raises(InvalidChannelError):
            Channel.validated([np.eye(2) * 1.1])

    def test_nonunitary_flagged_unitary_rejected(self):
        with pytest.raises(InvalidChannelError):
            Channel.validated([np.diag([1.0, 0.5])], kind="unitary")


class TestChannelInvariants:
    def test_two_kraus_unitary_rejected(self):
        a, b = np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * helpers.X
        with pytest.raises(InvalidChannelError, match="exactly one square"):
            Channel((a, b), "unitary")

    def test_non_square_unitary_rejected(self):
        with pytest.raises(InvalidChannelError):
            Channel((np.eye(3)[:, :2],), "unitary")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidChannelError, match="unknown channel kind"):
            Channel((np.eye(2),), "isometry")

    def test_validated_two_kraus_unitary_rejected(self):
        with pytest.raises(InvalidChannelError):
            Channel.validated([helpers.P0, helpers.P1], kind="unitary")

    def test_interp_unitary_with_two_kraus_rejected(self):
        with pytest.raises(InterpretationError):
            build([("q", 2)], [("B", (2,), [helpers.P0, helpers.P1], True)])

    def test_projective_needs_one_square_kraus(self):
        with pytest.raises(InvalidChannelError, match="exactly one square"):
            Channel((helpers.P0, helpers.P1), "projective")
        with pytest.raises(InvalidChannelError, match="exactly one square"):
            Channel((np.eye(3)[:, :2],), "projective")

    def test_legal_kinds_accepted(self):
        assert Channel((helpers.H,), "unitary").kind == "unitary"
        assert Channel((helpers.P0,), "projective").kind == "projective"
        assert Channel((helpers.P0, helpers.P1)).kind == "general"
        assert channel_adjoint(Channel.unitary(helpers.H)).kind == "unitary"


def _ranks(dim):
    return sorted({0, 1, dim // 2, dim - 1, dim})


def _gram_error(x):
    return np.abs(x.basis.conj().T @ x.basis - np.eye(x.rank)).max(initial=0.0)


def _four_qubit_embedded_gates(rng):
    """A random 2-qubit unitary embedded into a 4-qubit space on two
    non-adjacent, reordered variables."""
    i = build([(f"q{k}", 2) for k in range(1, 5)])
    for names in (["q3", "q1"], ["q2", "q4"]):
        yield embed(i, Channel.unitary(helpers.random_unitary(rng, 4)), names)


class TestUnitaryFastPath:
    """The unitary image and wlp are plain products; they must agree with
    the rank-deciding path the same Kraus operator takes as a general
    channel."""

    def _unitaries(self, rng):
        for dim in (2, 3, 8, 16, 64):
            yield Channel.unitary(helpers.random_unitary(rng, dim))
        yield from _four_qubit_embedded_gates(rng)

    def test_image_and_wlp_match_general_path(self, rng):
        for u in self._unitaries(rng):
            assert u.kind == "unitary"
            general = Channel(u.kraus, "general", u.legs, u.layout)
            for rank in _ranks(u.dim):
                x = helpers.random_subspace(rng, u.dim, rank)
                for op in (channel_image, channel_wlp):
                    fast, slow = op(u, x), op(general, x)
                    assert fast.rank == slow.rank == rank
                    assert subspace_equal(fast, slow)
                    assert _gram_error(fast) <= DEFAULT_TOL.tau_num

    def test_wlp_inverts_image(self, rng):
        for u in self._unitaries(rng):
            x = helpers.random_subspace(rng, u.dim, u.dim // 2)
            assert subspace_equal(channel_wlp(u, channel_image(u, x)), x)

    def test_composed_unitaries_stay_on_fast_path(self, rng):
        a = Channel.unitary(helpers.random_unitary(rng, 8))
        b = Channel.unitary(helpers.random_unitary(rng, 8))
        ab = helpers.channel_compose(b, a)
        assert ab.kind == "unitary"
        x = helpers.random_subspace(rng, 8, 3)
        assert subspace_equal(channel_image(ab, x), channel_image(b, channel_image(a, x)))


class TestOrthoComplement:
    """ortho reads the complement off a complete QR; check it against the
    lattice laws and against the SVD complement."""

    def _subspaces(self, rng):
        for dim in (1, 2, 3, 8, 16, 64):
            for rank in _ranks(dim):
                yield helpers.random_subspace(rng, dim, rank)

    def test_complement_laws(self, rng):
        for x in self._subspaces(rng):
            c = ortho(x)
            assert x.rank + c.rank == x.dim
            assert np.abs(x.basis.conj().T @ c.basis).max(initial=0.0) <= DEFAULT_TOL.tau_num
            assert _gram_error(c) <= DEFAULT_TOL.tau_num
            assert subspace_equal(ortho(c), x)
            assert lattice_join([x, c]).is_full()

    def test_matches_svd_complement(self, rng):
        for x in self._subspaces(rng):
            if x.rank in (0, x.dim):
                continue
            u, _, _ = np.linalg.svd(x.basis, full_matrices=True)
            assert subspace_equal(ortho(x), Subspace(x.dim, u[:, x.rank:]))


def _reference_join(xs):
    """The spanning-set SVD of the stacked bases, decided at tau_rank."""
    return Subspace.from_span(np.hstack([x.basis for x in xs]), xs[0].dim)


def _reference_meet(x, y):
    return ortho(_reference_join([ortho(x), ortho(y)]))


class TestPrincipalAngleKernel:
    """Meet and join from principal angles agree with the complement and
    span constructions on subspaces whose angles are far from tau_sub."""

    def _pairs(self, rng):
        for dim in (2, 3, 8, 16):
            for shared in range(dim):
                common = helpers.random_subspace(rng, dim, shared)
                for _ in range(3):
                    x, y = (_reference_join([common, helpers.random_subspace(rng, dim)])
                            for _ in range(2))
                    if x.rank and y.rank:
                        yield x, y

    def test_matches_reference(self, rng):
        for x, y in self._pairs(rng):
            meet, ref = lattice_meet([x, y]), _reference_meet(x, y)
            assert meet.rank == ref.rank and subspace_equal(meet, ref)
            join, ref = lattice_join([x, y]), _reference_join([x, y])
            assert join.rank == ref.rank and subspace_equal(join, ref)
            for z in (meet, join):
                assert _gram_error(z) <= DEFAULT_TOL.tau_num

    def test_sasaki_matches_reference(self, rng):
        for x, y in self._pairs(rng):
            ref = _reference_join([ortho(x), _reference_meet(x, y)])
            got = sasaki_implies(x, y)
            assert got.rank == ref.rank and subspace_equal(got, ref)
            assert _gram_error(got) <= DEFAULT_TOL.tau_num

    # (dim, rank of x, planted sines of y's principal angles off x at
    # tau_sub = t); every sine is outside [0.9, 1.1] t, clusters straddle it
    # by 2x, and "straddling" puts a sine of 1 beside sines near t
    PLANTED = {
        "nested": (8, 5, lambda t: [0.0] * 3),
        "equal": (8, 4, lambda t: [0.0] * 4),
        "disjoint": (8, 4, lambda t: [1.0] * 4),
        "rank-deficient": (16, 6, lambda t: [0.0, 0.0, 0.5, 1.0, 2 * t]),
        "tilted": (32, 12, lambda t: [t / 2, 2 * t] * 3 + [1e-5, 0.3, 1.0]),
        "straddling": (32, 12, lambda t: [1.0, t / 2, 1.2 * t, 2 * t]),
        "clusters": (64, 20, lambda t: [t / 2] * 5 + [2 * t] * 5 + [1e-12, 1e-3, 0.7]),
        "wide": (256, 128, lambda t: [1e-12, t / 2, 2 * t, 1e-5, 0.5] * 5),
    }

    @staticmethod
    def _planted_pair(rng, dim, rank, sines):
        """x of the given rank and y whose principal angles off x have the
        given sines, in Haar-random bases of C^dim and of each subspace."""
        k = len(sines)
        y = np.zeros((dim, k))
        y[np.arange(k), np.arange(k)] = np.sqrt(1 - sines ** 2)
        y[rank + np.arange(k), np.arange(k)] = sines
        u = helpers.random_unitary(rng, dim)
        return (Subspace(dim, u[:, :rank] @ helpers.random_unitary(rng, rank)),
                Subspace(dim, u @ y @ helpers.random_unitary(rng, k)))

    @pytest.mark.parametrize("tau", [DEFAULT_TOL.tau_sub, 1e-9])
    @pytest.mark.parametrize("case", PLANTED)
    def test_sines_and_decisions_on_planted_angles(self, rng, case, tau):
        """The kernel's sines are the singular values of (I - X X^dagger) Y,
        taken here from a complete QR of X, to within 1e-13 however small
        tau_sub is; an inclusion within tau_sub only bounds them by tau_sub.
        Every keep/drop decision is the planted one."""
        dim, rank, planted = self.PLANTED[case]
        planted = np.sort(planted(tau))
        tol = Tolerances(tau_sub=tau)
        for _ in range(5):
            x, y = self._planted_pair(rng, dim, rank, planted)
            w, r, sines = _principal(x, y, tol)
            complement = np.linalg.qr(x.basis, mode="complete")[0][:, rank:]
            ref = np.sort(np.linalg.svd(complement.conj().T @ y.basis, compute_uv=False))
            assert np.abs(ref - planted).max() <= 1e-14
            if planted.max() == 0:
                assert sines.max() <= tau
            else:
                assert np.abs(np.sort(sines) - ref).max() <= 1e-13
                assert _gram_error(Subspace(dim, w)) <= DEFAULT_TOL.tau_num
            assert np.array_equal(np.sort(sines) > tau, planted > tau)
            inside = int(np.count_nonzero(planted <= tau))
            assert includes(x, y, tol) == (inside == len(planted))
            # y first: its rank is at most x's, so both take _principal(x, y)
            assert lattice_meet([y, x], tol).rank == inside
            assert lattice_join([y, x], tol).rank == rank + len(planted) - inside


@st.composite
def tilted_pair(draw):
    """x = span{e_0..e_r-1}; y tilts k of those vectors by eps/k, 2eps/k, ..,
    eps towards fresh directions and adds m more, and one Haar unitary
    rotates both."""
    dim = draw(st.integers(2, 16))
    rank = draw(st.integers(1, dim - 1))
    tilted = draw(st.integers(1, min(rank, dim - rank)))
    extra = draw(st.integers(0, dim - rank - tilted))
    eps = 10.0 ** draw(st.floats(-10, -6))
    u = helpers.random_unitary(np.random.default_rng(draw(st.integers(0, 10_000))), dim)
    e = np.eye(dim)
    tilts = [eps * (j + 1) / tilted for j in range(tilted)]
    y = [(e[:, j] + t * e[:, rank + j]) / np.hypot(1, t) for j, t in enumerate(tilts)]
    y += [e[:, j] for j in range(tilted, rank)]
    y += [e[:, rank + tilted + j] for j in range(extra)]
    return Subspace(dim, u @ e[:, :rank]), Subspace(dim, u @ np.column_stack(y)), eps


class TestLatticeAgreement:
    """x <= y, x ^ y = x, x v y = y and (x -> y) = top are one decision:
    the same principal angles thresholded at tau_sub."""

    @given(tilted_pair())
    @settings(max_examples=300, deadline=None)
    def test_decisions_agree_across_the_boundary(self, pair):
        x, y, eps = pair
        for a, b in ((x, y), (y, x)):
            below = includes(b, a)
            assert subspace_equal(lattice_meet([a, b]), a) == below
            assert subspace_equal(lattice_join([a, b]), b) == below
            assert sasaki_implies(a, b).is_full() == below
        if abs(np.log10(eps / DEFAULT_TOL.tau_sub)) > 0.01:
            assert includes(y, x) == (eps < DEFAULT_TOL.tau_sub)

    def test_rank_one_band(self):
        # x = span{|0>}, y = span{|0> + eps|1>}: inside the band 1e-9 < eps
        # <= 1e-7 the two lines are one line for every operation.
        x = Subspace(2, np.array([[1.0], [0.0]]))
        for eps, same in ((5e-9, True), (1e-8, True), (5e-8, True), (2e-7, False), (1e-6, False)):
            y = Subspace(2, np.array([[1.0], [eps]]) / np.hypot(1, eps))
            assert includes(x, y) == includes(y, x) == same
            assert lattice_meet([x, y]).rank == (1 if same else 0)
            assert lattice_join([x, y]).rank == (1 if same else 2)
            assert sasaki_implies(x, y).is_full() == same


class TestProjectiveWlp:
    """wlp of a projector is ker P (+) (x ^ ran P); it must agree with the
    complement path the same operator takes as a general channel."""

    def _projectors(self, rng):
        for dim in (2, 3, 8):
            for rank in (0, 1, dim // 2, dim):
                p = helpers.haar_basis(rng, dim, rank) if rank else np.zeros((dim, 0))
                yield Channel((p @ p.conj().T,), "projective")
        i = build([(f"q{k}", 2) for k in range(1, 5)])
        for names, rank in ((["q3", "q1"], 1), (["q2"], 1), (["q1", "q2", "q3", "q4"], 1),
                            (["q3", "q1"], 0), (["q2"], 2)):
            d = 2 ** len(names)
            p = helpers.haar_basis(rng, d, rank) if rank else np.zeros((d, 0))
            yield embed(i, Channel((p @ p.conj().T,), "projective"), names)

    def test_matches_general_path(self, rng):
        for e in self._projectors(rng):
            general = Channel(e.kraus, "general", e.legs, e.layout)
            for rank in _ranks(e.dim):
                x = helpers.random_subspace(rng, e.dim, rank)
                fast, slow = channel_wlp(e, x), channel_wlp(general, x)
                assert fast.rank == slow.rank and subspace_equal(fast, slow)
                assert _gram_error(fast) <= DEFAULT_TOL.tau_num

    def test_keeps_the_part_of_x_inside_the_range(self, rng):
        for e in self._projectors(rng):
            ran = channel_image(e, Subspace.full(e.dim))
            if ran.rank == 0:
                continue
            x = helpers.random_subspace_inside(rng, ran, max(1, ran.rank // 2))
            assert includes(channel_wlp(e, x), x)


class TestRestriction:
    """The dense partial trace of tests/helpers.py, the oracle of the
    locality tests in test_terms.py."""

    def test_product_state(self, rng):
        a = helpers.random_state(rng, 2)
        b = helpers.random_state(rng, 3)
        joint = StateDensity(np.kron(a.matrix, b.matrix))
        red = helpers.partial_trace(joint, [0], [2, 3])
        assert np.allclose(red.matrix, a.matrix)

    def test_bell_marginal_is_mixed(self):
        bell = StateDensity.pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = helpers.partial_trace(bell, [0], [2, 2])
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_keep_everything(self, rng):
        rho = helpers.random_state(rng, 4)
        red = helpers.partial_trace(rho, [0, 1], [2, 2])
        assert np.allclose(red.matrix, rho.matrix)


class TestStateValidation:
    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            StateDensity(np.diag([1.2, -0.2]))

    def test_trace_above_one_rejected(self):
        with pytest.raises(InvalidStateError):
            StateDensity(np.diag([0.8, 0.8]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(InvalidStateError, match="non-finite"):
            StateDensity(np.diag([bad, 0.0]))
        with pytest.raises(InvalidStateError, match="non-finite"):
            StateDensity.pure([bad, 1.0])

    def test_pure_rejects_an_overflowing_norm(self):
        with pytest.raises(InvalidStateError, match="non-finite"):
            StateDensity.pure([1e300, 1e300])
