import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special
import scipy.stats
from scipy.special import digamma

from mmwsketch import (
    DENSE_LIMIT,
    ConvergenceError,
    DenseLimitError,
    SeededRng,
    SparseSymOperator,
    dense_eigh,
    sample_dirichlet_half,
    anchor,
    sample_unit_sphere,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsketch.lanczos import lanczos_decompose
from mmwsketch.linalg import (
    LANCZOS_RTOL,
    _dense_extremes,
    _exp_series_coefficients,
    _lanczos_extremes,
    operator_norm,
    rank_one_within,
    spectrum_within,
    sym_array,
    top_eigenvalue,
)
from mmwsketch.online import GAIN_SPECTRUM
from conftest import (
    haar_orthogonal,
    lanczos_extremes_by_restart,
    random_symmetric,
    rank_one_within_by_outer,
    symmetry_defect,
)


def reconstruct(dec):
    return (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T


class TestSymmetricMatrix:
    """``sym_array``: the one coercion to an exactly symmetric matrix."""

    def test_storage_exactly_symmetric(self, rng):
        a = rng.standard_normal((7, 7)) * 1e-9 + random_symmetric(rng, 7)
        m = sym_array(a)
        assert np.array_equal(m, m.T)

    def test_rejects_asymmetric(self, rng):
        a = rng.standard_normal((5, 5))
        a[0, 1] = a[1, 0] + 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            sym_array(a)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_array(np.zeros((2, 3)))

    def test_returns_a_copy(self, rng):
        g = random_symmetric(rng, 5)
        before = g.copy()
        sym_array(g)[0, 0] = 7.0
        assert np.array_equal(g, before)

    def test_exactly_symmetric_input_keeps_the_average_bits(self, rng):
        a = random_symmetric(rng, 6)
        a[0, 0] = -0.0
        a[1, 2] = a[2, 1] = -0.0
        a[3, 4] = a[4, 3] = np.nan
        out = sym_array(a)
        assert out is not a and out.tobytes() == a.tobytes() == (0.5 * (a + a.T)).tobytes()

    def test_signed_zero_pair_is_averaged(self):
        a = np.zeros((3, 3))
        a[0, 2] = -0.0
        out = sym_array(a)
        assert out.tobytes() == (0.5 * (a + a.T)).tobytes() and not np.signbit(out).any()

    def test_entries_above_half_the_largest_double_do_not_overflow(self, rng):
        a = random_symmetric(rng, 4)
        a[1, 1] = a[2, 3] = a[3, 2] = 0.75 * np.finfo(float).max
        with np.errstate(over="ignore"):
            assert np.isinf(0.5 * (a + a.T)).any()
        assert sym_array(a).tobytes() == a.tobytes()

    def test_asymmetry_within_tolerance_still_averaged(self, rng):
        a = random_symmetric(rng, 7)
        a[1, 4] += 1e-12
        out = sym_array(a)
        assert out.tobytes() == (0.5 * (a + a.T)).tobytes()
        a[1, 4] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            sym_array(a)


class TestDenseEigh:
    def test_zero_matrix(self):
        dec = dense_eigh(np.zeros((3, 3)))
        assert np.array_equal(dec.eigenvalues, np.zeros(3))
        assert np.abs(reconstruct(dec)).max() <= 1e-12

    def test_diagonal(self):
        dec = dense_eigh(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [2.0, -1.0], atol=1e-14)
        # eigenvectors are signed standard basis vectors in eigenvalue order
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_random_8x8_reconstruction(self, rng):
        a = random_symmetric(rng, 8)
        dec = dense_eigh(a)
        scale = 1.0 + np.abs(np.linalg.eigvalsh(a)).max()
        assert np.abs(reconstruct(dec) - a).max() <= 1e-9 * scale
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-10 * 8

    def test_round_trip_battery(self):
        rng = SeededRng(99)
        for trial in range(100):
            n = 2 + trial % 15
            a = random_symmetric(rng, n)
            dec = dense_eigh(a)
            scale = 1.0 + np.abs(dec.eigenvalues).max()
            assert np.abs(reconstruct(dec) - a).max() <= 1e-9 * scale
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_dense_limit_guard(self):
        for decompose in (dense_eigh, anchor):
            with pytest.raises(DenseLimitError, match=f"requires n <= dense limit {DENSE_LIMIT}, got n = {DENSE_LIMIT + 1}"):
                decompose(np.zeros((DENSE_LIMIT + 1, DENSE_LIMIT + 1)))


def _eigvalsh_within(a, lo, hi):
    lam = np.linalg.eigvalsh(a)
    return bool(lo <= lam[0] and lam[-1] <= hi)


def _with_spectrum(rng, spectrum):
    q = haar_orthogonal(rng, len(spectrum))
    a = (q * spectrum) @ q.T
    return 0.5 * (a + a.T)


def _threshold_gains(rng, n, lo, hi):
    """Gains with an extreme eigenvalue at each end of [lo, hi], offset by +-1e-11 and +-1e-6."""
    for end in (lo, hi):
        for offset in (-1e-6, -1e-11, 1e-11, 1e-6):
            extreme = end + offset
            rest = rng.uniform(max(lo, -1.0) + 0.1, hi - 0.1, n - 1)
            yield _with_spectrum(rng, np.append(rest, extreme))
            if extreme > 0.0:  # rank-1 gain a a' with |a|^2 = extreme
                a = sample_unit_sphere(n, rng) * np.sqrt(extreme)
                yield np.outer(a, a)


class TestSpectrumWithin:
    """Two Cholesky factorizations decide the gain classes as the eigenvalues do."""

    @pytest.mark.parametrize("gain_class", sorted(GAIN_SPECTRUM))
    @pytest.mark.parametrize("n", [1, 2, 32, 128])
    def test_agrees_with_eigvalsh_at_thresholds(self, rng, n, gain_class):
        lo, hi = GAIN_SPECTRUM[gain_class]
        decisions = []
        for g in _threshold_gains(rng, n, lo, hi):
            expected = _eigvalsh_within(g, lo, hi)
            assert spectrum_within(g, lo, hi) == expected
            decisions.append(expected)
        assert any(decisions) and not all(decisions)

    @pytest.mark.parametrize("n", [1, 2, 32, 128])
    def test_unit_norm_gains_accepted(self, rng, n):
        a = sample_unit_sphere(n, rng)
        rank1 = np.outer(a, a)
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        for lo, hi in GAIN_SPECTRUM.values():
            assert spectrum_within(rank1, lo, hi)
        assert spectrum_within(_with_spectrum(rng, signs), *GAIN_SPECTRUM["bounded_inf_norm_1"])
        assert spectrum_within(np.eye(n), *GAIN_SPECTRUM["psd_unit"])
        assert not spectrum_within(-np.eye(n), *GAIN_SPECTRUM["psd_unit"])

    def test_input_untouched_and_nonfinite_fails(self, rng):
        g = random_symmetric(rng, 6, op_norm=0.5)
        before = g.copy()
        assert spectrum_within(g, -1.0, 1.0)
        assert np.array_equal(g, before)
        for bad in (np.nan, np.inf, -np.inf):
            h = g.copy()
            h[3, 1] = h[1, 3] = bad
            assert not spectrum_within(h, -1.0, 1.0)
            h = g.copy()
            h[2, 2] = bad
            assert not spectrum_within(h, -1.0, 1.0)


def _rank_one(rng, n, top):
    """``top b b'`` for a unit ``b``, the form the rank-one proof is made for."""
    b = sample_unit_sphere(n, rng)
    return top * np.outer(b, b)


class TestRankOneWithin:
    """Weyl's inequality around a rank-one split: a proof when it says True, silence otherwise."""

    @pytest.mark.parametrize("gain_class", sorted(GAIN_SPECTRUM))
    @pytest.mark.parametrize("n", [1, 2, 32, 128])
    def test_agrees_with_eigvalsh_at_the_top(self, rng, n, gain_class):
        lo, hi = GAIN_SPECTRUM[gain_class]
        decisions = []
        for offset in (-1e-6, -1e-11, 1e-11, 1e-6):
            a = sample_unit_sphere(n, rng) * math.sqrt(hi + offset)
            for g in (_rank_one(rng, n, hi + offset), np.outer(a, a)):
                expected = _eigvalsh_within(g, lo, hi)
                assert rank_one_within(g, lo, hi) == expected, offset
                decisions.append(expected)
        assert any(decisions) and not all(decisions)

    def test_weyl_bound_covers_a_small_remainder(self, rng):
        lo, hi = GAIN_SPECTRUM["psd_unit"]
        n = 8
        b = np.zeros(n)
        b[0], b[-1] = 0.8, 0.6
        rest = random_symmetric(rng, n - 2)
        for size, expected in ((1e-10, True), (2e-9, False)):
            g = 0.5 * np.outer(b, b)
            g[1:-1, 1:-1] += size * rest / np.abs(np.linalg.eigvalsh(rest)).max()
            assert _eigvalsh_within(g, lo, hi) == expected
            assert rank_one_within(g, lo, hi) == expected

    @settings(deadline=None, max_examples=400)
    @given(
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(GAIN_SPECTRUM)),
        st.floats(-4e-9, 2e-9),
        st.floats(0.0, 4e-9),
    )
    def test_never_accepts_what_eigvalsh_rejects(self, n, seed, gain_class, top_offset, noise):
        lo, hi = GAIN_SPECTRUM[gain_class]
        rng = SeededRng(seed)
        b = sample_unit_sphere(n, rng)
        b = b[np.argsort(-np.abs(b))]  # the pivot is row 0, and its minor with row n - 1 stays exact
        g = (hi + top_offset) * np.outer(b, b)
        if n > 2:
            rest = random_symmetric(rng, n - 2)
            g[1:-1, 1:-1] += noise * rest / max(np.abs(np.linalg.eigvalsh(rest)).max(), 1e-300)
        if rank_one_within(g, lo, hi):
            assert _eigvalsh_within(g, lo, hi)

    def test_full_rank_leaves_early(self, rng):
        for lo, hi in GAIN_SPECTRUM.values():
            assert not rank_one_within(0.5 * np.eye(4), lo, hi)
            assert not rank_one_within(_with_spectrum(rng, np.linspace(0.1, 0.9, 6)), lo, hi)

    @pytest.mark.parametrize("n", [1, 2, 33, 128, 257])
    def test_residual_and_decision_match_the_outer_oracle(self, monkeypatch, rng, n):
        import mmwsketch.linalg as linalg

        # the residual is formed in place in the buffer the rank-one update returns
        outer, formed = linalg._outer_self, []
        monkeypatch.setattr(linalg, "_outer_self", lambda v: formed.append(outer(v)) or formed[-1])
        for gain_class in sorted(GAIN_SPECTRUM):
            lo, hi = GAIN_SPECTRUM[gain_class]
            for offset in (-1e-6, -1e-11, 1e-11, 1e-6):
                a = sample_unit_sphere(n, rng) * math.sqrt(hi + offset)
                for g in (_rank_one(rng, n, hi + offset), np.outer(a, a), (hi + offset) * np.eye(n)):
                    formed.clear()
                    decision, resid = rank_one_within_by_outer(g, lo, hi)
                    assert rank_one_within(g, lo, hi) == decision
                    if resid is None:
                        assert formed == []
                    else:
                        assert formed[0].tobytes() == resid.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_or_nonpositive_pivot_gives_false(self, rng):
        lo, hi = GAIN_SPECTRUM["psd_unit"]
        g = _rank_one(rng, 6, 0.5)
        before = g.copy()
        assert rank_one_within(g, lo, hi)
        assert np.array_equal(g, before)
        assert not rank_one_within(-g, *GAIN_SPECTRUM["bounded_inf_norm_1"])
        assert not rank_one_within(np.zeros((3, 3)), lo, hi)
        for bad in (np.nan, np.inf, -np.inf):
            i = int(np.argmax(g.diagonal()))
            h = g.copy()
            h[i, i] = bad
            assert not rank_one_within(h, lo, hi)
            h = g.copy()
            h[i, (i + 2) % 6] = h[(i + 2) % 6, i] = bad
            assert not rank_one_within(h, lo, hi)


class TestTopEigenvalue:
    @pytest.mark.parametrize("n", [1, 2, 17, 128])
    def test_matches_eigvalsh(self, rng, n):
        clustered = _with_spectrum(rng, 3.0 + 1e-10 * rng.standard_normal(n))
        for a in (random_symmetric(rng, n), 1e6 * random_symmetric(rng, n), clustered):
            expected = np.linalg.eigvalsh(a)[-1]
            lam, tol = top_eigenvalue(a)
            assert tol == 0.0
            assert abs(lam - expected) <= 1e-12 * abs(expected)

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg

        # the reduction, then the bisection
        failures = [("dsytrd", lambda a, **kwargs: (a, np.zeros(3), np.zeros(2), np.zeros(2), 3))]
        failures.append(("dstebz", lambda d, e, *args: (0, d, None, None, 3)))
        for name, failing in failures:
            with monkeypatch.context() as patched:
                patched.setattr(scipy.linalg.lapack, name, failing)
                with pytest.raises(ConvergenceError, match=r"n=3.*\(info=3\)"):
                    top_eigenvalue(np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_entry_raises(self, n, value):
        # the reduction's finiteness check also covers a 1 x 1 matrix, which no bisection reads
        a = np.eye(n)
        a[0, 0] = value
        with pytest.raises(ConvergenceError, match=f"failed for n={n}"):
            top_eigenvalue(a)


class TestTridiagonalize:
    """``anchor``: one ``sytrd`` reduction, and two bisections of T for an interval that holds the spectrum."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 47, 48, 200])
    def test_reconstruction(self, rng, n):
        # the anchor's interval holds Y's spectrum and is no wider than it by more than rounding
        a = random_symmetric(rng, n)
        form = anchor(a)
        scale = 1.0 + np.abs(np.linalg.eigvalsh(a)).max()
        lam = np.linalg.eigvalsh(a)
        assert form.lo <= lam[0] and lam[-1] <= form.hi
        assert form.hi - form.lo <= lam[-1] - lam[0] + 16.0 * n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n", [1, 2, 17, 48, 128, 200])
    def test_top_matches_top_eigenvalue(self, rng, n):
        # every dense top eigenvalue is one lower-storage sytrd with syevr's workspace, then one stebz
        # bisection: the bits of scipy's syevr driver, for each input with its largest entry in syevr's
        # unscaled range
        clustered = _with_spectrum(rng, 3.0 + 1e-10 * rng.standard_normal(n))
        top = 2.0 + 1e-12 * rng.standard_normal(n // 2)
        top_cluster = _with_spectrum(rng, np.concatenate([top, np.linspace(-1.0, 1.0, n - n // 2)]))
        factors = sample_unit_sphere(n, rng, size=max(1, n // 2))
        rank_deficient = 0.7 * (factors.T @ factors)  # a streaming-PCA gain sum: repeated zero eigenvalues
        cases = [random_symmetric(rng, n), 1e6 * random_symmetric(rng, n), 30.0 * random_symmetric(rng, n)]
        for a in cases + [clustered, top_cluster, rank_deficient, -4.0 * np.eye(n)]:
            assert np.array_equal(a, a.T)  # scipy's driver reads one triangle
            expected = scipy.linalg.eigh(a, eigvals_only=True, subset_by_index=[n - 1, n - 1], driver="evr")[0]
            assert anchor(a).top == top_eigenvalue(a)[0] == _dense_extremes(a)[1] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 32, 48, 128, 200])
    def test_top_matches_top_eigenvalue_on_nearly_symmetric_input(self, rng, n):
        # a general product, not a syrk: its triangles differ in the last bits, and every route
        # reduces the one matrix sym_array makes of it
        for _ in range(10):
            f = sample_unit_sphere(n, rng, size=max(1, n // 2))
            a = (0.7 * f.T) @ f
            assert anchor(a).top == top_eigenvalue(a)[0] == _dense_extremes(a)[1]

    @pytest.mark.parametrize("n", [2, 5, 32, 200])
    def test_interval_holds_the_spectrum(self, rng, n):
        # the pad covers the error of the reduced ends: eigvalsh, another LAPACK route, lands inside
        q = haar_orthogonal(rng, n)
        for trial in range(60 if n < 200 else 12):
            a = random_symmetric(rng, n, op_norm=10.0 ** rng.uniform(-3.0, 3.0))
            if trial % 3 == 1:
                a = _with_spectrum(rng, np.repeat([2.0, -1.0], -(-n // 2))[:n] + 1e-13 * rng.standard_normal(n))
            if trial % 3 == 2:
                a = 0.5 * ((q * rng.standard_normal(n)) @ q.T)
                a = a + a.T
            a = 10.0 ** rng.uniform(-2.0, 1.0) * a
            lam = np.linalg.eigvalsh(a)
            form = anchor(a)
            assert form.lo <= lam[0] and lam[-1] <= form.hi, trial

    def test_asymmetric_input_raises(self):
        a = np.eye(3)
        a[0, 1] = 1e-6
        for fn in (top_eigenvalue, operator_norm, anchor):
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                fn(a)

    def test_one_by_one_has_no_reflectors(self):
        form = anchor(np.array([[-2.5]]))
        assert form.top == -2.5 and form.lo <= -2.5 <= form.hi

    def test_checks_vector_length(self, rng):
        with pytest.raises(ValueError, match="length 4"):
            anchor(random_symmetric(rng, 4)).exp_half(np.ones(3))

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", lambda a, **kwargs: (a, np.zeros(3), np.zeros(2), None, 2))
        with pytest.raises(ConvergenceError, match=r"n=3 \(info=2\)"):
            anchor(np.eye(3))

    def test_bisection_failure_raises(self, monkeypatch):
        import scipy.linalg

        n = 48
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", lambda d, e, *args: (0, d, None, None, 2))
        with pytest.raises(ConvergenceError, match=rf"n={n}: bisection \(info=2\)"):
            anchor(np.eye(n))

    def test_bitwise_symmetric_input_is_held_not_copied(self, rng):
        a = random_symmetric(rng, 6)
        before = a.copy()
        assert anchor(a).matrix is a
        assert np.array_equal(a, before)  # the reduction ran on a copy
        nearly = a.copy()
        nearly[0, 1] += 1e-14
        held = anchor(nearly).matrix
        assert held is not nearly and np.array_equal(held, held.T)

    def test_checks_symmetry_once(self, monkeypatch, rng):
        import mmwsketch.linalg as linalg

        scans, sym = [], linalg.sym_array
        monkeypatch.setattr(linalg, "sym_array", lambda *args, **kwargs: scans.append(1) or sym(*args, **kwargs))
        a = random_symmetric(rng, 32)
        form = anchor(a)
        assert len(scans) == 1
        assert form.top == top_eigenvalue(a)[0]


class TestExpSeriesCoefficients:
    """``_exp_series_coefficients(r)``: ``e^-r I_0(r)``, ``2 e^-r I_k(r)``, cut where the rest sums below ``2^-60``."""

    @settings(deadline=None, max_examples=200)
    @given(st.floats(0.0, 2000.0))
    def test_matches_scaled_bessel(self, r):
        coef = _exp_series_coefficients(r)
        k = np.arange(len(coef) + 1000)
        bessel = np.where(k == 0, 1.0, 2.0) * scipy.special.ive(k, r)
        assert np.abs(coef - bessel[: len(coef)]).max() <= 1e-15
        assert abs(coef.sum() - 1.0) <= 1e-15
        dropped = math.fsum(bessel[len(coef) :])
        assert dropped < 2.0**-60
        if len(coef) > 1:  # the lowest such degree
            assert dropped + bessel[len(coef) - 1] >= 2.0**-60

    def test_zero_width(self):
        assert np.array_equal(_exp_series_coefficients(0.0), [1.0])


class TestSeededRng:
    def test_bitwise_reproducible(self):
        a = SeededRng(42).standard_normal(100)
        b = SeededRng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_spawn_reproducible_and_distinct(self):
        kids1 = SeededRng(7).spawn(3)
        kids2 = SeededRng(7).spawn(3)
        for k1, k2 in zip(kids1, kids2):
            assert np.array_equal(k1.standard_normal(10), k2.standard_normal(10))
        draws = [k.standard_normal(10) for k in SeededRng(7).spawn(3)]
        assert not np.array_equal(draws[0], draws[1])

    def test_seeds_differ(self):
        assert not np.array_equal(
            SeededRng(1).standard_normal(10), SeededRng(2).standard_normal(10)
        )


class TestSphereSampler:
    def test_dimension_one_is_sign(self):
        rng = SeededRng(3)
        vals = {float(sample_unit_sphere(1, rng)[0]) for _ in range(20)}
        assert vals <= {1.0, -1.0}
        assert len(vals) == 2

    def test_unit_norm(self, rng):
        for n in (2, 5, 33):
            u = sample_unit_sphere(n, rng)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(
            sample_unit_sphere(4, SeededRng(11)), sample_unit_sphere(4, SeededRng(11))
        )

    def test_coordinate_means_vanish(self):
        u = sample_unit_sphere(3, SeededRng(5), size=100_000)
        assert np.abs(u.mean(axis=0)).max() <= 0.02

    def test_rotation_invariance_ks(self):
        rng = SeededRng(17)
        r = haar_orthogonal(rng, 6)
        u = sample_unit_sphere(6, rng, size=100_000)
        v = sample_unit_sphere(6, rng, size=100_000) @ r.T
        stat = scipy.stats.ks_2samp(u[:, 0], v[:, 0])
        assert stat.pvalue > 1e-3

    def test_single_draw_bits_of_the_numpy_norm(self):
        for n in (1, 2, 7, 32, 128, 1000):
            g = SeededRng(n).standard_normal(n)
            assert sample_unit_sphere(n, SeededRng(n)).tobytes() == (g / np.linalg.norm(g)).tobytes()

    def test_batch_rows_unit(self, rng):
        u = sample_unit_sphere(7, rng, size=50)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-12


class TestDirichletHalfSampler:
    def test_sums_to_one(self, rng):
        for n in (2, 5, 16):
            w = sample_dirichlet_half(n, rng, size=100)
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
            assert w.min() >= 0.0

    def test_deterministic(self):
        assert np.array_equal(
            sample_dirichlet_half(3, SeededRng(2)), sample_dirichlet_half(3, SeededRng(2))
        )

    def test_requires_dimension_two(self, rng):
        with pytest.raises(ValueError):
            sample_dirichlet_half(1, rng)

    def test_two_dim_log_mean(self):
        w = sample_dirichlet_half(2, SeededRng(31), size=1_000_000)
        mean = np.log(w[:, 0]).mean()
        assert abs(mean - (-2.0 * np.log(2.0))) <= 0.01

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_digamma_identity(self, n):
        # E[log(1/w1)] for the first coordinate, against the digamma closed form
        w = sample_dirichlet_half(n, SeededRng(100 + n), size=200_000)
        vals = -np.log(w[:, 0])
        target = digamma(n / 2.0) - digamma(0.5)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 3.0 * se
        assert vals.mean() <= np.log(4.0 * n) + 3.0 * se


class TestSparseSymOperator:
    def test_symmetry_probe_dense(self, rng):
        op = SparseSymOperator.from_dense(random_symmetric(rng, 12))
        assert symmetry_defect(op, rng) <= 1e-8

    def test_symmetry_probe_sparse_and_derived(self, rng):
        mat = sp.random(30, 30, density=0.2, random_state=7)
        sym = (mat + mat.T).tocsr()
        op = SparseSymOperator(30, lambda v: sym @ v, nnz_hint=sym.nnz)
        assert symmetry_defect(op, rng) <= 1e-8
        assert symmetry_defect(op.scaled(-2.5), rng) <= 1e-8

    def test_matvec_count_propagates(self, rng):
        base = SparseSymOperator.from_dense(random_symmetric(rng, 4))
        derived = base.scaled(0.5).scaled(-3.0)
        v = rng.standard_normal(4)
        derived.matvec(v)
        derived.matvec(v)
        assert base.matvec_count == 2

    def test_nested_scaled_is_one_call_with_the_layered_bits(self, rng, monkeypatch):
        a = random_symmetric(rng, 9)
        calls = []
        base = SparseSymOperator(9, lambda v: calls.append(None) or a @ v)
        inner = base.scaled(1.0 / 3.0)
        outer = inner.scaled(-0.7)
        matvecs = []
        matvec = SparseSymOperator.matvec
        monkeypatch.setattr(SparseSymOperator, "matvec", lambda op, v: matvecs.append(op) or matvec(op, v))
        for _ in range(3):
            v = rng.standard_normal(9)
            assert np.array_equal(outer.matvec(v), -0.7 * ((1.0 / 3.0) * (a @ v)))
        assert np.array_equal(inner.matvec(v), (1.0 / 3.0) * (a @ v))
        # one matvec call and one call of the base function per product, counted on every ancestor
        assert matvecs == [outer] * 3 + [inner]
        assert len(calls) == 4
        assert (outer.matvec_count, inner.matvec_count, base.matvec_count) == (3, 4, 4)

    def test_shape_validation(self, rng):
        op = SparseSymOperator.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            op.matvec(np.zeros(4))


class TestLanczosExtremes:
    """``_lanczos_extremes``: the Lanczos route of both extreme-eigenvalue routines above the dense limit."""

    def test_identity(self, rng):
        lam_min, lam_max = _lanczos_extremes(np.eye(5))
        assert lam_min == pytest.approx(1.0, abs=1e-12)
        assert lam_max == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self, rng):
        lam_min, lam_max = _lanczos_extremes(np.diag([3.0, -2.0, 0.0]))
        assert lam_min == pytest.approx(-2.0, abs=1e-8)
        assert lam_max == pytest.approx(3.0, abs=1e-8)

    def test_random_sparse_vs_dense(self, rng):
        mat = sp.random(100, 100, density=0.05, random_state=3)
        mat = mat + mat.T
        lam_min, lam_max = _lanczos_extremes(mat)
        lam = np.linalg.eigvalsh(mat.toarray())
        assert abs(lam_max - lam[-1]) <= LANCZOS_RTOL * max(1.0, abs(lam[-1]))
        assert abs(lam_min - lam[0]) <= LANCZOS_RTOL * max(1.0, abs(lam[0]))

    def test_error_raised_for_nonfinite(self, rng):
        with pytest.raises(ConvergenceError):
            _lanczos_extremes(np.full((3, 3), np.nan))

    def test_ritz_values_are_scipy_eigvalsh_tridiagonal(self, monkeypatch, rng):
        stevd, solves = scipy.linalg.lapack.dstevd, []

        def recorded(d, e, compute_v):
            out = stevd(d, e, compute_v=compute_v)
            solves.append((d.copy(), e.copy(), out[0].copy()))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", recorded)
        for n in (9, 60, 300):
            _lanczos_extremes(random_symmetric(rng, n))
        assert len(solves) >= 8  # one solve per doubling of the Krylov depth
        for d, e, theta in solves:
            assert theta.tobytes() == scipy.linalg.eigvalsh_tridiagonal(d, e).tobytes()


class TestGrowingLanczosRun:
    """``_lanczos_extremes`` grows one run: its results are those of a fresh run to each depth it checks."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "degenerate", "padded"])
    def test_matches_a_restart_at_every_check_bitwise(self, rng, kind):
        n = 300
        if kind == "dense":
            a = random_symmetric(rng, n)
        elif kind == "sparse":
            a = TestExtremeEigenvalues.sparse_symmetric(rng, n, density=0.05)
        elif kind == "degenerate":  # the Krylov space breaks down after a few iterations
            a = np.diag(np.repeat([1.0, -2.0, 3.0], n // 3))
        else:
            small = TestExtremeEigenvalues.sparse_symmetric(rng, 30, density=0.3)
            a = sp.block_diag([small, sp.csr_matrix((n - 30, n - 30))], format="csr")
        counted = _CountingMatrix(a)
        expected, restarted_matvecs = lanczos_extremes_by_restart(a)
        got = _lanczos_extremes(counted)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert counted.calls <= restarted_matvecs

    def test_saves_at_least_two_fifths_of_the_matvecs_at_4096(self):
        n = 4096
        raw = sp.random(n, n, density=4.0 / n, random_state=11, format="csr")
        a = (raw + raw.T).tocsr()
        counted = _CountingMatrix(a)
        expected, restarted_matvecs = lanczos_extremes_by_restart(a)
        assert np.array(_lanczos_extremes(counted)).tobytes() == np.array(expected).tobytes()
        assert counted.calls <= 0.6 * restarted_matvecs


class _CountingMatrix:
    """A symmetric matrix that counts its products with a vector."""

    def __init__(self, a):
        self.a, self.shape, self.calls = a, a.shape, 0

    def __matmul__(self, v):
        self.calls += 1
        return self.a @ v


class TestExtremeEigenvalues:
    """``top_eigenvalue`` and ``operator_norm``: exact at dense scale, Lanczos above it."""

    @staticmethod
    def sparse_symmetric(rng, n, density=0.1):
        a = random_symmetric(rng, n)
        return sp.csr_matrix(np.where(np.abs(a) < density, a, 0.0))

    @staticmethod
    def dense_scale_case(rng, kind):
        if kind == "all_zero":
            return sp.csr_matrix((5, 5))
        if kind == "negative_end_dominant":  # lam_max < 0 < |lam_min|
            return TestExtremeEigenvalues.sparse_symmetric(rng, 30, density=0.3) - 2.0 * sp.eye(30, format="csr")
        if kind in ("huge", "tiny"):  # both take syevr's scaling
            return TestExtremeEigenvalues.sparse_symmetric(rng, 40) * (1e300 if kind == "huge" else 1e-200)
        return TestExtremeEigenvalues.sparse_symmetric(rng, int(kind))

    @pytest.mark.parametrize("kind", ["1", "2", "40", "all_zero", "negative_end_dominant", "huge", "tiny"])
    def test_sparse_and_dense_input_agree_bitwise(self, rng, kind):
        a = self.dense_scale_case(rng, kind)
        dense = a.toarray()
        n = dense.shape[0]
        lam, tol = top_eigenvalue(a)
        assert (lam, tol) == top_eigenvalue(dense) and tol == 0.0
        norm = operator_norm(a)
        assert norm == operator_norm(dense)
        # syevr's reduction and bisection for one index, through scipy's public driver
        ends = [scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[i, i], driver="evr")[0] for i in (0, n - 1)]
        assert norm == max(abs(ends[0]), abs(ends[1]))
        assert lam == ends[1]
        if kind not in ("huge", "tiny"):  # there syevr and eigvalsh's syevd scale by different factors
            # a bisection does not reproduce the bits of eigvalsh's sterf, but stays within a few ulps of it
            assert abs(norm - np.abs(np.linalg.eigvalsh(dense)).max()) <= 4 * np.spacing(norm)
        if kind == "negative_end_dominant":
            assert ends[1] < 0.0 and norm == -ends[0]

    @pytest.mark.parametrize("kind", ["nan_off_diagonal_pair", "inf_diagonal", "nan_one_by_one"])
    def test_non_finite_input_raises(self, kind):
        a = np.eye(1 if kind == "nan_one_by_one" else 4)
        if kind == "nan_off_diagonal_pair":
            a[0, 1] = a[1, 0] = np.nan
        elif kind == "inf_diagonal":
            a[2, 2] = np.inf
        else:
            a[0, 0] = np.nan
        for form in (a, sp.csr_matrix(a)):
            with pytest.raises(ConvergenceError, match=f"n={len(a)}"):
                operator_norm(form)
            with pytest.raises(ConvergenceError, match=f"n={len(a)}"):
                top_eigenvalue(form)

    def test_zero_padded_above_the_limit_runs_lanczos(self, monkeypatch, rng):
        import mmwsketch.linalg as linalg

        extremes, calls = linalg._lanczos_extremes, []

        def counted(a):
            calls.append(a.shape)
            return extremes(a)

        monkeypatch.setattr(linalg, "_lanczos_extremes", counted)
        small = self.sparse_symmetric(rng, 30, density=0.3) - 2.0 * sp.eye(30)  # lam_max < 0 < |lam_min|
        n = DENSE_LIMIT + 1
        padded = sp.block_diag([small, sp.csr_matrix((n - 30, n - 30))], format="csr")
        lam = np.linalg.eigvalsh(small.toarray())
        assert lam[-1] < 0.0
        top, tol = top_eigenvalue(padded)
        assert tol == LANCZOS_RTOL * max(1.0, abs(top))
        assert abs(top - max(lam[-1], 0.0)) <= tol  # the padding adds zero eigenvalues
        norm = operator_norm(padded)
        assert abs(norm - np.abs(lam).max()) <= LANCZOS_RTOL * max(1.0, norm)
        assert calls == [(n, n), (n, n)]


class TestVectorNorm:
    """``math.sqrt(x @ x)`` is what ``np.linalg.norm`` computes for a 1-D float vector."""

    def test_bits_of_the_numpy_norm(self, rng):
        a = random_symmetric(rng, 64)
        for i in range(2000):
            n = 1 + i % 300
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 151)
            y = a @ rng.standard_normal(64)  # a matvec, as Lanczos takes norms of
            for v in (x, y, x / math.sqrt(x @ x)):
                assert math.sqrt(v @ v) == np.linalg.norm(v)

    def test_strided_start_vector_runs_as_its_copy(self, rng):
        a = random_symmetric(rng, 9)
        b = rng.standard_normal((9, 3))
        strided = lanczos_decompose(a, b[:, 1], 5)
        copied = lanczos_decompose(a, b[:, 1].copy(), 5)
        assert strided.input_norm == copied.input_norm == np.linalg.norm(b[:, 1])
        assert strided.basis.tobytes() == copied.basis.tobytes()
