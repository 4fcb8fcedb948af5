import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwsketch import (
    DENSE_LIMIT,
    SdpInstance,
    SeededRng,
    SparseSymOperator,
    builtin_instance,
    costs,
    duality_gap,
    feasibility_schedule,
    load_instance,
    sample_unit_sphere,
    save_instance,
    softmax_grad,
    solve_feasibility,
)
from mmwsketch.linalg import operator_norm
from mmwsketch.projections import ANCHOR_TAU, SpectrahedronAction, trace_norm_distance
from mmwsketch import sdp
from mmwsketch.sdp import (
    X_AVG_BLOCK,
    InstanceFormatError,
    _adjoint_csr,
    _gain_storage,
    make_random_instance,
)
from conftest import (
    dense_constraint,
    doubled_half_costs,
    exact_rank1_factor,
    random_symmetric,
    replay_simplex,
    simplex_regret_certificate,
    symmetry_defect,
    union_stack_by_unique,
    upper_triplets_by_loop,
    upper_triplets_of_dense_by_loop,
)


def _simple_instance():
    return SdpInstance.from_dense_list([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])


@st.composite
def faulty_triplet_lists(draw):
    """``(n, m, triplets)``, the triplets valid but for up to three injected faults (and chance repeats)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    key = st.tuples(st.integers(1, m), st.integers(1, n), st.integers(1, n)).map(
        lambda k: (k[0], min(k[1:]), max(k[1:]))
    )
    value = st.floats(allow_nan=False, allow_infinity=False)
    triplets = draw(st.lists(st.tuples(key, value).map(lambda kv: kv[0] + (kv[1],)), max_size=15))
    faults = st.sampled_from(["index", "range", "lower", "duplicate", "non_finite"])
    for fault in draw(st.lists(faults, max_size=3)):
        i, r, c = draw(key)
        v = draw(value)
        if fault == "index":
            i = draw(st.sampled_from([0, -1, m + 1, 2**40]))
        elif fault == "range":
            bad = draw(st.sampled_from([0, -3, n + 1]))
            r, c = (bad, c) if draw(st.booleans()) else (r, bad)
        elif fault == "lower":
            r, c = c + 1, c  # out of range too when c == n: the range check comes first
        elif fault == "duplicate" and triplets:
            i, r, c = draw(st.sampled_from(triplets))[:3]
        elif fault == "non_finite":
            v = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        triplets.insert(draw(st.integers(0, len(triplets))), (i, r, c, v))
    return n, m, triplets


@st.composite
def dense_constraint_lists(draw):
    """Symmetric matrices mixing all-zero ("empty") ones with entries that include 0.0, -0.0 and NaN."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    value = st.sampled_from([0.0, -0.0, math.nan, 1.0, -0.5]) | st.floats(-1e300, 1e300)
    mats = []
    for _ in range(m):
        a = np.zeros((n, n))
        if draw(st.booleans()):
            for r in range(n):
                for c in range(r, n):
                    a[r, c] = a[c, r] = draw(value)
        mats.append(a)
    return mats


class TestSdpInstance:
    def test_triplet_validation(self):
        with pytest.raises(ValueError, match="outside"):
            SdpInstance(2, 1, [(2, 1, 1, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            SdpInstance(2, 1, [(1, 3, 3, 1.0)])
        with pytest.raises(ValueError, match="row <= col"):
            SdpInstance(2, 1, [(1, 2, 1, 1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            SdpInstance(2, 1, [(1, 1, 2, 1.0), (1, 1, 2, 2.0)])
        with pytest.raises(ValueError, match="m must be"):
            SdpInstance(2, 0, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_entry(self, bad):
        with pytest.raises(ValueError, match=r"entry \(1, 1, 1\) has the non-finite value"):
            SdpInstance(2, 1, [(1, 1, 1, bad), (1, 1, 2, 1.0)])
        with pytest.raises(ValueError, match=r"entry \(2, 1, 2\) has the non-finite value"):
            SdpInstance(2, 2, [(1, 2, 2, 1.0), (2, 1, 2, bad)])
        # NaN fails the symmetry test's comparison and inf - inf is NaN: the constructor names the entry
        with pytest.raises(ValueError, match=r"entry \(1, 1, 2\) has the non-finite value"):
            SdpInstance.from_dense_list([[[1.0, bad], [bad, 0.0]]])
        with pytest.raises(ValueError, match=r"entry \(2, 2, 2\) has the non-finite value"):
            SdpInstance.from_dense_list([np.eye(2), [[1.0, 0.0], [0.0, bad]]])

    @settings(deadline=None, max_examples=300)
    @given(faulty_triplet_lists())
    def test_matches_the_triplet_loop(self, case):
        """Errors (the first failing triplet, checks in order) and the stored arrays equal the loop's."""
        n, m, triplets = case
        try:
            expected = upper_triplets_by_loop(n, m, triplets)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                SdpInstance(n, m, triplets)
            assert str(raised.value) == str(err)
            return
        inst = SdpInstance(n, m, triplets)
        con = np.repeat(np.arange(m), [len(v) for v in expected[2]])
        for got, want in zip((inst.con, inst.row, inst.col, inst.val), (con, *map(np.concatenate, expected))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(dense_constraint_lists())
    @example([np.zeros((3, 3)), np.diag([-0.0, 2.0, 0.0])])
    @example([np.array([[1.0, math.nan], [math.nan, -0.0]])])
    def test_from_dense_list_matches_the_entry_loop(self, mats):
        """The ``np.nonzero`` scan keeps the triplets, their order and bits, or the error, of the per-entry loop."""
        n, m = mats[0].shape[0], len(mats)
        try:
            expected = SdpInstance(n, m, upper_triplets_of_dense_by_loop(mats))
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                SdpInstance.from_dense_list(mats)
            assert str(raised.value) == str(err)
            return
        inst = SdpInstance.from_dense_list(mats)
        bits = lambda trips: [(i, r, c, v.hex()) for i, r, c, v in trips]  # noqa: E731
        assert bits(inst.triplets()) == bits(expected.triplets())

    def test_from_dense_list_needs_a_matrix(self):
        with pytest.raises(ValueError, match="at least one constraint matrix"):
            SdpInstance.from_dense_list([])
        with pytest.raises(ValueError, match="share one dimension"):
            SdpInstance.from_dense_list([np.eye(2), np.eye(3)])

    def test_dense_and_csr_mirror(self):
        inst = SdpInstance(3, 1, [(1, 1, 2, 2.0), (1, 3, 3, -1.0)])
        expected = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        assert np.array_equal(dense_constraint(inst, 0), expected)
        # the stack's CSR for the unit weight is the mirrored A_1
        assert np.array_equal(_adjoint_csr(inst, np.ones(1)).toarray(), expected)

    def test_from_dense_list_round_trip(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        for i, m in enumerate(mats):
            assert np.abs(dense_constraint(inst, i) - m).max() <= 1e-15

    def test_width_of_symmetric_fixture(self, rng):
        assert _simple_instance().compute_width() == pytest.approx(1.0, abs=1e-12)
        mats = [random_symmetric(rng, 6) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        # above the dense limit each A_i is taken from the constraint stack; zero padding keeps the width
        stacked_width = _padded_above_the_limit(inst).compute_width()
        assert stacked_width == pytest.approx(inst.compute_width(), rel=1e-8)

    @pytest.mark.parametrize("name", ["rand20x10", "200x20"])
    def test_width_from_each_constraint_has_the_bits_of_the_stack_route(self, name):
        if name == "rand20x10":
            built = builtin_instance(name)
        else:
            built = make_random_instance(200, 20, SeededRng(23), density=0.05)
        inst = SdpInstance(built.n, built.m, built.triplets())  # no width yet
        through_stack = max(operator_norm(_adjoint_csr(inst, np.eye(1, inst.m, i)[0])) for i in range(inst.m))
        assert inst.compute_width() == through_stack


class TestInstanceIo:
    def test_save_load_round_trip(self, rng, tmp_path):
        inst = make_random_instance(5, 3, rng, density=0.6)
        path = tmp_path / "inst.sdpi"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert back.triplets() == inst.triplets()

    def test_empty_constraint_count_rejected(self, tmp_path):
        path = tmp_path / "bad.sdpi"
        path.write_text("3 0\n")
        with pytest.raises(InstanceFormatError, match="m must be >= 1"):
            load_instance(path)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "sym.sdpi"
        path.write_text(
            "# two opposing diagonal constraints\n"
            "2 2\n"
            "1 1 1 1.0\n"
            "1 2 2 -1.0\n"
            "2 1 1 -1.0\n"
            "2 2 2 1.0\n"
        )
        inst = load_instance(path)
        assert np.array_equal(dense_constraint(inst, 0), np.diag([1.0, -1.0]))
        assert np.array_equal(dense_constraint(inst, 1), np.diag([-1.0, 1.0]))

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("2 2\n1 1 1 x\n", "line 2"),
            ("2 2\n1 1\n", "line 2"),
            ("2 2\n1 2 1 1.0\n", "line 2"),
            ("2 2\n1 1 1 1.0\n1 1 1 2.0\n", "line 3"),
            ("2 2\n3 1 1 1.0\n", "line 2"),
            ("", "line 1"),
        ]
        for body, fragment in cases:
            path = tmp_path / "case.sdpi"
            path.write_text(body)
            with pytest.raises(InstanceFormatError, match=fragment):
                load_instance(path)

    def test_non_finite_value_is_format_error(self, tmp_path):
        for token in ("nan", "inf", "-Infinity", "1e400"):
            path = tmp_path / "case.sdpi"
            path.write_text(f"2 1\n1 1 1 1.0\n1 1 2 {token}\n")
            with pytest.raises(InstanceFormatError, match=f"^line 3: value '{token}' is not finite$"):
                load_instance(path)

    def test_builtin_instances(self):
        sym = builtin_instance("sym2x2")
        assert (sym.n, sym.m) == (2, 2)
        rand = builtin_instance("rand20x10")
        assert (rand.n, rand.m) == (20, 10)
        assert rand.compute_width() <= 1.0 + 1e-9
        with pytest.raises(ValueError):
            builtin_instance("nope")


class TestAdjointApply:
    def test_single_constraint(self, rng):
        a = random_symmetric(rng, 4)
        inst = SdpInstance.from_dense_list([a])
        adj = _adjoint_csr(inst, np.array([1.0]))
        v = rng.standard_normal(4)
        assert np.allclose(adj @ v, a @ v, atol=1e-12)

    def test_simplex_vertex_selects_constraint(self, rng):
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        adj = _adjoint_csr(inst, np.array([0.0, 0.0, 1.0]))
        v = rng.standard_normal(4)
        assert np.allclose(adj @ v, mats[2] @ v, atol=1e-12)

    def test_random_weights_match_dense_sum(self, rng):
        mats = [random_symmetric(rng, 10) for _ in range(4)]
        inst = SdpInstance.from_dense_list(mats)
        y = softmax_grad(rng.standard_normal(4))
        adj = _adjoint_csr(inst, y)
        dense = sum(w * m for w, m in zip(y, mats))
        for _ in range(3):
            v = rng.standard_normal(10)
            assert np.allclose(adj @ v, dense @ v, atol=1e-12)

    def test_operator_is_symmetric(self, rng):
        mats = [random_symmetric(rng, 8) for _ in range(3)]
        inst = SdpInstance.from_dense_list(mats)
        adj = _adjoint_csr(inst, softmax_grad(rng.standard_normal(3)))
        assert symmetry_defect(SparseSymOperator(8, lambda v: adj @ v), rng) <= 1e-8


def _rejects_int(token):
    try:
        int(token)
    except ValueError:
        return True
    return False


#: Tokens without whitespace or ``#`` that ``int`` rejects, such as "1.5", "x" or "1e3".
_NON_INT = st.text(alphabet="0123456789.eE+-_xn", min_size=1, max_size=6).filter(_rejects_int)


@st.composite
def sparse_instances(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    keys = [(i, r, c) for i in range(1, m + 1) for r in range(1, n + 1) for c in range(r, n + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=12))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(chosen),
                           max_size=len(chosen)))
    return SdpInstance(n, m, [key + (v,) for key, v in zip(chosen, values)])


@st.composite
def malformed_files(draw):
    """An instance file with one fault, and the line number its error must carry."""
    fault = draw(st.sampled_from(["arity", "index", "range", "lower", "duplicate", "value",
                                  "non_finite", "empty", "no_header", "bad_header"]))
    if fault == "empty":
        return draw(st.sampled_from(["", "\n", "# only a comment\n", "  \n# x\n\n"])), 1
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    lines = draw(st.lists(st.sampled_from(["", "# comment"]), max_size=2))
    if fault == "no_header":
        return "\n".join(lines + ["1 1 1 1.0"]) + "\n", len(lines) + 1
    if fault == "bad_header":
        header = draw(st.sampled_from([f"{n}", f"{n} {m} 1", f"{n} x", f"x {m}", f"{n} 0", f"0 {m}"]))
        return "\n".join(lines + [header]) + "\n", len(lines) + 1
    lines.append(f"{n} {m}  # header")
    good = [f"{i} {r} {r} 0.5" for i in range(1, m + 1) for r in range(1, n + 1)]
    lines += draw(st.lists(st.sampled_from(good), unique=True, max_size=4))
    i, r, c = draw(st.integers(1, m)), draw(st.integers(1, n)), draw(st.integers(1, n))
    r, c = min(r, c), max(r, c)
    if fault == "arity":
        arity = draw(st.sampled_from([1, 2, 3, 5, 6]))
        bad = " ".join(draw(st.lists(st.integers(1, 2).map(str), min_size=arity, max_size=arity)))
    elif fault == "index":
        parts = [str(i), str(r), str(c)]
        parts[draw(st.integers(0, 2))] = draw(_NON_INT)
        bad = " ".join(parts) + " 1.0"
    elif fault == "range":
        parts = [i, r, c]
        at = draw(st.integers(0, 2))
        parts[at] = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=(m if at == 0 else n) + 1)))
        bad = " ".join(map(str, parts)) + " 1.0"
    elif fault == "lower":
        bad = f"{i} {draw(st.integers(2, n))} 1 1.0"
    elif fault == "duplicate":  # off the diagonal, so not one of the good lines
        r = draw(st.integers(1, n - 1))
        c = draw(st.integers(r + 1, n))
        lines.append(f"{i} {r} {c} 1.0")
        bad = f"{i} {r} {c} -2.0"
    elif fault == "value":
        bad = f"{i} {r} {c} {draw(st.sampled_from(['x', '1..0', '0x1', '1,5', '--1']))}"
    else:
        bad = f"{i} {r} {c} {draw(st.sampled_from(['nan', '-NaN', 'inf', '-inf', 'Infinity', '1e309']))}"
    lines.append(bad)
    return "\n".join(lines + draw(st.lists(st.sampled_from(good + [""]), max_size=2))) + "\n", len(lines)


class TestInstanceFileProperties:
    @settings(deadline=None, max_examples=60)
    @given(sparse_instances())
    def test_save_load_round_trip_is_bitwise(self, tmp_path_factory, inst):
        path = tmp_path_factory.mktemp("round") / "inst.sdpi"
        save_instance(inst, path)
        back = load_instance(path)
        assert (back.n, back.m) == (inst.n, inst.m)
        bits = lambda trips: [(i, r, c, v.hex()) for i, r, c, v in trips]  # noqa: E731
        assert bits(back.triplets()) == bits(inst.triplets())

    @settings(deadline=None, max_examples=200)
    @given(malformed_files())
    def test_malformed_line_is_format_error_with_its_number(self, tmp_path_factory, case):
        body, lineno = case
        path = tmp_path_factory.mktemp("bad") / "case.sdpi"
        path.write_text(body)
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert str(err.value).startswith(f"line {lineno}: ")


def _sym(n, entries):
    a = np.zeros((n, n))
    for (r, c), v in entries.items():
        a[r, c] = a[c, r] = v
    return a


@st.composite
def stacked_cases(draw):
    """Constraint lists mixing empty, diagonal, random and repeated patterns, plus a seed."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    upper = [(r, c) for r in range(n) for c in range(r, n)]
    value = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: v != 0.0)
    mats = []
    for _ in range(m):
        kind = draw(st.sampled_from(["empty", "diagonal", "random", "same_pattern"]))
        if kind == "empty":
            pattern = []
        elif kind == "diagonal":
            pattern = [(r, r) for r in range(n)]
        elif kind == "same_pattern" and mats:
            pattern = [tuple(p) for p in zip(*np.nonzero(np.triu(mats[-1])))]
        else:
            pattern = draw(st.lists(st.sampled_from(upper), unique=True))
        mats.append(_sym(n, {p: draw(value) for p in pattern}))
    return mats, draw(st.integers(0, 2**32 - 1))


def _padded_above_the_limit(inst):
    """The same constraints in dimension ``DENSE_LIMIT + 1``, zero outside the leading block."""
    return SdpInstance(DENSE_LIMIT + 1, inst.m, inst.triplets())


def _example(*mats):
    return example(([np.asarray(a, dtype=float) for a in mats], 7))


class TestConstraintStack:
    """The stacked constraints against ``sum_i w_i A_i`` built from ``dense_constraint``."""

    @settings(deadline=None)
    @given(stacked_cases())
    @_example(np.zeros((3, 3)), np.zeros((3, 3)))  # the all-zero instance
    @_example([[0.5, -1.0], [-1.0, 0.0]])  # m = 1
    @_example(np.zeros((3, 3)), np.diag([1.0, -2.0, 0.5]))  # empty and diagonal-only
    @_example(_sym(4, {(0, 1): 1.0, (1, 1): 0.5}), _sym(4, {(2, 3): -1.0, (3, 3): 2.0}))  # disjoint
    @_example(_sym(3, {(0, 2): 1.0, (1, 1): 0.5}), _sym(3, {(0, 2): -0.3, (1, 1): 0.9}))  # identical
    def test_matches_dense_oracle(self, case):
        mats, seed = case
        inst = SdpInstance.from_dense_list(mats)
        n, m = inst.n, inst.m
        gen = np.random.default_rng(seed)
        w = gen.dirichlet(np.ones(m))
        oracle = sum(w_i * dense_constraint(inst, i) for i, w_i in enumerate(w))

        adj = _adjoint_csr(inst, w)
        dense = adj.toarray()
        assert np.allclose(dense, oracle, rtol=0.0, atol=1e-12)
        assert np.array_equal(dense, dense.T)
        v = gen.standard_normal(n)
        assert np.allclose(adj @ v, oracle @ v, rtol=0.0, atol=1e-12)

        x = sample_unit_sphere(n, SeededRng(seed))
        g = gen.standard_normal((n, n))
        xm = g @ g.T / np.trace(g @ g.T)
        for action, xd in (
            (SpectrahedronAction.rank1(x), np.outer(x, x)),
            (SpectrahedronAction.dense(xm), xm),
        ):
            expected = np.array([np.vdot(dense_constraint(inst, i), xd) for i in range(m)])
            assert np.allclose(costs(inst, action), expected, rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(stacked_cases())
    @_example(np.zeros((3, 3)), np.zeros((3, 3)))  # the all-zero instance
    @_example([[0.5, -1.0], [-1.0, 0.0]])  # m = 1
    @_example(np.zeros((3, 3)), np.diag([1.0, -2.0, 0.5]))  # empty and diagonal-only
    @_example(np.diag([1.0, 0.0, 3.0]), np.diag([0.0, -2.0, 0.5]))  # diagonal-only
    @_example(_sym(3, {(0, 2): 1.0, (1, 1): 0.5}), _sym(3, {(0, 2): -0.3, (1, 1): 0.9}))  # identical
    def test_matches_the_unique_build_bitwise(self, case):
        """The one-sort union pattern against ``np.unique`` + ``searchsorted``; ``half`` against each ``A_i``."""
        inst = SdpInstance.from_dense_list(case[0])
        n, m = inst.n, inst.m
        stack = inst.stack()
        values, indices, indptr = union_stack_by_unique(inst)
        for got, want in ((stack.values.data, values.data), (stack.values.indices, values.indices),
                          (stack.values.indptr, values.indptr), (stack.indices, indices), (stack.indptr, indptr)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert stack.values.shape == values.shape
        for i, block in enumerate(stack.half.toarray().reshape(m, n, n)):
            a = dense_constraint(inst, i)
            assert np.array_equal(block, np.triu(a, 1) + 0.5 * np.diag(np.diag(a)))

    def test_operators_do_not_alias(self, rng):
        inst = make_random_instance(6, 3, rng, density=0.6)
        v = rng.standard_normal(6)
        first = _adjoint_csr(inst, np.array([1.0, 0.0, 0.0]))
        before = first @ v
        _adjoint_csr(inst, np.array([0.0, 0.5, 0.5])) @ v
        _adjoint_csr(inst, np.array([0.0, 0.0, 1.0])).toarray()
        assert np.array_equal(first @ v, before)
        assert np.allclose(before, dense_constraint(inst, 0) @ v, rtol=0.0, atol=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(stacked_cases())
    def test_operator_gap_matches_dense_gap(self, case):
        mats, seed = case
        inst = SdpInstance.from_dense_list(mats)
        gen = np.random.default_rng(seed)
        y = gen.dirichlet(np.ones(inst.m))
        x = SpectrahedronAction.rank1(sample_unit_sphere(inst.n, SeededRng(seed)))
        exact = duality_gap(inst, x, y)
        assert exact.lo == exact.hi == exact.value
        # zero padding leaves every cost and adds zero eigenvalues: lam_max(A* y) becomes max(lam_max, 0)
        padded = max(exact.value, -float(costs(inst, x).min()))
        x_padded = SpectrahedronAction.rank1(np.concatenate([x.factor, np.zeros(DENSE_LIMIT + 1 - inst.n)]))
        estimated = duality_gap(_padded_above_the_limit(inst), x_padded, y)
        assert estimated.lo <= padded <= estimated.hi


@st.composite
def scaled_instances(draw):
    """Constraint ``i`` with entries of magnitude ``2^e_i`` times [1/2, 2), ``e_i`` in [-1000, 1000]; and a seed."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    upper = [(r, c) for r in range(1, n + 1) for c in range(r, n + 1)]
    mantissa = st.floats(0.5, 2.0, exclude_max=True) | st.floats(-2.0, -0.5, exclude_min=True)
    triplets = []
    for i in range(1, m + 1):
        e = draw(st.integers(-1000, 1000))
        triplets += [(i, r, c, math.ldexp(draw(mantissa), e)) for r, c in draw(st.lists(st.sampled_from(upper), unique=True))]
    return SdpInstance(n, m, triplets), draw(st.integers(0, 2**32 - 1))


class TestCosts:
    def test_identity_constraint_gives_one(self, rng):
        inst = SdpInstance.from_dense_list([np.eye(3)])
        rank1 = SpectrahedronAction.rank1(sample_unit_sphere(3, rng))
        dense = SpectrahedronAction.dense(np.eye(3) / 3.0)
        assert costs(inst, rank1)[0] == pytest.approx(1.0, abs=1e-12)
        assert costs(inst, dense)[0] == pytest.approx(1.0, abs=1e-12)

    def test_basis_vector_example(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0])])
        act = SpectrahedronAction.rank1(np.array([1.0, 0.0]))
        assert costs(inst, act)[0] == pytest.approx(1.0, abs=1e-15)

    def test_random_rank1_matches_densified(self, rng):
        mats = [random_symmetric(rng, 6) for _ in range(4)]
        inst = SdpInstance.from_dense_list(mats)
        x = sample_unit_sphere(6, rng)
        act = SpectrahedronAction.rank1(x)
        expected = np.array([float(x @ (m @ x)) for m in mats])
        assert np.allclose(costs(inst, act), expected, atol=1e-12)

    def test_entry_near_the_float_max_stays_finite(self):
        # 2 * 1e308 would overflow: ``half`` keeps the off-diagonal entry and halves the diagonal
        inst = SdpInstance(2, 2, [(1, 1, 1, 3.0), (1, 1, 2, 1e308), (2, 1, 2, 0.5), (2, 2, 2, -1.0)])
        assert np.all(np.isfinite(inst.stack().half.data))
        x = np.array([0.6, 0.8])
        mats = [dense_constraint(inst, i) for i in range(2)]
        expected = np.array([x @ (a @ x) for a in mats])
        assert np.isfinite(expected[0])
        for action in (SpectrahedronAction.rank1(x), SpectrahedronAction.dense(np.outer(x, x))):
            assert np.allclose(costs(inst, action), expected, rtol=1e-12, atol=0.0)

    @settings(deadline=None, max_examples=200)
    @given(scaled_instances())
    @example((SdpInstance(2, 2, [(1, 1, 1, 2.0**-1000), (1, 1, 2, -(2.0**-1000)), (2, 2, 2, 2.0**1000)]), 5))
    def test_both_routes_match_the_doubled_rule_bitwise(self, case):
        """Halving the diagonal and doubling the product rounds as doubling the off-diagonal did."""
        inst, seed = case
        g = np.random.default_rng(seed).standard_normal((inst.n, inst.n))
        for action in (SpectrahedronAction.rank1(sample_unit_sphere(inst.n, SeededRng(seed))),
                       SpectrahedronAction.dense(g @ g.T / np.trace(g @ g.T))):
            got, want = costs(inst, action), doubled_half_costs(inst, action)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_width_certifies_cost_range(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0])])
        inst.width = 0.25  # deliberately wrong: every unit-trace action violates it
        act = SpectrahedronAction.rank1(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="width"):
            costs(inst, act)


class TestDualityGap:
    def test_identity_single_constraint(self, rng):
        inst = SdpInstance.from_dense_list([np.eye(4)])
        x = SpectrahedronAction.dense(np.eye(4) / 4.0)
        report = duality_gap(inst, x, np.array([1.0]))
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_instance_at_saddle(self):
        inst = _simple_instance()
        x = SpectrahedronAction.dense(np.eye(2) / 2.0)
        report = duality_gap(inst, x, np.array([0.5, 0.5]))
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_and_nonnegative(self, rng):
        for _ in range(5):
            mats = [random_symmetric(rng, 5) for _ in range(3)]
            inst = SdpInstance.from_dense_list(mats)
            x = SpectrahedronAction.dense(np.eye(5) / 5.0)
            y = softmax_grad(rng.standard_normal(3))
            report = duality_gap(inst, x, y)
            adjoint = sum(w * m for w, m in zip(y, mats))
            brute = float(np.linalg.eigvalsh(adjoint)[-1]) - min(
                float(np.vdot(m, x.matrix)) for m in mats
            )
            assert report.value == pytest.approx(brute, abs=1e-10)
            assert report.value >= -(report.hi - report.lo)


class TestFeasibilitySchedule:
    def test_frozen_small_example(self):
        inst = SdpInstance.from_dense_list([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        eta, horizon = feasibility_schedule(inst, 1.0)
        assert horizon == 23
        assert eta == pytest.approx(math.sqrt(math.log(16.0) / (2.0 * 23)), rel=1e-12)

    def test_halving_epsilon_quadruples_horizon(self):
        inst = builtin_instance("rand20x10")
        _, t1 = feasibility_schedule(inst, 0.5)
        _, t2 = feasibility_schedule(inst, 0.25)
        assert t2 / t1 == pytest.approx(4.0, rel=0.05)

    def test_substitution_gives_target(self):
        for eps in (1.0, 0.5, 0.25):
            inst = builtin_instance("rand20x10")
            eta, horizon = feasibility_schedule(inst, eps)
            omega = inst.compute_width()
            bound = math.log(4.0 * inst.m * inst.n) / (eta * horizon) + 2.0 * eta * omega**2
            assert bound <= eps + 1e-12

    def test_zero_width_instance(self):
        inst = SdpInstance(3, 1, [])
        eta, horizon = feasibility_schedule(inst, 0.5)
        assert horizon == 1

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            feasibility_schedule(_simple_instance(), 0.0)


def _sparse_dense_scale_instance():
    """n = 200 with a tridiagonal and a diagonal constraint: the union pattern fills 1.5% of n^2."""
    n = 200
    triplets = [(1, r, r, 1.0) for r in range(1, n + 1)] + [(1, r, r + 1, -0.5) for r in range(1, n)]
    triplets += [(2, r, r, (-1.0) ** r) for r in range(1, n + 1)]
    return SdpInstance(n, 2, triplets)


class TestGainStorage:
    """The scaled gain sum: a dense array for a dense union pattern or exact projections, a CSR matrix otherwise."""

    @pytest.mark.parametrize(
        "name, use_lanczos, dense",
        [
            ("rand20x10", True, True),
            ("rand20x10", False, True),
            ("padded", True, False),
            ("sparse_n200", True, False),
            ("sparse_n200", False, True),
        ],
    )
    def test_layout_rule_and_the_csr_sums_bitwise(self, name, use_lanczos, dense):
        inst = {
            "rand20x10": lambda: builtin_instance("rand20x10"),
            "padded": lambda: _padded_above_the_limit(builtin_instance("rand20x10")),
            "sparse_n200": _sparse_dense_scale_instance,
        }[name]()
        gain, data, values = _gain_storage(inst, use_lanczos)
        assert isinstance(gain, np.ndarray) == dense
        w = np.random.default_rng(5).uniform(size=inst.m)
        data[:] = values @ w
        want = _adjoint_csr(inst, w)
        if dense:
            assert gain.shape == (inst.n, inst.n) and gain.tobytes() == want.toarray().tobytes()
        else:
            assert gain.data.tobytes() == want.data.tobytes()
            assert np.array_equal(gain.indices, want.indices) and np.array_equal(gain.indptr, want.indptr)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_layouts_play_the_same_game(self, monkeypatch, seed):
        import mmwsketch.projections as projections

        # with no dense scale the player runs Lanczos on either layout, as it does above the dense limit for
        # a gain sum whose fill keeps it dense
        monkeypatch.setattr(projections, "DENSE_LIMIT", 0)
        inst = builtin_instance("rand20x10")
        results = {}
        for fill in (0.0, math.inf):  # every pattern dense, then every pattern CSR
            monkeypatch.setattr(sdp, "DENSE_GAIN_FILL", fill)
            results[fill] = solve_feasibility(inst, 0.5, rng=SeededRng(seed), use_lanczos=True)
        dense, csr = results[0.0], results[math.inf]
        assert (dense.T, dense.verdict, dense.matvecs) == (csr.T, csr.verdict, csr.matvecs)
        assert np.abs(dense.x_factor_history - csr.x_factor_history).max() <= 1e-12
        assert np.abs(replay_simplex(inst, dense)[1] - replay_simplex(inst, csr)[1]).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_series_and_csr_lanczos_reach_one_verdict(self, monkeypatch, seed):
        # at dense scale the dense layout sums the certified series and the CSR one runs Lanczos; once two
        # plays differ so do the games, so the tolerance on the plays is empirical: rand20x10's games stay
        # within 0.33/T of each other on seeds 0 to 5
        inst = builtin_instance("rand20x10")
        results = {}
        for fill in (0.0, math.inf):
            monkeypatch.setattr(sdp, "DENSE_GAIN_FILL", fill)
            results[fill] = solve_feasibility(inst, 0.5, rng=SeededRng(seed), use_lanczos=True)
        dense, csr = results[0.0], results[math.inf]
        assert (dense.T, dense.verdict) == (csr.T, csr.verdict)
        distance = [
            trace_norm_distance(SpectrahedronAction.rank1(a), SpectrahedronAction.rank1(b))
            for a, b in zip(dense.x_factor_history, csr.x_factor_history)
        ]
        assert max(distance) <= 1.0 / dense.T


class TestSolveFeasibility:
    def test_all_zero_instance(self):
        inst = SdpInstance(3, 2, [])
        result = solve_feasibility(inst, 0.5, rng=SeededRng(0))
        assert result.T == 1
        assert result.gap.value == pytest.approx(0.0, abs=1e-12)
        assert result.s_lower == pytest.approx(0.0, abs=1e-12)
        assert result.s_upper == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_fixture_interval_contains_zero(self):
        result = solve_feasibility(builtin_instance("sym2x2"), 0.25, rng=SeededRng(4))
        assert result.s_lower <= 0.0 <= result.s_upper
        assert result.s_upper - result.s_lower <= 0.25
        assert result.verdict == "undetermined-at-epsilon"

    def test_feasible_and_infeasible_verdicts(self):
        # every unit-trace action scores +1 against the identity
        feasible = SdpInstance.from_dense_list([np.eye(3), np.eye(3)])
        res = solve_feasibility(feasible, 0.5, rng=SeededRng(1))
        assert res.verdict == "feasible"
        infeasible = SdpInstance.from_dense_list([-np.eye(3)])
        res = solve_feasibility(infeasible, 0.5, rng=SeededRng(1))
        assert res.verdict == "infeasible"

    def test_above_the_limit_equals_a_restarted_lanczos_bitwise(self, extremes_against_restart):
        # the width (one call per constraint) and s_upper (one call) are the only Lanczos extremes of a solve
        inst = builtin_instance("rand20x10")
        result = solve_feasibility(_padded_above_the_limit(inst), 0.25, rng=SeededRng(909), use_lanczos=True)
        assert len(extremes_against_restart) == inst.m + 1
        for got, restarted in extremes_against_restart:
            assert np.array(got).tobytes() == np.array(restarted).tobytes()
        assert result.verdict == "feasible"

    def test_averaging_correctness(self):
        inst = builtin_instance("sym2x2")
        result = solve_feasibility(inst, 0.5, rng=SeededRng(11))
        replay = np.einsum("ti,tj->ij", result.x_factor_history, result.x_factor_history)
        replay /= result.T
        assert np.abs(replay - result.x_avg.matrix).max() <= 1e-10
        assert np.allclose(replay_simplex(inst, result)[1].mean(axis=0), result.y_avg, atol=1e-12)
        # T = 856 = 13 * 64 + 24: the average covers every step, including a partly filled block
        result = solve_feasibility(builtin_instance("rand20x10"), 0.25, rng=SeededRng(3))
        assert result.completed and result.T == 856 and result.T % X_AVG_BLOCK
        replay = result.x_factor_history.T @ result.x_factor_history / result.T
        assert np.abs(replay - result.x_avg.matrix).max() <= 1e-12

    def test_averaged_iterates_satisfy_membership(self):
        result = solve_feasibility(builtin_instance("rand20x10"), 0.5, rng=SeededRng(21))
        result.x_avg.validate()
        assert result.y_avg.min() >= 0.0
        assert abs(result.y_avg.sum() - 1.0) <= 1e-12

    def test_simplex_player_regret_certificate(self):
        inst = builtin_instance("rand20x10")
        for seed in range(3):
            result = solve_feasibility(inst, 0.5, rng=SeededRng(seed))
            lhs, rhs = simplex_regret_certificate(inst, result)
            assert lhs <= rhs + 1e-9

    def test_monotone_epsilon(self):
        gaps = []
        for eps in (1.0, 0.5, 0.25):
            result = solve_feasibility(builtin_instance("rand20x10"), eps, rng=SeededRng(2))
            gaps.append(result.gap.value)
        assert gaps[0] >= gaps[1] - 1e-12
        assert gaps[1] >= gaps[2] - 1e-12

    def test_lanczos_path_agrees_with_exact_contract(self):
        inst = builtin_instance("sym2x2")
        result = solve_feasibility(inst, 0.5, rng=SeededRng(8), use_lanczos=True)
        assert result.matvecs > 0
        assert result.gap.value <= 0.5
        assert result.s_lower <= 0.0 <= result.s_upper

    @pytest.mark.parametrize("use_lanczos", [False, True])
    def test_delta_validated(self, use_lanczos):
        for delta in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
                solve_feasibility(_simple_instance(), 0.5, delta=delta, use_lanczos=use_lanczos)

    def test_determinism(self):
        r1 = solve_feasibility(builtin_instance("sym2x2"), 0.5, rng=SeededRng(6))
        r2 = solve_feasibility(builtin_instance("sym2x2"), 0.5, rng=SeededRng(6))
        assert r1.gap.value == r2.gap.value
        assert np.array_equal(r1.x_avg.matrix, r2.x_avg.matrix)


class TestAnchoredExactRoute:
    """The exact route, and the Krylov one on a dense gain sum, reduce it only at anchors and widen in between."""

    @pytest.mark.parametrize(
        "name, epsilon",
        [("sym2x2", 0.25), ("rand20x10", 0.25), ("rand20x10", 1.0), ("sparse60x8", 0.5)],
    )
    def test_every_projected_y_lies_in_the_players_interval(self, monkeypatch, name, epsilon):
        import mmwsketch.projections as projections

        inst = {
            "sym2x2": lambda: builtin_instance("sym2x2"),
            "rand20x10": lambda: builtin_instance("rand20x10"),
            "sparse60x8": lambda: make_random_instance(60, 8, SeededRng(31), density=0.1),
        }[name]()
        # the exact sketch, then the certified series of a Krylov solve on the same dense gain sum; a Krylov
        # step whose interval is too wide for the series runs Lanczos instead
        projection, series, lanczos = (
            projections.rank1_projection, projections.rank1_projection_series, projections.rank1_projection_lanczos,
        )
        for use_lanczos in (False, True):
            seen, lanczos_steps = [], []

            def record(form, u, action, claimed):
                y = form.matrix
                lam = np.linalg.eigvalsh(y)
                exact = SpectrahedronAction.rank1(exact_rank1_factor(y, u))
                error = np.abs(action.factor - exact.factor).max()
                seen.append((form.lo, form.hi, lam[0], lam[-1], error, trace_norm_distance(action, exact), claimed))

            def exact_spy(form, u):
                action = projection(form, u)
                record(form, u, action, 0.0)
                return action

            def series_spy(form, u, tol, cap):
                action, degree = series(form, u, tol, cap)
                record(form, u, action, 2.0 * action.error_estimate)
                return action, degree

            monkeypatch.setattr(projections, "rank1_projection", exact_spy)
            monkeypatch.setattr(projections, "rank1_projection_series", series_spy)
            monkeypatch.setattr(projections, "rank1_projection_lanczos", lambda *a, **k: lanczos_steps.append(1) or lanczos(*a, **k))
            result = solve_feasibility(inst, epsilon, rng=SeededRng(12), use_lanczos=use_lanczos)
            assert len(seen) + len(lanczos_steps) == result.T and len(seen) > 0
            lo, hi, lam_min, lam_max, factor_err, distance, claimed = np.array(seen).T
            assert (lo <= lam_min).all() and (lam_max <= hi).all()
            # a re-anchor keeps the top end within tau of lam_max, so the series keeps its precision
            assert (hi - lam_max).max() <= ANCHOR_TAU
            if use_lanczos:  # within twice the bound the series proved, itself within the budget 1/(4T)
                assert (distance <= claimed + 1e-12).all() and claimed.max() <= 0.5 / result.T
            else:
                assert not lanczos_steps and factor_err.max() <= 1e-12

    def test_one_reduction_per_constraint_gap_and_anchor(self, monkeypatch):
        import mmwsketch.linalg as linalg
        import mmwsketch.projections as projections

        built = builtin_instance("rand20x10")
        inst = SdpInstance(built.n, built.m, built.triplets())  # no cached width: the solve computes it
        counts = {"_reduce": 0, "anchor": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(linalg, "_reduce")
        counted(projections, "anchor")
        result = solve_feasibility(inst, 0.25, rng=SeededRng(3))
        # the width reduces each constraint once, the gap A* y_avg once, and the player only at its anchors
        assert counts["_reduce"] == inst.m + 1 + counts["anchor"]
        assert 1 <= counts["anchor"] < result.T / 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drift_bound_covers_the_rounding_of_the_gain_sum(self, seed):
        inst = make_random_instance(60, 2, SeededRng(seed), density=0.6)
        omega = inst.compute_width()
        gain, data, values = _gain_storage(inst, False)
        w_a, w = np.array([1e8, 1.0]), np.array([1e8, 1.0 + 2.0**-32])
        data[:] = values @ w_a
        y_a = gain.copy()
        data[:] = values @ w
        moved = np.abs(np.linalg.eigvalsh(gain - y_a)).max()
        # the sums round at the scale of the large weight: Y moves more than omega |w - w_a|_1 says
        assert moved > omega * np.abs(w - w_a).sum()
        assert moved <= sdp._drift_bound(omega, w, w_a, inst.n)
