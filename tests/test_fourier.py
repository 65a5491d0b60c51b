import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from poqlab import core, fourier
from poqlab.fourier import (Group, GroupFunction, GroupMismatch, SubsetOfGroup,
                            ZeroFunction, convolve, dft, donoho_stark_check,
                            eta_set, idft, linearity_eta, support_size,
                            uncertainty_bound_check, uncertainty_product,
                            uniformity_nu)

from oracles import (collision_probability, donoho_stark_oracle,
                     eta_quadruple_bruteforce, eta_set_dict, group_elements,
                     linearity_eta_two_transforms, uncertainty_bound_oracle,
                     uncertainty_product_oracle)


def dft_z4_exact(weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized transform of an integer-valued function on Z_4^n.

    Returns integer (real, imag) parts of sum_x w(x) i^{x . x'}; dividing by
    |G|^{1/2} would give the standard normalization.  Used for exact support
    counts of indicator transforms.
    """
    g = Group(4, n)
    els = group_elements(g)
    dots = (els @ els.T) % 4
    w = np.asarray(weights, dtype=np.int64)
    re = ((dots == 0) * 1 - (dots == 2)) @ w
    im = ((dots == 1) * 1 - (dots == 3)) @ w
    return re.astype(np.int64), im.astype(np.int64)


Z4 = Group(4, 1)
Z4_3 = Group(4, 3)


def random_function(group, gen):
    return GroupFunction(group, gen.normal(size=group.size)
                         + 1j * gen.normal(size=group.size))


# --- the index ---------------------------------------------------------------

@pytest.mark.parametrize("m, n", [(2, 3), (4, 3), (5, 2), (64, 2)])
def test_encode_decode_arrays_match_scalar_calls(m, n):
    g = Group(m, n)
    els = group_elements(g)
    idx = np.arange(g.size)
    np.testing.assert_array_equal(g.decode(idx), els)
    np.testing.assert_array_equal(g.encode(els), idx)
    # leading axes broadcast; coordinates are taken mod m
    np.testing.assert_array_equal(g.encode((els + m).reshape(-1, 1, n)),
                                  idx.reshape(-1, 1))
    for i in (0, 1, g.size - 1):
        element = g.decode(i)
        assert isinstance(element, tuple) and element == tuple(els[i])
        assert all(isinstance(x, int) for x in element)
        code = g.encode(element)
        assert isinstance(code, int) and code == i


def test_encode_rejects_an_element_of_another_length():
    with pytest.raises(ValueError, match="has 3 coordinates"):
        Group(4, 3).encode((1, 2))
    with pytest.raises(ValueError, match="has 2 coordinates"):
        Group(4, 2).encode((1, 2, 3))
    with pytest.raises(ValueError, match="has 2 coordinates"):
        Group(4, 2).encode(np.zeros((5, 3), dtype=np.int64))


def test_decode_rejects_an_index_outside_the_group():
    with pytest.raises(ValueError, match=r"index 99 of Z_4\^2 is outside \[0, 16\)"):
        Group(4, 2).decode(99)
    with pytest.raises(ValueError, match="index -1"):
        Group(4, 2).decode(np.array([3, -1]))


def test_encode_and_decode_reject_values_that_are_not_integers():
    # converted to int64 they would truncate: 9 for (1.5, 2.7), (1, 1) for 5.9
    with pytest.raises(ValueError, match="^coordinates must be integers, got dtype float64$"):
        Group(4, 2).encode([1.5, 2.7])
    with pytest.raises(ValueError, match="^indices must be integers, got dtype float64$"):
        Group(4, 2).decode(5.9)
    # bools are integers, and an empty array has no entry to truncate
    assert Group(4, 2).encode([True, False]) == 1
    assert Group(4, 2).decode(np.zeros(0)).shape == (0, 2)


@pytest.mark.parametrize("values, wide", [
    (np.array([2 ** 64 - 1], dtype=np.uint64), 2 ** 64 - 1),
    (np.array([3, 2 ** 63], dtype=np.uint64), 2 ** 63),
    ([2 ** 70], 2 ** 70), ([5, -2 ** 64], -2 ** 64)])
def test_encode_and_decode_name_an_entry_past_int64(values, wide):
    # as int64 a uint64 of 2^64 - 1 would wrap to -1 (encode to 2, not 0)
    with pytest.raises(ValueError, match=f"^coordinates must fit in int64, got {wide}$"):
        Group(3, 1).encode(np.reshape(values, (-1, 1)))
    with pytest.raises(ValueError, match=f"^indices must fit in int64, got {wide}$"):
        Group(3, 1).decode(values)
    # uint64 entries that fit, and Python ints held as objects, are exact
    np.testing.assert_array_equal(
        Group(3, 1).encode(np.array([[2 ** 63 - 1], [5]], dtype=np.uint64)),
        [(2 ** 63 - 1) % 3, 2])
    np.testing.assert_array_equal(
        Group(3, 2).decode(np.array([7, 8], dtype=object)), [[1, 2], [2, 2]])
    with pytest.raises(ValueError, match="^indices must be integers, got dtype object$"):
        Group(3, 2).decode(np.array([7, 1.5], dtype=object))


def test_from_dict_rejects_a_short_element():
    with pytest.raises(ValueError, match="has 3 coordinates"):
        GroupFunction.from_dict(Group(4, 3), {(1, 2): 1})


def test_from_dict_rejects_keys_that_name_one_element():
    with pytest.raises(ValueError, match=r"keys \(1,\) and \(5,\) name the same"):
        GroupFunction.from_dict(Group(4, 1), {(1,): 1.0, (5,): 2.0})
    # distinct elements, and no elements at all, still build
    np.testing.assert_array_equal(
        GroupFunction.from_dict(Group(4, 1), {(1,): 1.0, (6,): 2.0}).values,
        [0, 1, 2, 0])
    np.testing.assert_array_equal(GroupFunction.from_dict(Group(4, 2), {}).values,
                                  np.zeros(16))


def test_subset_from_elements_takes_arrays_and_iterables():
    g = Group(4, 2)
    els = [(1, 2), (3, 0), (1, 2)]
    want = np.zeros(16, dtype=bool)
    want[[9, 3]] = True
    for given in (els, set(els), iter(els), np.array(els)):
        np.testing.assert_array_equal(SubsetOfGroup.from_elements(g, given).mask, want)
    assert SubsetOfGroup.from_elements(g, []).size == 0


# --- transform ---------------------------------------------------------------

def test_dft_delta_is_constant():
    f = GroupFunction.from_dict(Z4, {(0,): 1.0})
    np.testing.assert_allclose(dft(f).values, np.full(4, 0.5), atol=1e-12)


def test_dft_constant_is_scaled_delta():
    f = GroupFunction(Z4, np.ones(4, dtype=complex))
    want = np.zeros(4, dtype=complex)
    want[0] = 2.0
    np.testing.assert_allclose(dft(f).values, want, atol=1e-12)


def test_parseval_random():
    gen = np.random.default_rng(0)
    for _ in range(200):
        f = random_function(Z4_3, gen)
        assert abs(dft(f).norm2() - f.norm2()) < 1e-9


def test_inverse_round_trip():
    gen = np.random.default_rng(1)
    f = random_function(Z4_3, gen)
    np.testing.assert_allclose(idft(dft(f)).values, f.values, atol=1e-9)


def test_double_transform_is_negation():
    # exhaustively on Z_4, then randomly on Z_4^3
    for idx in range(4):
        f = GroupFunction.from_dict(Z4, {(idx,): 1.0})
        ff = dft(dft(f))
        want = np.zeros(4, dtype=complex)
        want[(-idx) % 4] = 1.0
        np.testing.assert_allclose(ff.values, want, atol=1e-12)
    gen = np.random.default_rng(2)
    f = random_function(Z4_3, gen)
    ff = dft(dft(f)).values
    neg = np.array([ff[Z4_3.encode([-c for c in Z4_3.decode(i)])]
                    for i in range(Z4_3.size)])
    np.testing.assert_allclose(
        np.array([f.values[i] for i in range(Z4_3.size)]), neg, atol=1e-9)


# groups on both sides of the character-matrix cutoff, and on its near side
# groups that take one, two and three or more blocks of axes
PATH_GROUPS = [(2, 4), (2, 9), (3, 2), (3, 5), *((4, n) for n in range(1, 7)),
               (32, 2), (64, 2), (1021, 1)]


def test_path_groups_straddle_the_matrix_cutoff():
    moduli = [m for m, _ in PATH_GROUPS]
    assert min(moduli) <= fourier._MATRIX_MAX_M < max(moduli)
    assert fourier._MATRIX_MAX_M in moduli


def test_path_groups_take_one_two_and_three_blocks():
    blocks = {min(len(fourier._blocks(m, n, 1)), 3) for m, n in PATH_GROUPS
              if m <= fourier._MATRIX_MAX_M}
    assert blocks == {1, 2, 3}


@pytest.mark.parametrize("m, n", PATH_GROUPS)
def test_transforms_match_numpy_fft(m, n):
    g = Group(m, n)
    gen = np.random.default_rng(m * 100 + n)
    f, h = random_function(g, gen), random_function(g, gen)
    grid = [m] * n
    root = np.sqrt(g.size)
    fft_f, fft_h = (np.fft.fftn(v.values.reshape(grid)) for v in (f, h))
    np.testing.assert_allclose(
        dft(f).values, np.fft.ifftn(f.values.reshape(grid)).reshape(-1) * root,
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(idft(f).values, fft_f.reshape(-1) / root,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        convolve(f, h).values, np.fft.ifftn(fft_f * fft_h).reshape(-1) / root,
        rtol=0, atol=1e-12)


def test_character_matrices_are_cached_read_only():
    dft(GroupFunction(Z4, np.ones(4)))
    c = fourier._characters(4, 1, 1)
    assert c is fourier._characters(4, 1, 1)
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0, 0] = 0


@pytest.mark.parametrize("m, n", [(m, n) for m, n in PATH_GROUPS
                                  if m <= fourier._MATRIX_MAX_M])
def test_block_tables_are_kronecker_powers(m, n):
    for sign in (1, -1):
        one = fourier._characters(m, sign, 1)
        roots = np.exp(sign * 2j * np.pi * np.arange(m) / m)
        np.testing.assert_allclose(
            one, roots[np.outer(np.arange(m), np.arange(m)) % m] / np.sqrt(m),
            rtol=0, atol=1e-15)
        blocks = fourier._blocks(m, n, sign)
        assert blocks is fourier._blocks(m, n, sign)
        assert np.prod([len(c) for c, _ in blocks]) == m ** n
        for c, (entries, rest) in blocks:
            assert entries == len(c) and entries * rest == m ** n
            axes = round(np.log(len(c)) / np.log(m))
            np.testing.assert_array_equal(
                c, functools.reduce(np.kron, [one] * axes))
            assert c is fourier._characters(m, sign, axes)
            assert not c.flags.writeable
            assert axes == 1 or len(c) <= fourier._BLOCK_MAX


@pytest.mark.parametrize("m, n", [(4, 4), (4, 5), (32, 2), (64, 2)])
def test_stacked_transform_equals_row_by_row(m, n):
    g = Group(m, n)
    gen = np.random.default_rng(m * 10 + n)
    stack = (gen.normal(size=(2, 3, g.size))
             + 1j * gen.normal(size=(2, 3, g.size)))
    for sign in (1, -1):
        got = fourier._transform(stack, g, sign)
        assert got.shape == stack.shape
        for i, j in itertools.product(range(2), range(3)):
            np.testing.assert_allclose(
                got[i, j], fourier._transform(stack[i, j], g, sign),
                rtol=0, atol=1e-13)
        for empty in (stack[0, :0], stack[:, :0]):
            assert fourier._transform(empty, g, sign).shape == empty.shape


@pytest.fixture
def transform_calls(monkeypatch):
    """Count fourier._transform calls made through the module."""
    calls = []
    transform = fourier._transform

    def counted(values, group, sign):
        calls.append(values.shape)
        return transform(values, group, sign)

    monkeypatch.setattr(fourier, "_transform", counted)
    return calls


def test_each_check_makes_one_transform_call(transform_calls):
    gen = np.random.default_rng(16)
    f = random_function(Z4_3, gen)
    unit = GroupFunction(Z4_3, f.values / f.norm2())
    for call, want in ((lambda: dft(f), 1), (lambda: idft(f), 1),
                       (lambda: convolve(f, f), 2),
                       (lambda: donoho_stark_check(f), 1),
                       (lambda: uncertainty_product(f), 1),
                       (lambda: uncertainty_bound_check(unit, unit), 1),
                       (lambda: linearity_eta(f), 1),
                       (lambda: uniformity_nu(f), 0)):
        transform_calls.clear()
        call()
        assert len(transform_calls) == want


# --- convolution -------------------------------------------------------------

def test_convolve_deltas():
    fa = GroupFunction.from_dict(Z4, {(1,): 1.0})
    fb = GroupFunction.from_dict(Z4, {(2,): 1.0})
    want = np.zeros(4, dtype=complex)
    want[3] = 0.5  # |G|^{-1/2} at a+b
    np.testing.assert_allclose(convolve(fa, fb).values, want, atol=1e-12)


def test_convolution_theorem_and_commutativity():
    gen = np.random.default_rng(3)
    for _ in range(100):
        f, g = random_function(Z4_3, gen), random_function(Z4_3, gen)
        lhs = dft(convolve(f, g)).values
        rhs = dft(f).values * dft(g).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        np.testing.assert_allclose(convolve(f, g).values,
                                   convolve(g, f).values, atol=1e-9)


def test_convolve_group_mismatch():
    with pytest.raises(GroupMismatch):
        convolve(GroupFunction(Z4, np.ones(4)),
                 GroupFunction(Group(4, 2), np.ones(16)))


# --- uniformity --------------------------------------------------------------

def test_nu_indicator_is_one():
    gen = np.random.default_rng(4)
    mask = gen.random(Z4_3.size) < 0.3
    mask[0] = True
    f = GroupFunction(Z4_3, mask.astype(complex))
    assert abs(uniformity_nu(f) - 1.0) < 1e-12


def test_nu_weighted_example():
    f = GroupFunction(Group(2, 1), np.array([2.0, 1.0], dtype=complex))
    assert abs(uniformity_nu(f) - 9 / 10) < 1e-12


def test_nu_zero_function_raises():
    with pytest.raises(ZeroFunction):
        uniformity_nu(GroupFunction(Z4, np.zeros(4)))


@pytest.mark.parametrize("check", [uniformity_nu, linearity_eta,
                                   uncertainty_product, donoho_stark_check])
def test_function_below_the_cutoff_is_zero(check):
    # no entry exceeds SUPPORT_EPS: every check calls it the zero function
    f = GroupFunction(Z4, [1e-11, 0, 0, 0])
    assert support_size(f) == 0
    with pytest.raises(ZeroFunction):
        check(f)


def test_coefficients_bounded_by_one():
    gen = np.random.default_rng(13)
    for _ in range(300):
        f = random_function(Z4_3, gen)
        if gen.random() < 0.5:
            f = GroupFunction(Z4_3, f.values * (gen.random(Z4_3.size) < 0.3))
        if not np.abs(f.values).any():
            continue
        assert uniformity_nu(f) <= 1 + 1e-12
        assert linearity_eta(f) <= 1 + 1e-12


# --- linearity ---------------------------------------------------------------

def test_eta_singleton():
    s = SubsetOfGroup.from_elements(Z4, [(3,)])
    assert eta_set(s) == 1


def test_eta_pair_example():
    s = SubsetOfGroup.from_elements(Z4, [(0,), (1,)])
    assert eta_set(s) == Fraction(3, 4)
    assert eta_quadruple_bruteforce(s) == Fraction(3, 4)


def _subgroups_z4_squared():
    """All subgroups of Z_4^2, via closures of <= 2 generators."""
    g = Group(4, 2)
    found = {}
    elements = [g.decode(i) for i in range(16)]
    for gens in itertools.chain(itertools.combinations(elements, 1),
                                itertools.combinations(elements, 2)):
        members = {(0, 0)}
        frontier = list(gens)
        while frontier:
            el = frontier.pop()
            if el in members:
                continue
            members.add(el)
            for other in list(members):
                nxt = ((el[0] + other[0]) % 4, (el[1] + other[1]) % 4)
                if nxt not in members:
                    frontier.append(nxt)
        found[tuple(sorted(members))] = members
    return [set(v) for v in found.values()]


def test_eta_cosets_are_one_with_quadruple_oracle():
    g = Group(4, 2)
    for sub in _subgroups_z4_squared():
        for shift in [(0, 0), (1, 2), (3, 3)]:
            coset = {((a + shift[0]) % 4, (b + shift[1]) % 4) for a, b in sub}
            s = SubsetOfGroup.from_elements(g, coset)
            assert eta_set(s) == 1
            if len(coset) <= 8:
                assert eta_quadruple_bruteforce(s) == 1


def test_eta_one_implies_coset_structure():
    # the converse direction: sets achieving 1 must be closed under x+y-z
    gen = np.random.default_rng(5)
    g = Group(4, 2)
    for _ in range(200):
        mask = gen.random(16) < 0.4
        if not mask.any():
            continue
        s = SubsetOfGroup.from_elements(g, [g.decode(i)
                                            for i in np.flatnonzero(mask)])
        if eta_set(s) == 1:
            members = {g.decode(i) for i in np.flatnonzero(mask)}
            for a, b, c in itertools.product(members, repeat=3):
                combo = tuple((ai + bi - ci) % 4 for ai, bi, ci in zip(a, b, c))
                assert combo in members


def test_eta_convolution_matches_quadruple_oracle_on_random_sets():
    gen = np.random.default_rng(6)
    g = Group(4, 2)
    for _ in range(25):
        idx = gen.choice(16, size=5, replace=False)
        s = SubsetOfGroup.from_elements(g, [g.decode(int(i)) for i in idx])
        assert eta_set(s) == eta_quadruple_bruteforce(s)
        # float path agrees with the exact value
        assert abs(linearity_eta(s.indicator()) - float(eta_set(s))) < 1e-9


@pytest.mark.parametrize("m, n", PATH_GROUPS)
def test_linearity_eta_matches_two_transform_formula(m, n):
    g = Group(m, n)
    gen = np.random.default_rng(m + n)
    for keep in (1.0, 0.25):
        for _ in range(5):
            f = random_function(g, gen)
            mask = gen.random(g.size) < keep
            mask[gen.integers(g.size)] = True
            f = GroupFunction(g, f.values * mask)
            assert abs(linearity_eta(f) - linearity_eta_two_transforms(f)) < 1e-12


def test_eta_set_matches_dict_oracle(monkeypatch):
    gen = np.random.default_rng(14)
    cases = []
    for m, n in ((2, 4), (3, 3), (4, 3), (5, 2), (64, 1)):
        g = Group(m, n)
        for _ in range(10):
            mask = gen.random(g.size) < gen.random()
            mask[gen.integers(g.size)] = True
            cases.append(SubsetOfGroup(g, mask))
    for s in cases:
        assert eta_set(s) == eta_set_dict(s)
    # one pair row per block gives the same counts
    monkeypatch.setattr(core, "_SCAN_ENTRIES", 1)
    for s in cases[::7]:
        assert eta_set(s) == eta_set_dict(s)


def test_eta_set_large_subset_matches_dict_oracle():
    # 2,048 of the 4,096 elements of Z_4^6: the pair sums span many row blocks
    g = Group(4, 6)
    mask = np.zeros(g.size, dtype=bool)
    mask[np.random.default_rng(15).choice(g.size, 2048, replace=False)] = True
    s = SubsetOfGroup(g, mask)
    assert core._SCAN_ENTRIES < 2048 * 2048
    assert eta_set(s) == eta_set_dict(s)


def test_eta_drop_last_coordinate_never_decreases():
    # image sets of second-player strategies: one element per (y, 1) + 2Z_4^3
    gen = np.random.default_rng(7)
    g3 = Group(4, 3)
    g2 = Group(4, 2)
    for _ in range(1000):
        elements = []
        for y0, y1 in itertools.product((0, 1), repeat=2):
            b = gen.integers(0, 2, size=3)
            elements.append(((y0 + 2 * b[0]) % 4, (y1 + 2 * b[1]) % 4,
                             (1 + 2 * b[2]) % 4))
        v = SubsetOfGroup.from_elements(g3, elements)
        v_dropped = SubsetOfGroup.from_elements(g2, {e[:2] for e in elements})
        assert eta_set(v) <= eta_set(v_dropped)


# --- collision bound ---------------------------------------------------------

def test_collision_bound_exact():
    gen = np.random.default_rng(8)
    for _ in range(50):
        w1 = gen.integers(0, 10, size=64)
        w2 = gen.integers(0, 10, size=64)
        if not w1.any() or not w2.any():
            continue
        p = [Fraction(int(v), int(w1.sum())) for v in w1]
        q = [Fraction(int(v), int(w2.sum())) for v in w2]
        agree = sum(a * b for a, b in zip(p, q))
        c_p = collision_probability(p)
        c_q = collision_probability(q)
        # P[s = s']^2 <= c c', exactly, with equality iff p = q
        assert agree * agree <= c_p * c_q
        if agree * agree == c_p * c_q:
            assert p == q
    p = [Fraction(1, 4)] * 4
    assert collision_probability(p) == Fraction(1, 4)
    agree = sum(a * b for a, b in zip(p, p))
    assert agree * agree == collision_probability(p) ** 2


# --- uncertainty -------------------------------------------------------------

def test_uncertainty_product_examples():
    delta = GroupFunction.from_dict(Z4, {(0,): 1.0})
    assert abs(uncertainty_product(delta) - 1.0) < 1e-12
    full = GroupFunction(Z4, np.ones(4, dtype=complex))
    assert abs(uncertainty_product(full) - 1.0) < 1e-12


def test_uncertainty_product_random_sparse():
    gen = np.random.default_rng(9)
    for _ in range(100):
        f = random_function(Z4_3, gen)
        keep = gen.random(Z4_3.size) < 0.2
        if not keep.any():
            continue
        f = GroupFunction(Z4_3, f.values * keep)
        assert uncertainty_product(f) >= 1 - 1e-9


def _sub_cutoff_subgroup(m: int) -> GroupFunction:
    """Indicator of the subgroup {0} x Z_m of Z_m^2 plus 1e-12 everywhere:
    every added entry lies below SUPPORT_EPS, and so does its transform."""
    g = Group(m, 2)
    vals = np.full(g.size, 1e-12, dtype=complex)
    column = np.stack([np.zeros(m, dtype=np.int64), np.arange(m)], axis=1)
    vals[g.encode(column)] += 1
    return GroupFunction(g, vals)


@pytest.mark.parametrize("m", [4, 64])
def test_nu_counts_its_support_under_the_cutoff(m):
    # m = 4 takes the character-matrix path, m = 64 the np.fft path
    h = _sub_cutoff_subgroup(m)
    assert support_size(h) == m and support_size(dft(h)) == m
    # the noise enters p but not the support: nu exceeds 1 by about twice
    # its share of ||h||_1
    share = 1e-12 * (m * m - m) / np.abs(h.values).sum()
    assert 1 <= uniformity_nu(h) <= 1 + 3 * share
    assert abs(uncertainty_product(h) - 1) < 1e-9
    f = GroupFunction(h.group, h.values / h.norm2())
    lhs, rhs, holds = uncertainty_bound_check(f, dft(f))
    assert holds and abs(lhs - 1) < 1e-9 and abs(rhs - 1) < 1e-9


# sparse random functions on both transform paths
ORACLE_GROUPS = [(2, 4), (4, 3), (4, 4), (32, 2), (64, 2), (1021, 1)]


@pytest.mark.parametrize("m, n", ORACLE_GROUPS)
def test_uncertainty_checks_match_one_at_a_time_oracle(m, n):
    g = Group(m, n)
    gen = np.random.default_rng(m * 1000 + n)

    def sparse(i):
        f = random_function(g, gen)
        mask = gen.random(g.size) < 0.25
        mask[gen.integers(g.size)] = True
        vals = f.values * mask
        if i % 3 == 0:
            # entries below the support cutoff
            vals = vals + 1e-12 * (gen.random(g.size) < 0.5)
        return GroupFunction(g, vals)

    for i in range(200):
        h = sparse(i)
        want = uncertainty_product_oracle(h)
        assert abs(uncertainty_product(h) - want) < 1e-12
        assert donoho_stark_check(h) == donoho_stark_oracle(h)
        f = GroupFunction(g, h.values / h.norm2())
        if i % 2:
            mask = gen.random(g.size) < 0.25
            mask[gen.integers(g.size)] = True
            other = GroupFunction(g, mask / np.sqrt(mask.sum()))
        else:
            other = dft(f)
        got = uncertainty_bound_check(f, other)
        want = uncertainty_bound_oracle(f, other)
        assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12
        assert got[2] == want[2]


def test_uncertainty_bound_check_cases():
    delta = GroupFunction.from_dict(Z4, {(0,): 1.0})
    lhs, rhs, holds = uncertainty_bound_check(delta, dft(delta))
    assert holds and abs(lhs - 1) < 1e-9 and abs(rhs - 1) < 1e-9

    gen = np.random.default_rng(10)
    for _ in range(200):
        f = random_function(Z4_3, gen)
        g = random_function(Z4_3, gen)
        f = GroupFunction(Z4_3, f.values / f.norm2())
        g = GroupFunction(Z4_3, g.values / g.norm2())
        _, _, holds = uncertainty_bound_check(f, g)
        assert holds

    with pytest.raises(ValueError):
        uncertainty_bound_check(GroupFunction(Z4, np.ones(4)), delta)


def test_uncertainty_equality_on_cosets():
    # exhaustive over every coset of every subgroup of Z_4^2
    g = Group(4, 2)
    for sub in _subgroups_z4_squared():
        for shift in itertools.product(range(4), repeat=2):
            coset = [((a + shift[0]) % 4, (b + shift[1]) % 4) for a, b in sub]
            vals = np.zeros(16, dtype=complex)
            for el in coset:
                vals[g.encode(el)] = 1 / np.sqrt(len(coset))
            f = GroupFunction(g, vals)
            lhs, rhs, holds = uncertainty_bound_check(f, dft(f))
            assert holds and abs(lhs - rhs) < 1e-9
            # these are exactly the tight support-product cases
            assert support_size(f) * support_size(dft(f)) == g.size


def test_donoho_stark_cases():
    delta = GroupFunction.from_dict(Z4, {(0,): 1.0})
    assert donoho_stark_check(delta)
    # subgroup {0, 2} of Z_4: equality, checked with the exact transform
    sub = SubsetOfGroup.from_elements(Z4, [(0,), (2,)])
    re, im = dft_z4_exact(sub.mask.astype(np.int64), 1)
    exact_support = int(((re != 0) | (im != 0)).sum())
    assert sub.size * exact_support == Z4.size
    assert donoho_stark_check(sub.indicator())
    gen = np.random.default_rng(11)
    for _ in range(200):
        f = random_function(Z4_3, gen)
        assert donoho_stark_check(f)


def test_exact_z4_transform_matches_float():
    gen = np.random.default_rng(12)
    for n in (1, 2, 3):
        g = Group(4, n)
        w = gen.integers(-3, 4, size=g.size)
        re, im = dft_z4_exact(w, n)
        float_version = dft(GroupFunction(g, w.astype(complex))).values
        np.testing.assert_allclose((re + 1j * im) / np.sqrt(g.size),
                                   float_version, atol=1e-9)
