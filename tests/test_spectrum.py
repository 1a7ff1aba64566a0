import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_forms import (
    epsilon_product,
    epsilon_product_equal_omegas,
    epsilon_product_omega2_zero,
    mp_epsilon,
    numpy_levels,
    swapped,
)
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.model import (
    EuclideanParams,
    OscillatorParams,
    QuantumNumbers,
    finite_radius_params,
    mu,
)
from sphere_osc.spectrum import (
    MAX_LEVELS,
    energy,
    energy_euclidean,
    epsilon,
    spectrum_table,
)
from sphere_osc.verify import fd_eigensolve, loglog_slope


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def free(N):
    return OscillatorParams(N=N)


class TestGeneralEnergy:
    def test_free_particle_is_exact(self):
        for N in (2, 3, 4, 5, 7):
            for n in range(5):
                for L in range(4):
                    got = epsilon(free(N), QuantumNumbers(n, L))
                    assert got == (n + L) * (n + L + N - 1)

    def test_explicit_free_value(self):
        assert epsilon(free(3), QuantumNumbers(1, 1)) == 8

    def test_symmetric_trap_ground_level(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        assert rel(epsilon(p, QuantumNumbers(0, 0)), 1.5) <= 1e-14

    def test_symmetric_trap_ground_level_oracle(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        fd = fd_eigensolve(p, 0, 1)[0]
        assert rel(fd, 1.5) <= 1e-6

    def test_swap_symmetry_is_exact(self):
        p = OscillatorParams.from_couplings(4, 3.0, 1.2)
        q = swapped(p)
        for n in range(4):
            for L in range(3):
                qn = QuantumNumbers(n, L)
                assert epsilon(p, qn) == epsilon(q, qn)

    def test_monotonicity(self):
        p = OscillatorParams.from_couplings(3, 2.0, 0.7)
        for L in range(4):
            vals = [energy(p, QuantumNumbers(n, L)) for n in range(8)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for n in range(4):
            vals = [energy(p, QuantumNumbers(n, L)) for L in range(8)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_product_vs_expanded_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            N = int(rng.integers(2, 8))
            L = int(rng.integers(0, 6))
            n = int(rng.integers(0, 9))
            w1 = float(rng.uniform(0.0, 10.0))
            w2 = float(rng.uniform(0.0, 10.0))
            p = OscillatorParams.from_couplings(N, w1, w2)
            a = epsilon_product(N, n, mu(p, L, 1), mu(p, L, 2), w1, w2)
            assert rel(a, epsilon(p, QuantumNumbers(n, L))) <= 1e-12

    @pytest.mark.parametrize("w1", [1e8, 1e9])
    def test_large_coupling_matches_mpmath(self, w1):
        # the product form lost these levels to its w^2/4 cancellation
        p = OscillatorParams.from_couplings(3, w1, 3.0)
        for n in range(2):
            for L in range(2):
                want = mp_epsilon(3, n, L, w1, 3.0)
                assert rel(epsilon(p, QuantumNumbers(n, L)), want) <= 1e-15
        table = spectrum_table(p, 1, 1)
        for n, L, eps in zip(table.n_theta.tolist(), table.L.tolist(), table.epsilon.tolist()):
            assert rel(eps, mp_epsilon(3, n, L, w1, 3.0)) <= 1e-15


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 30), st.integers(0, 30),
       st.one_of(st.just(0.0), st.floats(-4.0, 150.0).map(lambda e: 10.0**e)),
       st.one_of(st.just(0.0), st.floats(-4.0, 150.0).map(lambda e: 10.0**e)))
# summed as printed, the expanded form loses 1.3e-15 here: (n + N/2)(n + 1 - N/2) = -12 cancels
@example(8, 0, 0, 0.00014508004107708025, 0.04566368869192405)
def test_epsilon_against_mpmath(N, n, L, w1, w2):
    """The expanded form keeps full precision over the whole coupling range."""
    got = epsilon(OscillatorParams.from_couplings(N, w1, w2), QuantumNumbers(n, L))
    want = mp_epsilon(N, n, L, w1, w2)
    assert abs(got - want) <= 1e-15 * max(abs(want), 1.0)


class TestSpecialCaseForms:
    def test_equal_omegas_matches_general(self):
        for (N, w) in [(2, 1.0), (3, 4.0), (5, 0.5)]:
            p = OscillatorParams.from_couplings(N, w, w)
            for (n, L) in [(0, 0), (2, 1), (4, 3)]:
                want = epsilon_product_equal_omegas(N, n, mu(p, L, 1), w) * p.energy_unit
                assert rel(energy(p, QuantumNumbers(n, L)), want) <= 1e-12

    def test_equal_omegas_free_limit(self):
        p = OscillatorParams.from_couplings(3, 0.0, 0.0)
        assert epsilon(p, QuantumNumbers(2, 1)) == epsilon_product_equal_omegas(3, 2, mu(p, 1, 1), 0.0) == 15

    def test_equal_omegas_rejects_asymmetric(self):
        # the symmetric form at either coupling misses an asymmetric trap's level
        p = OscillatorParams.from_couplings(2, 1.0, 0.5)
        for k, w in ((1, 1.0), (2, 0.5)):
            want = epsilon_product_equal_omegas(2, 0, mu(p, 0, k), w)
            assert rel(epsilon(p, QuantumNumbers(0, 0)), want) >= 0.1

    def test_omega2_zero_matches_general(self):
        for (N, w) in [(2, 1.0), (3, 4.0), (5, 10.0)]:
            p = OscillatorParams.from_couplings(N, w, 0.0)
            for (n, L) in [(0, 0), (1, 2), (3, 2), (3, 0)]:
                want = epsilon_product_omega2_zero(N, n, L, mu(p, L, 1), w) * p.energy_unit
                assert rel(energy(p, QuantumNumbers(n, L)), want) <= 1e-12

    def test_omega2_zero_large_coupling_case(self):
        p = OscillatorParams.from_couplings(5, 10.0, 0.0)
        qn = QuantumNumbers(3, 2)
        assert rel(epsilon(p, qn), epsilon_product_omega2_zero(5, 3, 2, mu(p, 2, 1), 10.0)) <= 1e-12
        assert rel(epsilon(p, qn), mp_epsilon(5, 3, 2, 10.0, 0.0)) <= 1e-15
        fd = fd_eigensolve(p, 2, 4)[3]
        assert rel(fd, epsilon(p, qn)) <= 1e-6

    def test_product_forms_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            N = int(rng.integers(2, 8))
            L = int(rng.integers(0, 6))
            n = int(rng.integers(0, 9))
            w = float(rng.uniform(0.0, 10.0))
            qn = QuantumNumbers(n, L)
            p = OscillatorParams.from_couplings(N, w, w)
            want = epsilon_product_equal_omegas(N, n, mu(p, L, 1), w) * p.energy_unit
            assert rel(energy(p, qn), want) <= 1e-12
            p = OscillatorParams.from_couplings(N, w, 0.0)
            want = epsilon_product_omega2_zero(N, n, L, mu(p, L, 1), w) * p.energy_unit
            assert rel(energy(p, qn), want) <= 1e-12

    def test_omega2_zero_rejects_nonzero(self):
        # the single-trap form misses a level once omega2 is switched on
        p = OscillatorParams.from_couplings(2, 1.0, 0.1)
        want = epsilon_product_omega2_zero(2, 0, 0, mu(p, 0, 1), 1.0)
        assert rel(epsilon(p, QuantumNumbers(0, 0)), want) >= 0.01

    def test_free_particle_reduction_rate(self):
        # symmetric-trap levels approach the free levels like w^2
        qn = QuantumNumbers(1, 1)
        e0 = epsilon(free(3), qn)
        ws = np.geomspace(1e-1, 1e-4, 7)
        errs = []
        for w in ws:
            p = OscillatorParams.from_couplings(3, float(w), float(w))
            errs.append(abs(epsilon(p, qn) - e0))
        slope = loglog_slope(ws, errs)
        assert abs(slope - 2.0) <= 0.1, f"slope={slope}"


class TestEuclideanEnergy:
    def test_perfect_square_case(self):
        ep = EuclideanParams(N=3, omega=2.0, chi=2.0, hbar=1.0)
        assert rel(energy_euclidean(ep, 0, 1), 2.0 * 3.5) <= 1e-14

    def test_small_chi_limit(self):
        ep = EuclideanParams(N=2, omega=1.0, chi=1e-8)
        for n in range(3):
            assert rel(energy_euclidean(ep, n, 0), 2.0 * n + 1.0) <= 1e-8

    def test_validation(self):
        ep = EuclideanParams(N=2, omega=1.0, chi=1.0)
        with pytest.raises(DomainError):
            energy_euclidean(ep, -1, 0)

    def test_sphere_levels_converge_here(self):
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        qn = QuantumNumbers(1, 1)
        target = energy_euclidean(ep, 1, 1)
        radii = np.geomspace(2.0, 14.0, 5)
        errs = [abs(energy(finite_radius_params(ep, float(R)), qn) - target) for R in radii]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope = loglog_slope(radii, errs)
        assert abs(slope + 2.0) <= 0.1, f"slope={slope}"


class TestSpectrumTable:
    def test_free_particle_table(self):
        table = spectrum_table(free(2), 1, 1)
        eps = table.epsilon.tolist()
        labels = list(zip(table.n_theta.tolist(), table.L.tolist()))
        assert eps == [0, 2, 2, 6]
        assert labels == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_sorted_and_consistent(self):
        p = OscillatorParams.from_couplings(3, 2.0, 1.0, R=1.7)
        table = spectrum_table(p, 3, 2)
        assert len(table.energy) == 12
        energies = table.energy.tolist()
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        for e, eps in zip(energies, table.epsilon.tolist()):
            assert rel(e, eps * p.energy_unit) <= 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            spectrum_table(free(2), -1, 0)

    def test_table_matches_fd_oracle(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        table = spectrum_table(p, 2, 2)
        fd = {L: fd_eigensolve(p, L, 3) for L in range(3)}
        assert len(table.epsilon) == 9
        for n, L, eps in zip(table.n_theta.tolist(), table.L.tolist(), table.epsilon.tolist()):
            want = float(fd[L][n])
            assert rel(eps, want) <= 1e-6


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


_COUPLING = st.one_of(st.just(0.0), st.floats(0.0, 1e3))


@st.composite
def _table_cases(draw):
    N = draw(st.integers(2, 6))
    w1 = draw(_COUPLING)
    w2 = draw(st.one_of(st.just(w1), _COUPLING))
    R = draw(st.floats(0.05, 20.0))
    params = OscillatorParams.from_couplings(N, w1, w2, R=R)
    return params, draw(st.integers(0, 12)), draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(_table_cases())
# np.hypot would give mu_L1 one ulp off math.hypot at L = 3, and epsilon(3, 3) would move
@example((OscillatorParams.from_couplings(3, 10.4, 5.2), 0, 3))
def test_table_is_the_sorted_scalar_route(case):
    """Every column equals epsilon/energy level by level, bit for bit, in (energy, L, n_theta) order."""
    params, n_max, L_max = case
    table = spectrum_table(params, n_max, L_max)
    rows = []
    for L in range(L_max + 1):
        for n in range(n_max + 1):
            qn = QuantumNumbers(n, L)
            rows.append((energy(params, qn), L, n, epsilon(params, qn)))
    rows.sort(key=lambda r: r[:3])
    e_ref, L_ref, n_ref, eps_ref = zip(*rows)
    assert table.n_theta.tolist() == list(n_ref)
    assert table.L.tolist() == list(L_ref)
    assert _bits(table.epsilon) == _bits(eps_ref)
    assert _bits(table.energy) == _bits(e_ref)


class TestUncertifiedLevels:
    """A level that is not finite, as epsilon or as an energy, raises RangeError."""

    @pytest.mark.parametrize("w1, w2, where", [
        (1e300, 1e300, "(0, 0)"),  # the level overflows
    ])
    def test_general(self, w1, w2, where):
        p = OscillatorParams.from_couplings(3, w1, w2)
        for call in (lambda: epsilon(p, QuantumNumbers(0, 0)),
                     lambda: spectrum_table(p, 1, 1)):
            with pytest.raises(RangeError, match=re.escape(where)):
                call()

    def test_first_offending_level_is_named(self):
        # E = eps * unit overflows at eps = 8: (n_theta, L) = (2, 0) and (1, 1); L-major order names (2, 0)
        p = OscillatorParams(N=3, R=1e-154)
        assert spectrum_table(p, 1, 0).epsilon.tolist() == [0.0, 3.0]
        with pytest.raises(RangeError, match=re.escape("(2, 0)")):
            spectrum_table(p, 2, 1)
        with pytest.raises(RangeError):
            energy(p, QuantumNumbers(1, 1))

    def test_special_case_forms(self):
        with pytest.raises(RangeError):
            energy(OscillatorParams.from_couplings(3, 1e300, 1e300), QuantumNumbers(0, 0))
        # with omega2 = 0 the level forms no w^2, so w1 = 1e300 is a finite level
        p = OscillatorParams.from_couplings(3, 1e300, 0.0)
        assert rel(epsilon(p, QuantumNumbers(0, 0)), mp_epsilon(3, 0, 0, p.w1, 0.0)) <= 1e-15
        with pytest.raises(RangeError):
            energy(OscillatorParams.from_couplings(3, 1e308, 0.0), QuantumNumbers(2, 0))

    def test_size_cap(self):
        n_max = MAX_LEVELS // 2 - 1
        assert len(spectrum_table(free(2), n_max, 1).epsilon) == MAX_LEVELS
        with pytest.raises(RangeError):
            spectrum_table(free(2), n_max + 1, 1)


_WIDE_COUPLING = st.one_of(st.just(0.0), st.floats(math.log(1e-4), math.log(1e300)).map(math.exp))


@st.composite
def _wide_level_cases(draw):
    N = draw(st.integers(2, 8))
    R = draw(st.one_of(st.just(1.0), st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)))
    params = OscillatorParams.from_couplings(N, draw(_WIDE_COUPLING), draw(_WIDE_COUPLING), R=R)
    # n_theta of up to 80 bits, every bit random: past 2^53 a level rounds n_theta + L, and
    # hypothesis's own integers there are mostly powers of two or near one
    n = draw(st.randoms(use_true_random=True)).randint(0, 2**draw(st.integers(0, 80)))
    qn = QuantumNumbers(n, draw(st.integers(-10**6 if N == 2 else 0, 10**6)))
    return params, qn, draw(st.integers(0, 6)), draw(st.integers(0, 6))


def _outcome(call):
    """A call's value as bits (a table's columns as lists of them), or its RangeError's message."""
    try:
        value = call()
    except RangeError as exc:
        return str(exc)
    if isinstance(value, float):
        return _bits([value])
    return [col.tolist() for col in value[:2]] + [_bits(col) for col in value[2:]]


def _numpy_table(params, n_max, L_max):
    unit = params.energy_unit
    eps = numpy_levels(params, np.arange(n_max + 1), range(L_max + 1), unit).ravel()
    L, n = np.divmod(np.arange(eps.size), n_max + 1)
    order = np.lexsort((n, L, eps * unit))
    return n[order], L[order], eps[order], eps[order] * unit


@settings(max_examples=400, deadline=None)
@given(_wide_level_cases())
# as ints, n_theta + L = 2^60 + 129 rounds up to 2^60 + 256; as floats 2^60 + 128 rounds
# to 2^60 first, so the level moves
@example((free(3), QuantumNumbers(2**60 + 128, 1), 0, 0))
@example((OscillatorParams.from_couplings(3, 1e300, 1e300), QuantumNumbers(0, 0), 1, 1))
@example((OscillatorParams(N=3, R=1e-154), QuantumNumbers(1, 1), 2, 1))
def test_levels_match_the_numpy_form(case):
    """epsilon, energy and spectrum_table equal the numpy route bit for bit, or raise as it does."""
    params, qn, n_max, L_max = case
    unit = params.energy_unit
    pairs = [
        (lambda: epsilon(params, qn),
         lambda: float(numpy_levels(params, qn.n_theta, [qn.L], 1.0)[0, 0])),
        (lambda: energy(params, qn),
         lambda: float(numpy_levels(params, qn.n_theta, [qn.L], unit)[0, 0]) * unit),
        (lambda: spectrum_table(params, n_max, L_max), lambda: _numpy_table(params, n_max, L_max)),
    ]
    for call, oracle in pairs:
        assert _outcome(call) == _outcome(oracle)
