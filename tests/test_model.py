import copy
import math
import pickle

import numpy as np
import pytest

from oracle_forms import potential_theta, swapped
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.model import (
    EuclideanParams,
    OscillatorParams,
    QuantumNumbers,
    big_lambda,
    finite_radius_params,
    half_index,
    mu,
    reduce_L,
)
from sphere_osc.special import JacobiParams
from sphere_osc.spectrum import energy, epsilon
from sphere_osc.verify import VerificationReport


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def lambda_of_energy(p, E):
    """Spectral parameter of the hypergeometric reduction: n_theta + (mu1 + mu2)/2 at a level."""
    return -0.5 + 0.5 * math.sqrt((p.N - 1.0) ** 2 + p.w1**2 + p.w2**2 + 4.0 * E / p.energy_unit)


class TestParams:
    def test_couplings(self):
        p = OscillatorParams(N=3, R=2.0, m=1.5, hbar=0.5, omega1=0.25, omega2=0.0)
        assert rel(p.w1, 4.0 * 1.5 * 0.25 * 4.0 / 0.5) <= 1e-15
        assert p.w2 == 0.0

    def test_from_couplings_round_trip(self):
        p = OscillatorParams.from_couplings(4, 3.0, 0.7, R=1.3, m=0.9, hbar=1.1)
        assert rel(p.w1, 3.0) <= 1e-15
        assert rel(p.w2, 0.7) <= 1e-15

    def test_from_couplings_exact_in_natural_units(self):
        # R = m = hbar = 1, the CLI's --w1/--w2 mode: omega = w / 4 and back are power-of-two
        # scalings, so the CLI computes with the w it was given (a subnormal w loses low bits)
        rng = np.random.default_rng(29)
        draws = (10.0 ** rng.uniform(-307.0, 308.0, (2000, 2))).tolist()
        edges = [(0.0, 4.0 * np.finfo(float).tiny), (np.finfo(float).max, 1.0)]
        for w1, w2 in draws + edges:
            p = OscillatorParams.from_couplings(3, w1, w2)
            assert (p.w1, p.w2) == (w1, w2)

    @pytest.mark.parametrize("kwargs", [
        dict(N=1), dict(N=2, R=0.0), dict(N=2, m=-1.0), dict(N=2, hbar=0.0),
        dict(N=2, omega1=-0.1), dict(N=2, omega2=math.nan),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OscillatorParams(**{"N": 2, **kwargs})

    def test_quantum_numbers(self):
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 0)
        qn = QuantumNumbers(0, -3)  # negative L is fine as a label
        assert qn.L == -3

    def test_euclidean_params(self):
        with pytest.raises(DomainError):
            EuclideanParams(N=2, omega=1.0, chi=0.0)
        with pytest.raises(DomainError):
            EuclideanParams(N=1, omega=1.0, chi=1.0)


# type, its fields in order, valid values, and rejected fields -> (error, message)
_RECORDS = [
    (OscillatorParams, ("N", "R", "m", "hbar", "omega1", "omega2"), (3, 2.0, 1.5, 0.5, 0.25, 0.0), [
        ({"N": 1}, DomainError, "dimension N must be an integer >= 2, got 1"),
        ({"N": 3.0}, DomainError, "dimension N must be an integer, got 3.0"),
        ({"R": 0.0}, DomainError, "R must be finite and > 0, got 0.0"),
        ({"m": -1.0}, DomainError, "m must be finite and > 0, got -1.0"),
        ({"hbar": math.nan}, DomainError, "hbar must be finite and > 0, got nan"),
        ({"omega1": -1.0}, DomainError, "omega1 must be finite and >= 0, got -1.0"),
        ({"omega2": math.inf}, DomainError, "omega2 must be finite and >= 0, got inf"),
        # the first field in order is named, and the derived scales come last
        ({"R": 0.0, "omega1": -1.0}, DomainError, "R must be finite and > 0, got 0.0"),
        ({"R": 1e200, "omega1": -1.0}, DomainError, "omega1 must be finite and >= 0, got -1.0"),
        ({"R": 1e200}, RangeError, "R=1e+200, m=1.5, hbar=0.5 overflow the couplings or the energy unit"),
    ]),
    (QuantumNumbers, ("n_theta", "L"), (2, -1), [
        ({"n_theta": -1}, DomainError, "n_theta must be an integer >= 0, got -1"),
        ({"n_theta": -1, "L": 1.5}, DomainError, "n_theta must be an integer >= 0, got -1"),
        ({"L": 1.5}, DomainError, "L must be an integer, got 1.5"),
    ]),
    (EuclideanParams, ("N", "omega", "chi", "m", "hbar"), (3, 1.0, 1.5, 2.0, 0.5), [
        ({"N": 1}, DomainError, "dimension N must be an integer >= 2, got 1"),
        ({"omega": -1.0, "chi": 0.0}, DomainError, "omega must be finite and >= 0, got -1.0"),
        ({"chi": 0.0}, DomainError, "chi must be finite and > 0, got 0.0"),
        ({"m": 0.0}, DomainError, "m must be finite and > 0, got 0.0"),
        ({"hbar": math.inf}, DomainError, "hbar must be finite and > 0, got inf"),
    ]),
    (JacobiParams, ("alpha", "beta"), (0.5, -0.5), [
        ({"alpha": -1.0, "beta": math.nan}, DomainError, "alpha must be finite and > -1, got -1.0"),
        ({"beta": math.nan}, DomainError, "beta must be finite and > -1, got nan"),
    ]),
    (VerificationReport, ("state", "normalization_error", "max_ode_residual", "oracle_energy_relerr",
                          "node_count_match"), (QuantumNumbers(1, 0), 1e-16, 1e-12, 1e-10, True), []),
]


@pytest.mark.parametrize("cls, fields, values, rejected", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_record_type_contract(cls, fields, values, rejected):
    """Every record type is an immutable value: equality, hash and repr by its fields."""
    record = cls(*values)
    same = cls(**dict(zip(fields, values)))
    assert record == same and hash(record) == hash(same)
    assert record != values and record != QuantumNumbers(0, 0) and record != cls(*values[:-1], values[-1] + 1)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert [getattr(record, f) for f in fields] == list(values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[-1])
    assert getattr(record, fields[-1]) == values[-1]
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    for change, error, message in rejected:
        with pytest.raises(error) as info:
            cls(**{**dict(zip(fields, values)), **change})
        assert type(info.value) is error and str(info.value) == message


class TestAngularIndex:
    def test_reduce(self):
        assert reduce_L(2, -5) == 5
        assert reduce_L(2, 5) == 5
        assert reduce_L(3, 4) == 4
        with pytest.raises(DomainError):
            reduce_L(3, -1)

    def test_negative_L_spectrum_matches_positive(self):
        p = OscillatorParams.from_couplings(2, 1.0, 2.0)
        assert epsilon(p, QuantumNumbers(1, -3)) == epsilon(p, QuantumNumbers(1, 3))


class TestPotential:
    def test_midpoint_value(self):
        p = OscillatorParams(N=3, R=1.4, m=0.8, omega1=0.6, omega2=0.3)
        want = 2.0 * p.m * (p.omega1**2 + p.omega2**2) * p.R**2
        assert rel(potential_theta(p, math.pi / 2.0), want) <= 1e-14

    def test_soft_endpoint(self):
        p = OscillatorParams(N=2, omega1=0.5, omega2=0.0)
        assert potential_theta(p, 0.0) == 0.0
        assert potential_theta(p, math.pi) == math.inf

    def test_hard_endpoint(self):
        p = OscillatorParams(N=2, omega1=0.5, omega2=0.5)
        assert potential_theta(p, 0.0) == math.inf
        assert potential_theta(p, math.pi) == math.inf

    def test_forms_agree(self):
        # tan^2 = sec^2 - 1 and cot^2 = csc^2 - 1
        p = OscillatorParams(N=4, R=0.7, m=2.0, omega1=0.9, omega2=0.2)
        c1, c2 = (2.0 * p.m * omega**2 * p.R**2 for omega in (p.omega1, p.omega2))
        for theta in np.linspace(0.05, math.pi - 0.05, 40):
            alt = c1 / math.cos(0.5 * theta) ** 2 + c2 / math.sin(0.5 * theta) ** 2 - (c1 + c2)
            assert rel(potential_theta(p, theta), alt) <= 1e-13

    def test_mirror_symmetry(self):
        p = OscillatorParams(N=3, omega1=0.8, omega2=0.15)
        q = swapped(p)
        for theta in np.linspace(0.1, math.pi - 0.1, 25):
            assert rel(potential_theta(p, theta), potential_theta(q, math.pi - theta)) <= 1e-12

    def test_domain(self):
        p = OscillatorParams(N=2, omega1=0.5)
        with pytest.raises(DomainError):
            potential_theta(p, -0.1)
        with pytest.raises(DomainError):
            potential_theta(p, math.pi + 0.1)


class TestMu:
    def test_zero_frequency(self):
        p = OscillatorParams(N=5, omega1=0.0, omega2=0.7)
        assert mu(p, 2, 1) == abs(2 + 5 / 2 - 1)

    def test_simple_values(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        assert rel(mu(p, 0, 1), 1.0) <= 1e-15
        p = OscillatorParams.from_couplings(3, 2.5, 2.5)
        assert rel(mu(p, 2, 1), 2.5 * math.sqrt(2.0)) <= 1e-15

    def test_lower_bound(self):
        for w in (0.0, 0.3, 2.0):
            p = OscillatorParams.from_couplings(3, w, 0.0)
            bound = abs(half_index(3, 1))
            if w == 0.0:
                assert mu(p, 1, 1) == bound
            else:
                assert mu(p, 1, 1) > bound

    def test_bad_k(self):
        p = OscillatorParams(N=2)
        with pytest.raises(DomainError):
            mu(p, 0, 3)


class TestDimensionlessInvariance:
    def test_rescaled_parameterizations_match(self):
        # same (N, w1, w2) through different (m, hbar) pairs -> same epsilon
        c = 3.0
        p1 = OscillatorParams(N=3, R=2.0, m=1.5, hbar=0.7, omega1=0.3, omega2=0.1)
        p2 = OscillatorParams(N=3, R=2.0, m=c * 1.5, hbar=c * 0.7, omega1=0.3, omega2=0.1)
        assert rel(p1.w1, p2.w1) <= 1e-15
        assert rel(p1.w2, p2.w2) <= 1e-15
        for (n, L) in [(0, 0), (2, 1), (4, 3)]:
            qn = QuantumNumbers(n, L)
            assert rel(epsilon(p1, qn), epsilon(p2, qn)) <= 1e-13


class TestLambda:
    def test_free_particle_at_zero_energy(self):
        for N in (2, 3, 5):
            p = OscillatorParams(N=N)
            assert rel(lambda_of_energy(p, 0.0), (N - 2) / 2.0) <= 1e-14

    def test_quantization_condition(self):
        # lambda(E_{n L}) - (mu1 + mu2)/2 recovers n_theta
        for (N, w1, w2) in [(2, 1.0, 1.0), (3, 5.0, 2.0), (5, 0.0, 0.0), (4, 2.0, 0.0)]:
            p = OscillatorParams.from_couplings(N, w1, w2)
            for (n, L) in [(0, 0), (1, 2), (3, 1), (4, 0)]:
                qn = QuantumNumbers(n, L)
                lam = lambda_of_energy(p, energy(p, qn))
                got = lam - 0.5 * (mu(p, L, 1) + mu(p, L, 2))
                assert abs(got - n) <= 1e-9

    def test_free_rotor_level(self):
        p = OscillatorParams(N=2)
        e = epsilon(p, QuantumNumbers(0, 1)) * p.energy_unit
        assert rel(lambda_of_energy(p, e), 1.0) <= 1e-14


class TestBigLambda:
    def test_values(self):
        assert rel(big_lambda(EuclideanParams(N=2, omega=1.0, chi=1.0), 0), 0.5) <= 1e-15
        small = big_lambda(EuclideanParams(N=3, omega=1.0, chi=1e-9), 0)
        assert abs(small) <= 1e-12

    def test_matches_sphere_exponent(self):
        ep = EuclideanParams(N=4, omega=0.8, chi=1.7, m=1.2, hbar=0.9)
        for R in (0.5, 2.0, 11.0):
            p = finite_radius_params(ep, R)
            assert rel(p.w2, ep.chi) <= 1e-14
            assert rel(big_lambda(ep, 2), mu(p, 2, 2) - 0.5) <= 1e-13
