"""Derandomized fuzz of the command line: every argv ends in a documented exit code.

Flags are drawn with extreme values (0, 1e+-300, nan, inf, negatives) and
small sizes, so each call stays fast.  The suite turns RuntimeWarnings into
errors, so a numpy overflow inside a command escapes as an exception too.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphere_osc.cli import main

_REALS = st.sampled_from(["0", "-0", "1", "2.5", "-1", "1e-300", "-1e-300", "1e300", "-1e300",
                          "1e308", "nan", "inf", "-inf"])
_SMALL = st.integers(-1, 2).map(str)
_DIM = st.integers(1, 5).map(str)
_RADII = st.sampled_from(["1.5,3,6", "2,4", "6,3,1.5", "1,2,inf", "nan,1,2", "1e-300,1,1e300",
                          "a,b,c"])
_SPHERE = {"--w1": _REALS, "--w2": _REALS, "--omega1": _REALS, "--omega2": _REALS,
           "--radius": _REALS, "--mass": _REALS, "--hbar": _REALS, "--natural": None,
           "--format": st.sampled_from(["csv", "json"])}
# command -> (required flags, optional flags); a flag whose value is None takes no value
_FLAGS = {
    "spectrum": ({"--dim": _DIM}, {**_SPHERE, "--nmax": _SMALL, "--lmax": _SMALL}),
    "wavefunction": ({"--dim": _DIM}, {**_SPHERE, "--ntheta": _SMALL, "--l": _SMALL,
                                       "--grid": st.integers(-1, 12).map(str),
                                       "--projected": None}),
    "verify": ({"--dim": _DIM, "--levels": _SMALL, "--lmax": _SMALL},
               {**_SPHERE, "--grid-points": st.sampled_from(["999", "1000"]),
                "--quad-nodes": st.sampled_from(["0", "1", "20"]), "--perturb-energy": _REALS}),
    "euclid-limit": ({"--dim": _DIM, "--chi": _REALS, "--radii": _RADII},
                     {"--omega": _REALS, "--mass": _REALS, "--hbar": _REALS, "--natural": None,
                      "--nr": _SMALL, "--l": _SMALL, "--format": st.sampled_from(["csv", "json"])}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    chosen = sorted(required) + draw(st.lists(st.sampled_from(sorted(optional)),
                                              unique=True, max_size=3))
    argv = [command]
    for flag in chosen:
        value = required.get(flag, optional.get(flag))
        argv.append(flag if value is None else f"{flag}={draw(value)}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
@example(["verify", "--dim=3", "--w1=5", "--w2=2", "--levels=1", "--lmax=1",
          "--perturb-energy=1e308"])
def test_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[0] in ("verify", "euclid-limit")
