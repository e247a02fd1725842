"""Property test of the command-line gate on generated configurations.

Each generated configuration is a valid one with up to two fields replaced
by a hostile value (a wrong type, a bad kind or side, an out-of-range mode,
a bad profile, a negative seed, a degenerate length or diffusivity).
Whatever the mix, a run must end in a documented exit code (0 success,
2 configuration, 3 hypothesis violation, 4 budget) and never in an
escaping exception.
"""

import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrans.cli import main

JUNK = st.sampled_from([None, "x", [], {}, True, -1, 0, 1.5])
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -1.0, 1e-9, 1e-300, 1e8, 1e300, math.inf, -math.inf, math.nan]),
)
COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
HOSTILE = {
    "m": st.one_of(st.integers(-2, 0), JUNK),
    "length": st.one_of(NUMBERS, JUNK),
    "c": NUMBERS,
    "d": NUMBERS,
    "k_minus": st.one_of(NUMBERS, JUNK),
    "k_plus": st.one_of(NUMBERS, JUNK),
    "forcing": st.sampled_from(["csv", "other", None, 3]),
    "side": st.sampled_from(["left", 3, None]),
    "mode": st.one_of(st.integers(-3, 12), JUNK),
    "k_multiple": JUNK,
    "amplitude": st.one_of(NUMBERS, JUNK),
    "case": st.sampled_from(["other", None, 3]),
    "profile": st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=9),
                         st.lists(st.one_of(NUMBERS, JUNK), min_size=1, max_size=3), JUNK),
    "a1": st.one_of(st.lists(st.sampled_from([0, 0.0]), max_size=3), JUNK),
    "a2": st.one_of(st.lists(st.sampled_from([0, 0.0]), max_size=3), JUNK),
    "boundary": st.sampled_from(["explicit", "other", None]),
    "seed": st.one_of(st.integers(-3, -1), JUNK),
}


@st.composite
def configs(draw):
    mutated = draw(st.sets(st.sampled_from(sorted(HOSTILE)), max_size=2))

    def pick(name, valid):
        return draw(HOSTILE[name] if name in mutated else valid)

    m = pick("m", st.integers(1, 8))
    modes = st.integers(0, m - 1) if isinstance(m, int) and m >= 1 else st.integers(0, 7)
    kind = pick("forcing", st.sampled_from(["zero", "sine", "manufactured"]))
    gamma = draw(st.floats(-1.0, 1.0))
    forcing = {"kind": kind, "side": pick("side", st.sampled_from(["minus", "plus"])),
               "mode": pick("mode", modes), "k_multiple": pick("k_multiple", st.integers(1, 3)),
               "amplitude": pick("amplitude", st.floats(-2.0, 2.0)),
               "case": pick("case", st.sampled_from(["forced", "homogeneous"])),
               "profile": pick("profile", st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7)),
               "psi1": draw(st.floats(-1.0, 1.0))}
    homogeneous = draw(st.lists(modes, min_size=1, max_size=3, unique=True))
    forcing.update(modes=homogeneous,
                   a1=pick("a1", st.lists(st.floats(-2.0, 2.0), min_size=len(homogeneous),
                                          max_size=len(homogeneous))),
                   a2=pick("a2", st.lists(st.floats(-2.0, 2.0), min_size=len(homogeneous),
                                          max_size=len(homogeneous))))
    boundaries = ["zero", "random"] + (["from-exact-case"] if kind == "manufactured" else [])
    return {
        "section": {"kind": "laplacian-1d", "m": m, "length": pick("length", st.floats(0.2, 5.0))},
        "geometry": {"a": gamma - pick("c", st.floats(0.05, 3.0)), "gamma": gamma,
                     "b": gamma + pick("d", st.floats(0.05, 3.0))},
        "diffusivities": {"k_minus": pick("k_minus", st.floats(0.1, 10.0)),
                          "k_plus": pick("k_plus", st.floats(0.1, 10.0))},
        "forcing": forcing,
        "boundary": {"kind": pick("boundary", st.sampled_from(boundaries))},
        "seed": pick("seed", st.integers(0, 2**40)),
        "solver": {"n_x": 33, "probe_points": 9},
        "convergence": {"levels": [33, 65, 129]},
    }


@settings(max_examples=60)
@given(config=configs(),
       command=st.sampled_from(["solve", "verify", "scan-symbols", "convergence"]),
       seed=st.one_of(st.none(), st.integers(-3, 2**31)))
def test_cli_exits_with_a_documented_code(config, command, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        argv = [command, "--config", str(path), "--out", tmp]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) in (0, 2, 3, 4)
