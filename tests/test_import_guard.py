"""Each subcommand loads only the sgpv modules it runs, ``import sgpv`` loads
only ``sgpv.errors``, scipy stays off the import path of every subcommand but
two-group screening, and two-group screening loads only scipy's compiled t
ufuncs.

``import scipy.special`` costs 0.23-0.30 s per CLI run (Python 3.11, scipy
1.17, a shared 2-vCPU VM), most of it in its array-API layer, so a top-level
scipy import anywhere on these paths fails here instead of going unseen.
Two-group screening loads the extension ``scipy.special._ufuncs`` on its own
(0.02-0.04 s) and falls back to ``from scipy.special import ...`` where
scipy.special is already loaded, another thread runs, or the extension
cannot be found or loaded. Each test runs in a fresh process, since module
state is per process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sgpv

SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, sys
    import sgpv, sgpv.cli

    tmp = sys.argv[1]
    inputs = {
        "iv.csv": "id,lo,hi\\na,0.1,0.9\\nb,-3,-2\\n",
        "track.csv": "t,lo,hi\\n1,-0.1,0.1\\n2,0.5,1.5\\n",
    }
    for name, text in inputs.items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    design = ["--theta0", "0", "--delta", "0.3", "--n", "16", "--variance", "1"]
    runs = [
        ["compute", os.path.join(tmp, "iv.csv"), "--null-point", "0", "--delta", "0.5"],
        ["design", *design, "--thetas", "0,0.5"],
        ["reliability", *design, "--r", "1", "--thetas", "0.5"],
        ["track", os.path.join(tmp, "track.csv"), "--null-point", "0", "--delta", "0.5"],
        ["simulate", *design, "--replicates", "20", "--theta1", "1", "--r", "1"],
        ["screen", os.path.join(tmp, "iv.csv"), "--null-point", "0", "--delta", "0.5"],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sgpv.cli.main(argv)
        assert code == 0, (argv, code)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(",".join(loaded))
    """
)

# Runs a two-group screen in a fresh process after the setup code in
# argv[2], then prints the screen's output and a JSON line describing the
# scipy modules the process holds.
GROUP_SCREEN = textwrap.dedent(
    """
    import contextlib, io, json, sys
    exec(sys.argv[2])
    import sgpv.cli

    path = sys.argv[1] + "/groups.csv"
    with open(path, "w") as fh:
        fh.write("id,n1,mean1,sd1,n2,mean2,sd2\\n"
                 "a,5,1,1,6,2,1.5\\nb,10,0,1,12,3,1\\nc,2,0.2,3,2,0,1e-3\\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for welch in ([], ["--welch"]):
            assert sgpv.cli.main(["screen", path, "--null-point", "0", "--delta", "0.5",
                                  "--crosstab", *welch]) == 0
    print(out.getvalue(), end="")
    special = sys.modules.get("scipy.special")
    print(json.dumps({
        "special": special is not None,
        "special_is_package": hasattr(special, "__file__"),
        "attribute_on_scipy": "special" in vars(sys.modules["scipy"]),
        "ufuncs": "scipy.special._ufuncs" in sys.modules,
    }))
    """
)

# Prints the bit patterns of stdtr and stdtrit, as the screen loads them,
# on a df grid (1, 2, non-integer Welch values, 1e6) at both tails.
T_GRID = textwrap.dedent(
    """
    import sys
    exec(sys.argv[1])
    import numpy as np
    from sgpv.screening import _t_ufuncs

    stdtr, stdtrit = _t_ufuncs()
    df = np.array([1.0, 2.0, 3.7, 7.912345678, 17.25, 1e6])[:, None]
    t = np.array([-1e3, -40.0, -2.5, -1e-8, 0.0, 1e-8, 2.5, 40.0, 1e3])
    p = np.array([1e-300, 1e-12, 0.025, 0.5, 0.975, 1.0 - 1e-12])
    for values in (stdtr(df, t), stdtrit(df, p)):
        print(" ".join(map(str, values.ravel().view(np.int64).tolist())))
    """
)

# Runs the argv in argv[1] (JSON) and prints the sgpv modules the process holds.
ONE_COMMAND = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import sgpv.cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert sgpv.cli.main(json.loads(sys.argv[1])) == 0
    print(" ".join(sorted(m for m in sys.modules if m.startswith("sgpv."))))
    """
)
TABLE_MODULES = ("_normal", "_table", "cli", "core", "errors", "intervals")
LOADED = {
    "compute": TABLE_MODULES,
    "track": (*TABLE_MODULES, "screening"),
    "screen": (*TABLE_MODULES, "screening"),
    "design": (*TABLE_MODULES, "design"),
    "reliability": (*TABLE_MODULES, "design", "reliability"),
    "simulate": (*TABLE_MODULES, "design", "reliability", "simulate"),
}
SUBMODULES = ("_normal", "core", "design", "intervals", "reliability", "screening", "simulate")

FAST = ""
# No file matches the extension suffixes, so the loader falls back.
NO_EXTENSION = "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES[:] = ['.absent']"
SECOND_THREAD = (
    "import threading; stop = threading.Event(); "
    "threading.Thread(target=stop.wait, daemon=True).start()"
)


def run(*args):
    src = str(Path(sgpv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def group_screen(tmp_path, setup):
    *table, state = run(GROUP_SCREEN, str(tmp_path), setup).splitlines()
    return "\n".join(table), json.loads(state)


def test_no_scipy_module_is_loaded(tmp_path):
    src = str(Path(sgpv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_two_group_screen_skips_the_scipy_special_package(tmp_path):
    _, state = group_screen(tmp_path, FAST)
    assert state == {"special": False, "special_is_package": False,
                     "attribute_on_scipy": False, "ufuncs": True}


def test_fallback_gives_the_same_screen(tmp_path):
    fast, _ = group_screen(tmp_path, FAST)
    fallback, state = group_screen(tmp_path, NO_EXTENSION)
    assert state["special_is_package"]
    assert fallback == fast
    assert fast.count("\n") > 10


def test_second_thread_takes_the_plain_import(tmp_path):
    _, state = group_screen(tmp_path, SECOND_THREAD)
    assert state["special_is_package"]


def test_both_paths_give_the_same_bits():
    fast, fallback = run(T_GRID, FAST), run(T_GRID, NO_EXTENSION)
    assert len(fast.split()) == 6 * 9 + 6 * 6
    assert fast == fallback


def test_scipy_special_and_stats_work_after_the_fast_path():
    out = run(textwrap.dedent(
        """
        import sys
        from sgpv.screening import _t_ufuncs
        stdtr, stdtrit = _t_ufuncs()
        assert "scipy.special" not in sys.modules
        import scipy.special
        from scipy import stats
        assert scipy.special.stdtr is stdtr and scipy.special.stdtrit is stdtrit
        assert scipy.special._ufuncs is sys.modules["scipy.special._ufuncs"]
        assert stats.t.cdf(-2.0, 5.0) == stdtr(5.0, -2.0)
        print(scipy.special.gamma(5.0), stats.t.ppf(0.975, 10.0))
        """
    ))
    assert out.split()[0] == "24.0"


@pytest.mark.parametrize("command", sorted(LOADED))
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command):
    (tmp_path / "iv.csv").write_text("id,lo,hi\na,0.1,0.9\nb,-3,-2\n")
    (tmp_path / "track.csv").write_text("t,lo,hi\n1,-0.1,0.1\n2,0.5,1.5\n")
    null = ["--null-point", "0", "--delta", "0.5"]
    design = ["--theta0", "0", "--delta", "0.3", "--n", "16", "--variance", "1"]
    argv = {
        "compute": ["compute", str(tmp_path / "iv.csv"), *null],
        "track": ["track", str(tmp_path / "track.csv"), *null],
        "screen": ["screen", str(tmp_path / "iv.csv"), *null],
        "design": ["design", *design, "--thetas", "0,0.5"],
        "reliability": ["reliability", *design, "--r", "1", "--thetas", "0.5"],
        "simulate": ["simulate", *design, "--replicates", "20", "--theta1", "1", "--r", "1"],
    }[command]
    loaded = run(ONE_COMMAND, json.dumps(argv)).split()
    assert loaded == sorted("sgpv." + name for name in LOADED[command])


def test_import_sgpv_loads_only_errors_and_no_numpy():
    out = run("import sys, sgpv; print(' '.join(sorted(m for m in sys.modules "
              "if m.partition('.')[0] in ('sgpv', 'numpy'))))")
    assert out.split() == ["sgpv", "sgpv.errors"]


def test_names_and_modules_resolve_on_first_use():
    run(textwrap.dedent(
        f"""
        import sys, sgpv
        assert sgpv.screening.ranked_indices is sys.modules["sgpv.screening"].ranked_indices
        assert set(dir(sgpv)) >= set(sgpv.__all__)
        for name in {SUBMODULES!r}:
            assert getattr(sgpv, name) is sys.modules["sgpv." + name], name
        assert sgpv.std_normal_cdf is sgpv._normal.norm_cdf
        assert sgpv.std_normal_quantile is sgpv._normal.norm_quantile
        assert sorted(sgpv._HOME) == [name for name in sgpv.__all__ if name != "errors"]
        for name in sgpv.__all__:
            getattr(sgpv, name)
        assert "sgpv.cli" not in sys.modules and "sgpv._table" not in sys.modules
        """
    ))
