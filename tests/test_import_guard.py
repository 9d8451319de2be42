"""scipy stays off the import path of every subcommand but two-group screening.

Importing scipy.stats costs about a second per CLI run, so a top-level
scipy import anywhere on these paths fails here instead of going unseen.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def test_no_scipy_module_is_loaded(tmp_path):
    src = str(Path(sgpv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
