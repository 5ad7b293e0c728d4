"""mpmath loads on the oracle's first Im J, not at import, and no sweep or
point loads numpy, --oracle included: a sweep or point without --oracle
loads nothing, in the vacuum or at any beta, on the Matsubara route
(beta <= 2.745) or the image route, whose Faddeeva function is the
library's own continued fraction, and --oracle adds mpmath alone, at
dtau != 0.  The oracle's Re J is the library's own Gauss-Legendre rule in
math, and a log axis is decimal arithmetic, so a Fig-1 sweep loads nothing
either.  No process loads any scipy module, selftest included.

conftest.py imports mpmath into the test process itself, so the check runs
in a fresh interpreter with only src/ on the path.
"""
from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """\
import contextlib, io, json, sys

import deltachannel
from deltachannel import cli


def loaded():
    # "scipy" is in sys.modules as soon as any scipy module is
    names = ("numpy", "scipy", "scipy.special", "scipy.integrate", "mpmath")
    return [name for name in names if name in sys.modules]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


# at dtau = 0 Im J is exactly 0 and only the Re J rule runs, so this point
# goes first: sys.modules keeps what each point loads.  Every other Im J is the
# 50-digit trapezoid rule's, the one user of mpmath, also at (0, 8), where
# it cancels in float64 to 1.3e-13.
ORACLE_POINTS = (("dtau = 0 oracle point", ["--dtau", "0"]), ("oracle point", []),
                 ("cancelling oracle point", ["--L", "0", "--dtau", "8"]))
vacuum, beta_2, beta_100, log = sys.argv[1:]
seen = {"import": loaded()}
run(["point"])
seen["point"] = loaded()
for name, cfg in (("vacuum sweep", vacuum), ("beta = 2 sweep", beta_2), ("log-axis sweep", log)):
    run(["sweep", "--config", cfg])
    seen[name] = loaded()
# J(0, 0, beta) takes the Matsubara route up to beta = 2.7459
run(["point", "--beta", "2.745", "--L", "0", "--dtau", "0"])
seen["beta = 2.745 point"] = loaded()
# every argument of this point takes the image route
run(["point", "--beta", "100"])
seen["beta = 100 point"] = loaded()
status = {}
for name, argv in ORACLE_POINTS:
    status[name] = json.loads(run(["point", "--oracle", "--beta", "2", *argv]))["status"]
    seen[name] = loaded()
run(["sweep", "--config", beta_100])
seen["beta = 100 sweep"] = loaded()
print(json.dumps({"seen": seen, "status": status}))
"""

CONFIG = "schema_version = 1\naxis.L = 0, 12, 3, linear\naxis.dtau = 0, 12, 3, linear\n"
# the Fig-1 couplings at 8 x 8
LOG_CONFIG = ("schema_version = 1\naxis.lambda_a = 0.1, 1000, 8, log\n"
              "axis.lambda_b = 0.1, 1000, 8, log\n")


def test_only_the_oracle_loads_the_integrators(tmp_path):
    configs = []
    for name, text in (("vacuum", CONFIG), ("beta_2", CONFIG + "beta = 2\n"),
                       ("beta_100", CONFIG + "beta = 100\n"), ("log", LOG_CONFIG)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        configs.append(str(path))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, *configs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    seen = result.pop("seen")
    assert seen == {
        "import": [],
        "point": [],
        "vacuum sweep": [],
        "beta = 2 sweep": [],
        "log-axis sweep": [],
        "beta = 2.745 point": [],
        "beta = 100 point": [],
        # the oracle adds mpmath, for Im J at dtau != 0, and nothing for Re J
        "dtau = 0 oracle point": [],
        "oracle point": ["mpmath"],
        "cancelling oracle point": ["mpmath"],
        # what the oracle points loaded, and nothing more
        "beta = 100 sweep": ["mpmath"],
    }
    assert result == {"status": dict.fromkeys(
        ("dtau = 0 oracle point", "oracle point", "cancelling oracle point"), "ok")}


def test_selftest_loads_no_scipy():
    script = ("import contextlib, io, sys\n"
              "from deltachannel import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['selftest']) == 0\n"
              "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
