"""scipy.special loads on a thermal row's first call and mpmath on the
oracle's first Im J, not at import: a vacuum process loads neither.  No
process loads scipy.integrate: the oracle's Re J is the library's own
Gauss-Legendre rule, in numpy.

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
    return [name for name in ("scipy.special", "scipy.integrate", "mpmath") if name in sys.modules]


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
seen = {"import": loaded()}
run(["point"])
seen["point"] = loaded()
for name, cfg in zip(("vacuum sweep", "beta = 2 sweep"), sys.argv[1:]):
    run(["sweep", "--config", cfg])
    seen[name] = loaded()
status = {}
for name, argv in ORACLE_POINTS:
    status[name] = json.loads(run(["point", "--oracle", "--beta", "2", *argv]))["status"]
    seen[name] = loaded()
print(json.dumps({"seen": seen, "status": status}))
"""

CONFIG = "schema_version = 1\naxis.L = 0, 12, 3, linear\naxis.dtau = 0, 12, 3, linear\n"


def test_only_the_oracle_loads_the_integrators(tmp_path):
    configs = []
    for name, extra in (("vacuum", ""), ("thermal", "beta = 2\n")):
        path = tmp_path / f"{name}.cfg"
        path.write_text(CONFIG + extra, encoding="utf-8")
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
        "beta = 2 sweep": ["scipy.special"],
        # the thermal closed forms load scipy.special; the oracle adds only
        # mpmath, for Im J at dtau != 0
        "dtau = 0 oracle point": ["scipy.special"],
        "oracle point": ["scipy.special", "mpmath"],
        "cancelling oracle point": ["scipy.special", "mpmath"],
    }
    assert result == {"status": dict.fromkeys(
        ("dtau = 0 oracle point", "oracle point", "cancelling oracle point"), "ok")}
