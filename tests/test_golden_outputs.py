"""Byte-identity gate: the documented outputs keep their SHA-256 digests.

A change meant to keep the program's results (a refactor, a speed-up)
must leave these bytes alone; one that changes them on purpose updates
the digest here and says why in CHANGES.md.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from deltachannel import field
from deltachannel.cli import main

# the Fig-1 config of the README
FIG1_CONFIG = """\
schema_version = 1
eta_over_sigma = 1.0
lambda_a = 1.0
lambda_b = 1.0
L = 6.0
dtau = 6.0
phase_a = 0.0
phase_b = 0.0
bob_bloch = 0.0, 0.0, 1.0
axis.lambda_a = 0.1, 1000, 64, log
axis.lambda_b = 0.1, 1000, 64, log
format = csv
oracle = false
optimizer = false
"""

# the Fig-1 couplings at 16 x 16: 256 --oracle rows share one geometry
ORACLE_COUPLING_CONFIG = FIG1_CONFIG.replace("64", "16")

ORACLE_CONFIG = """\
schema_version = 1
lambda_a = 10
lambda_b = 1
axis.L = 0, 12, 5, linear
axis.dtau = 0, 12, 5, linear
format = json
"""

POINT = ["point", "--lambda-a", "10", "--lambda-b", "1", "--L", "6", "--dtau", "6",
         "--oracle", "--optimize"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SWEEPS = {
    "fig1_csv": (FIG1_CONFIG, [],
                 "6c3b586e40dcaa32a3ed21b39fb890d7ddc6732e1e844b167c2431523cd5ec62"),
    "oracle_json_vacuum": (ORACLE_CONFIG, ["--oracle"],
                           "5b44bd6579347352ccf50975ae567caea5a5169eae0c74534618e8923bd91815"),
    "oracle_json_beta2": (ORACLE_CONFIG + "beta = 2\n", ["--oracle"],
                          "e6ba34730bffb28f2c79a0fe451a5d45c6f7b7f14222d0caaf06e4b33a244ffc"),
    "oracle_coupling_csv_vacuum": (
        ORACLE_COUPLING_CONFIG, ["--oracle"],
        "f3e78a2f3adbd034e96c5217fda0bb04b1487b64a79b14d6a0c87c5e59ce3f60"),
    "oracle_coupling_csv_beta2": (
        ORACLE_COUPLING_CONFIG + "beta = 2\n", ["--oracle"],
        "6a198dc94c2e1f6324356fdc4ceb84b54b3e493b3e03bf85b4c36e383ebdb739"),
}

STDOUTS = {
    "point_vacuum": (POINT, "6776ec2a5a4cda30c3adb604fce5ece699bb8514a06d78bfe8305bf65dc921c3"),
    "point_beta2": (POINT + ["--beta", "2"],
                    "349fdb93e5c878a92a77fece299094ba98c23e826dc9d62df8f5554e5e66058a"),
    "selftest": (["selftest"], "5c6b9aca84779007a5e781f332d33a667b4fe66d079eee8c7c679c252e74cfa0"),
}


@pytest.mark.parametrize("config, flags, digest", SWEEPS.values(), ids=SWEEPS)
def test_sweep_bytes(tmp_path, config, flags, digest):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "rows"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), *flags]) == 0
    assert _digest(out.read_bytes()) == digest


@pytest.mark.parametrize("argv, digest", STDOUTS.values(), ids=STDOUTS)
def test_stdout_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == digest


# runs each job of argv[1] in a fresh interpreter: a sweep config's output
# file, or a command's standard output, as its SHA-256 digest
DIGESTS = """\
import contextlib, hashlib, io, json, pathlib, sys

from deltachannel.cli import main

jobs, work = json.loads(sys.argv[1]), pathlib.Path(sys.argv[2])
digests = {}
for name, (config, argv) in jobs.items():
    printed, out = io.StringIO(), work / name
    if config is not None:
        (work / "sweep.cfg").write_text(config, encoding="utf-8")
        argv = ["sweep", "--config", str(work / "sweep.cfg"), "--output", str(out), *argv]
    with contextlib.redirect_stdout(printed):
        assert main(argv) == 0, argv
    data = out.read_bytes() if config is not None else printed.getvalue().encode("utf-8")
    digests[name] = hashlib.sha256(data).hexdigest()
print(json.dumps(digests))
"""

# numpy's SIMD dispatch and OpenBLAS's kernel, each chosen for this process
# alone as another CPU would choose it
CPU_VARIANTS = {
    "no_avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no_avx512_haswell": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                          "OPENBLAS_CORETYPE": "Haswell"},
}


@pytest.mark.parametrize("variant", CPU_VARIANTS.values(), ids=CPU_VARIANTS)
def test_sweep_and_point_bytes_on_other_cpus(tmp_path, variant):
    """Every sweep, point and selftest digest above, recomputed with numpy's
    AVX-512 kernels off, under OpenBLAS's Haswell or Prescott kernel, or
    both: a call whose rounding follows the CPU fails here on any machine
    those variables can select."""
    jobs = {name: (config, flags) for name, (config, flags, _) in SWEEPS.items()}
    jobs |= {name: (None, argv) for name, (argv, _) in STDOUTS.items()}
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **variant}
    done = subprocess.run([sys.executable, "-c", DIGESTS, json.dumps(jobs), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    expected = {name: job[-1] for name, job in (SWEEPS | STDOUTS).items()}
    assert json.loads(done.stdout) == expected


@pytest.mark.parametrize("beta", [None, 2.0])
def test_oracle_coupling_rows_carry_their_geometry_residual(tmp_path, beta):
    # the residual compares J alone, so all 256 rows of the one geometry
    # carry its bits; when the couplings scaled its terms these rows held
    # 48 distinct values in the vacuum and 16 at beta = 2
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(ORACLE_COUPLING_CONFIG + (f"beta = {beta}\n" if beta else ""), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), "--oracle"]) == 0
    with out.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 256 and {(row["L"], row["dtau"]) for row in rows} == {("6.0", "6.0")}
    expected = field.oracle_residual(field.PairGeometry(6.0, 6.0), field.FieldStateSpec(beta))
    assert {float(row["oracle_residual"]).hex() for row in rows} == {expected.hex()}
