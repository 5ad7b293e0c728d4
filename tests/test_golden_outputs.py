"""Byte-identity gate: the documented outputs keep their SHA-256 digests.

A change meant to keep the program's results (a refactor, a speed-up)
must leave these bytes alone; one that changes them on purpose updates
the digest here and says why in CHANGES.md.
"""
from __future__ import annotations

import hashlib

import pytest

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


@pytest.mark.parametrize("config, flags, digest", [
    (FIG1_CONFIG, [], "b2f48bcc96686c2d047b39528b7daff104bc12447c2980d9449c6e0333e52d0c"),
    (ORACLE_CONFIG, ["--oracle"],
     "6e2e1cd0c4bd1be5e5c7e7a64efbce167cf7613f43f37b1a74d4c13d78850435"),
    (ORACLE_CONFIG + "beta = 2\n", ["--oracle"],
     "b98c9857e8d5de4b9a519a24b7302391a4200c483164ff19dea623de91e83568"),
    (ORACLE_COUPLING_CONFIG, ["--oracle"],
     "7e57676357be5b804e6afced591f86e11e859a815a9df613513503f137409f18"),
    (ORACLE_COUPLING_CONFIG + "beta = 2\n", ["--oracle"],
     "19601f870f2aa90407a92d2ed758f273e8e53349e5e6ba6aeea609ff81b50c99"),
], ids=["fig1_csv", "oracle_json_vacuum", "oracle_json_beta2", "oracle_coupling_csv_vacuum",
        "oracle_coupling_csv_beta2"])
def test_sweep_bytes(tmp_path, config, flags, digest):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "rows"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), *flags]) == 0
    assert _digest(out.read_bytes()) == digest


@pytest.mark.parametrize("argv, digest", [
    (POINT, "4ea843e6ef04a70b8036c5f0f59dde2ac390bd8ce37c7c9de4466bc79b20abfc"),
    (POINT + ["--beta", "2"], "12b88fced203a788ab88ced967269906c8e9dd3ccd79afc120cc9d1d1c90637b"),
    (["selftest"], "721321cc143294632077c16b693adfa79d6adc92a23292847997e06e927c9e0f"),
], ids=["point_vacuum", "point_beta2", "selftest"])
def test_stdout_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == digest
