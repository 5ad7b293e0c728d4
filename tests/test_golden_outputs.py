"""Byte-identity gate: the documented outputs keep their SHA-256 digests.

A change meant to keep the program's results (a refactor, a speed-up)
must leave these bytes alone; one that changes them on purpose updates
the digest here and says why in CHANGES.md.
"""
from __future__ import annotations

import csv
import hashlib

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


@pytest.mark.parametrize("config, flags, digest", [
    (FIG1_CONFIG, [], "b2f48bcc96686c2d047b39528b7daff104bc12447c2980d9449c6e0333e52d0c"),
    (ORACLE_CONFIG, ["--oracle"],
     "5b44bd6579347352ccf50975ae567caea5a5169eae0c74534618e8923bd91815"),
    (ORACLE_CONFIG + "beta = 2\n", ["--oracle"],
     "e6ba34730bffb28f2c79a0fe451a5d45c6f7b7f14222d0caaf06e4b33a244ffc"),
    (ORACLE_COUPLING_CONFIG, ["--oracle"],
     "09c960f9b40665af8f49f60d8ceedb0fcc334add301cbd3e547ae8c522cb6fcd"),
    (ORACLE_COUPLING_CONFIG + "beta = 2\n", ["--oracle"],
     "e2dd1e024b3e38be47fbb1d3822911d7eca0282d9e12dc9377ee0ba0f04d372c"),
], ids=["fig1_csv", "oracle_json_vacuum", "oracle_json_beta2", "oracle_coupling_csv_vacuum",
        "oracle_coupling_csv_beta2"])
def test_sweep_bytes(tmp_path, config, flags, digest):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "rows"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), *flags]) == 0
    assert _digest(out.read_bytes()) == digest


@pytest.mark.parametrize("argv, digest", [
    (POINT, "5a919ca32e9c645a62ee396fb490f6ba2afb5214de7104e1791ffa64b276a07e"),
    (POINT + ["--beta", "2"], "349fdb93e5c878a92a77fece299094ba98c23e826dc9d62df8f5554e5e66058a"),
    (["selftest"], "af6720e3a912a1ca967a46f158fbe32d46317220fd665466cd0c3865c812a5e2"),
], ids=["point_vacuum", "point_beta2", "selftest"])
def test_stdout_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == digest


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
