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
     "1263b079998a06f9408aead86734f3bfeab2c84a6a211ef24ee22a40f0981be8"),
    (ORACLE_CONFIG + "beta = 2\n", ["--oracle"],
     "835ac7da2aff6875a206253f0405dc199af64defc3c446ba3f210b07fcfda314"),
    (ORACLE_COUPLING_CONFIG, ["--oracle"],
     "5ec1781502b0072894efe5903f181408e5ef2ec7171bb00c886734c37c3151ea"),
    (ORACLE_COUPLING_CONFIG + "beta = 2\n", ["--oracle"],
     "0424c6802b620ca3f94c4e8eb1b2d0569cc6ce46dfb0501b8b28886f99577cf9"),
], ids=["fig1_csv", "oracle_json_vacuum", "oracle_json_beta2", "oracle_coupling_csv_vacuum",
        "oracle_coupling_csv_beta2"])
def test_sweep_bytes(tmp_path, config, flags, digest):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "rows"
    assert main(["sweep", "--config", str(cfg), "--output", str(out), *flags]) == 0
    assert _digest(out.read_bytes()) == digest


@pytest.mark.parametrize("argv, digest", [
    (POINT, "fadbe1d86dc7c2b47cdb3392ccd63669a769caec952f0b36046940b90eb65e59"),
    (POINT + ["--beta", "2"], "42409c97666f4b7e39593f4374fd3649b20f671bffc7a414b44106875b6970cd"),
    (["selftest"], "e733eddecab91a251cb6075ce869b818add3dbcdbde6e3da73c7fce2c132c16e"),
], ids=["point_vacuum", "point_beta2", "selftest"])
def test_stdout_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == digest
