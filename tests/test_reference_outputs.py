"""The determinism contract: the shipped configs reproduce their reference bytes.

Each shipped config is solved by ``python -m mildbsde.cli solve`` in a fresh
process with one BLAS thread, and the SHA-256 of its ``solve.csv`` and
``manifest.json`` must equal the values below.  A change that is meant to keep
the solver's numbers keeps these bytes.  Only a deliberate reference change
(ROADMAP item 5: paper-faithful constants and consistent refinement) updates
them, and records the old and new values and why the bytes moved.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

REFERENCES = {
    "reaction-diffusion-1d": {
        "solve.csv": "7295ac99543890dd22e5d7cf85d81eb82f7febfdf5c4e4fa04ec9ae601e0a676",
        "manifest.json": "9d32af231b7130fdac06963384d4a5cc97d4cc46607012caaf294bfaa5bca454",
    },
    "spin-chain": {
        "solve.csv": "6bf22831ac06f498bad7540303cebf104414011ea9e24a2f4b522c6ce4bc050c",
        "manifest.json": "48debb79d8c05f378fb0b56be638f40026fc312ce0424d812bb126693f3fe2df",
    },
}


@pytest.mark.parametrize("config", sorted(REFERENCES))
def test_shipped_config_reproduces_reference_bytes(config, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(REPO / "src"))
    out = tmp_path / config
    subprocess.run(
        [sys.executable, "-m", "mildbsde.cli", "solve",
         "--config", str(REPO / "configs" / f"{config}.ini"), "--out", str(out)],
        env=env, cwd=REPO, check=True, capture_output=True,
    )
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REFERENCES[config]
    }
    assert digests == REFERENCES[config]
