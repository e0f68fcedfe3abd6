"""End-to-end pipeline from a YAML configuration.

The mapping below is everything a run needs.  Outputs land in out/ as a
schema-tagged CSV, a JSON summary, and a manifest keyed by the config
hash, so reruns are verifiable byte for byte.  The demo works in a
temporary directory that is removed when it ends.
"""

import json
import pathlib
import tempfile

import yaml

from rbdsdep.cli import run_pipeline
from rbdsdep.config import load_config

CONFIG = {
    "pipeline": "inf_sequence",
    "grid": {"T": 0.5, "N": 4},
    "problem": {
        "f": "sqrt(abs(y))",
        "growth_c": 2.0,
        "barrier": "-6",
        "terminal": "0.5*w1",
    },
    "envelope": {"box": {"y": [-6.0, 6.0]}, "grid_points": 201},
}

with tempfile.TemporaryDirectory(prefix="rbdsdep-demo-") as tmp:
    workdir = pathlib.Path(tmp)
    config_path = workdir / "config.yaml"
    config_path.write_text(yaml.safe_dump(CONFIG))

    cfg = load_config(str(config_path))
    print(f"pipeline {cfg.pipeline}   config hash {cfg.config_hash[:16]}")

    ok, summary, written = run_pipeline(cfg, out_dir=str(workdir / "out"), threads=2)
    print(f"validators passed: {ok}")
    for path in written:
        print("  wrote", path)

    manifest = json.loads((workdir / "out" / "manifest.json").read_text())
    print("seed", manifest["seed"], "  threads", manifest["threads"])
    print((workdir / "out" / "sequence.csv").read_text().splitlines()[0])
