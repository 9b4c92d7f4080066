"""Every fenced ``python`` block in README.md runs as written without a warning, and its
tables match the code."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from sentrade.adaptive import PipelineParams
from sentrade.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_configuration_table_matches_pipeline_params():
    """The Configuration table lists every PipelineParams field with its default."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    table = {}
    for keys, defaults in re.findall(r"^\| (`[^|]*?) *\| *([^|]*?) *\|", section, re.M):
        for key, default in zip(keys.split(","), defaults.split(",")):
            key, default = key.strip(" `"), default.strip(" `")
            table[key] = None if default == "unset" else getattr(
                parse_config(f"{key} = {default}"), key
            )
    assert table == {field.name: field.default for field in fields(PipelineParams)}
