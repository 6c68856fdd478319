"""The config schema accepts every config the benchmark and the README ship."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from fragaudit.cli import _load_config

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("scale", [1.0, 0.1])
@pytest.mark.parametrize("name", sorted(WORKLOADS.GENERATORS))
def test_benchmark_workload_configs_load(tmp_path, name, scale):
    path = tmp_path / "config.json"
    WORKLOADS.write_config(name, 7, path, scale)
    assert _load_config(path) == json.loads(path.read_text())


def test_readme_example_config_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"### Example config\s+```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(block)
    assert _load_config(path) == json.loads(block)


def test_readme_measure_table_is_the_code_table():
    from fragaudit.measures import MEASURES

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"\n## Measures\n(.*?)\n## ", readme, re.S).group(1)
    rows = ["| measure | family | formula | source |", "| --- | --- | --- | --- |"]
    rows += [f"| `{name}` | {family} | `{formula}` | {source} |"
             for name, family, _, formula, source in MEASURES]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert table == rows


def test_readme_cli_and_config_keys_name_the_code_ones():
    from fragaudit.cli import COMMANDS, SCHEMA

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\n## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
    assert [line.split()[1] for line in block.splitlines()] == list(COMMANDS)
    keys = re.search(r"\n### Config keys\n(.*?)\n## ", readme, re.S).group(1)
    assert re.findall(r"^- (?:top level: )?`(\w+)`", keys, re.M) == list(SCHEMA)
