"""Each script in demos/ runs to the end, at shrunken sizes, and the
README's Quick start block runs as written."""

import importlib.util
from pathlib import Path

import pytest

import ldptune as lt

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# module constants to shrink per demo
SMALL = {
    "attack_validation": {"K": 6, "N": 500, "RUNS": 2},
    "frontier_export": {"EPS_GRID": "2:4:2", "K": 10, "N": 300, "RUNS": 1,
                        "SHE_TRIALS": 100},
    "protocol_walkthrough": {"K": 4, "N": 300},
    "tradeoff_tuning": {"K": 10},
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_demo_runs(name, monkeypatch, capsys, tmp_path):
    demo = _load(name)
    for attr, value in SMALL[name].items():
        assert hasattr(demo, attr), attr
        monkeypatch.setattr(demo, attr, value)
    if name == "frontier_export":
        monkeypatch.setattr(demo, "OUT", str(tmp_path / "frontier.csv"))
    demo.main()
    out = capsys.readouterr().out
    if name == "frontier_export":
        lines = (tmp_path / "frontier.csv").read_text().splitlines()
        assert lines[0] == ",".join(lt.CSV_HEADER)
        assert len(lines) == 1 + 2 * len(lt.PROTOCOL_NAMES)
    else:
        assert "nan" not in out
    assert out.count("\n") > 5


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["stats"]) == 20
