"""The README's library examples run as written."""

import re
from pathlib import Path

from doslab import cli

from .test_cli import bundled

README = Path(__file__).resolve().parents[1] / "README.md"


def library_examples():
    """The ``python`` code blocks of the README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_examples_run(tmp_path, monkeypatch):
    # the examples write trace.csv to the working directory
    monkeypatch.chdir(tmp_path)
    dual = cli.load_scenario(bundled("batch_reactor_dual.json"))
    names = {"A": dual["plant"]["a"], "B": dual["plant"]["b"],
             "C": dual["plant"]["c"], "x0": dual["x0"],
             "mismatch_cfg": cli._build_config(cli.load_scenario(
                 bundled("batch_reactor_mismatch.json")))}
    examples = library_examples()
    assert len(examples) == 3
    for code in examples:
        exec(compile(code, str(README), "exec"), names)
    assert (tmp_path / "trace.csv").exists()
    assert len(names["traces"]) == 10
    assert len(names["bound"]) == len(names["demo"].slots["e_enc"])
