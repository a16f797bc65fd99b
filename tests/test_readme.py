"""The README's library examples run as written, its package root list
is what ``import doslab`` binds, and its CLI synopsis is the parser."""

import argparse
import importlib
import re
import types
from pathlib import Path

import pytest

import doslab
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
    # the error leaves the encoder's range only after the one attack
    assert names["escaped"].size > 0
    assert names["escaped"][0] > names["mismatch_cfg"].attack_slot


def package_root_list():
    """``{module: names}`` from the README's "Package root" bullets."""
    section = README.read_text().split("\n## Package root\n")[1]
    section = section.split("\n## ")[0]
    bullets = re.findall(r"^- `(doslab\.\w+)`: (.*?)(?=^- |\Z)", section,
                         re.MULTILINE | re.DOTALL)
    return {module: re.findall(r"`(\w+)`", body) for module, body in bullets}


def test_the_package_root_is_the_documented_list():
    listed = package_root_list()
    public = {name for name, value in vars(doslab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {name for names in listed.values() for name in names}
    for module, names in listed.items():
        for name in names:
            assert getattr(doslab, name) is getattr(
                importlib.import_module(module), name)


# names the package root dropped; each stays in its module
DROPPED = {
    "doslab.discretize": ["discretize", "controllability_index",
                          "observability_index", "sample_plant_single_rate",
                          "DiscretePlant"],
    "doslab.matrixcore": ["mat_exp", "mat_pow", "solve_linear"],
    "doslab.gains": ["DecayConstants", "build_gain_set",
                     "design_stabilizing_gain"],
    "doslab.conditions": ["ThetaSet", "DecayCertificate", "decay_certificate",
                          "tradeoff_boundary"],
    "doslab.quantizer": ["derive_input_range"],
    "doslab.errors": ["CertificateUnavailableError", "ExpOverflowError",
                      "IllConditionedBasisError", "RiccatiConvergenceError",
                      "SingularMatrixError", "StabilityCertificationError",
                      "UncontrollablePairError", "UnobservablePairError"],
}


@pytest.mark.parametrize("module", sorted(DROPPED))
def test_dropped_names_import_from_their_module(module):
    for name in DROPPED[module]:
        value = getattr(importlib.import_module(module), name)
        assert callable(value)
        assert getattr(doslab, name, None) is not value


def test_doslab_discretize_is_the_module():
    import doslab.discretize as d

    assert isinstance(d, types.ModuleType)
    assert doslab.discretize is d
    assert d.sample_plant is doslab.sample_plant


def cli_synopsis():
    """``{command: options}`` from the README's "CLI" synopsis block."""
    section = README.read_text().split("\n## CLI\n")[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return {line.split()[1]: re.findall(r"\[(--[\w-]+)", line)
            for line in block.splitlines()}


def test_the_cli_synopsis_is_the_parser():
    parser = cli.build_parser()
    commands, = [action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    synopsis = cli_synopsis()
    assert set(synopsis) == set(commands)
    for name, options in synopsis.items():
        parsed = [option for action in commands[name]._actions
                  for option in action.option_strings
                  if option not in ("-h", "--help")]
        assert options == parsed, name
