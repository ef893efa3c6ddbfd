"""The README's examples run as written: its Python quick start gives the
results its comments state, and each ``mpcorr`` command of its shell blocks
exits 0.  A renamed public name or CLI flag fails here."""

import re
import shlex
import types
from pathlib import Path

import pytest

import mpcorr
from mpcorr.cli import main
from mpcorr.measures import COLUMNS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def mpcorr_commands():
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("mpcorr "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_python_quick_start():
    (block,) = code_blocks("python")
    namespace = {}
    exec(block, namespace)
    mc = namespace["mc"]
    assert mc.e_d(namespace["dec3"]) == pytest.approx(1.0, abs=1e-12)
    assert mc.classify_two_qubit(namespace["rho"]).category is mc.Category.MIXED_ENTANGLED


def test_shell_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = mpcorr_commands()
    assert len(commands) == 7
    for argv in commands:               # in README order: the first writes the file the next three read
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_available_outputs_are_the_sweep_outputs():
    (listed,) = re.findall(r"^Available outputs: (.*?)\. ", README, flags=re.M | re.S)
    assert re.findall(r"`(\w+)`", listed) == list(COLUMNS)


def test_star_import():
    exec("from mpcorr import *", {})    # AttributeError for a name in __all__ that the package lacks


def test_all_lists_every_public_name():
    # the reverse of test_star_import: the package binds no public name, bar its
    # submodules, that __all__ leaves out
    bound = {name for name, value in vars(mpcorr).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(mpcorr.__all__) == bound
