"""The package namespace loads its submodules on first use, and each CLI
command imports only the modules it runs."""

import importlib
import json
import subprocess
import sys

import pytest

import albert

# Run in a fresh interpreter: with no argv, ``import albert``; otherwise one
# ``cli.main(argv)``.  Prints the albert modules then loaded, which of the
# argument parser's modules are loaded, and whether the structure tensors
# were built.
FOOTPRINT = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from albert import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
else:
    import albert
builder = getattr(sys.modules.get("albert.jordan"), "_structure_tensors", None)
print(json.dumps({
    "albert": sorted(m for m in sys.modules if m.split(".")[0] == "albert"),
    "parser": sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules),
    # None unless the tensors come from a builder that caches them
    "tensors": builder.cache_info().currsize > 0 if hasattr(builder, "cache_info") else None,
}))
"""

MATRIX = json.dumps({"p": 1.0, "m": 2.0, "n": 3.0, "a": [0.5] + [0.0] * 7,
                     "b": [0.0] * 8, "c": [0.0, 0.25] + [0.0] * 6})
NULL_MOMENTUM = json.dumps({"s": 1.0, "t": 1.0, "z": [0.0] * 7 + [1.0]})
CLI_SHARED = {"cli", "config", "exceptions", "jordan", "octonion"}
# Each command, its payload and the albert modules it loads besides CLI_SHARED.
COMMANDS = [
    ("charpoly", MATRIX, {"cubic"}),
    ("decompose", MATRIX, {"cubic", "spectral"}),
    ("diagonalize", MATRIX, {"cubic", "spectral", "f4"}),
    ("classify", MATRIX, {"dirac"}),
    ("oracle", MATRIX, {"oracle"}),
    ("dirac", NULL_MOMENTUM, {"dirac"}),
]

_FOOTPRINTS = {}


def footprint(child_env, argv) -> dict:
    """FOOTPRINT's report for argv, run once per argv in this session."""
    key = json.dumps(argv)
    if key not in _FOOTPRINTS:
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT, key],
            capture_output=True, text=True, timeout=120, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        _FOOTPRINTS[key] = json.loads(proc.stdout)
    return _FOOTPRINTS[key]


def loaded(child_env, argv) -> set[str]:
    return set(footprint(child_env, argv)["albert"])


def modules(*names) -> set[str]:
    return {"albert", *(f"albert.{name}" for name in names)}


class TestFootprint:
    def test_import_albert(self, child_env):
        assert loaded(child_env, []) == modules("config", "exceptions")

    @pytest.mark.parametrize("command, payload, own", COMMANDS)
    def test_cli_command(self, child_env, command, payload, own):
        argv = [command, "--inline", payload]
        assert loaded(child_env, argv) == modules(*CLI_SHARED, *own)

    @pytest.mark.parametrize("command, payload, own", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_no_argument_parser_library(self, child_env, command, payload, own):
        assert footprint(child_env, [command, "--inline", payload])["parser"] == []

    @pytest.mark.parametrize("command, payload, own", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_structure_tensors_only_for_products(self, child_env, command, payload, own):
        built = footprint(child_env, [command, "--inline", payload])["tensors"]
        assert built == (command in ("decompose", "diagonalize"))


class TestLazyNamespace:
    def test_every_name_resolves_to_its_module_object(self):
        assert albert.__all__[-1] == "__version__"
        for name in albert.__all__[:-1]:
            home = importlib.import_module(f"albert.{albert._HOME[name]}")
            assert getattr(albert, name) is getattr(home, name), name
        assert set(albert.__all__) <= set(dir(albert))

    def test_star_import(self):
        namespace = {}
        exec("from albert import *", namespace)
        assert set(albert.__all__) <= set(namespace)
        assert namespace["decompose"] is importlib.import_module("albert.spectral").decompose

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            albert.nonexistent  # noqa: B018

    def test_submodule_by_from_import(self):
        from albert import oracle

        assert oracle is sys.modules["albert.oracle"]
        assert oracle.modified_char_check is albert.modified_char_check
