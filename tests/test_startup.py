"""Start-up pins: which modules each CLI command loads, checked in fresh processes.

The test process has long since imported every submodule, so each check
runs `sperner.cli.main` in its own interpreter and reads its sys.modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# Runs the CLI on argv, then prints its exit code and every loaded module on the last line.
PROBE = """
import sys
import sperner.cli
code = sperner.cli.main(sys.argv[1:])
print()
print(code, *sorted(sys.modules))
"""

# Standard-library modules a command has no use for; dataclasses pulls in
# inspect, and json is only for JSON documents.
HEAVY = {"dataclasses", "inspect", "json"}


def loaded(*argv: str) -> set[str]:
    """The modules a fresh process has loaded after running the CLI on argv (which must exit 0)."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return set(modules)


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "sperner" or m.startswith("sperner.")}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A text and a JSON document of one valid system."""
    from sperner import load_fixture, serialize

    root = tmp_path_factory.mktemp("docs")
    system = load_fixture("fig-7-3")
    text, as_json = root / "sys.txt", root / "sys.json"
    text.write_text(serialize(system), encoding="utf-8")
    as_json.write_text(serialize(system, fmt="json"), encoding="utf-8")
    return text, as_json


def test_import_loads_no_submodule():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sperner; print(*sorted(sys.modules))"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = set(done.stdout.split())
    assert package_modules(modules) == {"sperner"}
    assert not modules & HEAVY


def test_submodule_attribute_after_plain_import():
    done = subprocess.run(
        [sys.executable, "-c", "import sperner; print(sperner.search.MAX_ADJ_BYTES)"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    from sperner.search import MAX_ADJ_BYTES

    assert done.stdout == f"{MAX_ADJ_BYTES}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "9", "--k", "4"),
        ("bounds", "--k", "3", "--table", "--max-n", "12"),
    ],
)
def test_bounds_loads_only_bounds(argv):
    modules = loaded(*argv)
    assert package_modules(modules) == {"sperner", "sperner.cli", "sperner.bounds"}
    assert not modules & HEAVY


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "9", "--k", "4"),
        ("construct", "--n", "13", "--k", "6", "--method", "dev-2k1"),
        ("construct", "--n", "8", "--k", "3"),
        ("construct", "--n", "12", "--k", "4", "--method", "latin-lift"),
    ],
)
def test_construct_never_loads_search(argv):
    modules = loaded(*argv)
    assert "sperner.search" not in modules
    assert not modules & HEAVY


def test_verify_loads_formats_and_model(documents):
    text, _ = documents
    modules = loaded("verify", str(text), "--report")
    assert package_modules(modules) == {"sperner", "sperner.cli", "sperner.formats", "sperner.model"}
    assert not modules & HEAVY


def test_search_loads_search_and_model():
    modules = loaded("search", "--n", "7", "--k", "3", "--exact")
    # the search stops at a bound of the bounds module
    assert package_modules(modules) == {
        "sperner",
        "sperner.cli",
        "sperner.search",
        "sperner.model",
        "sperner.bounds",
    }
    assert not modules & HEAVY


def test_search_witness_adds_formats(tmp_path):
    modules = loaded("search", "--n", "7", "--k", "3", "--exact", "-o", str(tmp_path / "w.txt"))
    assert package_modules(modules) == {
        "sperner",
        "sperner.cli",
        "sperner.search",
        "sperner.model",
        "sperner.bounds",
        "sperner.formats",
    }
    assert not modules & HEAVY


def test_fixtures_list_loads_no_search():
    modules = loaded("fixtures", "list")
    assert package_modules(modules) == {
        "sperner",
        "sperner.cli",
        "sperner.fixtures",
        "sperner.formats",
        "sperner.model",
    }
    assert not modules & HEAVY


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "9", "--k", "4", "--format", "json"),
        ("fixtures", "emit", "fig-7-3", "--format", "json"),
    ],
)
def test_json_is_loaded_only_for_json(argv):
    modules = loaded(*argv)
    assert "json" in modules
    assert not modules & (HEAVY - {"json"})


def test_verify_json_document_loads_json(documents):
    _, as_json = documents
    modules = loaded("verify", str(as_json))
    assert "json" in modules
    assert not modules & (HEAVY - {"json"})
