"""A request imports only the modules it runs.

Package ``__init__`` files import no submodule: their public names load
on first access (:mod:`repro._lazy`).  The model registry imports a zoo
builder only when that model is built, and loading a stored trace needs
no ``repro.nn``.  Each check runs in a fresh interpreter, because this
test process has imported everything long before.  The checks name
modules that must stay unloaded, never a module count, so adding an
unrelated module breaks none of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules that neither ``import repro.cli`` nor a warm ``simulate`` runs.
NOT_RUN = (
    "repro.nn",
    *(f"repro.models.{name}" for name in (
        "alexnet", "densenet", "gcn", "img2txt", "resnet", "snli",
        "squeezenet", "vgg",
    )),
    "repro.pruning",
    "repro.training.trainer",
    "repro.api.service",
    "repro.jobs",
    "repro.lineage",
    "repro.scale",
    "repro.explore.runner",
    "http.server",
)

SIMULATE = [
    "simulate", "snli", "--epochs", "1", "--batches-per-epoch", "1",
    "--batch-size", "4", "--max-groups", "8",
]


def _run(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter; it must exit 0."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded_after(code: str) -> set:
    """Every ``sys.modules`` name after ``code`` runs in a fresh interpreter."""
    stdout = _run(
        f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    return set(json.loads(stdout.splitlines()[-1]))


def cli_request(argv) -> str:
    """``repro.cli.main(argv)`` with its output discarded; must exit 0."""
    return (
        "import contextlib, io\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({list(argv)!r}) == 0\n"
    )


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache dir holding the trace and layer results of ``SIMULATE``."""
    cache_dir = str(tmp_path_factory.mktemp("warm") / "cache")
    _run(cli_request(SIMULATE + ["--cache-dir", cache_dir]))
    return cache_dir


def test_importing_the_cli_loads_nothing_a_request_may_not_run():
    loaded = loaded_after("import repro.cli")
    assert sorted(loaded.intersection(NOT_RUN)) == []


@pytest.mark.parametrize(
    "output", [[], ["--format", "json"]], ids=["table", "json"])
def test_warm_simulate_loads_nothing_it_does_not_run(warm_cache, output):
    argv = SIMULATE + ["--cache-dir", warm_cache] + output
    loaded = loaded_after(cli_request(argv))
    assert sorted(loaded.intersection(NOT_RUN)) == []
    # The request did run: it loaded the stored trace and the cached layers.
    assert {"repro.engine.engine", "repro.training.tracing"} <= loaded


def test_simulation_imports_without_the_engine():
    loaded = loaded_after("import repro.simulation.cycle_sim")
    assert "repro.simulation.cycle_sim" in loaded
    assert sorted(name for name in loaded if name.startswith("repro.engine")) == []


def test_every_package_export_resolves_and_is_listed():
    packages = sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in SRC.joinpath("repro").rglob("__init__.py")
    )
    problems = json.loads(_run(
        "import importlib, json\n"
        "problems = []\n"
        f"for name in {packages!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = dir(package)\n"
        "    for export in package.__all__:\n"
        "        if export not in listed:\n"
        "            problems.append(f'{name}.{export} not in dir()')\n"
        "        try:\n"
        "            getattr(package, export)\n"
        "        except AttributeError as exc:\n"
        "            problems.append(f'{name}.{export}: {exc}')\n"
        "print(json.dumps(problems))\n"
    ))
    assert len(packages) > 1
    assert problems == []
