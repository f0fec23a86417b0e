"""Setup shim for environments without PEP 517 build isolation support."""
import os
import re

from setuptools import setup, find_packages


def _version() -> str:
    """Read ``repro.__version__`` without importing the package (no numpy)."""
    path = os.path.join(os.path.dirname(__file__), "src", "repro", "_version.py")
    with open(path) as handle:
        match = re.search(r'__version__\s*=\s*"([^"]+)"', handle.read())
    if match is None:
        raise RuntimeError(f"no __version__ in {path}")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description="TensorDash (MICRO 2020) reproduction",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={
        "dev": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
