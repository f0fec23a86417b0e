"""Package re-exports that import their module on first use (PEP 562).

Every ``repro`` package ``__init__`` names its public objects and the
submodule defining each, and imports none of them: ``from repro.core
import Accelerator`` imports :mod:`repro.core.accelerator` at that
moment, while ``import repro.simulation.cycle_sim`` runs no other
package's code.  A request therefore loads only the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module (absolute name) to the public
    names it provides.  A resolved name is stored in the package's
    namespace, so only its first access reaches ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
