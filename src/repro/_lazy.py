"""PEP 562 lazy exports for the package inits.

A package init keeps a name a simulator run never executes (asyncio,
the runtime fabrics, the trace reader, the sweep grid) in its
``__all__`` but imports the defining module only when the name is first
read, so ``import repro.scenario`` loads the simulator and nothing else.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], modules: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the package whose globals
    are ``namespace``: ``modules`` maps a module, relative to the
    package, to the names it defines.  The first read of a name imports
    its module and binds the name in the package."""
    package = namespace["__name__"]
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(home[name], package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
