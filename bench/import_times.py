"""Print, as one JSON line, how long ``import gravdicke.cli`` takes and how much
of it numpy and scipy.integrate account for (each including its own imports).

Run with ``PYTHONPATH=src`` from the repository root.  A meta-path finder
times each watched module's ``exec_module``.  ``python -X importtime`` is not
used because it misses modules loaded through ``importlib.import_module``,
which is how scipy's lazy ``__getattr__`` loads ``scipy.integrate`` for
``from scipy import integrate``.
"""

import importlib.abc
import importlib.util
import json
import sys
import time

WATCHED = ("numpy", "scipy.integrate")


class ExecTimer(importlib.abc.MetaPathFinder):
    def __init__(self) -> None:
        self.seconds = {name: 0.0 for name in WATCHED}

    def find_spec(self, name, path=None, target=None):
        if name not in WATCHED:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(name)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module):
            t0 = time.perf_counter()
            try:
                exec_module(module)
            finally:
                self.seconds[name] = time.perf_counter() - t0

        spec.loader.exec_module = timed
        return spec


def main() -> None:
    timer = ExecTimer()
    sys.meta_path.insert(0, timer)
    t0 = time.perf_counter()
    import gravdicke.cli

    total = time.perf_counter() - t0
    print(json.dumps({"gravdicke.cli": total, **timer.seconds,
                      "file": gravdicke.cli.__file__}))


if __name__ == "__main__":
    main()
