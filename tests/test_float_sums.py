"""Every builtin sum() in the package is an audited one.

Python 3.12 made sum() over floats compensated, so a float total that
reaches an output must be a left fold (sim.left_sum) to give the same
bytes on every supported version. This scan fails on any Python as soon
as a sum() call appears outside the audited places below.
"""

import ast
from collections import Counter
from pathlib import Path

import aucrac

PACKAGE = Path(aucrac.__file__).parent

# "module.function" -> (calls, why the total cannot change an output's bytes)
ALLOWED = {
    "bidopt.projected_descent": (1, "the stationarity residual is only compared with the "
                                    "tolerance and checked by a test reference"),
    "core.WorkerNode.live_memory": (1, "feeds only the books check, which has a 1e-6 tolerance"),
    "core._class_counts": (1, "a sum of integer class counts"),
    "sim._Engine._metrics": (1, "counts missed deadlines: a sum of ints"),
    "sim.jain_fairness": (2, "the engine passes integer per-node task counts"),
}


def _sum_calls(path: Path):
    """Yield "module.qualname" once per call of the builtin name `sum`."""
    module = path.stem

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                yield ".".join([module] + scope)
            yield from walk(child, scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), [])


def test_every_builtin_sum_is_on_the_allowlist():
    found = Counter(name for path in PACKAGE.glob("*.py") for name in _sum_calls(path))
    assert found == Counter({name: calls for name, (calls, _why) in ALLOWED.items()})
