"""Start-up budget: scipy and networkx stay off every entry point's import path.

Each study run is a short, fresh process, so whatever ``import repro`` pulls
in is paid before the first trial.  ``scipy.stats`` (~1 s) and ``networkx``
(~0.15 s) are needed only by confidence intervals and by a few topology
helpers, so they load on first use.  Each check runs in a fresh interpreter:
the test process itself has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.dse",
    "repro.store.service",
    "repro.experiments.parallel",
)

#: Python expression, evaluated inside the fresh interpreter.
HEAVY_LOADED = "{name: name in sys.modules for name in ('scipy', 'networkx')}"


def run_fresh(snippet: str) -> dict:
    """Run ``snippet`` in a new interpreter; it prints one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout)


class TestImportBudget:
    def test_entry_points_load_neither_scipy_nor_networkx(self):
        imports = "; ".join(f"import {module}" for module in ENTRY_POINTS)
        state = run_fresh(f"import json, sys; {imports}; print(json.dumps({HEAVY_LOADED}))")
        assert state == {"scipy": False, "networkx": False}

    def test_confidence_interval_loads_scipy_on_first_call(self):
        state = run_fresh(
            "import json, sys\n"
            "from repro.stats.confidence import confidence_interval\n"
            f"before = {HEAVY_LOADED}\n"
            "ci = confidence_interval([1.0, 2.0, 4.0])\n"
            f"print(json.dumps({{'before': before, 'after': {HEAVY_LOADED},"
            " 'stats': 'scipy.stats' in sys.modules,"
            " 'ci': [ci.estimate, ci.lower, ci.upper]}))\n"
        )
        assert state["before"]["scipy"] is False
        assert state["after"]["scipy"] is True
        assert state["stats"] is False  # scipy.special suffices
        # The same Student-t quantile as scipy.stats.t.ppf gave at import time.
        assert state["ci"] == [2.3333333333333335, -1.4612497002634255, 6.1279163669300925]

    def test_random_connected_loads_networkx_on_first_call(self):
        state = run_fresh(
            "import json, sys\n"
            "from repro.network.topology import random_connected\n"
            f"before = {HEAVY_LOADED}\n"
            "edges = random_connected(6, 0.5, 3).edges\n"
            f"print(json.dumps({{'before': before, 'after': {HEAVY_LOADED}, 'edges': edges}}))\n"
        )
        assert state["before"]["networkx"] is False
        assert state["after"]["networkx"] is True
        # The same G(n, p) draw as when networkx loaded at import time.
        assert [tuple(edge) for edge in state["edges"]] == [
            (0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0), (0, 4), (4, 0),
            (0, 5), (5, 0), (1, 2), (2, 1), (2, 3), (3, 2), (2, 5), (5, 2),
            (3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4),
        ]
