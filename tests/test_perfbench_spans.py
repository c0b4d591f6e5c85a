"""Every ``hqoc`` name the benchmark reads exists in ``hqoc``.

``perfbench/spans.FUNCTION_SPANS`` lists the functions the traced run wraps;
``perfbench/workloads.py`` and ``perfbench/spans.py`` also read module
attributes (``simulator.VACUUM_TAIL_RADIUS``, ...) and state and grid members.
A refactor that drops or renames one of them fails here, not only in the
benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hqoc.simulator import HybridState, centered_grid, vacuum_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


@functools.cache
def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_spans() -> dict:
    return _spans().FUNCTION_SPANS


def _module_attributes() -> list[tuple[str, str, str]]:
    """(file, hqoc module, attribute) for each ``alias.attr`` read off an imported hqoc module.

    Covers ``from hqoc import simulator`` (``simulator.x``), ``import hqoc``
    (``hqoc.x``) and ``from hqoc.simulator import x``.
    """
    found = set()
    for name in ("workloads.py", "spans.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        aliases = {}  # local name -> hqoc module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hqoc":
                for a in node.names:
                    aliases[a.asname or a.name] = f"hqoc.{a.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hqoc."):
                found.update((name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "hqoc" or a.name.startswith("hqoc."):
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    found.add((name, aliases[node.value.id], node.attr))
    return sorted(found)


@pytest.mark.parametrize("span,target", sorted(_function_spans().items()))
def test_function_span_target_resolves(span, target):
    module, attr = target
    obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(obj), span


def test_module_attribute_scan_finds_the_known_reads():
    reads = {(module, attr) for _file, module, attr in _module_attributes()}
    assert {("hqoc.simulator", "VACUUM_TAIL_RADIUS"), ("hqoc.simulator", "apply_circuit"),
            ("hqoc.cli", "main"), ("hqoc.moments", "circuit_window_trajectory")} <= reads


@pytest.mark.parametrize("source,module,attr", _module_attributes())
def test_module_attribute_resolves(source, module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{source} reads {module}.{attr}"


# Members of a state and its grids that perfbench/spans.py reads in its
# support measurements (``position_cells``, ``band_share``) and its
# ``apply_circuit`` wrapper.
STATE_MEMBERS = ("amps", "grids", "m", "r", "position_density")
GRID_MEMBERS = ("dx", "xs", "momenta", "p_max")


def test_state_and_grid_members_resolve():
    grid = centered_grid(256, 0.1)
    state = vacuum_state(1, 1, [grid])
    assert [a for a in STATE_MEMBERS if not hasattr(state, a)] == []
    assert [a for a in GRID_MEMBERS if not hasattr(grid, a)] == []
    assert callable(state.position_density)


def test_band_share_reads_mode_a_on_array_axis_a():
    # spans.band_share FFTs ``state.amps`` along ``axis=mode``: mode a must be array axis a
    spans = _spans()
    grids = (centered_grid(256, 0.1), centered_grid(192, 0.2))
    x0, x1 = grids[0].xs, grids[1].xs
    psi0 = np.exp(-x0 ** 2 / (2 * 0.3 ** 2) + 2j * x0)  # narrow, kicked: a wide band
    psi1 = np.exp(-x1 ** 2 / (2 * 2.5 ** 2))  # wide: a narrow band
    amps = np.einsum("i,j,k->ijk", psi0, psi1, np.array([0.6, 0.8j]))
    state = HybridState(2, 1, grids, amps / np.linalg.norm(amps))
    shares = []
    for a, grid in enumerate(grids):
        want = spans._radius(np.fft.fftshift(grid.momenta), np.fft.fftshift(state.momentum_density(a)))
        shares.append(spans.band_share(state, a))
        assert shares[-1] == pytest.approx(want / grid.p_max, rel=1e-12)
    assert shares[0] > 2 * shares[1]  # the modes differ, so a swapped axis cannot pass
