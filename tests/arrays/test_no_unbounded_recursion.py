"""No Byzantine-facing walker recurses on what a sender chose.

The modules below read payloads a faulty sender controls.  A function
there that calls itself descends as deep as the payload says, so it is
either named in :data:`BOUNDED` with the reason its depth is not the
sender's to choose, or it is a defect: fold with
:func:`repro.arrays.value_array.fold_tree` instead.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

SCANNED = (
    "arrays/encoding.py",
    "arrays/value_array.py",
    "arrays/partial.py",
    "compact/payload.py",
    "compact/driver.py",
    "compact/authenticated_variant.py",
    "compact/crash_variant.py",
    "runtime/network.py",
    "runtime/render.py",
)

#: (module, function) -> why its recursion depth is bounded.
BOUNDED = {
    ("arrays/value_array.py", "_depth_within"): (
        "opens at most `budget` <= MAX_DEPTH plain levels, then raises "
        "ProtocolViolation"
    ),
    ("arrays/value_array.py", "replace_at"): (
        "one call per component of the caller's `path`, not per level of "
        "the array"
    ),
    ("arrays/value_array.py", "iter_paths"): (
        "recurses on the caller's `depth` argument; no payload involved"
    ),
    ("compact/driver.py", "_shape_ok"): (
        "descends exactly `depth` levels, the block length the receiver "
        "expects (<= k + overhead); every variant's override calls it "
        "through super()"
    ),
}


def self_calls(path):
    """Names of functions in ``path`` that call themselves, by bare
    name or through ``self.``."""
    found = set()
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == function.name:
                found.add(function.name)
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == function.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"
            ):
                found.add(function.name)
    return found


def test_only_the_named_bounded_functions_recurse():
    recursive = {
        (module, name)
        for module in SCANNED
        for name in self_calls(SRC / module)
    }
    # Equality, not inclusion: an entry whose function stopped
    # recursing is stale and goes too.
    assert recursive == set(BOUNDED)
