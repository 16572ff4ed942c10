"""Every function of the package is used inside it: each function named
in a module's ``__all__``, and each module-level ``_`` helper, is loaded
somewhere in ``src/hyperprop`` besides its own ``def``.  The dtype
rule of an input array is spelled in ``core`` alone, not in the package's
other modules nor in ``scripts/``, and neither is a cast to an integer
dtype; a loop over the layers runs in ``propagation`` alone."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperprop"
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
SCRIPTS = {
    f"scripts/{p.name}": ast.parse(p.read_text(), filename=str(p))
    for p in sorted((ROOT / "scripts").glob("*.py"))
}


def exported(tree) -> list[str] | None:
    """The module's ``__all__``, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def loads(node) -> Counter:
    """How often each name is read in ``node``, as a bare name or as an
    attribute (``tasks.auc`` reads ``auc``)."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            counts[sub.attr] += 1
    return counts


def public_functions(tree) -> list[ast.FunctionDef]:
    names = exported(tree)
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]


def private_functions(tree) -> list[ast.FunctionDef]:
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_")]


MODULES = sorted(name for name, tree in TREES.items() if exported(tree) is not None)
PRIVATE = "private"  # the scope of every module's `_` helpers
SCOPES = {
    **{module: {module: public_functions(TREES[module])} for module in MODULES},
    PRIVATE: {module: private_functions(tree) for module, tree in TREES.items()},
}


@pytest.mark.parametrize("module", [*MODULES, PRIVATE])
def test_every_public_function_is_loaded_besides_its_own_def(module):
    everywhere = sum((loads(tree) for tree in TREES.values()), Counter())
    unused = [
        f"{owner}.{f.name}"
        for owner, functions in SCOPES[module].items()
        for f in functions
        if everywhere[f.name] == loads(f)[f.name]
    ]
    assert not unused, f"{module}: nothing in the package calls {unused}"


def test_the_scan_sees_the_package():
    assert {"cli", "core", "nn", "propagation", "tasks"} <= set(MODULES)
    assert "mlp_backward" in [f.name for f in public_functions(TREES["nn"])]
    assert "_tuple_rows" in [f.name for f in SCOPES[PRIVATE]["core"]]


def dtype_kind_reads(tree) -> list[int]:
    """Line of each ``<expr>.dtype.kind`` read in ``tree``."""
    return [
        sub.lineno
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and sub.attr == "kind"
        and isinstance(sub.value, ast.Attribute) and sub.value.attr == "dtype"
    ]


def test_only_core_reads_a_dtype_kind():
    """An index array goes through `core._index_vector` and a feature
    matrix through `core._feature_matrix`; no other module re-spells
    which dtypes they take."""
    assert dtype_kind_reads(TREES["core"])  # the scan sees the rule where it lives
    assert "scripts/prepare_dataset.py" in SCRIPTS
    elsewhere = {
        module: lines
        for module, tree in {**TREES, **SCRIPTS}.items()
        if module != "core" and (lines := dtype_kind_reads(tree))
    }
    assert not elsewhere, f"dtype.kind read outside core at {elsewhere}"


CONVERSIONS = {"asarray": 1, "array": 1, "ascontiguousarray": 1, "astype": 0}


def is_integer_dtype(node) -> bool:
    """Whether ``node`` spells an integer dtype: ``np.<name>``, ``int``
    or a string that ``np.dtype`` reads as one."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "np":
        name = node.attr
    elif isinstance(node, ast.Name) and node.id == "int":
        name = "int"
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        return False
    try:
        return np.dtype(name).kind in "iu"
    except TypeError:
        return False


def integer_casts(tree) -> list[int]:
    """Line of each ``np.asarray``, ``np.array`` or ``np.ascontiguousarray``
    call, or ``<expr>.astype`` call, to an integer dtype in ``tree``."""
    lines = []
    for call in (sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)):
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in CONVERSIONS:
            continue
        if func.attr != "astype" and getattr(func.value, "id", "") != "np":
            continue
        at = CONVERSIONS[func.attr]
        dtypes = [k.value for k in call.keywords if k.arg == "dtype"] + call.args[at : at + 1]
        if any(map(is_integer_dtype, dtypes)):
            lines.append(call.lineno)
    return lines


def test_only_core_casts_to_an_integer_dtype():
    """An index array goes through `core._index_vector`, which refuses
    bools, floats and strings by name; a cast elsewhere would convert
    them silently (labels of 0.9 were scored as class 0).  Creating an
    integer array (``np.arange``, ``np.empty``, ``np.zeros``) is no cast."""
    assert integer_casts(TREES["core"])  # the scan sees the rule where it lives
    assert integer_casts(ast.parse("np.asarray(y, dtype=np.int64); y.astype('i4')")) == [1, 1]
    assert not integer_casts(ast.parse("np.arange(3, dtype=np.int64); np.asarray(x, float)"))
    elsewhere = {
        module: lines
        for module, tree in {**TREES, **SCRIPTS}.items()
        if module != "core" and (lines := integer_casts(tree))
    }
    assert not elsewhere, f"cast to an integer dtype outside core at {elsewhere}"


def layer_loops(tree) -> list[int]:
    """Line of each ``for`` over a ``range`` of ``layers`` or
    ``<expr>.layers`` in ``tree``, as a statement or in a comprehension."""
    loops = [sub for sub in ast.walk(tree) if isinstance(sub, (ast.For, ast.comprehension))]
    return [
        loop.iter.lineno
        for loop in loops
        if isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", "") == "range"
        and any("layers" in (getattr(a, "id", ""), getattr(a, "attr", "")) for a in loop.iter.args)
    ]


def test_only_propagation_loops_over_the_layers():
    """`propagation._panel` is the one evaluation of the recurrence
    Z^l = (1 - alpha) W Z^{l-1} + alpha X; the reference models call it
    with their own W and gamma rather than keep a copy of its loop."""
    assert layer_loops(TREES["propagation"])  # the scan sees the loop where it lives
    elsewhere = {
        module: lines
        for module, tree in {**TREES, **SCRIPTS}.items()
        if module != "propagation" and (lines := layer_loops(tree))
    }
    assert not elsewhere, f"loop over the layers outside propagation at {elsewhere}"
