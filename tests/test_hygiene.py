"""Source hygiene without a linter: no dead imports, no unread constants,
no unread private functions or classes, no unread dataclass fields or
methods, no heavy scipy subpackage on the import path."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nullform"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree, skip=None):
    """Every name the module reads: bare names and attribute names, outside
    the subtree `skip` if one is given."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _imported_names(tree):
    """Names bound by module-level imports (``__future__`` excluded)."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    read = _read_names(tree)
    unused = [name for name in _imported_names(tree) if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_constant_is_read():
    constants = [t.id for node in _tree(PACKAGE / "constants.py").body
                 if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)]
    read = set()
    for path in MODULES:
        if path.name != "constants.py":
            read |= _read_names(_tree(path))
    unread = [name for name in constants if name not in read]
    assert constants and not unread, f"constants nothing reads: {unread}"


def test_every_private_def_is_read():
    # a module-level _name def or class must be read somewhere in src/,
    # its own body aside (tests and oracles do not count)
    trees = {path.name: _tree(path) for path in MODULES}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                continue
            read = set()
            for other, t in trees.items():
                read |= _read_names(t, skip=node if other == name else None)
            if node.name not in read:
                dead.append(f"{name}:{node.name}")
    assert not dead, f"private definitions nothing in src/ reads: {dead}"


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(fn, "id", None), getattr(fn, "attr", None)):
            return True
    return False


# Dataclass fields named like an np.ndarray attribute, where they are read.
# A numpy read of the same name (x.T, x.size) would pass for a read of the
# field, so the attribute scan below cannot vouch for them.
NDARRAY_NAMED_FIELDS = {
    "geoptics.py:AnsatzSpec.T": "AnsatzSpec.make_grid, cli.run_picard",
}


def _attributes_read():
    """Every attribute name loaded anywhere in src/ or tests/."""
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    return {node.attr for path in MODULES + tests
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field written but never read as an attribute, in src/ or tests/,
    # is state nothing consumes
    read = _attributes_read()
    fields = {f"{path.name}:{cls.name}.{stmt.target.id}": stmt.target.id
              for path in MODULES for cls in ast.walk(_tree(path))
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)}
    unread = [f for f, name in fields.items() if name not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"
    numpy_named = {f for f, name in fields.items()
                   if hasattr(np.ndarray, name)}
    stray = numpy_named ^ set(NDARRAY_NAMED_FIELDS)
    assert not stray, ("dataclass fields named like an np.ndarray attribute "
                       f"must be listed with their readers: {stray}")


def test_every_method_is_read():
    # a method never read as an attribute, in src/ or tests/, is code
    # nothing calls (dunders are called by the language)
    read = _attributes_read()
    unread = [f"{path.name}:{cls.name}.{fn.name}"
              for path in MODULES for cls in ast.walk(_tree(path))
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in read]
    assert not unread, f"methods nothing reads: {unread}"


def test_cli_import_loads_no_heavy_scipy():
    # scipy.interpolate alone once cost ~0.4 s and 30 MB in every process;
    # only scipy.sparse (RLS) may come in with the package
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import json, sys, nullform.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.special",
             "scipy.optimize")
    loaded = [m for m in json.loads(out)
              if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert not loaded, f"import nullform.cli loads {loaded}"


def _pipeline_runners(tree):
    """Names of the functions cli.PIPELINE_RUNNERS dispatches."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PIPELINE_RUNNERS"
                for t in node.targets):
            return {v.id for v in node.value.values}
    return set()


def _only_raises_not_implemented(fn):
    body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                       and isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in _read_names(body[0]))


def test_every_parameter_is_read():
    # a parameter no caller needs to set and the body never reads is a
    # dead option; the pipeline runners share one dispatch signature
    runners = _pipeline_runners(_tree(PACKAGE / "cli.py"))
    unread = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _only_raises_not_implemented(fn):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [v for v in (a.vararg, a.kwarg) if v]]
            if path.name == "cli.py" and fn.name in runners:
                params = [p for p in params
                          if p not in ("cfg", "n", "outdir")]
            read = set()
            for stmt in fn.body:
                read |= _read_names(stmt)
            unread += [f"{path.name}:{fn.name}({p})" for p in params
                       if p not in ("self", "cls") and not p.startswith("_")
                       and p not in read]
    assert not unread, f"parameters their function never reads: {unread}"
