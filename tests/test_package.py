import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picrf
from picrf.corpus import CorpusError, SynthConfig, generate_synthetic
from picrf.features import FeatureError, TemplateConfig
from picrf.training import TrainConfig, TrainingError

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "picrf").glob("*.py"))


def test_every_export_resolves_once():
    """No name repeats in picrf.__all__, and each is defined, so that
    `from picrf import *` works."""
    assert len(set(picrf.__all__)) == len(picrf.__all__)
    namespace = {}
    exec("from picrf import *", namespace)
    assert set(picrf.__all__) <= namespace.keys()


def test_importing_picrf_leaves_scipy_optimize_unloaded():
    """Training runs its own L-BFGS, so no picrf module pulls in
    scipy.optimize and the memory its import takes."""
    modules = ", ".join("picrf." + path.stem for path in MODULES if path.stem != "__init__")
    code = "import sys, picrf, %s; print('scipy.optimize' in sys.modules)" % modules
    env = dict(os.environ, PYTHONPATH=str(Path(picrf.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, skipping __future__ imports
    and import lines that carry `# noqa: F401`. A name counts as used when
    the module loads it or lists it in __all__."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return ["line %d: %s" % (line, name) for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Each module uses every name it imports (a lint check that needs no
    linter installed)."""
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "from sys import argv\n"
        "__all__ = ['argv']\n"
        "print(os.path.sep, dumps)\n"
    )
    assert _unused_imports(source) == ["line 3: loads"]


def _unused_private_names(source: str) -> list[str]:
    """Top-level private names (_name: functions, classes and assigned
    constants, dunders aside) that the module never loads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return ["line %d: %s" % (line, name) for name, line in defined.items() if name not in loaded]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_code(path):
    """Each module uses every private function, class and constant it
    defines at the top level: nothing else may use them."""
    assert _unused_private_names(path.read_text(encoding="utf-8")) == []


def test_dead_private_code_check_sees_names():
    source = (
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _stale():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert _unused_private_names(source) == ["line 2: _UNUSED", "line 6: _stale", "line 9: _Gone"]


def _synthetic(**settings):
    """generate_synthetic, which checks a SynthConfig, of a small one."""
    return generate_synthetic(SynthConfig(**{"entity_type_count": 2, "sentences": 1, **settings}))


# Each settings class, the call that checks its settings, and the error
# that call raises; then each setting annotated int, with its class's call
# and error.
_SETTINGS = [
    (TrainConfig, TrainConfig, TrainingError),
    (TemplateConfig, TemplateConfig, FeatureError),
    (SynthConfig, _synthetic, CorpusError),
]
_INTEGER_FIELDS = [
    (check, error, f.name)
    for cls, check, error in _SETTINGS
    for f in dataclasses.fields(cls)
    if f.type in ("int", int)
]


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize(
    "check, error, name", _INTEGER_FIELDS, ids=[name for _, _, name in _INTEGER_FIELDS]
)
def test_integer_settings_reject_bools_and_fractions(check, error, name, value):
    """Every setting annotated int, now or added later, refuses a bool and
    a fraction with its module's error, named at the start of the message."""
    with pytest.raises(error, match="^%s " % name):
        check(**{name: value})


def test_integer_settings_are_found():
    names = {name for _, _, name in _INTEGER_FIELDS}
    assert {"max_iterations", "set_id", "min_feature_count", "sentences", "seed"} <= names
