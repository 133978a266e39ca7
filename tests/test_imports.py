"""Static checks, by the standard-library ast only: every name a module of
chamberflow imports is referenced in that module (the package __init__ is
exempt, since its imports are the re-exported API), every private
top-level function or class is used somewhere in the library, no
module-level name is bound to a mutable dict, list or set (caches go
through functools.cache), the library reads no NumPy name that
NumPy 1.24, the declared floor, lacks, no random stream is rewound
by assigning its bit generator's state, no module imports SciPy
outside a function or class body, so that importing the package and its
CLI loads no SciPy module (nor do the word routines at n = 3, nor the
density routines), only `word_spectrum` and `stable_word_lambdas` run the
word engine `_necklace_sweep`, and the density certificate replay reads
none of the routines that built the certificate."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chamberflow"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    offenders = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [_unused_imports(ast.parse(path.read_text()))]
        if unused
    }
    assert offenders == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, c)\n")
    assert _unused_imports(tree) == ["d (line 3)", "os (line 1)"]


def _private_defs(trees):
    """(module, node) of each private top-level function or class."""
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _dead_private_helpers(trees):
    """Private top-level definitions that no code outside their own body
    reads, as a name or as an attribute; an import alone is not a use."""
    refs = {}
    for tree in trees.values():
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Name):
                refs.setdefault(ref.id, []).append(ref)
            elif isinstance(ref, ast.Attribute):
                refs.setdefault(ref.attr, []).append(ref)
    dead = []
    for module, node in _private_defs(trees):
        own = {id(inner) for inner in ast.walk(node)}
        if all(id(ref) in own for ref in refs.get(node.name, [])):
            dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_every_private_helper_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _private_defs(trees)
    assert _dead_private_helpers(trees) == []


def test_the_check_sees_a_dead_private_helper():
    trees = {
        "a": ast.parse("def _used():\n    pass\n\ndef _recursive(k):\n    return _recursive(k - 1)\n"),
        "b": ast.parse("from a import _used, _recursive\nimport a\n\nclass _Unused:\n    pass\n\nprint(a._used)\n"),
    }
    assert _dead_private_helpers(trees) == ["a._recursive", "b._Unused"]


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_mutable_container(value):
    """A dict, list or set display or comprehension, or a dict()/list()/set() call."""
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id in {"dict", "list", "set"}


def _module_level_containers(tree):
    """Names bound to a mutable container outside any function or class body."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if node.value is not None and _is_mutable_container(node.value):
                found += [f"{t.id} (line {node.lineno})" for t in targets if isinstance(t, ast.Name)]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # module-level if/try/with/for blocks still bind module names
            stack.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))
    return sorted(found)


def test_no_module_level_mutable_container():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        for names in [_module_level_containers(ast.parse(path.read_text()))]
        if names
    }
    assert offenders == {}


def test_the_check_sees_a_module_level_container():
    tree = ast.parse(
        "A = {}\nB: list = []\nC = set()\nD = (1, 2)\nE = frozenset()\n"
        "try:\n    F = dict(a=1)\nexcept ImportError:\n    F = None\n"
        "G = {i: i for i in range(3)}\n"
        "def f():\n    local = []\n    return local\n"
        "class K:\n    attr = []\n"
    )
    assert _module_level_containers(tree) == ["A (line 1)", "B (line 2)", "C (line 3)", "F (line 7)", "G (line 10)"]


# names NumPy added in 2.0, at the top level and in numpy.linalg
NUMPY_2_NAMES = {
    "np": {
        "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
        "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
        "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
        "matvec", "permute_dims", "pow", "unstack", "vecdot", "vecmat",
    },
    "linalg": {
        "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer",
        "svdvals", "tensordot", "trace", "vecdot", "vector_norm",
    },
}


def _numpy_2_names(tree):
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute):
            owner = owner.attr if isinstance(owner.value, ast.Name) and owner.value.id == "np" else None
        elif isinstance(owner, ast.Name):
            owner = owner.id
        if node.attr in NUMPY_2_NAMES.get(owner, ()):
            found.append(f"{owner}.{node.attr} (line {node.lineno})")
    return sorted(found)


def test_no_numpy_2_only_names():
    offenders = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        for names in [_numpy_2_names(ast.parse(path.read_text()))]
        if names
    }
    assert offenders == {}


def test_the_check_sees_a_numpy_2_name():
    tree = ast.parse("np.sqrt(np.vecdot(a, a))\nnp.linalg.vector_norm(a)\nnp.trace(a)\n")
    assert _numpy_2_names(tree) == ["linalg.vector_norm (line 2)", "np.vecdot (line 1)"]


def _stream_rewinds(tree):
    """Lines that assign to some_generator.bit_generator.state."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "state"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "bit_generator"
    )


def test_no_module_rewinds_a_random_stream():
    offenders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        for lines in [_stream_rewinds(ast.parse(path.read_text()))]
        if lines
    }
    assert offenders == {}


def test_the_check_sees_a_stream_rewind():
    tree = ast.parse(
        "saved = rng.bit_generator.state\n"
        "rng.bit_generator.state = saved\n"
        "a, self.rng.bit_generator.state = 1, saved\n"
        "rng.state = saved\n"
    )
    assert _stream_rewinds(tree) == [2, 3]


def _module_level_scipy_imports(tree):
    """Lines that import scipy or a scipy submodule outside any function or class body."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        else:
            # module-level if/try/with/for blocks still run at import
            stack.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_scipy_at_module_level():
    offenders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        for lines in [_module_level_scipy_imports(ast.parse(path.read_text()))]
        if lines
    }
    assert offenders == {}


def test_the_check_sees_a_module_level_scipy_import():
    tree = ast.parse(
        "import scipy\n"
        "import numpy as np, scipy.linalg as sla\n"
        "from scipy.optimize import nnls\n"
        "try:\n    from scipy import spatial\nexcept ImportError:\n    spatial = None\n"
        "import scipyx\n"
        "from .scipy import a\n"
        "def f():\n    from scipy.linalg import expm\n    return expm\n"
        "class K:\n    import scipy\n"
    )
    assert _module_level_scipy_imports(tree) == [1, 2, 3, 5]


def test_importing_the_package_and_its_cli_loads_no_scipy_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys, chamberflow, chamberflow.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_word_routines_load_no_scipy_module_at_n_3():
    # every cone hull at n = 3 is simplicial, so cone_interior needs no LP
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import chamberflow as cf\n"
        "from chamberflow.linalg_core import project_to_sl, random_rotation\n"
        "def seed(s, logs):\n"
        "    h = random_rotation(np.random.default_rng(s), 3)\n"
        "    return project_to_sl(h @ np.diag(np.exp(logs)) @ h.T).entries\n"
        "fam = cf.build_schottky([seed(168, [7.0, 2.0, -9.0]), seed(169, [9.0, -2.0, -7.0])], 0.15, 0.15)\n"
        "theta = cf.CartanVector(sum(L.lam.coords / np.linalg.norm(L.lam.coords) for L in fam.generators))\n"
        "probe = cf.jordan_line_density_probe(fam, theta, (10.0, 190.0), 8, delta0=0.5)\n"
        "assert probe['theta_interior'] and probe['hits'] > 1, probe\n"
        "assert len(cf.limit_cone(fam, 6).hull) == 2\n"
        "cf.sign_group(fam, 5)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_density_routines_load_no_scipy_module():
    # a d = k = 1 pair like the density benchmark's, and PLANAR (d = 2, k = 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import chamberflow as cf\n"
        "T = cf.TorusPoint\n"
        "pair = [T([1.0], [-0.27747906604368544]), T([0.44504186791262923], [2.1234898018587334])]\n"
        "planar = [T([1.0, 0.0], [0.3]), T([1.0, 1.0], [(5 ** 0.5 - 1) / 2]),\n"
        "          T([2 ** 0.5, 3 ** 0.5 - 1.0], [0.0])]\n"
        "certs = [cf.select_dense_subgroup_generators(pair, 0.1, [(-1.0, 1.0)]),\n"
        "         cf.semigroup_cone_density(pair, 0.1, [(0.0, 3.0)])[1],\n"
        "         cf.select_dense_subgroup_generators(planar, 0.6, [(0.0, 2.0), (0.0, 2.0)]),\n"
        "         cf.semigroup_cone_density(planar, 0.6, [(0.0, 2.0), (0.0, 2.0)])[1]]\n"
        "assert all(c.covered and cf.verify_certificate(c) for c in certs)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


REPLAY = ("verify_certificate", "_provenance_holds")
BUILDERS = {"_near_pairs", "_coverage", "_generated_group"}


def _builders_read_by(tree, roots):
    """The names in BUILDERS that the top-level functions roots read, as a
    name or as an attribute, directly or through the module's other
    top-level functions that they read."""
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    seen, todo, found = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            read = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if read in BUILDERS:
                found.add(read)
            elif read in defs:
                todo.append(read)
    return sorted(found)


def test_the_density_replay_reads_no_builder():
    tree = ast.parse((SRC / "torus_density.py").read_text())
    defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(REPLAY) | BUILDERS <= defs
    assert _builders_read_by(tree, REPLAY) == []


def test_the_check_sees_a_replay_that_reads_a_builder():
    tree = ast.parse(
        "def _coverage(points):\n    return True\n\n"
        "def _helper(points):\n    return _coverage(points)\n\n"
        "def verify_certificate(cert):\n    return _helper(cert.points)\n\n"
        "def _provenance_holds(cert, mod):\n    return mod._generated_group is None\n\n"
        "def unrelated():\n    return _near_pairs\n"
    )
    assert _builders_read_by(tree, REPLAY) == ["_coverage", "_generated_group"]


ENGINE = "_necklace_sweep"


def _engine_readers(trees):
    """module.definition of each top-level function or class that reads
    _necklace_sweep, as a name or as an attribute, and the module alone
    for a read outside any definition."""
    found = set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = module
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{top.name}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == ENGINE) or (
                    isinstance(node, ast.Attribute) and node.attr == ENGINE
                ):
                    found.add(owner)
    return sorted(found)


def test_one_word_engine():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _engine_readers(trees) == [
        "schottky_dynamics.stable_word_lambdas",
        "schottky_dynamics.word_spectrum",
    ]


def test_the_check_sees_a_third_engine_reader():
    trees = {
        "a": ast.parse(
            "def _necklace_sweep(mats, lengths):\n    return []\n\n"
            "def word_spectrum(mats):\n    return _necklace_sweep(mats, [1, 2])\n\n"
            "def third(mats):\n    return [_necklace_sweep(mats, [k]) for k in (1, 2)]\n"
        ),
        "b": ast.parse(
            "import a\n\nclass K:\n    def run(self, mats):\n        return a._necklace_sweep(mats, [1])\n\n"
            "sweep = a._necklace_sweep\n"
        ),
    }
    assert _engine_readers(trees) == ["a.third", "a.word_spectrum", "b", "b.K"]
