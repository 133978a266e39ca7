"""Static checks, by the standard-library ast only: every name a module of
chamberflow imports is referenced in that module (the package __init__ is
exempt, since its imports are the re-exported API), every private
top-level function or class is used somewhere in the library, every
public top-level function is read by the library or named by the
benchmark, apart from a short allowlist with a reason for each entry, no
module-level name is bound to a mutable dict, list or set (caches go
through functools.cache), the library reads no NumPy name that
NumPy 1.24, the declared floor, lacks, no random stream is rewound
by assigning its bit generator's state, no module imports SciPy
outside a function or class body, so that importing the package and its
CLI loads no SciPy module (nor do `decompose --kind jordan`, `delta_r_eps`
at n = 4, the word routines at n = 3 or the density routines), only
`word_spectrum` and `stable_word_lambdas` run the word engine
`_necklace_sweep`, no module names `AM_PART_TOL`, `transitions`,
`cocycle` and `to_bh` neither solve nor evaluate a section and only
`eval_sections` and `_section_reads` run the sections layer's chart LU
(`_lu_stack`), the density certificate replay reads none of the
routines that built the certificate, only the CLI's `main` loads a run and
writes a report, every `verify` suite samples through the one driver, and
outside `flags_equal` no comparison takes a `flag_distance` or
`flag_distances` call as an operand."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chamberflow"


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


def _unread(trees, defs):
    """module.name of each of the (module, node) defs that no code outside
    its own body reads, as a name or as an attribute; an import alone is
    not a use."""
    refs = {}
    for tree in trees.values():
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Name):
                refs.setdefault(ref.id, []).append(ref)
            elif isinstance(ref, ast.Attribute):
                refs.setdefault(ref.attr, []).append(ref)
    dead = []
    for module, node in defs:
        own = {id(inner) for inner in ast.walk(node)}
        if all(id(ref) in own for ref in refs.get(node.name, [])):
            dead.append(f"{module}.{node.name}")
    return sorted(dead)


def _dead_private_helpers(trees):
    """Private top-level definitions that no code outside their own body reads."""
    return _unread(trees, _private_defs(trees))


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


# public functions that neither the library nor the benchmark reads, and why each stays
UNREACHED_PUBLIC = {
    "cocycle_via_jordan": "the exact-formula oracle the criterion 4 acceptance test compares cocycle against",
    "component_label_transport": "the paper's label transport, for the end-to-end mixing report of ROADMAP.md",
    "standard_flag": "flag API: the flag of the standard basis",
    "opposite_flag": "flag API: the flag transverse to the standard one",
}


def _unreached_public_functions(trees, benchmark_text):
    """module.name of each public top-level function that no library code
    outside its own body reads and that benchmark_text does not name as a
    word."""
    defs = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]
    return [
        name
        for name in _unread(trees, defs)
        if not re.search(rf"\b{name.split('.')[1]}\b", benchmark_text)
    ]


def test_every_public_function_is_reached():
    # the benchmark's code and its spec, whose per-layer metrics name functions
    bench = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "BENCHMARK.json"]
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached = _unreached_public_functions(trees, "\n".join(path.read_text() for path in bench))
    assert all(reason for reason in UNREACHED_PUBLIC.values())
    assert sorted(name.split(".")[1] for name in unreached) == sorted(UNREACHED_PUBLIC)


def test_the_check_sees_an_unreached_public_function():
    trees = {
        "a": ast.parse(
            "def helper(x):\n    return x\n\ndef entry(x):\n    return helper(x)\n\n"
            "def dead(x):\n    return dead(x - 1)\n\ndef traced(x):\n    return x\n\n"
            "def _private(x):\n    return x\n"
        ),
        "b": ast.parse("from a import dead, traced\nimport a\n\ndef unused():\n    return a.entry\n"),
    }
    # a benchmark names a function as a whole word, in code or in a string
    bench = 'COUNTERS = {"a.traced.calls": 1}\n# deadline, undead\n'
    assert _unreached_public_functions(trees, bench) == ["a.dead", "b.unused"]
    assert _unreached_public_functions(trees, "") == ["a.dead", "a.traced", "b.unused"]


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


def test_importing_the_package_and_its_cli_loads_no_scipy_module(tmp_path):
    # then the spectra that read np.linalg.eig and eigh: the Jordan
    # projection of a matrix with a complex pair, and delta's rotations at n = 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    matrix = [[0.0, -2.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 4.0, 1.0], [0.0, 0.0, 0.0, 0.25]]
    (tmp_path / "g.json").write_text(json.dumps({"n": 4, "rows": matrix}))
    code = (
        "import sys, chamberflow, chamberflow.cli\n"
        "before = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        f"argv = ['decompose', {str(tmp_path / 'g.json')!r}, '--kind', 'jordan',\n"
        f"        '--output', {str(tmp_path / 'j.json')!r}]\n"
        "assert chamberflow.cli.main(argv) == 0\n"
        "assert chamberflow.delta_r_eps(0.15, 0.15, 16, seed=0, n=4) > 0.0\n"
        "print(before, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] []"
    lam = json.loads((tmp_path / "j.json").read_text())["lambda"]
    expected = [math.log(4.0) * c for c in (1.0, 0.0, 0.0, -1.0)]
    assert lam[1] == lam[2] and max(abs(x - y) for x, y in zip(lam, expected)) < 1e-12


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


def _readers(trees, name):
    """module.definition of each top-level function or class that reads
    name, as a name or as an attribute, and the module alone for a read
    outside any definition. Binding name is no read."""
    found = set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = module
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{top.name}"
            for node in ast.walk(top):
                if not (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)):
                    continue
                if (node.id if isinstance(node, ast.Name) else node.attr) == name:
                    found.add(owner)
    return sorted(found)


def test_one_word_engine():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _readers(trees, ENGINE) == [
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
    assert _readers(trees, ENGINE) == ["a.third", "a.word_spectrum", "b", "b.K"]


AM_READERS = ("transitions", "cocycle", "to_bh")
PIVOT_READERS = ["sections_cocycles._section_reads", "sections_cocycles.eval_sections"]


def _am_reader_bypasses(trees):
    """Where an AM part is read other than from the chart LU's pivots: each
    module that names AM_PART_TOL, each np.linalg.solve or section
    evaluation that transitions, cocycle or to_bh calls, and the readers of
    _lu_stack in sections_cocycles when they are not PIVOT_READERS."""
    found = []
    for module, tree in trees.items():
        if any(
            "AM_PART_TOL" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            for node in ast.walk(tree)
        ):
            found.append(f"{module} names AM_PART_TOL")
        for top in tree.body:
            if not (isinstance(top, ast.FunctionDef) and top.name in AM_READERS):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func)
                    if called == "np.linalg.solve" or called.split(".")[-1] in ("eval_section", "eval_sections"):
                        found.append(f"{module}.{top.name} calls {called}")
    if "sections_cocycles" in trees:
        readers = _readers({"sections_cocycles": trees["sections_cocycles"]}, "_lu_stack")
        if readers != PIVOT_READERS:
            found.append(f"_lu_stack is read by {readers}")
    return found


def test_one_am_part_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _am_reader_bypasses(trees) == []


def test_the_check_sees_a_second_am_part_reader():
    trees = {
        "a": ast.parse("from linalg_core import AM_PART_TOL\n"),
        "sections_cocycles": ast.parse(
            "def _section_reads(s, reps):\n    return _lu_stack(reps)\n\n"
            "def eval_sections(s, reps):\n    return _lu_stack(reps)\n\n"
            "def transitions(s, s2, reps):\n    return np.linalg.solve(eval_sections(s, reps), reps)\n\n"
            "def cocycle(s1, s0, g, xi):\n    return eval_section(s1, xi)\n\n"
            "def to_bh(g, s):\n    return _lu_stack(g)[1]\n"
        ),
    }
    assert _am_reader_bypasses(trees) == [
        "a names AM_PART_TOL",
        "sections_cocycles.transitions calls np.linalg.solve",
        "sections_cocycles.transitions calls eval_sections",
        "sections_cocycles.cocycle calls eval_section",
        "_lu_stack is read by ['sections_cocycles._section_reads', "
        "'sections_cocycles.eval_sections', 'sections_cocycles.to_bh']",
    ]


def _top_level_readers(tree, name):
    """The top-level functions or classes of tree that read name, as a name
    or as an attribute, outside name's own definition; "<module>" for a read
    outside any definition."""
    found = set()
    for top in tree.body:
        owner = "<module>"
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if top.name == name:
                continue
            owner = top.name
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name
            ):
                found.add(owner)
    return sorted(found)


def test_only_main_loads_a_run_and_writes_a_report():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _top_level_readers(tree, "_load_run") == ["main"]
    assert _top_level_readers(tree, "_emit") == ["main"]


def test_the_check_sees_a_handler_that_writes_its_own_report():
    tree = ast.parse(
        "def _emit(report):\n    return _emit(report)\n\n"
        "def main(args):\n    _emit(args.func(args))\n\n"
        "def cmd_a(args):\n    _emit({})\n\n"
        "class K:\n    write = staticmethod(_emit)\n\n"
        "WRITE = cli._emit\n"
    )
    assert _top_level_readers(tree, "_emit") == ["<module>", "K", "cmd_a", "main"]


def _suites_with_own_sampling(tree):
    """(suite, line) of each `while` loop and `default_rng` call inside a
    top-level suite_* function."""
    found = []
    for top in tree.body:
        if not (isinstance(top, ast.FunctionDef) and top.name.startswith("suite_")):
            continue
        for node in ast.walk(top):
            callee = node.func if isinstance(node, ast.Call) else None
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if isinstance(node, ast.While) or name == "default_rng":
                found.append(f"{top.name} (line {node.lineno})")
    return sorted(found)


def test_every_verify_suite_samples_through_the_driver():
    tree = ast.parse((SRC / "verify.py").read_text())
    assert any(isinstance(top, ast.FunctionDef) and top.name.startswith("suite_") for top in tree.body)
    assert _suites_with_own_sampling(tree) == []


def test_the_check_sees_a_suite_with_its_own_sampling_loop():
    tree = ast.parse(
        "def _sample(seed):\n    rng = np.random.default_rng(seed)\n    while True:\n        pass\n\n"
        "def suite_a(seed):\n    return _sample(seed)\n\n"
        "def suite_b(seed):\n    rng = np.random.default_rng(seed)\n    return rng\n\n"
        "def suite_c(seed):\n    while seed:\n        seed -= 1\n\n"
        "def suite_d(seed):\n    return default_rng(seed)\n"
    )
    assert _suites_with_own_sampling(tree) == ["suite_b (line 10)", "suite_c (line 14)", "suite_d (line 18)"]


FLAG_METRICS = {"flag_distance", "flag_distances"}


def _flag_distance_comparisons(trees):
    """module (line) of each comparison with a flag_distance or
    flag_distances call in an operand, outside flags_equal: the one
    test of flag equality."""
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name == "flags_equal":
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Compare):
                    continue
                for part in (sub for operand in [node.left, *node.comparators] for sub in ast.walk(operand)):
                    callee = part.func if isinstance(part, ast.Call) else None
                    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                    if name in FLAG_METRICS:
                        found.append(f"{module} (line {node.lineno})")
    return sorted(found)


def test_flags_are_compared_only_by_flags_equal():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _flag_distance_comparisons(trees) == []


def test_the_check_sees_a_flag_distance_comparison():
    trees = {
        "a": ast.parse(
            "def flags_equal(xi, eta):\n    return flag_distance(xi, eta) < 1e-8\n\n"
            "def same(a, b):\n    return fb.flag_distance(a, b) < 1e-8\n\n"
            "def near(a, b):\n    return 0.1 >= float(flag_distances(a.rep, b.rep))\n\n"
            "def apart(a, b):\n    d = flag_distance(a, b)\n    return d > 0.5\n"
        ),
        "b": ast.parse("TIE = 1e-8 > flag_distances(x, y).min()\n"),
    }
    assert _flag_distance_comparisons(trees) == ["a (line 5)", "a (line 8)", "b (line 1)"]
