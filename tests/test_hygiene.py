"""Source hygiene that no installed linter checks: every module-level import
in the package is used by its module or re-exported through ``__all__``, no
module loads a scipy submodule at import time, neither ``scipy.linalg`` nor
``scipy.optimize`` is used (one loader names the extension module of
scipy's compiled assignment, and no code names scipy's LAPACK wrappers), no
module names a thread class or ``concurrent.futures``, the field-keeping
modules never cast to complex outside ``as_matrix``, the verification
oracle calls no eigenvector solver, factors no square matrix outside its
fallback and memoizes the spectrum of no matrix but the unperturbed A, no
code but ``core._DenseH`` solves with H, every threshold test raises
through ``core._decide``, no code but ``core.as_matrix`` refuses an operand
for its shape, no code reads ``structure_tol`` from anything but a space,
every random draw comes from ``np.random.default_rng`` with a
module-constant or caller-supplied seed, every public name has a reader,
and the per-arrangement names of ``assemble`` appear only in their one
binding and the one test of it."""

import ast
import pathlib
import re

import pytest

import specpreserve

SOURCES = sorted(pathlib.Path(specpreserve.__file__).parent.glob("*.py"))


def _bound_names(node):
    """Names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound_names(node)
              if name not in used and name not in exported]
    assert not unused, f"{path.name} imports but never uses {unused}"


def _imported_names(node):
    """The dotted names an import statement loads: ``import a.b`` gives
    a.b, ``from a import b`` both a and a.b; none for other nodes."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


# the package imports bare ``scipy``: scipy (>= 1.9) loads ``scipy.linalg``
# and ``scipy.optimize`` on first attribute access, so a command loads only
# the submodules its code runs, and the benchmark's tracer, which swaps the
# modules' ``scipy`` global, still sees every call
def _import_time_submodules(tree):
    """Lines importing a scipy submodule outside any function body:
    ``import scipy.linalg``, ``from scipy.linalg import ...`` and
    ``from scipy import linalg``."""
    deferred = {id(n) for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                for n in ast.walk(f)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in deferred
            and any(name.startswith("scipy.")
                    for name in _imported_names(node))]


def test_no_scipy_submodule_is_imported_at_module_level():
    hits = {path.name: lines for path in SOURCES
            if (lines := _import_time_submodules(
                ast.parse(path.read_text(encoding="utf-8"))))}
    assert not hits, f"module-level scipy submodule imports: {hits}"


@pytest.mark.parametrize("planted,flagged", [
    # the imports the bare ``import scipy`` replaced
    ("import scipy.linalg", True),
    ("import scipy.optimize as opt", True),
    ("from scipy.linalg import block_diag", True),
    ("from scipy import linalg", True),
    ("try:\n    import scipy.linalg\nexcept ImportError:\n    pass", True),
    ("class C:\n    import scipy.linalg", True),
    ("import scipy", False),
    ("import numpy.linalg", False),
    ("from .core import as_matrix", False),
    ("def load(path):\n    import scipy.io\n    return scipy.io.mmread(path)",
     False),
])
def test_submodule_rule_catches_a_planted_import(planted, flagged):
    assert bool(_import_time_submodules(ast.parse(planted))) == flagged


# the shipped commands run on numpy's LAPACK alone; loading
# ``scipy.linalg`` costs a process about 200 ms and 27 MB, and
# ``scipy.optimize`` more (it loads ``sparse``, ``spatial``, ``special`` and
# ``fft``), so the package uses neither (a dense H is inverted by numpy,
# and a skew form is moved onto skewj by numpy's ``eigh``); where numpy
# has no equivalent, a tied pairing, it runs scipy's compiled routine,
# which one loader takes from its own extension module by name, without
# the package init
HEAVY_SUBMODULES = ("scipy.linalg", "scipy.optimize")
# (module, definition) -> the one string the definition may name
EXTENSION_LOADERS = {
    ("diagnostics.py", "_linear_sum_assignment"): "scipy.optimize._lsap",
}


def _heavy_scipy_uses(tree, module):
    """Lines that name ``scipy.linalg`` or ``scipy.optimize``: an attribute
    chain such as ``scipy.linalg.lu_factor``, an import of either, or a
    string naming either or a module under it, as
    ``importlib.import_module`` takes, at any depth.  Each loader of a
    compiled extension may name its module, and only that one."""
    loader = {id(n): name for d in tree.body
              if isinstance(d, ast.FunctionDef)
              and (name := EXTENSION_LOADERS.get((module, d.name)))
              for n in ast.walk(d)}
    hits = []
    for node in ast.walk(tree):
        names = _imported_names(node)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = ([] if node.value == loader.get(id(node))
                     else [node.value])
        if any(name == sub or name.startswith(sub + ".")
               for name in names for sub in HEAVY_SUBMODULES):
            hits.append(node.lineno)
    return hits


def test_scipy_submodules_are_used_only_where_allowed():
    hits = {path.name: lines for path in SOURCES
            if (lines := _heavy_scipy_uses(
                ast.parse(path.read_text(encoding="utf-8")), path.name))}
    assert not hits, f"scipy.linalg or scipy.optimize: {hits}"


@pytest.mark.parametrize("module,planted,flagged", [
    # the calls numpy replaced on the command line paths
    ("subspaces.py", "def gram_inverse_apply(G, R):\n"
     "    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(G), R)", True),
    ("spectral.py", "def extract_jordan_pairs(A):\n"
     "    return scipy.linalg.schur(A, output='complex')", True),
    ("diagnostics.py", "def verify_reassignment(c):\n"
     "    return scipy.optimize.linear_sum_assignment(c)", True),
    ("spectral.py", "def f(A):\n    from scipy.linalg import schur", True),
    ("spectral.py", "def f(A):\n    from scipy import linalg", True),
    ("core.py", "def f(A):\n    import scipy.linalg as sl", True),
    ("core.py", "lu = scipy.linalg.lu_factor", True),
    # the LU of a dense H that numpy's inverse replaced
    ("core.py", "class _DenseH:\n    def lu(self):\n"
     "        return scipy.linalg.lu_factor(self.H)", True),
    # the calls the extension module of scipy's LAPACK wrappers replaced
    ("spectral.py", "def _skew_orthogonal_normalize(H):\n"
     "    return scipy.linalg.schur(H, output='real')", True),
    ("diagnostics.py", "def _skew_orthogonal_normalize(H):\n"
     "    return scipy.linalg.schur(H, output='real')", True),
    ("subspaces.py", "def preserve_complementary(X):\n"
     "    return scipy.linalg.get_lapack_funcs(('getrf',), (X,))", True),
    # scipy.optimize, which the numpy pairing replaced, in any definition
    ("spectral.py", "def _assign_multisets(c):\n"
     "    return scipy.optimize.linear_sum_assignment(c)", True),
    ("diagnostics.py", "def _assign_multisets(c):\n"
     "    return scipy.optimize.linear_sum_assignment(c)", True),
    ("diagnostics.py", "def _skew_orthogonal_normalize(H):\n"
     "    import scipy.optimize", True),
    ("subspaces.py", "def preserve_complementary(X):\n"
     "    from scipy import optimize", True),
    # a submodule named by a string, which an import statement never shows
    ("spectral.py", "def f(A):\n"
     "    return importlib.import_module('scipy.optimize')", True),
    ("core.py", "def f(A):\n    return __import__('scipy.linalg')", True),
    ("core.py", "NAME = 'scipy.linalg.lapack'", True),
    # the loader of the compiled assignment may name its module, and only
    # that string; no other definition may name it
    ("diagnostics.py", "def _linear_sum_assignment():\n"
     "    name = 'scipy.optimize._lsap'", False),
    ("diagnostics.py", "def _linear_sum_assignment():\n"
     "    return importlib.import_module('scipy.optimize')", True),
    ("diagnostics.py", "def _assign_multisets(ea, eb):\n"
     "    name = 'scipy.optimize._lsap'", True),
    ("spectral.py", "def _linear_sum_assignment():\n"
     "    name = 'scipy.optimize._lsap'", True),
    ("diagnostics.py", "def _flapack():\n"
     "    return _scipy_extension('scipy.optimize._lsap')", True),
    # scipy's f2py LAPACK wrappers, which numpy's solve replaced, are named
    # nowhere, not even by a loader of their own
    ("diagnostics.py", "def _flapack():\n"
     "    return _scipy_extension('scipy.linalg._flapack')", True),
    ("diagnostics.py", "def _linear_sum_assignment():\n"
     "    return _scipy_extension('scipy.linalg._flapack')", True),
    ("diagnostics.py", "def _skew_orthogonal_normalize(H):\n"
     "    return _scipy_extension('scipy.linalg._flapack').dgees", True),
    ("core.py", "def _rcond_estimate(M, omega):\n"
     "    return importlib.import_module('scipy.linalg._flapack')", True),
    ("core.py", "FLAPACK = 'scipy.linalg._flapack'", True),
    # what the rule leaves alone
    ("matio.py", "def load(path):\n    import scipy.io\n"
     "    return scipy.io.mmread(path)", False),
    ("spectral.py", "import scipy", False),
    ("matio.py", "def load(path):\n    return __import__('scipy.io')", False),
    ("core.py", "NOTE = 'scipy.linalg is loaded on first use'", False),
    ("spectral.py", "def f(A):\n    return np.linalg.eigvals(A)", False),
])
def test_scipy_use_rule_catches_a_planted_call(module, planted, flagged):
    assert bool(_heavy_scipy_uses(ast.parse(planted), module)) == flagged


# no helper threads: every call runs on its caller's thread, and BLAS owns
# the parallelism (a caller may run calls from several threads)
def _concurrency_uses(tree):
    """Lines naming ``threading.Thread``, ``Thread`` or
    ``concurrent.futures``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "Thread"
            or isinstance(node, ast.Name) and node.id == "Thread"
            or any(name == "threading.Thread" or name.startswith("concurrent")
                   for name in _imported_names(node))]


def test_no_module_starts_a_thread():
    hits = {path.name: lines for path in SOURCES
            if (lines := _concurrency_uses(
                ast.parse(path.read_text(encoding="utf-8"))))}
    assert not hits, f"threads started in the package: {hits}"


@pytest.mark.parametrize("planted,flagged", [
    ("import concurrent.futures", True),
    ("from concurrent.futures import ThreadPoolExecutor", True),
    ("lu = threading.Thread(target=rcond)", True),
    ("from threading import Thread", True),
    ("class _Background(threading.Thread):\n    pass", True),
    # what the rule leaves alone: a lock
    ("_LOCK = threading.Lock()", False),
])
def test_thread_rule_catches_a_planted_start(planted, flagged):
    assert bool(_concurrency_uses(ast.parse(planted))) == flagged


# modules that keep the field of their data: ``core.as_matrix`` (with the
# space, or anything with a ``field``) is the one place a field is decided,
# so it is the one function here allowed to cast
FIELD_KEEPING = ("classical.py", "core.py", "diagnostics.py", "mapping.py",
                 "reassign.py", "subspaces.py")
FIELD_BOUNDARY = "as_matrix"


def _complex_dtype(node):
    """True for ``complex``, ``np.complex128`` and kin, a "complex..." dtype
    string, or a conditional with either branch complex."""
    if isinstance(node, ast.Name):
        return node.id == "complex"
    if isinstance(node, ast.Attribute):
        return node.attr.startswith("complex") or node.attr in ("cdouble",
                                                                "csingle")
    if isinstance(node, ast.IfExp):
        return _complex_dtype(node.body) or _complex_dtype(node.orelse)
    return isinstance(node, ast.Constant) and "complex" in str(node.value)


def _complex_casts(tree):
    """Lines of ``astype(complex)``, ``dtype=complex`` and a complex dtype
    passed by position, as in ``np.asarray(M, complex)``, outside the
    boundary function."""
    boundary = {id(n) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == FIELD_BOUNDARY
                for n in ast.walk(f)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in boundary:
            continue
        astype = isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
        dtypes = (node.args if astype else node.args[1:]) + [
            kw.value for kw in node.keywords if kw.arg == "dtype"]
        if any(_complex_dtype(d) for d in dtypes):
            hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("name", FIELD_KEEPING)
def test_field_keeping_modules_never_cast_to_complex(name):
    path = pathlib.Path(specpreserve.__file__).parent / name
    hits = _complex_casts(ast.parse(path.read_text(encoding="utf-8")))
    assert not hits, f"{name} casts to complex on lines {hits}"


@pytest.mark.parametrize("planted,flagged", [
    ("np.asarray(M, dtype=complex)", True),
    ("M.astype(complex)", True),
    ("np.zeros((n, n), dtype=np.complex128)", True),
    ("np.asarray(M, complex)", True),
    ("M.astype('complex128')", True),
    # the casts the boundary replaced in core, classical and diagnostics
    ("A.astype(float if real else complex, copy=False)", True),
    ("x = np.asarray(x, dtype=complex).reshape(-1)", True),
    ("A0 = scipy.linalg.block_diag(*blocks).astype(complex)", True),
    ("complex(z)", False),
    ("np.asarray(M)", False),
    ("M.astype(float)", False),
    ("def as_matrix(A):\n    return A.astype(complex)", False),
    ("def other(A):\n    return A.astype(complex)", True),
])
def test_complex_cast_rule_catches_a_planted_cast(planted, flagged):
    assert bool(_complex_casts(ast.parse(planted))) == flagged


# the verification oracle computes no eigenvectors: its verdict needs only
# eigenvalues, and the no-spillover claim is checked by annihilation
def _eigenvector_solves(tree):
    """Lines calling ``eig`` under any spelling (``np.linalg.eig``,
    ``numpy.linalg.eig``, ``scipy.linalg.eig``, a bare imported ``eig``)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "eig" in (getattr(node.func, "attr", None),
                          getattr(node.func, "id", None))]


def test_oracle_calls_no_eigenvector_solver():
    path = pathlib.Path(specpreserve.__file__).parent / "diagnostics.py"
    hits = _eigenvector_solves(ast.parse(path.read_text(encoding="utf-8")))
    assert not hits, f"diagnostics.py calls an eigenvector solver on lines {hits}"


@pytest.mark.parametrize("planted,flagged", [
    # the call the annihilation check replaced
    ("w, V = np.linalg.eig(A)", True),
    ("w, V = scipy.linalg.eig(A)", True),
    ("w, V = numpy.linalg.eig(A)", True),
    ("w, V = eig(A)", True),
    ("w = np.linalg.eigvals(A)", False),
    ("w = scipy.linalg.eigvals(A)", False),
    ("w = np.linalg.eigvalsh(A)", False),
])
def test_eigenvector_rule_catches_a_planted_call(planted, flagged):
    assert bool(_eigenvector_solves(ast.parse(planted))) == flagged


# every threshold test goes through ``core._decide``, whose rule fails a
# NaN; an inline ``if r > thr: raise`` passes one, since NaN > thr is false.
# Only ``Decision.require`` builds a StructureError carrying a residual.
DECISION_CLASS = "Decision"


def _inline_threshold_raises(tree):
    """Lines building a ``StructureError`` with a residual or threshold (by
    keyword or a third positional argument) outside the decision class."""
    boundary = {id(n) for c in ast.walk(tree)
                if isinstance(c, ast.ClassDef) and c.name == DECISION_CLASS
                for n in ast.walk(c)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in boundary
            and "StructureError" in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None))
            and (len(node.args) > 2 or any(
                kw.arg in ("residual", "threshold") for kw in node.keywords))]


def test_threshold_tests_raise_through_decide():
    hits = {path.name: lines for path in SOURCES
            if (lines := _inline_threshold_raises(
                ast.parse(path.read_text(encoding="utf-8"))))}
    assert not hits, f"inline threshold raises (use core._decide): {hits}"


@pytest.mark.parametrize("planted,flagged", [
    # the shape of the sites _decide replaced
    ("if r > tol:\n    raise StructureError(c, f'{what} fails', residual=r)",
     True),
    ("raise StructureError('c', 'msg', r)", True),
    ("raise errors.StructureError('c', 'msg', residual=r)", True),
    ("raise StructureError('c', 'msg', threshold=t)", True),
    ("def require(self):\n    raise StructureError('c', m, residual=r)", True),
    ("class Decision:\n    def require(self):\n"
     "        raise StructureError(self.condition, m, residual=self.value)",
     False),
    ("raise StructureError('rank', 'X_a is rank deficient')", False),
    ("_decide('c', r, t).require('msg', 'condition_residual')", False),
])
def test_threshold_rule_catches_a_planted_raise(planted, flagged):
    assert bool(_inline_threshold_raises(ast.parse(planted))) == flagged


# the verification oracle factors no n x n matrix on its sketched path: it
# never solves with or inverts a matrix itself (H^-1 comes from the space),
# and it reaches an SVD, the probes' condition estimate ``core._rcond_estimate``
# (one solve), or the full-matrix rank and structure routines of delta, only
# in the fallback of ``_rank_and_structure``, the statements after its
# sketch branch (its first ``if``)
ORACLE_ENTRIES = ("verify_reassignment", "spectrum_multiset_compare")
SKETCHED = "_rank_and_structure"
NEVER = {"solve", "inv", "pinv", "lstsq"}
FALLBACK_ONLY = {"svd", "_rcond_estimate"}
DELTA_FALLBACK_ONLY = {"numerical_rank", "structure_residual", "adjoint"}


def _called_name(call):
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def _oracle_functions(tree):
    """The module-level functions reachable from the oracle's entries."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reached, todo = {}, list(ORACLE_ENTRIES)
    while todo:
        name = todo.pop()
        if name in funcs and name not in reached:
            reached[name] = funcs[name]
            todo += [_called_name(c) for c in ast.walk(funcs[name])
                     if isinstance(c, ast.Call)]
    return reached


def _oracle_factorizations(tree):
    """Lines where oracle code factors a matrix outside the fallback."""
    oracle = _oracle_functions(tree)
    body = getattr(oracle.get(SKETCHED), "body", [])
    sketch = next((i for i, stmt in enumerate(body)
                   if isinstance(stmt, ast.If)), len(body))
    fallback = {id(n) for stmt in body[sketch + 1:] for n in ast.walk(stmt)}
    hits = []
    for fn in oracle.values():
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            name = _called_name(call)
            on_delta = bool(call.args) and getattr(call.args[0], "id",
                                                   None) == "delta"
            if (name in NEVER or id(call) not in fallback and (
                    name in FALLBACK_ONLY
                    or name in DELTA_FALLBACK_ONLY and on_delta)):
                hits.append(call.lineno)
    return hits


def test_oracle_factors_no_square_matrix_outside_the_fallback():
    path = pathlib.Path(specpreserve.__file__).parent / "diagnostics.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert set(ORACLE_ENTRIES) | {SKETCHED} <= set(_oracle_functions(tree))
    hits = _oracle_factorizations(tree)
    assert not hits, f"diagnostics.py factors a matrix on lines {hits}"


_FALLBACK = ("def _rank_and_structure(delta, B):\n"
             "    if k < n:\n"
             "        return numerical_rank(B), frob(B)\n"
             "    {}\n"
             "def verify_reassignment(delta):\n"
             "    return _rank_and_structure(delta, None)\n")


@pytest.mark.parametrize("planted,flagged", [
    # the calls the sketch replaced
    ("def verify_reassignment(delta, space):\n"
     "    return numerical_rank(delta), structure_residual(delta, space)",
     True),
    ("def verify_reassignment(A):\n    return np.linalg.solve(A, A)", True),
    ("def verify_reassignment(A):\n    return _helper(A)\n"
     "def _helper(A):\n    return scipy.linalg.inv(A)", True),
    ("def spectrum_multiset_compare(A):\n    return np.linalg.svd(A)", True),
    (_FALLBACK.replace("frob(B)", "structure_residual(delta)").format(
        "return 0"), True),
    (_FALLBACK.format("return np.linalg.lstsq(delta, delta)"), True),
    (_FALLBACK.format("return numerical_rank(delta), np.linalg.svd(delta)"),
     False),
    (_FALLBACK.format("return structure_residual(delta)"), False),
    # the probes' condition estimate: only in the fallback, under any if
    (_FALLBACK.replace("frob(B)", "_rcond_estimate(delta, omega)").format(
        "return 0"), True),
    (_FALLBACK.format("return _rcond_estimate(delta, omega)"), False),
    (_FALLBACK.format("if n <= 8:\n        return numerical_rank(delta)\n"
                      "    return _rcond_estimate(delta, omega)"), False),
    # ahead of the sketch branch is not the fallback
    (_FALLBACK.replace("    if k < n:",
                       "    r = _rcond_estimate(delta, omega)\n"
                       "    if k < n:").format("return 0"), True),
    (_FALLBACK.replace("    if k < n:", "    r = numerical_rank(delta)\n"
                       "    if k < n:").format("return 0"), True),
    ("def generate_instance(A):\n    return np.linalg.solve(A, A)", False),
    ("def verify_reassignment(B):\n    return numerical_rank(B)", False),
])
def test_oracle_factorization_rule_catches_a_planted_call(planted, flagged):
    assert bool(_oracle_factorizations(ast.parse(planted))) == flagged


# H is solved with in one place, ``core._DenseH``, which inverts a dense H
# once per space; everywhere else ``H^-1`` comes from ``space.h_solve``,
# which is exact by indexing for a signed or phased permutation H
H_SOLVERS = {"solve", "inv", "pinv", "lstsq", "lu", "lu_factor", "lu_solve",
             "cho_factor", "solve_triangular", "getrf"}
H_SOLVE_HOME = ("core.py", "_DenseH")


def _names_h(node):
    """True when the expression mentions H: the name ``H``, ``H`` with a
    digit or ``_...`` suffix, a name ending in ``_H``, or an attribute
    ``.H``."""
    return any(isinstance(n, ast.Name)
               and re.fullmatch(r"H(\d*|_\w*)|\w*_H", n.id)
               or isinstance(n, ast.Attribute) and n.attr == "H"
               for n in ast.walk(node))


def _solves_with_h(tree, module):
    """Lines calling a dense solver or factorization (numpy's ``solve``
    and ``inv``, a scipy solver) on an argument that mentions H, outside
    ``core._DenseH``."""
    home = {id(n) for c in ast.walk(tree)
            if (module, getattr(c, "name", None)) == H_SOLVE_HOME
            and isinstance(c, ast.ClassDef) for n in ast.walk(c)}
    return [call.lineno for call in ast.walk(tree)
            if isinstance(call, ast.Call) and id(call) not in home
            and _called_name(call) in H_SOLVERS
            and any(_names_h(a) for a in
                    call.args + [kw.value for kw in call.keywords])]


def test_only_the_dense_h_operator_solves_with_h():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    hits = {name: lines for name, tree in trees.items()
            if (lines := _solves_with_h(tree, name))}
    assert not hits, f"solves with H outside core._DenseH: {hits}"
    # the rule sees the one solve it allows
    assert len(_solves_with_h(trees["core.py"], "other.py")) == 1


@pytest.mark.parametrize("module,planted,flagged", [
    # the generator's solve that space.h_solve replaced
    ("diagnostics.py", "def _random_automorphism(space_H, K):\n"
     "    return np.linalg.solve(space_H, K)", True),
    ("diagnostics.py", "W = np.linalg.solve(space.H, K)", True),
    ("core.py", "def adjoint(A, space):\n"
     "    return np.linalg.solve(space.H, A.T @ space.H)", True),
    ("core.py", "class _MonomialH:\n    def solve(self, B):\n"
     "        return np.linalg.solve(self.H, B)", True),
    ("subspaces.py", "lu = scipy.linalg.lu_factor(H)", True),
    ("spectral.py", "Y = scipy.linalg.solve(H0.T, b=B)", True),
    ("diagnostics.py", "G = np.linalg.inv(H_u)", True),
    # the home is one class of core
    ("diagnostics.py", "class _DenseH:\n    def inv(self):\n"
     "        return np.linalg.inv(self.H)", True),
    ("core.py", "class _DenseH:\n    def inv(self):\n"
     "        return np.linalg.inv(self.H)", False),
    # what the rule leaves alone
    ("diagnostics.py", "W = space.h_solve(K)", False),
    ("diagnostics.py", "A = np.linalg.solve(UG, A0 @ UG)", False),
    ("subspaces.py", "Y = np.linalg.solve(G, HB - G @ Y)", False),
    ("core.py", "def h_solve(self, B):\n"
     "    return self._h_op.solve(np.asarray(B))", False),
])
def test_h_solve_rule_catches_a_planted_call(module, planted, flagged):
    assert bool(_solves_with_h(ast.parse(planted), module)) == flagged


# the oracle keeps one thing between calls, the eigenvalues of the
# unperturbed A (``_memoized_solve``); the output under test, A + delta, is
# solved on every call, so the memo is reachable only through the ``memo``
# switch of ``_eigenvalues``, which only ``verify_reassignment`` sets, on
# its argument A
MEMOIZED = "_memoized_solve"
MEMO_GATE = "_eigenvalues"
MEMO_CALLER = "verify_reassignment"


def _memo_switched_on(call):
    """True for ``_eigenvalues(..., memo=<not False>)`` or a fifth
    positional argument."""
    memo = [kw.value for kw in call.keywords if kw.arg == "memo"]
    memo += call.args[4:]
    return any(not (isinstance(v, ast.Constant) and v.value is False)
               for v in memo)


def _memo_leaks(tree):
    """Lines where the memo could see a matrix other than the A argument
    of ``verify_reassignment``: a memoized solve outside the ``memo``
    branch of ``_eigenvalues``, the switch set elsewhere or on another
    argument, or ``A`` rebound to anything but ``as_matrix(A, ...)``."""
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        guarded = {id(n) for c in ast.walk(fn)
                   if isinstance(c, (ast.If, ast.IfExp))
                   and isinstance(c.test, ast.Name) and c.test.id == "memo"
                   for b in (c.body if isinstance(c.body, list) else [c.body])
                   for n in ast.walk(b)}
        rebinds = {id(node.targets[0]) for node in ast.walk(fn)
                   if isinstance(node, ast.Assign) and len(node.targets) == 1
                   and isinstance(node.value, ast.Call)
                   and _called_name(node.value) == "as_matrix"
                   and node.value.args
                   and getattr(node.value.args[0], "id", None) == "A"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name == MEMOIZED and (fn.name != MEMO_GATE
                                         or id(node) not in guarded):
                    hits.append(node.lineno)
                elif name == MEMO_GATE and _memo_switched_on(node) and (
                        fn.name != MEMO_CALLER or not node.args
                        or getattr(node.args[0], "id", None) != "A"):
                    hits.append(node.lineno)
            elif (fn.name == MEMO_CALLER and isinstance(node, ast.Name)
                  and node.id == "A" and isinstance(node.ctx, ast.Store)
                  and id(node) not in rebinds):
                hits.append(node.lineno)
    return hits


def test_oracle_memoizes_only_the_unperturbed_a():
    path = pathlib.Path(specpreserve.__file__).parent / "diagnostics.py"
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    funcs = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert {MEMOIZED, MEMO_GATE, MEMO_CALLER} <= funcs
    assert "memo=True" in source
    hits = _memo_leaks(tree)
    assert not hits, f"diagnostics.py memoizes another matrix on lines {hits}"


_GATE = ("def _eigenvalues(M, tol, notes, name, memo=False):\n"
         "    {}\n")
_CALLER = ("def verify_reassignment(A, delta):\n"
           "    A = as_matrix(A, 'A')\n"
           "    perturbed = A + delta\n"
           "    {}\n")


@pytest.mark.parametrize("planted,flagged", [
    # the output under test through the memo
    (_CALLER.format("_eigenvalues(perturbed, t, [], 'A + delta', memo=True)"),
     True),
    (_CALLER.format("_eigenvalues(A + delta, t, [], 'A + delta', True)"),
     True),
    (_CALLER.format("_memoized_solve(perturbed, 'eigvals')"), True),
    (_CALLER.format("A = A + delta\n"
                    "    _eigenvalues(A, t, [], 'A', memo=True)"), True),
    (_CALLER.format("A += delta\n    _eigenvalues(A, t, [], 'A', memo=1)"),
     True),
    ("def spectrum_multiset_compare(A, B):\n"
     "    return _eigenvalues(A, t, [], 'A', memo=True)", True),
    (_GATE.format("return _memoized_solve(M, tier)"), True),
    (_GATE.format("if tier:\n        return _memoized_solve(M, tier)"), True),
    # the memoized path as it stands, and the fresh solves
    (_CALLER.format("_eigenvalues(A, t, [], 'A', memo=True)"), False),
    (_CALLER.format("_eigenvalues(perturbed, t, [], 'A + delta')"), False),
    (_CALLER.format("_eigenvalues(perturbed, t, [], 'A + delta', "
                    "memo=False)"), False),
    (_GATE.format("return (_memoized_solve(M, tier) if memo\n"
                  "            else _solve(M, tier))"), False),
    (_GATE.format("if memo:\n        return _memoized_solve(M, tier)"), False),
])
def test_memo_rule_catches_a_planted_leak(planted, flagged):
    assert bool(_memo_leaks(ast.parse(planted))) == flagged


# ``core.as_matrix`` is the one shape test: each entry passes the shape the
# role of an operand requires, and a mismatch raises there, naming the
# operand; no other code tests a shape for (in)equality to raise an
# ArgumentError.  A bound on a size (the oracle's n <= limit) is no shape
# rule and is left alone
SHAPE_HOME = ("core.py", "as_matrix")
SHAPE_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _compares_shape(test):
    """True when the expression compares something reading ``.shape`` for
    (in)equality."""
    return any(isinstance(c, ast.Compare)
               and any(isinstance(op, SHAPE_TESTS) for op in c.ops)
               and any(isinstance(n, ast.Attribute) and n.attr == "shape"
                       for n in ast.walk(c))
               for c in ast.walk(test))


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "attr", None) or getattr(exc, "id", None)


def _shape_raises(tree, module):
    """Lines raising ``ArgumentError`` in either branch of an ``if`` whose
    test compares a shape for (in)equality, outside ``core.as_matrix``."""
    home = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            and (module, f.name) == SHAPE_HOME for n in ast.walk(f)}
    return sorted({raise_.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.If) and id(node) not in home
                   and _compares_shape(node.test)
                   for stmt in node.body + node.orelse
                   for raise_ in ast.walk(stmt)
                   if isinstance(raise_, ast.Raise) and raise_.exc is not None
                   and _raised_name(raise_) == "ArgumentError"})


def test_only_as_matrix_refuses_an_operand_for_its_shape():
    hits = {path.name: lines for path in SOURCES
            if (lines := _shape_raises(
                ast.parse(path.read_text(encoding="utf-8")), path.name))}
    assert not hits, f"shape tests outside core.as_matrix: {hits}"


@pytest.mark.parametrize("module,planted,flagged", [
    # the tests as_matrix replaced
    ("core.py", "def adjoint(A, space):\n    if A.shape != (n, n):\n"
     "        raise ArgumentError(f'A has shape {A.shape}')", True),
    ("classical.py", "if X.shape[0] != n or Omega.shape != (p, p):\n"
     "    raise ArgumentError('inconsistent shapes for rado_update')", True),
    ("spectral.py", "if A.shape[1] != n:\n"
     "    raise errors.ArgumentError('A must be square')", True),
    ("subspaces.py", "if ok:\n    pass\nelif Lambda_f.shape != (m, m):\n"
     "    raise ArgumentError('Lambda_f must be m x m')", True),
    ("mapping.py", "if X.shape == B.shape:\n    pass\nelse:\n"
     "    raise ArgumentError", True),
    ("reassign.py", "if A.shape != (space.n,) * 2:\n    if strict:\n"
     "        raise ArgumentError('A must match the space dimension')", True),
    ("diagnostics.py", "def as_matrix(A, shape):\n    if A.shape != shape:\n"
     "        raise ArgumentError('A')", True),
    # the one home, and what the rule leaves alone
    ("core.py", "def as_matrix(A, shape):\n    if A.shape != shape:\n"
     "        raise ArgumentError('A')", False),
    ("spectral.py", "if X.shape != Y.shape:\n"
     "    raise StructureError('conjugate_chains', 'shapes differ')", False),
    ("cli.py", "if X.shape != (n, k):\n    raise FormatError('eigvecs')",
     False),
    ("core.py", "if L.shape != (m, m):\n    return X @ L", False),
    ("core.py", "if n % 2:\n    raise ArgumentError('needs even dimension')",
     False),
    ("diagnostics.py", "if A.shape[0] > oracle_dim_limit():\n"
     "    raise ArgumentError('oracle limited to n <= 64')", False),
])
def test_shape_rule_catches_a_planted_test(module, planted, flagged):
    assert bool(_shape_raises(ast.parse(planted), module)) == flagged


# the one structure tolerance is the one the space validated H at: every
# structural test reads it from the space, never from a tolerance profile,
# an argument or a copy
STRUCTURE_TOL_HOME = "ScalarProductSpace"


def _names_space(node):
    """True for the name ``space`` or an attribute ``.space``."""
    return (getattr(node, "id", None) == "space"
            or getattr(node, "attr", None) == "space")


def _structure_tol_reads(tree):
    """Lines reading ``structure_tol`` (as ``X.structure_tol`` or
    ``getattr(X, "structure_tol")``) from an X that is not a space:
    ``space``, ``<...>.space``, or ``self`` in ``ScalarProductSpace``."""
    home = {id(n) for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name == STRUCTURE_TOL_HOME
            for n in ast.walk(c)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "structure_tol":
            owner = node.value
        elif (isinstance(node, ast.Call) and _called_name(node) == "getattr"
              and len(node.args) > 1
              and getattr(node.args[1], "value", None) == "structure_tol"):
            owner = node.args[0]
        else:
            continue
        if not (_names_space(owner) or id(node) in home
                and getattr(owner, "id", None) == "self"):
            hits.append(node.lineno)
    return hits


def test_structure_tol_is_read_only_from_a_space():
    hits = {path.name: lines for path in SOURCES
            if (lines := _structure_tol_reads(
                ast.parse(path.read_text(encoding="utf-8"))))}
    assert not hits, f"structure_tol read from a non-space: {hits}"


@pytest.mark.parametrize("planted,flagged", [
    # the reads the space's tolerance replaced
    ("thr = tol.structure_tol * max(1.0, frob(Z))", True),
    ("kw = dict(star=star, structure_tol=tol.structure_tol)", True),
    ("print(f'tolerance {tol.structure_tol:g}')", True),
    ("t = self.tol.structure_tol", True),
    ("t = getattr(profile, 'structure_tol')", True),
    ("class ToleranceProfile:\n    def f(self):\n"
     "        return self.structure_tol", True),
    ("def f(self):\n    return self.structure_tol", True),
    # reads from a space, and what the rule leaves alone
    ("thr = space.structure_tol * max(1.0, frob(Z))", False),
    ("thr = self.space.structure_tol", False),
    ("t = inst.space.structure_tol", False),
    ("t = getattr(space, 'structure_tol')", False),
    ("class ScalarProductSpace:\n    def f(self):\n"
     "        return self.structure_tol", False),
    ("ScalarProductSpace(H, structure_tol=structure_tol)", False),
])
def test_structure_tol_rule_catches_a_planted_read(planted, flagged):
    assert bool(_structure_tol_reads(ast.parse(planted))) == flagged


# every random draw is reproducible from its call: it comes from a
# generator ``np.random.default_rng(seed)``, seeded by a module constant (an
# upper-case name bound at the top of its module) or by the caller (a
# parameter of an enclosing function, or an attribute of one); no global
# numpy state, no stdlib ``random``, no seed from the clock or the OS
RANDOM_MODULES = ("random", "numpy.random")
SEEDED_GENERATOR = "default_rng"


def _module_constants(tree):
    """Upper-case names bound at the top level of a module."""
    return {t.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign)
                      else [node.target])
            if isinstance(t, ast.Name)
            and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}


def _numpy_random(node):
    """True for ``np.random.<name>`` or ``numpy.random.<name>``."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and getattr(node.value.value, "id", None) in ("np", "numpy"))


def _unseeded_draws(tree):
    """Lines importing a random module, or naming ``np.random`` other than
    as ``np.random.default_rng(seed)`` with one seed argument: a module
    constant, a parameter of an enclosing function or an attribute of
    one."""
    constants, seeded = _module_constants(tree), set()

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = params | {p.arg for p in a.posonlyargs + a.args
                               + a.kwonlyargs + [a.vararg, a.kwarg] if p}
        if (isinstance(node, ast.Call) and _numpy_random(node.func)
                and node.func.attr == SEEDED_GENERATOR
                and len(node.args) == 1 and not node.keywords):
            seed = node.args[0]
            while isinstance(seed, ast.Attribute):
                seed = seed.value
            if (isinstance(seed, ast.Name) and (
                    seed.id in params or seed is node.args[0]
                    and seed.id in constants)):
                seeded.add(id(node.func))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return sorted({node.lineno for node in ast.walk(tree)
                   if _numpy_random(node) and id(node) not in seeded
                   or any(name == m or name.startswith(m + ".")
                          for name in _imported_names(node)
                          for m in RANDOM_MODULES)})


def test_every_random_draw_comes_from_a_seeded_generator():
    hits = {path.name: lines for path in SOURCES
            if (lines := _unseeded_draws(
                ast.parse(path.read_text(encoding="utf-8"))))}
    assert not hits, f"random draws without a fixed or given seed: {hits}"
    # the rule sees the package's draws: the probe of the invariant-pair
    # check, the oracle's sketches and the seeded samplers
    assert all(any(map(_numpy_random, ast.walk(ast.parse(
        path.read_text(encoding="utf-8")))))
        for path in SOURCES if path.name in ("core.py", "diagnostics.py"))


@pytest.mark.parametrize("planted,flagged", [
    # global state, the clock, the OS, a literal and a local as the seed
    ("x = np.random.standard_normal((n, 8))", True),
    ("np.random.seed(0)", True),
    ("rng = np.random.default_rng()", True),
    ("rng = np.random.default_rng(None)", True),
    ("def probe(n):\n    return np.random.default_rng(1234).random(n)", True),
    ("def probe(n):\n    return np.random.default_rng(time.time_ns())", True),
    ("def probe(n):\n    seed = n + 1\n    return np.random.default_rng(seed)",
     True),
    ("seed = 5\nrng = np.random.default_rng(seed)", True),
    ("rng = np.random.default_rng(seed=SEED)", True),
    ("g = np.random.Generator(np.random.PCG64(SEED))", True),
    ("draw = np.random.default_rng", True),
    ("import random\nx = random.random()", True),
    ("from numpy.random import default_rng", True),
    ("import numpy.random", True),
    # a module constant or the caller's seed, and a generator's own draws
    ("SEED = 7\nrng = np.random.default_rng(SEED)", False),
    ("_PROBE_SEED = 7\ndef probe(m):\n"
     "    return np.random.default_rng(_PROBE_SEED).standard_normal((m, 8))",
     False),
    ("def sample(space, seed):\n    return np.random.default_rng(seed)", False),
    ("def build(recipe):\n    rng = numpy.random.default_rng(recipe.seed)",
     False),
    ("def outer(seed):\n    def inner():\n"
     "        return np.random.default_rng(seed)\n    return inner", False),
    ("def draw(rng, n):\n    return rng.standard_normal((n, n))", False),
])
def test_random_draw_rule_catches_a_planted_draw(planted, flagged):
    assert bool(_unseeded_draws(ast.parse(planted))) == flagged


# every name the package exports is read: by the package outside the name's
# own definition and the export lists, by the benchmark harness, or in the
# README; an export nothing reads is code to delete
REPO = pathlib.Path(__file__).resolve().parents[1]
READER_TEXTS = sorted((REPO / "perfbench").rglob("*.py")) + [REPO / "README.md"]


def _reads(tree):
    """Names a module loads or reads as an attribute, outside the top-level
    definition of the same name; import and ``__all__`` lists read none."""
    reads = set()
    for d in tree.body:
        for n in ast.walk(d):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
        reads.discard(getattr(d, "name", None))
    return reads


def _unread(names, trees, texts):
    """The names no tree reads and no text mentions as a word."""
    read = set().union(*map(_reads, trees))
    return sorted(name for name in names if name not in read
                  and not any(re.search(rf"\b{name}\b", t) for t in texts))


def test_every_public_name_has_a_reader():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES]
    texts = [p.read_text(encoding="utf-8") for p in READER_TEXTS]
    unread = _unread(specpreserve.__all__, trees, texts)
    assert not unread, f"exported but read nowhere: {unread}"


@pytest.mark.parametrize("planted,text,flagged", [
    # the audit nothing called: defined, imported and exported
    ("from .spectral import gram_blocks\n__all__ = ['gram_blocks']", "",
     True),
    ("def gram_blocks(pairs):\n    return gram_blocks(pairs[1:])", "", True),
    ("gram_blocks = audit", "", True),
    ("", "gram_blocks_v2(pairs)", True),
    # a reader in the package, the harness or the README
    ("def gram_blocks(pairs):\n    pass\nG = gram_blocks(p)", "", False),
    ("def f(p):\n    return spectral.gram_blocks(p)", "", False),
    ("", "G = specpreserve.gram_blocks(pairs)", False),
    ("", "`gram_blocks` predicts the zero pattern", False),
])
def test_reader_rule_catches_a_planted_name(planted, text, flagged):
    unread = _unread(["gram_blocks"], [ast.parse(planted)], [text])
    assert (unread == ["gram_blocks"]) == flagged


# the per-arrangement entries of earlier versions are names of ``assemble``
# that the benchmark harness still imports: the package names them only in
# their one binding in ``__init__``, the tests only in the one test that
# pins that binding (and this rule)
ALIASES = re.compile(r"\bassemble_(?:complex|real_lie|real_jordan)\b")
ALIAS_BINDING = ("__init__.py", "assemble")
ALIAS_TEST = ("test_spectral.py",
              "test_the_per_arrangement_names_are_assemble")
TESTS = sorted(p for p in pathlib.Path(__file__).parent.glob("test_*.py")
               if p.name != pathlib.Path(__file__).name)


def _alias_lines(source, module):
    """Lines of source naming an alias outside its one home: the first
    top-level assignment of ``assemble`` in ``__init__``, or the alias
    test in its module."""
    home = set()
    for node in ast.parse(source).body:
        first_binding = (not home and isinstance(node, ast.Assign)
                         and isinstance(node.value, ast.Name)
                         and (module, node.value.id) == ALIAS_BINDING)
        test = (module, getattr(node, "name", None)) == ALIAS_TEST
        if first_binding or test:
            home.update(range(node.lineno, node.end_lineno + 1))
    return [i for i, line in enumerate(source.splitlines(), 1)
            if ALIASES.search(line) and i not in home]


def test_aliases_are_named_only_by_their_binding_and_its_test():
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in SOURCES + TESTS}
    hits = {name: lines for name, text in texts.items()
            if (lines := _alias_lines(text, name))}
    assert not hits, f"per-arrangement names outside their home: {hits}"
    # the rule sees both homes
    assert ALIASES.search(texts[ALIAS_BINDING[0]])
    assert ALIASES.search(texts[ALIAS_TEST[0]])


@pytest.mark.parametrize("module,planted,flagged", [
    # the one binding, and the one test
    ("__init__.py", "assemble_complex = assemble_real_lie = \\\n"
     "    assemble_real_jordan = assemble", False),
    ("test_spectral.py", "def test_the_per_arrangement_names_are_assemble():\n"
     "    assert specpreserve.assemble_complex is specpreserve.assemble",
     False),
    ("reassign.py", "assembly = assemble(A, spec, space, cls)", False),
    # a second binding, an export, a dispatch or a call elsewhere
    ("__init__.py", "assemble_complex = assemble\n"
     "assemble_real_lie = assemble", True),
    ("__init__.py", "__all__ = ['assemble', 'assemble_real_lie']", True),
    ("spectral.py", "assemble_complex = assemble", True),
    ("reassign.py", "from .spectral import assemble_real_jordan", True),
    ("reassign.py", "fn = (assemble_real_lie if cls is StructureClass.LIE\n"
     "      else assemble_real_jordan)", True),
    ("test_orbits.py", "def test_orbit():\n"
     "    assemble_complex(A, spec, space, cls)", True),
    ("test_spectral.py", "def test_orbit():\n"
     "    assemble_complex(A, spec, space, cls)", True),
])
def test_alias_rule_catches_a_planted_name(module, planted, flagged):
    assert bool(_alias_lines(planted, module)) == flagged
