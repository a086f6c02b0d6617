"""Source hygiene that no installed linter checks: every module-level import
in the package is used by its module or re-exported through ``__all__``, no
module loads a scipy submodule at import time, ``scipy.linalg`` and
``scipy.optimize`` are used only by an allowlist of definitions, the
field-keeping modules never cast to complex outside ``as_matrix``, the
verification oracle calls no eigenvector solver, factors no square matrix
outside its fallback and memoizes the spectrum of no matrix but the
unperturbed A, and every threshold test raises through ``core._decide``."""

import ast
import pathlib

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
# ``scipy.linalg`` or ``scipy.optimize`` costs a process about 200 ms, so
# the package uses them only where numpy has no equivalent: the LU with
# ``?gecon`` of ``[X_c X_f]``, the real Schur form of a skew form and the
# Hungarian of a tied pairing (a dense H is inverted by numpy)
SCIPY_SUBMODULE_USERS = {
    "subspaces.py": {"preserve_complementary"},
    "diagnostics.py": {"_skew_orthogonal_normalize", "_assign_multisets"},
}
HEAVY_SUBMODULES = ("scipy.linalg", "scipy.optimize")


def _heavy_scipy_uses(tree, module):
    """Lines outside the module's allowlisted top-level definitions that
    name ``scipy.linalg`` or ``scipy.optimize``: an attribute chain such as
    ``scipy.linalg.lu_factor`` or an import of either, at any depth."""
    allowed = {id(n) for d in tree.body
               if isinstance(d, (ast.FunctionDef, ast.ClassDef))
               and d.name in SCIPY_SUBMODULE_USERS.get(module, ())
               for n in ast.walk(d)}
    hits = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        names = _imported_names(node)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        if any(name == sub or name.startswith(sub + ".")
               for name in names for sub in HEAVY_SUBMODULES):
            hits.append(node.lineno)
    return hits


def test_scipy_submodules_are_used_only_where_allowed():
    hits = {path.name: lines for path in SOURCES
            if (lines := _heavy_scipy_uses(
                ast.parse(path.read_text(encoding="utf-8")), path.name))}
    assert not hits, f"scipy.linalg/optimize outside the allowlist: {hits}"


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
    # the name of an allowed definition in another module
    ("spectral.py", "def _assign_multisets(c):\n"
     "    return scipy.optimize.linear_sum_assignment(c)", True),
    # the allowlist, and what the rule leaves alone
    ("diagnostics.py", "def _assign_multisets(c):\n"
     "    return scipy.optimize.linear_sum_assignment(c)", False),
    ("subspaces.py", "def preserve_complementary(X):\n"
     "    return scipy.linalg.get_lapack_funcs(('getrf',), (X,))", False),
    ("matio.py", "def load(path):\n    import scipy.io\n"
     "    return scipy.io.mmread(path)", False),
    ("spectral.py", "import scipy", False),
    ("spectral.py", "def f(A):\n    return np.linalg.eigvals(A)", False),
])
def test_scipy_use_rule_catches_a_planted_call(module, planted, flagged):
    assert bool(_heavy_scipy_uses(ast.parse(planted), module)) == flagged


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
# and it reaches an SVD, or the full-matrix rank and structure routines of
# delta, only in the fallback of ``_rank_and_structure``, the statements
# after its sketch branch
ORACLE_ENTRIES = ("verify_reassignment", "spectrum_multiset_compare")
SKETCHED = "_rank_and_structure"
NEVER = {"solve", "inv", "pinv", "lstsq"}
FALLBACK_ONLY = {"svd"}
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
    fallback = {id(n) for stmt in getattr(oracle.get(SKETCHED), "body", [])
                if not isinstance(stmt, ast.If) for n in ast.walk(stmt)}
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
    ("def generate_instance(A):\n    return np.linalg.solve(A, A)", False),
    ("def verify_reassignment(B):\n    return numerical_rank(B)", False),
])
def test_oracle_factorization_rule_catches_a_planted_call(planted, flagged):
    assert bool(_oracle_factorizations(ast.parse(planted))) == flagged


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
