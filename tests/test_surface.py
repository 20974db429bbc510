"""The package's public surface: every public name has a user in src/.

A top-level def, class or constant of a pairdeco module that no other
statement in src/ refers to is dead code, or a helper that belongs in
the tests.  Imports do not count as uses: a re-export is not a caller.
Likewise, a defaulted parameter of a public function that no call in
src/ passes is an option with one value in use, so it is a constant.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pairdeco

#: public names kept with no caller in src/, each with the reason
ALLOWED = {
    # reserved for a first-principles evolve oracle (sound-cone G')
    "condensed_sigma_element": "decoherence, for the evolve oracle",
    "lambda_coefficient": "phonon, for the evolve oracle",
    "level_energy": "phonon, for the evolve oracle",
    "zeta_closed_echo": "magicecho, for the echo's sound-cone G'",
    # reserved for the oracle's per-check error budget
    "tridiag_residual": "xprec, eigen-residual of extended points",
    # the echo amplitude of acceptance criterion 4
    "me_amplitude": "magicecho, the normalized echo amplitude",
}

SRC = pathlib.Path(pairdeco.__file__).parent


def _defined(node):
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                        ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _referenced(node):
    """Names a statement reads, as a bare name or an attribute."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def unused_public_names():
    """Public top-level names no other statement in src/ refers to."""
    statements = []
    for path in sorted(SRC.glob("*.py")):
        statements += ast.parse(path.read_text()).body
    refs = [_referenced(node) for node in statements]
    unused = set()
    for i, node in enumerate(statements):
        for name in _defined(node):
            if not any(name in r for j, r in enumerate(refs) if j != i):
                unused.add(name)
    return unused


def test_every_public_name_has_a_user():
    unused = unused_public_names()
    assert unused - set(ALLOWED) == set(), "public names nothing uses"
    # an allowed name that gained a user leaves the list
    assert set(ALLOWED) - unused == set(), "allowed names now in use"


def test_package_namespace_holds_only_the_version():
    docstring, *rest = ast.parse((SRC / "__init__.py").read_text()).body
    assert isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(node) for node in rest] == [
        f"__version__ = {pairdeco.__version__!r}"]


#: defaulted parameters no call in src/ passes, each with the reason
ALLOWED_DEFAULTS = {
    "main.argv": "cli, the console entry passes none",
    # cmd_evolve calls both through its local name ``evolve``
    "free_sigma.exact_path": "phonon, passed as evolve(exact_path=...)",
    "me_sigma.exact_path": "magicecho, passed as evolve(exact_path=...)",
}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unset_defaults():
    """function.parameter of each defaulted parameter of a public
    top-level function that no call in src/ passes."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    passed = {}
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _callee(call):
                positions, names = passed.setdefault(_callee(call),
                                                     (set(), set()))
                positions.update(range(len(call.args)))
                names.update(k.arg for k in call.keywords)
    unset = set()
    for tree in trees:
        for node in tree.body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # (position or None if keyword-only, parameter)
            defaulted = [(i, arg) for i, arg in enumerate(positional)
                         if i >= first]
            defaulted += [(None, arg) for arg, default in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            positions, names = passed.get(node.name, (set(), set()))
            unset.update(f"{node.name}.{arg.arg}" for index, arg in defaulted
                         if index not in positions and arg.arg not in names)
    return unset


def test_every_default_is_set_by_a_caller():
    unset = unset_defaults()
    assert unset - set(ALLOWED_DEFAULTS) == set(), "defaults nothing sets"
    assert set(ALLOWED_DEFAULTS) - unset == set(), "allowed defaults now set"


def test_runtime_does_not_import_mpmath():
    # mpmath is a test dependency: the 50-digit reference of the tests
    code = """if True:
        import math, sys
        import pairdeco.cli
        assert "mpmath" not in sys.modules, "import pairdeco.cli"
        from pairdeco import xprec
        # the oracle's hardest point, at a small cutoff
        xprec.s_free_x(0.5, -0.3, 0.1, [math.pi], 40)
        assert "mpmath" not in sys.modules, "xprec.s_free_x"
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
