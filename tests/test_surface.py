"""The package's public surface: every public name has a user in src/.

A top-level def, class or constant of a pairdeco module that no other
statement in src/ refers to is dead code, or a helper that belongs in
the tests.  Imports do not count as uses: a re-export is not a caller.
"""

import ast
import pathlib

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
