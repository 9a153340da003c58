import argparse
import ast
import inspect
import re
from pathlib import Path

import pytest

import charmat
from charmat import cli
from charmat.cli import build_parser

SRC = Path(charmat.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _defined_names(node: ast.stmt) -> list[str]:
    # the names a module-level statement binds: a def's or a class's name, or the plain
    # names an assignment stores to (not the object of an attribute target such as _f.__name__)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return []


def _unread_private_names(src: Path) -> list[str]:
    # module-level private functions, classes and constants that no Name or attribute
    # access in the package reads
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno} {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in used)


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper kept alive only by tests is dead code
    assert _unread_private_names(SRC) == []


def test_dead_helper_guard_sees_a_helper_only_tests_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used(x):\n    return x\n\n\n"
        "def _dead(x):\n    return x\n\n\n"
        "def public(x):\n    return _used(x)\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import _dead\n", encoding="utf-8")
    assert _unread_private_names(tmp_path) == ["a.py:5 _dead"]


def test_dead_helper_guard_sees_a_constant_nothing_reads(tmp_path):
    # _f.__name__ = ... binds no new name; it only reads _f
    (tmp_path / "a.py").write_text(
        "_READ = 1\n_DEAD = 2\n_PAIR_A, _PAIR_B = 3, 4\n_TYPED: int = 5\n\n\n"
        "def _f():\n    return _READ + _PAIR_A\n\n\n"
        "_f.__name__ = 'g'\n", encoding="utf-8")
    assert _unread_private_names(tmp_path) == [
        "a.py:2 _DEAD", "a.py:3 _PAIR_B", "a.py:4 _TYPED"]


def test_dead_helper_guard_sees_a_class_nothing_builds(tmp_path):
    # a private class counts as read where it is built or subclassed, not where it is defined
    (tmp_path / "a.py").write_text(
        "class _Base:\n    pass\n\n\n"
        "class _Built(_Base):\n    pass\n\n\n"
        "class _Dead:\n    def _method(self):\n        return _Built()\n", encoding="utf-8")
    assert _unread_private_names(tmp_path) == ["a.py:9 _Dead"]


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_the_readme_names_is_a_cli_option():
    # pip's --no-build-isolation, in the install line, is the one flag not of charmat
    options = {flag for sub in _subparsers().values() for action in sub._actions
               for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text(encoding="utf-8")))
    assert named - options - {"--no-build-isolation"} == set()


def _docstring_of(obj) -> str | None:
    # read off the source, since a dataclass without one gets a generated __doc__
    module = ast.parse(Path(inspect.getsourcefile(obj)).read_text(encoding="utf-8"))
    node = next(node for node in module.body if getattr(node, "name", None) == obj.__name__)
    return ast.get_docstring(node)


@pytest.mark.parametrize("name", charmat.__all__)
def test_every_public_name_states_its_contract(name):
    assert (_docstring_of(getattr(charmat, name)) or "").strip()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_states_what_it_provides(path):
    assert (ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or "").strip()


def test_the_cli_parser_has_a_description():
    # argparse takes it from the first paragraph of the cli module's docstring
    assert build_parser().description.strip()


# one home per rule: hilbert.adjoint forms A*, io._numbers judges a file's numbers, and
# graph._hermitian_kernel_trivial runs the one eigvalsh of the kernel test


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_spells_its_own_adjoint(path):
    assert ".conj().T" not in path.read_text(encoding="utf-8")


def test_io_judges_numbers_by_exact_type():
    assert not re.search(r"isinstance\(.*bool\)", (SRC / "io.py").read_text(encoding="utf-8"))


def test_graph_calls_eigvalsh_at_one_site():
    assert (SRC / "graph.py").read_text(encoding="utf-8").count("np.linalg.eigvalsh") == 1


def test_family_assembles_nothing():
    # the decomposition suite reads the fiber stack: only OperatorFamily.assemble forms
    # the mn x mn operator, and no code in family.py names it besides its definition
    tree = ast.parse((SRC / "family.py").read_text(encoding="utf-8"))
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "assemble"]
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "assemble"
             or isinstance(node, ast.Name) and node.id == "assemble"
             or isinstance(node, ast.Constant) and node.value == "assemble"]
    assert (defined, named) == (["assemble"], [])


# the commands write their files in their own thread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_threading(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "threading" not in imported


def test_cli_calls_the_save_matrix_it_imports():
    # so its import needs no noqa: the name is read, not only wrapped by the tracer
    lines = (SRC / "cli.py").read_text(encoding="utf-8").splitlines()
    node = next(node for node in ast.parse("\n".join(lines)).body
                if isinstance(node, ast.ImportFrom)
                and "save_matrix" in {alias.name for alias in node.names})
    assert not any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno])


# one declaration per public name and per subcommand: the package re-exports its modules'
# __all__, and each subparser carries the command it runs


def test_the_package_imports_no_public_name_by_name():
    # each import in __init__ is a * import or an import of a charmat module
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert names == ["*"] or all((SRC / f"{name}.py").is_file() for name in names)


def test_the_package_all_joins_its_modules_all():
    from charmat import boundary, calculus, family, graph, hilbert

    assert charmat.__all__ == [*hilbert.__all__, *graph.__all__, *family.__all__,
                               *calculus.__all__, *boundary.__all__]


def test_cli_binds_no_dispatch_table():
    assert not hasattr(cli, "_DISPATCH")


@pytest.mark.parametrize("argv, command", [
    (["charmat", "T.json"], cli.cmd_charmat),
    (["verify", "F.json"], cli.cmd_verify),
    (["example-dirichlet", "--n", "100", "--k", "1"], cli.cmd_example_dirichlet),
    (["selfadjoint", "H.json", "group"], cli.cmd_selfadjoint),
], ids=["charmat", "verify", "example-dirichlet", "selfadjoint"])
def test_each_subparser_carries_its_command(argv, command):
    assert build_parser().parse_args(argv).run is command


def test_selfadjoint_choices_are_the_checks_that_name_their_flag():
    action = next(a for a in _subparsers()["selfadjoint"]._actions if a.dest == "subcommand")
    assert action.choices == tuple(cli._REQUIRES)


# one check record: every check returns hilbert.Checks, and the CLI's report extends it


def _classes_with_a_residuals_field(path: Path) -> list[str]:
    return [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any(name == "residuals" for stmt in node.body for name in _defined_names(stmt))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_hilbert_defines_a_check_record(path):
    expected = ["Checks"] if path.name == "hilbert.py" else []
    assert _classes_with_a_residuals_field(path) == expected


def test_record_guard_sees_a_second_record(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Report:\n    residuals: dict = None\n\n\n"
        "class Sub(Report):\n    seed: int = 0\n", encoding="utf-8")
    assert _classes_with_a_residuals_field(tmp_path / "a.py") == ["Report"]


@pytest.mark.parametrize("name", ["IdentityReport", "VERDICTS", "STONE_TOL", "FOURIER_TOL"])
def test_the_older_verdict_shapes_are_gone(name):
    assert not [path.name for path in sorted(SRC.glob("*.py"))
                if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))]


def test_cli_unpacks_no_suite_item():
    # the report extends the suite's Checks, so cli.py reads no per-item dict
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    keys = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not keys & {"residual", "applicable"}
