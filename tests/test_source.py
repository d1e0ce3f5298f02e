"""Static checks on the package source."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import gyronet
from gyronet import checks, embed
from gyronet.embed import SkipgramConfig
from gyronet.hypformer import TransformerConfig
from gyronet.train import TrainSettings

SOURCES = sorted(Path(gyronet.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used.update(ast.literal_eval(node.value))  # re-exported names
    unused = [f"{path.name}:{line}: '{name}'" for name, line in imported.items() if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_only_the_line_reader_and_the_bundle_decode_bytes():
    # every text input goes through data.read_utf8_lines, which decodes in
    # text mode; bundle.py decodes the header lines of its binary format itself
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "bundle.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "decode"]
    assert not calls, "bytes decoded outside bundle.py: " + ", ".join(calls)


def test_no_module_imports_codecs():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import) and any(a.name == "codecs" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "codecs")]
    assert not found, "codecs imported: " + ", ".join(found)


def _calls_by_scope(tree, name):
    """(enclosing class and function names, call node) of every call to
    ``name`` or ``<module>.name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append((".".join(scope), child))
            visit(child, scope)

    visit(tree, ())
    return found


def test_tape_nodes_are_made_only_by_tape_leaf_and_record():
    # the benchmark's tracer counts nodes by wrapping these two methods
    calls = [(path.name, scope, call.lineno) for path in SOURCES
             for scope, call in _calls_by_scope(ast.parse(path.read_text(encoding="utf-8")),
                                                "Node")]
    assert {(name, scope) for name, scope, _ in calls} == {("diffcore.py", "Tape.leaf"),
                                                           ("diffcore.py", "Tape.record")}, calls


def test_the_skipgram_pair_score_is_spelled_once():
    # the loss, the per-pair gradients and the block gradients read one
    # logit, whose time signs make it Lorentzian, and one y - sigma(z)
    tree = ast.parse((Path(gyronet.__file__).parent / "embed.py").read_text(encoding="utf-8"))
    for name, caller in (("_time_signs", "_sample_logits"), ("_sigmoid", "_residuals")):
        assert {scope for scope, _ in _calls_by_scope(tree, name)} == {caller}, name
    assert not hasattr(embed, "hyperboloid_logit")


def _open_mode(call):
    """The mode of an ``open`` call, second to the builtin and first to a
    path's method; "r" when it is absent or not a literal."""
    args = call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    mode = [kw.value for kw in call.keywords if kw.arg == "mode"] + args
    return mode[0].value if mode and isinstance(mode[0], ast.Constant) else "r"


def test_only_the_line_reader_opens_a_file_to_read_text():
    # an open() whose mode has no "w", "a", "x" or "b" decodes text: outside
    # data.read_utf8_lines it would be a second decoder
    calls = [f"{path.name}:{call.lineno}" for path in SOURCES
             for scope, call in _calls_by_scope(ast.parse(path.read_text(encoding="utf-8")),
                                                "open")
             if not set("waxb") & set(_open_mode(call))
             and (path.name, scope) != ("data.py", "read_utf8_lines")]
    assert not calls, "a text file read outside data.read_utf8_lines: " + ", ".join(calls)


def test_only_embed_code_points_turns_characters_into_code_points():
    # the corpus has one form on its way to ids: the array of code_points
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, ast.FunctionDef)
             and (path.name, fn.name) not in (("embed.py", "code_points"),
                                              ("embed.py", "_code_point"))
             for node in ast.walk(fn)
             if (isinstance(node, ast.Name) and node.id == "ord")
             or (isinstance(node, ast.Constant) and "utf-32" in str(node.value).lower())]
    assert not calls, "characters turned into code points outside embed.code_points: " + \
        ", ".join(calls)


def test_geometry_is_the_only_home_of_the_gyrovector_guards():
    # the division floor, the artanh margin and the ball's shell are spelled once
    found = [f"{path.name}: {needle!r}" for path in SOURCES if path.name != "geometry.py"
             for needle in ("1e-15", "_TINY =", "EPS_BOUNDARY =")
             if needle in path.read_text(encoding="utf-8")]
    assert not found, "a geometry guard defined outside geometry.py: " + ", ".join(found)


def test_each_poincare_formula_is_spelled_once():
    # Mobius addition and the conformal factor have one body each, which the
    # tape binds; np.vdot belongs to geometry's one finite check
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    for needle in ("x2 * y2 / (c2 * c2)", "2.0 / (1.0 - ", "np.vdot("):
        found = [name for name, text in texts.items() for _ in range(text.count(needle))]
        assert found == ["geometry.py"], f"{needle!r} spelled in {found}"


def _is_minus_one(node):
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
        and isinstance(node.operand, ast.Constant) and node.operand.value == 1


def test_einsum_is_called_only_by_the_two_last_axis_kernels():
    # np.einsum, its kernel c_einsum and the fallback that binds c_einsum to
    # np.einsum: each is called only by the two kernels, and only
    # geometry.py names either
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    calls = [(name, scope) for name, tree in trees.items() for kernel in ("einsum", "c_einsum")
             for scope, _ in _calls_by_scope(tree, kernel)]
    assert sorted(calls) == [("geometry.py", "_inner"), ("geometry.py", "_sum_last")], calls
    named = {name for name, tree in trees.items() for node in ast.walk(tree)
             if "einsum" in (getattr(node, "id", None) or getattr(node, "attr", None)
                             or getattr(node, "name", None) or "")}
    assert named == {"geometry.py"}, named


@pytest.mark.parametrize("name", ["diffcore.py", "diffgeom.py", "hypformer.py"])
def test_the_tape_sums_no_last_axis_but_by_the_kernel(name):
    # np.add.reduce(a, -1) or np.sum(a, axis=-1) on the tape would bypass
    # geometry._sum_last, whose bits for a row do not depend on its batch
    tree = ast.parse((Path(gyronet.__file__).parent / name).read_text(encoding="utf-8"))
    found = [f"{name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.add.reduce", "np.sum")
             and any(_is_minus_one(arg) for arg in node.args[1:2]
                     + [kw.value for kw in node.keywords if kw.arg == "axis"])]
    assert not found, "a last-axis sum outside geometry's kernel: " + ", ".join(found)


# geometry's fused kernels, which evaluate the classifier on arrays
FUSED_KERNELS = {"_shell", "_project", "_scaled", "_expmap0", "_logmap0", "_matvec",
                 "mobius_matvec", "_gyro_coefficients", "_mobius_add_rows", "_mlr_scores"}


def test_no_function_takes_a_setting_that_has_one_value():
    # the ball is the unit ball: no function or lambda takes a radius c, and
    # every fused kernel is still there to be checked; the check suites have
    # fixed sizes and tolerances and take only their seed, which
    # geometry-check --seed sets; the sampling exponent is 0.75
    found, kernels = [], set()
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "lambda")
            if path.name == "geometry.py" and name in FUSED_KERNELS:
                kernels.add(name)
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if "c" in [a.arg for a in args]:
                found.append(f"{path.name}:{fn.lineno} {name}")
    assert kernels == FUSED_KERNELS, FUSED_KERNELS - kernels
    assert not found, "a radius parameter: " + ", ".join(found)
    assert len(checks.ALL_SUITES) == 5
    for suite in checks.ALL_SUITES:
        assert list(inspect.signature(suite).parameters) == ["seed"], suite.__name__
    for fn in (embed.build_vocab, embed.Vocabulary):
        assert "alpha" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("cls", [TransformerConfig, TrainSettings, SkipgramConfig],
                         ids=lambda cls: cls.__name__)
def test_the_cli_passes_every_setting_by_keyword(cls):
    # a field that cli.py leaves at its default is a setting no flag reaches
    tree = ast.parse((Path(gyronet.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    calls = [call for _, call in _calls_by_scope(tree, cls.__name__)]
    assert calls, f"cli.py never constructs {cls.__name__}"
    for call in calls:
        passed = {kw.arg for kw in call.keywords}
        unset = [f.name for f in dataclasses.fields(cls) if f.name not in passed]
        assert not unset, f"cli.py:{call.lineno}: {cls.__name__} without {unset}"
