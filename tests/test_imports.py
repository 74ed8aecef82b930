"""Every name a package or test module imports, and every
module-private top-level name a package module defines, is used in
that module; package modules import each other at module level only;
every public top-level name is read somewhere in the package; every
parameter is read by its function; every dataclass field is read as
an attribute.

Deleting code tends to leave its imports, helpers and knobs behind;
this catches them with the standard-library parser, no linter needed.
An imported name counts as used when it is read anywhere in the module
or listed in ``__all__``; a private name when it is read anywhere in
the module; a public name when any package module reads it, as a name
or an attribute, outside its own definition, or lists it in
``__all__``.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import tokenhier
from tokenhier import cli, ssl
from tokenhier.errors import ConfigError, DataError, NumericError

MODULES = sorted(Path(tokenhier.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    """The entries of a module's ``__all__``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            yield from ast.literal_eval(node.value)


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(exported_names(tree))


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports but never uses: {unused}"


def private_definitions(tree):
    """``_``-prefixed functions, classes and constants at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {name for name in private_definitions(tree)
               if name.startswith("_") and not name.startswith("__")}
    unread = sorted(private - read_names(tree))
    assert not unread, f"{path.name} defines but never reads: {unread}"


def package_import(node) -> bool:
    """``from .x import ...``, ``from tokenhier... import`` or
    ``import tokenhier...``."""
    if isinstance(node, ast.ImportFrom):
        return (node.level > 0
                or (node.module or "").split(".")[0] == "tokenhier")
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "tokenhier" for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_deferred_package_imports(path):
    """Package modules import each other at module level: an import
    inside a function hides a cycle between modules.  Deferred imports
    of other modules stay allowed; which ones ``src`` may import at all
    is ``test_runtime_needs_numpy_and_scipy_only``'s rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    deferred = sorted({f"{path.name}:{node.lineno}"
                       for func in ast.walk(tree)
                       if isinstance(func, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       for node in ast.walk(func) if package_import(node)})
    assert not deferred, f"package imports inside functions: {deferred}"


# Third-party packages ``src`` may import: the runtime ``dependencies`` of
# pyproject.toml.  scipy (``scipy.special.erf`` in GELU) leaves with the
# byte-moving half of ROADMAP item 8.
RUNTIME_PACKAGES = {"numpy", "scipy"}


def absolute_imports(tree):
    """(line, top-level module) of every absolute import, module level
    or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_runtime_needs_numpy_and_scipy_only(path):
    """``src`` imports nothing outside the standard library, numpy and
    scipy, so a tool used only to check outputs (a schema validator, a
    test framework) stays a test dependency."""
    allowed = sys.stdlib_module_names | RUNTIME_PACKAGES
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = sorted(f"{path.name}:{line} {module}"
                     for line, module in absolute_imports(tree)
                     if module not in allowed)
    assert not outside, f"imports outside the runtime: {outside}"


def starred_calls(tree):
    """Calls that pass ``**`` of a mapping, outside ``read_config``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "read_config":
            skip.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in skip
                and any(k.arg is None for k in node.keywords)):
            yield node


def test_one_config_reader():
    """``checkpoint.read_config`` is the one place that builds a config
    dataclass from ``**`` of a dict, so its type rules cannot split into
    partial copies again."""
    found = [f"{path.name}:{call.lineno} {ast.unparse(call.func)}(**...)"
             for path in MODULES
             for call in starred_calls(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"config built outside read_config: {found}"


def test_one_config_file_reader_in_cli():
    """In ``cli``, only ``_read_config_file`` loads a --config file or
    type-checks its values, so every command reads its file the same
    way: known keys only, each checked, flags over file values."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = {"_load_config_file", "read_config", "check_value"}
    found = [f"{node.name} calls {call.func.id}"
             for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name != "_read_config_file"
             for call in ast.walk(node)
             if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name)
             and call.func.id in readers]
    assert not found, f"config read outside _read_config_file: {found}"


def callers_in(path, names):
    """{name: {top-level function calling it in ``path``}}, for calls by
    name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = {name: set() for name in names}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    called = getattr(func, "id", getattr(func, "attr", None))
                    if called in callers:
                        callers[called].add(f"{path.stem}.{node.name}")
    return callers


def test_one_view_loop_in_ssl():
    """In ``ssl``, ``stain_space``, ``stain_remap`` (the per-view jitter
    kernel) and ``patchify`` are called inside ``_step_views`` alone,
    and in ``src`` ``_step_views`` and ``train_step`` are called by
    ``run_training`` alone: the views of a step have one builder,
    whichever process runs it, a step trains on nothing else, and the
    names the benchmark traces in ``ssl``'s namespace stay the ones it
    calls."""
    builders = {"stain_space", "stain_remap", "patchify"}
    assert callers_in(Path(ssl.__file__), builders) == {
        name: {"ssl._step_views"} for name in builders}
    steps = {"_step_views", "train_step"}
    callers = {name: set() for name in steps}
    for path in MODULES:
        for name, found in callers_in(path, steps).items():
            callers[name] |= found
    assert callers == {name: {"ssl.run_training"} for name in steps}


def test_colour_round_trips_go_through_stain_space():
    """In ``src``, ``rgb_to_lab``, ``lab_to_rgb``, ``rgb_to_hsv`` and
    ``hsv_to_rgb`` are read inside ``color`` alone: every colour round
    trip elsewhere goes through ``stain_space`` and ``stain_remap``, so
    the remap has one implementation."""
    conversions = {"rgb_to_lab", "lab_to_rgb", "rgb_to_hsv", "hsv_to_rgb"}
    found = sorted({f"{path.name} {name}"
                    for path in MODULES if path.stem != "color"
                    for name in loaded_names(ast.parse(
                        path.read_text(encoding="utf-8")))
                    if name in conversions})
    assert not found, f"colour conversions read outside color: {found}"


def test_jitter_sigmas_are_read_in_color_only():
    """In ``src``, ``lab_mean_sigma``, ``lab_std_sigma``,
    ``hsv_mean_sigma`` and ``hsv_std_sigma`` are read inside ``color``
    alone: every other module takes a space's six sigmas from
    ``StainAugConfig.sigmas``, so their order has one home."""
    fields = {"lab_mean_sigma", "lab_std_sigma", "hsv_mean_sigma",
              "hsv_std_sigma"}
    found = sorted({f"{path.name} {name}"
                    for path in MODULES if path.stem != "color"
                    for name in loaded_names(ast.parse(
                        path.read_text(encoding="utf-8")))
                    if name in fields})
    assert not found, f"jitter sigmas read outside color: {found}"


# Standard-library modules that start threads or processes.
CONCURRENCY = {"concurrent", "multiprocessing", "threading", "_thread"}
POOLS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Timer",
         "Pool", "Process", "start_new_thread"}


def test_one_forked_worker():
    """``os.fork`` and ``os.waitpid`` are each called once in ``src``,
    both in ``ssl.run_training``: the view worker is the one child
    process, and the call that makes it reaps it.  The one thread pool
    is the training step's lane: ``ssl`` alone imports
    ``concurrent.futures``, and ``run_training`` makes its one
    ``ThreadPoolExecutor`` after the fork, so no thread lives across it;
    no other thread or pool is made in ``src``."""
    calls, lines, imports = [], {}, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    func = ast.unparse(call.func)
                    if (func in ("os.fork", "os.waitpid")
                            or func.split(".")[-1] in POOLS):
                        calls.append(f"{path.stem}.{node.name} {func}")
                        lines[func] = call.lineno
        imports += [f"{path.stem} {module}"
                    for _, module in absolute_imports(tree)
                    if module in CONCURRENCY]
    assert sorted(calls) == ["ssl.run_training ThreadPoolExecutor",
                             "ssl.run_training os.fork",
                             "ssl.run_training os.waitpid"]
    assert imports == ["ssl concurrent"]
    assert lines["os.fork"] < lines["ThreadPoolExecutor"]


def test_one_home_for_suite_specs():
    """In ``src``, ``SuiteSpec(...)`` is built only inside
    ``bench.SUITE_SPECS``; every other caller ``replace``s a shipped
    spec, so the values of each suite have one home."""
    home, outside = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shipped = {id(node) for stmt in tree.body
                   if path.stem == "bench" and isinstance(stmt, ast.Assign)
                   and any(getattr(t, "id", None) == "SUITE_SPECS"
                           for t in stmt.targets)
                   for node in ast.walk(stmt.value)}
        for call in ast.walk(tree):
            func = getattr(call, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "SuiteSpec":
                (home if id(call) in shipped else outside).append(
                    f"{path.name}:{call.lineno}")
    assert home, "bench.SUITE_SPECS builds no SuiteSpec"
    assert not outside, f"SuiteSpec built outside SUITE_SPECS: {outside}"


def loaded_names(tree):
    """Names read in ``tree``, as a name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def test_public_names_are_read_in_src():
    """Every public top-level def or class in ``src/tokenhier`` is read
    somewhere in ``src`` outside its own definition: a name that only
    tests reach belongs in the tests, or nowhere."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    reads = Counter(name for tree in trees.values()
                    for name in loaded_names(tree))
    exported = {name for tree in trees.values()
                for name in exported_names(tree)}
    unread = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in exported
              and reads[node.name] == Counter(loaded_names(node))[node.name]]
    assert not unread, f"public names no src code reads: {unread}"

@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """``src`` reads no environment variable (no ``os.environ``, no
    ``os.getenv``): every setting is a flag or a config key, so a
    command line and its config file say all that a run reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = sorted(f"{path.name}:{node.lineno} {ast.unparse(node)}"
                   for node in ast.walk(tree)
                   if getattr(node, "id", getattr(node, "attr", None))
                   in {"environ", "environb", "getenv", "getenvb"})
    assert not reads, f"environment reads: {reads}"


# The CLI contract: each exit-code class, its exit code and the label
# that starts its stderr line.
EXIT_CODES = {ConfigError: (2, "error"), DataError: (3, "data error"),
              NumericError: (1, "verification error")}
LEAVES = {cls.__name__ for cls in EXIT_CODES}


def test_one_exception_class_per_exit_code():
    """``errors.py`` defines the base class and one leaf per non-zero
    exit code, nothing more."""
    errors = Path(tokenhier.__file__).with_name("errors.py")
    tree = ast.parse(errors.read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert classes == {"TokenhierError"} | LEAVES
    assert {cls: (cls.code, cls.label) for cls in EXIT_CODES} == EXIT_CODES


def raised_names(tree):
    """(line, name) of what every non-bare ``raise`` raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_an_exit_code_class(path):
    """Every error ``src`` raises is one of the exit-code classes, so
    ``cli.main`` maps each to its code and none ends in a traceback."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    other = [f"{path.name}:{line} {name}"
             for line, name in raised_names(tree) if name not in LEAVES]
    assert not other, f"raises outside the exit-code classes: {other}"


@pytest.mark.parametrize("leaf", sorted(EXIT_CODES, key=lambda c: c.code),
                         ids=lambda c: c.__name__)
def test_main_exits_with_the_class_code(leaf, monkeypatch, capsys):
    def command(args):
        raise leaf("stub failure")

    monkeypatch.setattr(cli, "cmd_gradcheck", command)
    code, label = EXIT_CODES[leaf]
    assert cli.main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"{label}: stub failure\n"


# Library modules: they trust their callers, which check each value
# where it enters (``cli``, the artifact loaders).
LIBRARIES = ("encoder", "heads", "numkernel", "optim", "ssl", "color")


def post_init_nodes(tree):
    """Every node inside a dataclass's ``__post_init__``."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            for func in cls.body:
                if (isinstance(func, ast.FunctionDef)
                        and func.name == "__post_init__"):
                    yield from ast.walk(func)


@pytest.mark.parametrize("name", LIBRARIES)
def test_libraries_raise_config_error_in_post_init_only(name):
    """In a library module, ``ConfigError`` (exit 2) is raised only by a
    config dataclass checking its own fields: a condition on a value
    that meets another value is checked by the caller, before the work
    that needs it starts."""
    path = Path(tokenhier.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = {getattr(node, "lineno", None) for node in post_init_nodes(tree)}
    outside = [f"{path.name}:{line}" for line, exc in raised_names(tree)
               if exc == "ConfigError" and line not in allowed]
    assert not outside, f"ConfigError raised outside __post_init__: {outside}"


@pytest.mark.parametrize("name", LIBRARIES)
def test_libraries_take_no_switch_parameter(name):
    """No function in a library module has a parameter defaulting to
    ``True`` or ``False``: a kernel does its one job, and a caller that
    wants less drops what it does not need.  Dataclass fields are
    settings, not parameters, and are not checked here."""
    path = Path(tokenhier.__file__).with_name(f"{name}.py")
    switches = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = (list(zip(positional[len(positional)
                                         - len(args.defaults):],
                              args.defaults))
                     + list(zip(args.kwonlyargs, args.kw_defaults)))
            switches += [f"{path.name}:{arg.lineno} {arg.arg}"
                         for arg, default in pairs
                         if isinstance(default, ast.Constant)
                         and isinstance(default.value, bool)]
    assert not switches, f"on/off parameters: {switches}"


# (module, function, parameter) triples exempt from the rule below.
UNREAD_PARAMETERS = {
    # perfbench/workloads.py passes threads=; the parameter goes when the
    # benchmark stops passing it (ROADMAP item 1)
    ("bench", "embed_dataset", "threads"),
}


def parameter_names(func):
    args = func.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a]):
        yield arg.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """Every parameter of every function (methods, nested functions and
    lambdas included) is read in its body, so a knob no code honours
    cannot stay in a signature."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name for stmt in body for name in read_names(stmt)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}: {arg}"
                       for arg in parameter_names(node)
                       if arg not in read
                       and (path.stem, name, arg) not in UNREAD_PARAMETERS]
    assert not unread, f"parameters never read: {unread}"


def dataclass_fields(tree):
    """(class, field) for every annotated field of every dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id


# Result records, not settings: written whole to a primary output by
# ``asdict`` (the loss log's line is ``{"step": ..., **asdict(lb)}``).
RECORD_DATACLASSES = {("ssl", "LossBreakdown")}


def test_every_dataclass_field_is_read():
    """Every field of every ``src`` dataclass that holds settings is read
    as an attribute somewhere in ``src``: a field only written, or only
    carried into a fingerprint by ``asdict``, is a setting no code
    honours."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls}.{name}"
              for module, tree in trees.items()
              for cls, name in dataclass_fields(tree)
              if name not in attrs and (module, cls) not in RECORD_DATACLASSES]
    assert not unread, f"dataclass fields no src code reads: {unread}"


def test_readme_layout_names_every_module():
    """README's Layout block has one line for each package module
    (``__init__.py`` aside) and for no other file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    layout = readme.read_text(encoding="utf-8").split("## Layout", 1)[1]
    block = layout.split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    assert sorted(listed) == [p.name for p in MODULES
                              if p.name != "__init__.py"]
