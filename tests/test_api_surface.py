"""No public function, class or method that only the tests reach.

A name-based scan: every public top-level function and class of
``src/qciore/*.py``, and every public method of those classes, must be
reached from the program, that is named somewhere in ``src/qciore`` or
``bench/*.py`` outside its own definition: a function or class as a
``Name``, an ``Attribute`` or an import alias, a method only as an
``Attribute`` (``x.set``, never the builtin ``set``).  A function's local
variable of the same name (an argument, or an assignment, loop or
comprehension target) does not count.  Otherwise matching is by name only,
so a name that some other object shares counts as reached; the scan finds
API that nothing at all names.
A name the program does not reach must be on ``KEEP``, with the reason it
stays.

Likewise every defaulted parameter of those functions and methods must be
passed by some call in ``src/qciore``, ``bench/*.py`` or ``tests/*.py``,
or be on ``KEEP_DEFAULTS`` with its reason.  A call of the same name passes
a parameter by keyword, or by position at or past its place (a method's
``self`` not counted); a call with ``*args`` or ``**kwargs`` passes every
parameter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qciore").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "bench").glob("*.py"))
CALLERS = PROGRAM + sorted((ROOT / "tests").glob("*.py"))

KEEP = {
    "search.check_consequence_bounded": "acceptance criterion 5 calls it",
    "structures.reduct": "the oracle that tests/test_search.py checks search's reduct "
    "walk (_structure_at at _reduct_walk's factor positions) against",
    "structures.Assignment.set": "the tests' pointwise reference evaluators build each "
    "x-variant with it, the rule that eval_formula's sliced variants are checked against",
    "twist.twist_pair": "the paper's definition of a twist pair",
    "twist.twist_triple": "the paper's definition of a twist triple",
}

#: "module.function.parameter" (or "module.Class.method.parameter"): why
#: that defaulted parameter stays though no call passes it
KEEP_DEFAULTS: dict[str, str] = {}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope) -> set:
    """The names a function, lambda or comprehension binds in its own scope:
    its arguments, and its assignment, loop and comprehension targets."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        out = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                               args.vararg, args.kwarg) if a}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        out, todo = set(), [g.target for g in scope.generators]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):  # a nested scope binds its own
            todo += ast.iter_child_nodes(node)
    return out


def named(tree, attributes_only: bool = False) -> Counter:
    """How often each name occurs in ``tree`` as a Name, an Attribute or an
    import alias; as an Attribute only if ``attributes_only``.  A Name that
    an enclosing function, lambda or comprehension binds (``local_names``)
    is a local variable, and does not count."""
    out = Counter()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, SCOPES):
            local = local | local_names(node)
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif attributes_only:
            pass
        elif isinstance(node, ast.Name):
            if node.id not in local:
                out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
            if node.asname:
                out[node.asname] += 1
        todo += ((child, local) for child in ast.iter_child_nodes(node))
    return out


def public_definitions(path: Path):
    """(qualified name, definition node, whether it is a method) for each
    public top-level function and class of the module at ``path`` and each
    public method of those classes."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield "%s.%s" % (module, node.name), node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, member.name), member, True


def unreached() -> set:
    trees = [ast.parse(p.read_text()) for p in PROGRAM]
    everywhere = {
        method: sum((named(t, method) for t in trees), Counter()) for method in (False, True)
    }
    out = set()
    for path in SRC:
        for qualified, node, method in public_definitions(path):
            # a definition's own body (a recursive call) does not reach it
            if everywhere[method][node.name] - named(node, method)[node.name] <= 0:
                out.add(qualified)
    return out


def test_every_public_name_is_reached_or_kept():
    assert unreached() - KEEP.keys() == set()


def test_every_kept_name_exists_and_is_unreached():
    # a kept name that the program now reaches, or that is gone, leaves the list
    assert KEEP.keys() <= unreached()


def test_a_local_variable_does_not_reach_a_function():
    tree = ast.parse(
        "def f(a):\n"
        "    b = [c for c in a]\n"
        "    for d in b:\n"
        "        pass\n"
        "    return a, b, c, d, e\n"
        "g = lambda a: a\n"
    )
    counts = named(tree)
    # c is bound by the comprehension only: f's own c is a global
    assert (counts["a"], counts["b"], counts["c"], counts["d"], counts["e"]) == (0, 0, 1, 0, 1)


def defaulted(node, method: bool):
    """(parameter, position) for each defaulted parameter of the function
    ``node``; the position counts the call's positional arguments (a
    method's ``self`` not among them), and is None for a keyword-only one."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    shift = 1 if method and not static else 0
    start = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[start:], start):
        yield a.arg, i - shift
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def passed(trees) -> set:
    """(function name, parameter or position) for each way some call in
    ``trees`` passes arguments: a keyword by name, the positional
    arguments as their count, and ``*args`` or ``**kwargs`` as "*"."""
    out = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            out.add((name, "*" if starred else len(call.args)))
            out |= {(name, "*" if k.arg is None else k.arg) for k in call.keywords}
    return out


def dead_defaults(definitions, trees) -> set:
    """The defaulted parameters of ``definitions`` (as ``public_definitions``
    yields them) that no call in ``trees`` passes."""
    calls = passed(trees)
    widest = {}  # function name: the most positional arguments of a call
    for name, n in calls:
        if isinstance(n, int):
            widest[name] = max(widest.get(name, 0), n)
    out = set()
    for qualified, node, method in definitions:
        if isinstance(node, ast.ClassDef):
            continue
        name = node.name
        for param, position in defaulted(node, method):
            if (name, param) in calls or (name, "*") in calls:
                continue
            if position is not None and widest.get(name, 0) > position:
                continue
            out.add("%s.%s" % (qualified, param))
    return out


def test_every_defaulted_parameter_is_passed_or_kept():
    definitions = [d for path in SRC for d in public_definitions(path)]
    trees = [ast.parse(p.read_text()) for p in CALLERS]
    dead = dead_defaults(definitions, trees)
    assert dead - KEEP_DEFAULTS.keys() == set()
    # a kept parameter that some call now passes, or that is gone, leaves the list
    assert KEEP_DEFAULTS.keys() <= dead


def test_a_planted_dead_parameter_is_found():
    source = (
        "def f(a, b=1, *, c=2):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, a, b=1, c=2):\n"
        "        pass\n"
    )
    tree = ast.parse(source)
    definitions = [("m.f", tree.body[0], False), ("m.K.m", tree.body[1].body[0], True)]

    def dead(calls):
        return dead_defaults(definitions, [ast.parse(calls)])

    assert dead("f(0)\nk.m(0)") == {"m.f.b", "m.f.c", "m.K.m.b", "m.K.m.c"}
    # by position at or past the place, by keyword, and self not counted
    assert dead("f(0, 1)\nk.m(0, 1)") == {"m.f.c", "m.K.m.c"}
    assert dead("f(0, c=3)\nk.m(0, 1, 2)") == {"m.f.b"}
    # *args or **kwargs may pass anything
    assert dead("f(*xs)\nk.m(**kw)") == set()
