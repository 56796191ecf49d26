"""The cooperative "compiler": AST rewriting for the zero-thread engine.

The coop engine (:mod:`repro.runtime.coop`) runs every logical thread as
a plain Python *generator* resumed with ``send()`` from a single OS
thread.  Arbitrary direct-style code — the structures under test, the
instrumented runtime primitives, the harness thread bodies — cannot
suspend by itself: only a frame that is *syntactically* a generator can
yield.  Pure CPython has no greenlets, so suspension must be compiled
in.  This module does that compilation:

* :func:`coopify_body` turns a top-level thread body (a zero-argument
  closure) into a generator function whose instrumented operations
  *yield effects* to the engine instead of calling into a scheduler that
  would have to block an OS thread.
* Calls on the five suspending scheduler methods (``schedule_point``,
  ``block_until``, ``spin_wait``, ``yield_point`` — spelled as plain
  attribute calls on a scheduler or :class:`~repro.runtime.env.Runtime`
  receiver) are inlined into *effect tuples* yielded straight to the
  engine, with no runtime dispatch at all.
* Every other call site is rewritten, bottom-up, into a trampoline
  dispatch: ``__coop_call__`` runs non-suspending callees *directly* and
  returns their value, while callees from *cooperative modules* (the
  instrumented runtime, the structures, the harness, any module that
  contributed a thread body) come back as generators that the call site
  enters with ``yield from``, so suspension propagates through
  arbitrarily deep call stacks.  The discrimination happens at the call
  site — a result is delegated to only when it is a generator running
  one of the compiler's own code objects — so the common direct call
  pays one type check instead of a generator frame.
* Classes from cooperative modules are instantiated via ``cls.__new__``
  plus a cooperative ``__init__`` call when the ``__init__`` can
  suspend; classes whose ``__init__`` provably cannot (no call sites,
  or synthesized without source, like dataclasses) are constructed
  directly.
* ``with`` statements are expanded into the full PEP 343 protocol with
  cooperative ``__enter__``/``__exit__`` calls, because lock and monitor
  context managers suspend.

Rewriting happens once per *code object* (transformed code objects are
cached, and materialized closures are memoized per function object), so
the per-execution closures the harness builds pay the rebind once, not
per call.  The transformation is purely additive on semantics: the same
source runs under the baton engine untouched and under the coop engine
recompiled, which is what makes the two engines' decision traces
comparable step for step.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types

from repro.runtime.core import E_BLOCK, E_CHOOSE, E_SCHED, E_SPIN
from repro.runtime.errors import SchedulerError

__all__ = [
    "coop_call",
    "coop_direct",
    "coopify_body",
    "is_cooperative",
    "register_module",
]

#: Names under which the compiler's runtime is injected into cooperative
#: globals: the keyword-free trampoline, its keyword-accepting variant,
#: the generator type, and the set of compiler-produced code objects
#: (what a call site checks before delegating with ``yield from``).
CALL_NAME = "__coop_call__"
KW_CALL_NAME = "__coop_callkw__"
GEN_NAME = "__coop_gen__"
CODES_NAME = "__coop_codes__"

#: Suspension primitives inlined at the call site.  Receivers of these
#: attribute names in cooperative modules are always a scheduler or a
#: pure delegator to one (:class:`repro.runtime.env.Runtime`), so the
#: call can be compiled to a bare ``yield`` of the effect tuple.
#: ``choose`` is deliberately *not* inlined: the name is too generic to
#: claim by attribute alone, and choose sites are rare.
_EFFECT_ATTRS = frozenset(
    ("schedule_point", "block_until", "spin_wait", "yield_point")
)

#: Method names that, across every cooperative module, only ever resolve
#: to provably non-suspending implementations (``_Location._record`` and
#: friends — plain bookkeeping with no scheduling point below them).
#: Calls on pure attribute-chain receivers are left as plain calls,
#: skipping the trampoline entirely.  Keep this list in sync with the
#: definitions it names; adding a suspending method under one of these
#: names would silently run it uninstrumented.
_DIRECT_ATTRS = frozenset(
    ("_record", "peek", "peek_len", "current_thread", "holder")
)

#: Builtins that can never suspend and are left as plain calls (no
#: trampoline) when the name is not shadowed by a local or module
#: global.  Anything lazy enough to call back into user code later
#: (``map``, ``filter``) is excluded, though even those would only get
#: today's direct-call semantics.
_SAFE_BUILTINS = frozenset(
    (
        "abs", "bool", "bytearray", "bytes", "callable", "chr", "dict",
        "divmod", "enumerate", "float", "format", "frozenset", "getattr",
        "hasattr", "hash", "id", "int", "isinstance", "issubclass",
        "iter", "len", "list", "max", "min", "next", "ord", "print",
        "range", "repr", "reversed", "round", "set", "setattr", "sorted",
        "str", "sum", "tuple", "type", "zip",
    )
)

#: Modules whose code is recompiled when entered from cooperative code.
_MODULES: set[str] = {
    "repro.core.harness",
    "repro.exec.faults",
    "repro.runtime.env",
    "repro.runtime.locks",
    "repro.runtime.memory",
    "repro.runtime.monitor",
}
_PREFIXES: tuple[str, ...] = ("repro.structures.",)

_COOP_CACHE: dict[str, bool] = {}

#: Dispatch cache: code object (or non-function callable) -> entry tuple.
#: Entries: ``("direct",)``, ``("effect", which)``, ``("gen", func)``,
#: ``("genf", code, closure_index_map)``, ``("class", cls)``.
_DISPATCH: dict = {}

#: Every code object the compiler can hand back as a generator: the
#: transformed functions plus the two helper generators below.  A call
#: site delegates to its trampoline result if and only if the result is
#: a generator running one of these — a direct call that happens to
#: return some unrelated generator object passes through untouched.
_COOP_CODES: set = set()

_FunctionType = types.FunctionType
_MethodType = types.MethodType
_GeneratorType = types.GeneratorType


def register_module(name: str) -> None:
    """Mark *name* (a module ``__name__``) as cooperative.

    Test modules that define thread bodies calling helper functions
    which suspend should register themselves; :func:`coopify_body`
    does it automatically for the module of every top-level body.
    """
    if name not in _MODULES:
        _MODULES.add(name)
        _COOP_CACHE.clear()


def is_cooperative(name: str) -> bool:
    """Whether functions from module *name* are recompiled when called."""
    hit = _COOP_CACHE.get(name)
    if hit is None:
        hit = name in _MODULES or name.startswith(_PREFIXES)
        _COOP_CACHE[name] = hit
    return hit


def coop_direct(fn):
    """Mark *fn* as never-suspending: the trampoline calls it directly.

    For hot helpers in cooperative modules that provably contain no
    scheduling point anywhere below them (e.g. access-record
    bookkeeping).  The marked function — and therefore everything it
    calls — runs as ordinary Python, skipping compilation entirely.
    The contract is the author's to keep: a suspension reached through
    a marked function raises the engine's uncooperative-call error.
    """
    fn.__coop_direct__ = True
    return fn


def register_effects(cls) -> None:
    """Register *cls*'s suspending methods as engine effects.

    Called once by :mod:`repro.runtime.coop` for ``CoopScheduler``: the
    methods' code objects are mapped to effect tags so the trampoline
    turns bound-method calls into yielded effects instead of invoking
    the (deliberately raising) direct implementations.  Most effect
    sites never reach the trampoline — the rewriter inlines them — but
    aliased or dynamically dispatched calls still land here.
    """
    for name, which in (
        ("schedule_point", 0),
        ("block_until", 1),
        ("choose", 2),
        ("spin_wait", 3),
        ("yield_point", 4),
    ):
        _DISPATCH[getattr(cls, name).__code__] = ("effect", which)


# ---------------------------------------------------------------------------
# The trampoline.


def _effect(effect):
    """One-yield generator surfacing *effect* to the engine."""
    return (yield effect)


_NO_KWARGS: dict = {}


def _construct(cls, args, kwargs):
    """Instantiate *cls* with a cooperative (suspendable) ``__init__``."""
    obj = cls.__new__(cls)
    if isinstance(obj, cls):
        init = type(obj).__init__
        if init is not object.__init__:
            r = coop_callkw(init, obj, *args, **kwargs)
            if r.__class__ is _GeneratorType and r.gi_code in _COOP_CODES:
                yield from r
        elif args or kwargs:
            init(obj, *args, **kwargs)  # the usual TypeError
    return obj


def coop_call(__callee, *args):
    """Trampoline for a keyword-free rewritten call site.

    Returns either the call's *value* (non-suspending callee, executed
    right here) or a *generator* built from a compiler-produced code
    object, which the call site enters with ``yield from`` so its
    effect yields surface in the engine.
    """
    if type(__callee) is _MethodType and (
        type(func := __callee.__func__) is _FunctionType
    ):
        # Bound method over a plain function — the hot case.  The code
        # object is always hashable, so the lookup needs no guards, and
        # "gen" / "direct" resolve without touching the shared tail.
        target = func
        key = func.__code__
        entry = _DISPATCH.get(key)
        if entry is None:
            entry = _resolve(func, key)
        tag = entry[0]
        if tag == "gen":
            return entry[1](__callee.__self__, *args)
        if tag == "direct":
            return __callee(*args)
    else:
        func = None
        target = __callee
        key = target.__code__ if type(target) is _FunctionType else target
        try:
            entry = _DISPATCH.get(key)
        except TypeError:  # unhashable callable
            return __callee(*args)
        if entry is None:
            entry = _resolve(target, key)
        tag = entry[0]
    if tag == "direct":
        return __callee(*args)
    if tag == "gen":
        if func is None:
            return entry[1](*args)
        return entry[1](__callee.__self__, *args)
    if tag == "genf":
        try:
            made = target.__coop_made__
        except AttributeError:
            made = target.__coop_made__ = _materialize(entry, target)
        if func is None:
            return made(*args)
        return made(__callee.__self__, *args)
    if tag == "effect":
        which = entry[1]
        if which == 0:  # schedule_point(boundary=False)
            return _effect((E_SCHED, args[0] if args else False))
        if which == 1:  # block_until(predicate, harness=False)
            return _effect(
                (E_BLOCK, args[0], args[1] if len(args) > 1 else False)
            )
        if which == 2:  # choose(n)
            return _effect((E_CHOOSE, args[0]))
        if which == 3:  # spin_wait()
            return _effect((E_SPIN,))
        return _effect((E_SCHED, False))  # yield_point()
    return _construct(entry[1], args, _NO_KWARGS)  # tag == "class"


def coop_callkw(__callee, *args, **kwargs):
    """Trampoline for call sites with keyword arguments (the rare case)."""
    if type(__callee) is _MethodType:
        func = __callee.__func__
        target = func
    else:
        func = None
        target = __callee
    key = target.__code__ if type(target) is _FunctionType else target
    try:
        entry = _DISPATCH.get(key)
    except TypeError:  # unhashable callable
        return __callee(*args, **kwargs)
    if entry is None:
        entry = _resolve(target, key)
    tag = entry[0]
    if tag == "direct":
        return __callee(*args, **kwargs)
    if tag == "gen":
        if func is None:
            return entry[1](*args, **kwargs)
        return entry[1](__callee.__self__, *args, **kwargs)
    if tag == "genf":
        try:
            made = target.__coop_made__
        except AttributeError:
            made = target.__coop_made__ = _materialize(entry, target)
        if func is None:
            return made(*args, **kwargs)
        return made(__callee.__self__, *args, **kwargs)
    if tag == "effect":
        which = entry[1]
        if which == 0:  # schedule_point(boundary=False)
            return _effect(
                (E_SCHED, args[0] if args else kwargs.get("boundary", False))
            )
        if which == 1:  # block_until(predicate, harness=False)
            return _effect(
                (
                    E_BLOCK,
                    args[0] if args else kwargs["predicate"],
                    args[1] if len(args) > 1 else kwargs.get("harness", False),
                )
            )
        if which == 2:  # choose(n)
            return _effect((E_CHOOSE, args[0] if args else kwargs["n"]))
        if which == 3:  # spin_wait()
            return _effect((E_SPIN,))
        return _effect((E_SCHED, False))  # yield_point()
    return _construct(entry[1], args, kwargs)  # tag == "class"


_COOP_CODES.add(_effect.__code__)
_COOP_CODES.add(_construct.__code__)


def _materialize(entry, target):
    """Rebind a transformed code object over *target*'s live closure."""
    code, mapping = entry[1], entry[2]
    cells = target.__closure__
    closure = tuple(cells[i] for i in mapping) if mapping else ()
    made = _FunctionType(
        code, target.__globals__, target.__name__, target.__defaults__, closure
    )
    if target.__kwdefaults__:
        made.__kwdefaults__ = dict(target.__kwdefaults__)
    return made


def _resolve(target, key):
    entry = _compute_entry(target)
    _DISPATCH[key] = entry
    return entry


def _init_entry(cls):
    """The dispatch entry of *cls*'s ``__init__`` (resolving if needed)."""
    init = cls.__init__
    if type(init) is not _FunctionType:
        return ("direct",)  # object.__init__ or another slot wrapper
    icode = init.__code__
    entry = _DISPATCH.get(icode)
    if entry is None:
        entry = _resolve(init, icode)
    return entry


def _compute_entry(target):
    if getattr(target, "__coop_direct__", False):
        return ("direct",)
    if isinstance(target, type):
        module = getattr(target, "__module__", "") or ""
        if is_cooperative(module) and target.__new__ is object.__new__:
            if _init_entry(target)[0] == "direct":
                # The __init__ cannot suspend (no call sites, or it was
                # synthesized without source, like a dataclass's): the
                # whole construction is an ordinary call.
                return ("direct",)
            return ("class", target)
        return ("direct",)
    code = getattr(target, "__code__", None)
    if code is None or not isinstance(target, _FunctionType):
        return ("direct",)
    module = target.__globals__.get("__name__", "") or ""
    if not is_cooperative(module):
        return ("direct",)
    return _transform(target)


# ---------------------------------------------------------------------------
# The AST rewriter.


def _load(name):
    return ast.Name(id=name, ctx=ast.Load())


def _receiver_is_pure(node) -> bool:
    """True for a bare attribute chain rooted at a name (``a.b.c``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


class _Rewriter(ast.NodeTransformer):
    """Rewrite every call site into a cooperative dispatch.

    Nested scopes (defs, lambdas, class bodies) are left alone: ``yield``
    is illegal or scope-changing there, and calls inside them are
    recompiled lazily if the nested function is itself invoked through
    the trampoline.  Comprehensions with instrumented calls are lowered
    into synthesized nested generators (see :meth:`_lower_comp`);
    ``with`` statements are expanded into the explicit enter/exit
    protocol so context managers may suspend.
    """

    def __init__(
        self,
        self_name: str | None,
        has_class_cell: bool,
        shadowed: frozenset,
    ) -> None:
        self.count = 0
        self._with_serial = 0
        self._comp_serial = 0
        self._self_name = self_name
        self._has_class_cell = has_class_cell
        #: Names that may not refer to the builtin of the same name here
        #: (module globals plus anything assigned in this function).
        self._shadowed = shadowed
        #: Synthesized comprehension helpers, hoisted to the function top.
        self.comp_defs: list[ast.FunctionDef] = []

    # -- scopes we must not descend into ---------------------------------
    def visit_FunctionDef(self, node):
        return node

    def visit_AsyncFunctionDef(self, node):
        return node

    def visit_Lambda(self, node):
        return node

    def visit_ClassDef(self, node):
        return node

    # -- comprehension lowering -------------------------------------------
    # ``yield`` is illegal inside a comprehension, so one that makes
    # instrumented calls (``sum(size.get() for size in sizes)``) cannot be
    # rewritten in place.  It is lowered to explicit loops inside a
    # synthesized nested generator, entered with ``yield from``; the
    # outermost iterable is still evaluated in the enclosing scope (as the
    # call argument), matching Python's own comprehension semantics.
    # Generator expressions become eager here — identical decision traces
    # for full consumers like ``sum``/``list``, which is all the tree uses
    # (a short-circuiting consumer such as ``any`` would see extra
    # scheduling points; keep those out of cooperative modules).

    def visit_ListComp(self, node):
        return self._lower_comp(node, "list")

    def visit_SetComp(self, node):
        return self._lower_comp(node, "set")

    def visit_DictComp(self, node):
        return self._lower_comp(node, "dict")

    def visit_GeneratorExp(self, node):
        return self._lower_comp(node, "list")

    def _lower_comp(self, node, kind):
        if any(gen.is_async for gen in node.generators):
            return node
        before = self.count
        node = self.generic_visit(node)
        if self.count == before:
            return node  # nothing instrumented inside: leave it alone
        serial = self._comp_serial
        self._comp_serial += 1
        fname = f"__coop_comp{serial}"
        itname = f"__coop_it{serial}"
        res = f"__coop_res{serial}"

        if kind == "dict":
            init = ast.Dict(keys=[], values=[])
            emit = ast.Assign(
                targets=[
                    ast.Subscript(
                        value=_load(res), slice=node.key, ctx=ast.Store()
                    )
                ],
                value=node.value,
            )
        else:
            init = (
                ast.List(elts=[], ctx=ast.Load())
                if kind == "list"
                else ast.Call(func=_load("set"), args=[], keywords=[])
            )
            emit = ast.Expr(
                value=ast.Call(
                    func=ast.Attribute(
                        value=_load(res),
                        attr="append" if kind == "list" else "add",
                        ctx=ast.Load(),
                    ),
                    args=[node.elt],
                    keywords=[],
                )
            )
        body = [emit]
        for i, gen in reversed(list(enumerate(node.generators))):
            for cond in reversed(gen.ifs):
                body = [ast.If(test=cond, body=body, orelse=[])]
            body = [
                ast.For(
                    target=gen.target,
                    iter=_load(itname) if i == 0 else gen.iter,
                    body=body,
                    orelse=[],
                )
            ]
        self.comp_defs.append(
            ast.FunctionDef(
                name=fname,
                args=ast.arguments(
                    posonlyargs=[],
                    args=[ast.arg(arg=itname)],
                    vararg=None,
                    kwonlyargs=[],
                    kw_defaults=[],
                    defaults=[],
                    kwarg=None,
                ),
                body=[
                    ast.Assign(
                        targets=[ast.Name(id=res, ctx=ast.Store())],
                        value=init,
                    ),
                    *body,
                    ast.Return(value=_load(res)),
                    # Unreachable: forces generator-ness even when only the
                    # outermost iterable contained instrumented calls.
                    ast.Expr(value=ast.Yield(value=None)),
                ],
                decorator_list=[],
                returns=None,
                type_comment=None,
            )
        )
        return ast.YieldFrom(
            value=ast.Call(
                func=_load(fname),
                args=[node.generators[0].iter],
                keywords=[],
            )
        )

    # -- the call rewrite -------------------------------------------------
    def visit_Call(self, node):
        self.generic_visit(node)
        f = node.func
        if isinstance(f, ast.Name):
            if (
                f.id == "super"
                and not node.args
                and not node.keywords
            ):
                # Zero-argument super() needs the compiler-provided
                # __class__ cell, which the recompiled function would
                # lack; make the arguments explicit (the cell is wired
                # as a plain freevar).
                if self._has_class_cell and self._self_name:
                    return ast.Call(
                        func=f,
                        args=[
                            _load("__class__"),
                            _load(self._self_name),
                        ],
                        keywords=[],
                    )
                return node
            if f.id in _SAFE_BUILTINS and f.id not in self._shadowed:
                # A genuine builtin: cannot suspend, call it directly.
                return node
        if (
            isinstance(f, ast.Attribute)
            and f.attr in _DIRECT_ATTRS
            and _receiver_is_pure(f.value)
        ):
            # A known non-suspending method: call it directly.
            return node
        inlined = self._inline_effect(node)
        if inlined is not None:
            self.count += 1
            return inlined
        self.count += 1
        return self._dispatch_expr(node)

    def _inline_effect(self, node):
        """Compile ``sched.schedule_point()`` & co to a bare effect yield.

        Only when the receiver is a pure attribute chain (no calls or
        subscripts whose evaluation could matter) and the arguments fit
        the known signature.  In cooperative modules these four names
        are only ever methods of a scheduler or of the
        :class:`~repro.runtime.env.Runtime` facade that delegates to
        one, so dropping the receiver expression is sound.
        """
        f = node.func
        if not isinstance(f, ast.Attribute) or f.attr not in _EFFECT_ATTRS:
            return None
        if not _receiver_is_pure(f.value):
            return None
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return None
        args, kw = node.args, {k.arg: k.value for k in node.keywords}
        false = ast.Constant(value=False)
        if f.attr == "schedule_point":
            if len(args) > 1 or set(kw) - {"boundary"}:
                return None
            boundary = args[0] if args else kw.get("boundary", false)
            elts = [ast.Constant(value=E_SCHED), boundary]
        elif f.attr == "block_until":
            if len(args) > 2 or set(kw) - {"predicate", "harness"}:
                return None
            pred = args[0] if args else kw.get("predicate")
            if pred is None:
                return None
            harness = args[1] if len(args) > 1 else kw.get("harness", false)
            elts = [ast.Constant(value=E_BLOCK), pred, harness]
        elif f.attr == "spin_wait":
            if args or kw:
                return None
            elts = [ast.Constant(value=E_SPIN)]
        else:  # yield_point
            if args or kw:
                return None
            elts = [ast.Constant(value=E_SCHED), false]
        return ast.Yield(
            value=ast.Tuple(elts=elts, ctx=ast.Load())
        )

    def _dispatch_expr(self, node):
        """The rewritten call site.

        ``(yield from t) if (t := __coop_call__(f, ...)) is one of our
        generators else t`` — direct results pass through with a type
        check; only genuinely suspendable callees pay a delegation.
        """
        callname = KW_CALL_NAME if node.keywords else CALL_NAME
        call = ast.Call(
            func=_load(callname),
            args=[node.func, *node.args],
            keywords=node.keywords,
        )
        named = ast.NamedExpr(
            target=ast.Name(id="__coop_t", ctx=ast.Store()), value=call
        )
        is_gen = ast.Compare(
            left=ast.Attribute(value=named, attr="__class__", ctx=ast.Load()),
            ops=[ast.Is()],
            comparators=[_load(GEN_NAME)],
        )
        is_ours = ast.Compare(
            left=ast.Attribute(
                value=_load("__coop_t"), attr="gi_code", ctx=ast.Load()
            ),
            ops=[ast.In()],
            comparators=[_load(CODES_NAME)],
        )
        return ast.IfExp(
            test=ast.BoolOp(op=ast.And(), values=[is_gen, is_ours]),
            body=ast.YieldFrom(value=_load("__coop_t")),
            orelse=_load("__coop_t"),
        )

    # -- with-statement expansion -----------------------------------------
    def visit_With(self, node):
        self.generic_visit(node)
        return self._expand_with(node.items, node.body)

    def _coop(self, *argnodes):
        self.count += 1
        return self._dispatch_expr(
            ast.Call(func=argnodes[0], args=list(argnodes[1:]), keywords=[])
        )

    def _expand_with(self, items, body):
        item = items[0]
        if len(items) > 1:
            body = self._expand_with(items[1:], body)
        serial = self._with_serial
        self._with_serial += 1
        mgr = f"__coop_mgr{serial}"
        ok = f"__coop_ok{serial}"
        err = f"__coop_err{serial}"

        def store(name):
            return ast.Name(id=name, ctx=ast.Store())

        def attr(obj, name):
            return ast.Attribute(value=_load(obj), attr=name, ctx=ast.Load())

        enter = self._coop(attr(mgr, "__enter__"))
        stmts = [ast.Assign(targets=[store(mgr)], value=item.context_expr)]
        if item.optional_vars is not None:
            stmts.append(
                ast.Assign(targets=[item.optional_vars], value=enter)
            )
        else:
            stmts.append(ast.Expr(value=enter))
        stmts.append(
            ast.Assign(targets=[store(ok)], value=ast.Constant(value=True))
        )
        handler = ast.ExceptHandler(
            type=_load("BaseException"),
            name=err,
            body=[
                ast.Assign(
                    targets=[store(ok)], value=ast.Constant(value=False)
                ),
                ast.If(
                    test=ast.UnaryOp(
                        op=ast.Not(),
                        operand=self._coop(
                            attr(mgr, "__exit__"),
                            ast.Call(
                                func=_load("type"), args=[_load(err)], keywords=[]
                            ),
                            _load(err),
                            attr(err, "__traceback__"),
                        ),
                    ),
                    body=[ast.Raise(exc=None, cause=None)],
                    orelse=[],
                ),
            ],
        )
        none = ast.Constant(value=None)
        finalbody = [
            ast.If(
                test=_load(ok),
                body=[
                    ast.Expr(
                        value=self._coop(attr(mgr, "__exit__"), none, none, none)
                    )
                ],
                orelse=[],
            )
        ]
        stmts.append(
            ast.Try(
                body=list(body),
                handlers=[handler],
                orelse=[],
                finalbody=finalbody,
            )
        )
        return stmts


def _function_node(fn, code):
    """Parse *fn*'s source and return its (possibly synthesized) def node."""
    lines, start = inspect.getsourcelines(fn)
    source = textwrap.dedent("".join(lines))
    offset = 0
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # A fragment that is not a statement on its own (e.g. a lambda on
        # a ``return`` line): parse inside a dummy enclosing function.
        tree = ast.parse(
            "def __coop_wrap__():\n" + textwrap.indent(source, "    ")
        )
        offset = 1
    if fn.__name__ != "<lambda>":
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == fn.__name__
            ):
                node.decorator_list = []
                return node
        return None
    target_line = code.co_firstlineno - start + 1 + offset
    lambdas = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Lambda)
        and node.lineno == target_line
        and len(node.args.args) + len(node.args.posonlyargs)
        == code.co_argcount
    ]
    if not lambdas:
        return None
    # Prefer the outermost candidate: inner lambdas on the same line are
    # arguments (typically block_until predicates evaluated engine-side).
    inner = set()
    for cand in lambdas:
        for other in ast.walk(cand):
            if other is not cand and other in lambdas:
                inner.add(id(other))
    outer = [cand for cand in lambdas if id(cand) not in inner]
    if len(outer) != 1:
        return None
    lam = outer[0]
    return ast.FunctionDef(
        name="__coop_lambda__",
        args=lam.args,
        body=[ast.Return(value=lam.body)],
        decorator_list=[],
        returns=None,
        type_comment=None,
    )


def _find_code(parent: types.CodeType, name: str) -> types.CodeType:
    for const in parent.co_consts:
        if isinstance(const, types.CodeType) and const.co_name == name:
            return const
    raise SchedulerError(
        f"coop compiler lost the code object for {name!r}"
    )  # pragma: no cover - internal invariant


def _has_own_yield(fdef) -> bool:
    """Whether *fdef* yields in its own scope (i.e. is a generator)."""
    stack = list(fdef.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _shadowed_names(fdef, fn) -> frozenset:
    """Names that may not be builtins inside *fdef*: module globals plus
    everything the function assigns, imports, or declares."""
    names = set(fn.__globals__)
    for node in ast.walk(fdef):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return frozenset(names)


def _transform(fn):
    """Recompile *fn* into a generator; return its dispatch entry."""
    code = fn.__code__
    try:
        fdef = _function_node(fn, code)
    except (OSError, TypeError, SyntaxError):
        return ("direct",)
    if fdef is None:
        return ("direct",)
    if _has_own_yield(fdef):
        # A generator function: its own yields would collide with the
        # compiled effect yields.  Run it uninstrumented (cooperative
        # modules keep generator helpers off the suspension paths).
        return ("direct",)
    arg_nodes = fdef.args.posonlyargs + fdef.args.args
    self_name = arg_nodes[0].arg if arg_nodes else None
    rewriter = _Rewriter(
        self_name,
        "__class__" in code.co_freevars,
        _shadowed_names(fdef, fn),
    )
    new_body = []
    for stmt in fdef.body:
        result = rewriter.visit(stmt)
        if isinstance(result, list):  # a with-statement expansion
            new_body.extend(result)
        elif result is not None:
            new_body.append(result)
    fdef.body = rewriter.comp_defs + new_body
    if rewriter.count == 0:
        # No call sites at all: the function cannot suspend, so the
        # original runs unchanged (and much faster) as a direct call.
        return ("direct",)
    freevars = code.co_freevars
    if freevars:
        outer = ast.FunctionDef(
            name="__coop_outer__",
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg=name) for name in freevars],
                vararg=None,
                kwonlyargs=[],
                kw_defaults=[],
                defaults=[],
                kwarg=None,
            ),
            body=[fdef, ast.Return(value=ast.Name(id=fdef.name, ctx=ast.Load()))],
            decorator_list=[],
            returns=None,
            type_comment=None,
        )
        module = ast.Module(body=[outer], type_ignores=[])
    else:
        module = ast.Module(body=[fdef], type_ignores=[])
    ast.fix_missing_locations(module)
    filename = f"<coop {code.co_filename}:{code.co_firstlineno}>"
    try:
        mod_code = compile(module, filename, "exec")
    except SyntaxError:  # pragma: no cover - unsupported construct
        return ("direct",)
    g = fn.__globals__
    g.setdefault(CALL_NAME, coop_call)
    g.setdefault(KW_CALL_NAME, coop_callkw)
    g.setdefault(GEN_NAME, _GeneratorType)
    g.setdefault(CODES_NAME, _COOP_CODES)
    if freevars:
        outer_code = _find_code(mod_code, "__coop_outer__")
        new_code = _find_code(outer_code, fdef.name)
        mapping = tuple(freevars.index(n) for n in new_code.co_freevars)
        _COOP_CODES.add(new_code)
        return ("genf", new_code, mapping)
    new_code = _find_code(mod_code, fdef.name)
    _COOP_CODES.add(new_code)
    if fn.__defaults__ or fn.__kwdefaults__:
        # Default values are per-function-object (nested defs re-evaluate
        # them); rebind at call time instead of freezing the first seen.
        return ("genf", new_code, ())
    made = _FunctionType(new_code, fn.__globals__, fn.__name__)
    return ("gen", made)


# ---------------------------------------------------------------------------
# Top-level bodies.


def coopify_body(fn):
    """Compile a zero-argument thread body into a generator function.

    Bodies are force-compiled regardless of their module (and their
    module is registered as cooperative, so sibling helpers they call
    suspend properly).  A body that cannot be compiled — no retrievable
    source, or no call sites — is wrapped in a trivial generator; it can
    still run to completion, it just cannot suspend (and a direct call
    into a suspending primitive raises a descriptive
    :class:`SchedulerError` from the engine).
    """
    module = getattr(fn, "__globals__", None)
    if module is not None:
        name = module.get("__name__")
        if name:
            register_module(name)
    code = getattr(fn, "__code__", None)
    if code is None or not isinstance(fn, _FunctionType):

        def _opaque():
            fn()
            return
            yield  # pragma: no cover - makes this a generator

        return _opaque
    entry = _DISPATCH.get(code)
    if entry is None:
        entry = _resolve(fn, code)
    tag = entry[0]
    if tag == "gen":
        return entry[1]
    if tag == "genf":
        try:
            return fn.__coop_made__
        except AttributeError:
            made = fn.__coop_made__ = _materialize(entry, fn)
            return made

    def _plain():
        fn()
        return
        yield  # pragma: no cover - makes this a generator

    return _plain
