"""Symbolic expression trees: the substrate every other module rewrites.

An Expr is an immutable tree over named, optionally indexed variables.
Supported node kinds:

    const   -- finite real number
    var     -- variable; identity is the (base, index) pair
    add     -- n-ary sum of children
    mul     -- n-ary product of children
    neg     -- unary negation
    div     -- quotient of two children
    func    -- unary function from FUNCTIONS (log2, ln, sqrt, exp10)
    bigsum  -- symbolic sum of one body over one index-set symbol

A var's index is either None (plain scalar), an int (a concrete entity,
rendered base_NN), or a string naming the index set of an enclosing
bigsum that binds it.  expand_sums() turns bigsums into explicit sums by
substituting concrete indices for the symbolic ones.

Construction goes through the factory functions (const, var, add, ...),
which fold only 0/1 identities so that rewrite output stays structurally
predictable.  No general simplification is attempted.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

Env = dict[str, float]


class ExprError(Exception):
    """Base class for expression errors."""


class UnboundVariable(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class DomainError(ExprError):
    pass


class UnsupportedNode(ExprError):
    def __init__(self, kind: str):
        super().__init__(f"unsupported node kind: {kind}")
        self.kind = kind


class UnboundIndexSet(ExprError):
    def __init__(self, symbol: str):
        super().__init__(f"no binding for index set: {symbol}")
        self.symbol = symbol


# name -> (evaluator, domain check message or None)
_FUNC_EVAL: dict[str, Callable[[float], float]] = {
    "log2": math.log2,
    "ln": math.log,
    "sqrt": math.sqrt,
    "exp10": lambda x: 10.0**x,
}


class _ExprFields(NamedTuple):
    kind: str
    children: tuple["Expr", ...] = ()
    value: float = 0.0
    # var: base name; func: function name; bigsum: index-set symbol
    name: str = ""
    # var only: None | int (concrete) | str (symbolic, bound by a bigsum)
    index: int | str | None = None


class _first_use:
    """functools.cached_property without the lock Python 3.11's takes on
    every first read: the value goes into the instance dict, which then
    answers every later read without calling the descriptor."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Expr(_ExprFields):
    """An immutable expression node: its kind, children and payload are a
    NamedTuple's fields; the subclass adds the dict var_pairs is kept in."""

    def __str__(self) -> str:
        return render(self)

    @_first_use
    def var_pairs(self) -> frozenset[tuple[str, int | None]]:
        """(base, index) of every variable in the tree, found once per
        node, on first use.  A symbolic index counts as None, as var_name
        renders it.  A node whose variables all come from one child shares
        that child's set.  Children's sets are joined, not collected again
        in a walk of the subtree: a union copies the hashes its operands
        already store, which on the few-node terms of a dual is cheaper
        than hashing every pair afresh."""
        if self.kind == "var":
            index = self.index if isinstance(self.index, int) else None
            return frozenset(((self.name, index),))
        out = _NO_PAIRS
        for c in self.children:
            pairs = c.var_pairs
            if not out:
                out = pairs
            elif pairs and pairs is not out:
                out = out | pairs
        return out


_NO_PAIRS: frozenset[tuple[str, int | None]] = frozenset()


# The factories pass the fields by position, in _ExprFields's order: a
# NamedTuple built from keywords takes about 40 % longer.

def const(v: float) -> Expr:
    if not math.isfinite(v):
        raise DomainError(f"non-finite constant: {v}")
    return Expr("const", (), float(v))


ZERO = const(0.0)
ONE = const(1.0)


def var(base: str, index: int | str | None = None) -> Expr:
    return Expr("var", (), 0.0, base, index)


def var_name(base: str, index: int | str | None = None) -> str:
    """Canonical identifier of a variable: base, or base_NN for int index.

    Symbolic indices render bare; the enclosing bigsum carries the set name.
    """
    if isinstance(index, int):
        return f"{base}_{index:02d}"
    return base


def _is_const(e: Expr, v: float) -> bool:
    return e.kind == "const" and e.value == v


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        k = t.kind
        if k == "add":
            flat.extend(t.children)
        elif k != "const" or t.value != 0.0:
            flat.append(t)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Expr("add", tuple(flat))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        k = f.kind
        if k == "mul":
            flat.extend(f.children)
        elif k != "const":
            flat.append(f)
        elif f.value == 0.0:
            return ZERO
        elif f.value != 1.0:
            flat.append(f)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Expr("mul", tuple(flat))


def neg(e: Expr) -> Expr:
    if e.kind == "const" and e.value == 0.0:
        return ZERO
    if e.kind == "neg":
        return e.children[0]
    return Expr("neg", (e,))


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def div(num: Expr, den: Expr) -> Expr:
    if _is_const(den, 1.0):
        return num
    if _is_const(num, 0.0):
        return ZERO
    return Expr("div", (num, den))


def func(fname: str, arg: Expr) -> Expr:
    if fname not in _FUNC_EVAL:
        raise UnsupportedNode(f"func:{fname}")
    return Expr("func", (arg,), 0.0, fname)


def log2(e: Expr) -> Expr:
    return func("log2", e)


def ln(e: Expr) -> Expr:
    return func("ln", e)


def sqrt(e: Expr) -> Expr:
    return func("sqrt", e)


def exp10(e: Expr) -> Expr:
    return func("exp10", e)


def bigsum(set_symbol: str, body: Expr) -> Expr:
    return Expr("bigsum", (body,), 0.0, set_symbol)


# ---------------------------------------------------------------------------
# evaluation

def left_sum(values: Iterable[float]) -> float:
    """0 + v0 + v1 + ..., added left to right.  sum() of floats gives
    these floats before Python 3.12 and compensated ones from 3.12 on;
    this gives the same floats on every interpreter."""
    total = 0
    for v in values:
        total = total + v
    return total


def eval_expr(e: Expr, env: Env) -> float:
    """Evaluate e under env; every free variable must be bound."""
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        name = var_name(e.name, e.index)
        try:
            return env[name]
        except KeyError:
            raise UnboundVariable(name) from None
    if k == "add":
        return left_sum(eval_expr(c, env) for c in e.children)
    if k == "mul":
        r = 1.0
        for c in e.children:
            r *= eval_expr(c, env)
        return r
    if k == "neg":
        return -eval_expr(e.children[0], env)
    if k == "div":
        d = eval_expr(e.children[1], env)
        if d == 0.0:
            raise DomainError("division by zero")
        return eval_expr(e.children[0], env) / d
    if k == "func":
        x = eval_expr(e.children[0], env)
        if e.name in ("log2", "ln") and x <= 0.0:
            raise DomainError(f"{e.name} of non-positive value {x}")
        if e.name == "sqrt" and x < 0.0:
            raise DomainError(f"sqrt of negative value {x}")
        return _FUNC_EVAL[e.name](x)
    if k == "bigsum":
        raise UnboundIndexSet(e.name)
    raise UnsupportedNode(k)


# what a generated fast path raises where eval_expr raises an ExprError
_FAST_PATH_ERRORS = "(KeyError, ZeroDivisionError, ValueError, OverflowError)"


def compile_expr(e: Expr, params: Sequence[str] | None = None
                 ) -> Callable[[Env | Sequence[float]], float]:
    """Compile to one Python function generated as source; same results
    as eval_expr, bit for bit, and much faster when one expression is
    evaluated many times (simulation inner loops).  The function takes
    env, or, given a params order, one sequence of values in that order
    (see SourceGen.prologue), evaluated as the env dict(zip(params, args)).

    The source is SourceGen's: one local per distinct subtree, so deep
    trees never nest and equal subtrees are computed once, with
    eval_expr's operations in eval_expr's order.  The fast path leaves
    the domain checks to the float operations themselves; when one of
    them raises (or a variable is unbound) the call is evaluated again by
    eval_expr, which raises the same exception eval_expr always does."""
    gen = SourceGen(params)
    result = gen.emit(e)
    source = (f"def compiled({gen.arg}):\n"
              f"    try:\n{gen.prologue(8)}{gen.source(gen.lines, 8)}"
              f"        return {result}\n"
              f"    except {_FAST_PATH_ERRORS}:\n"
              f"        pass\n"
              f"    return _eval_expr(_expr, {gen.env})\n")
    return gen.define(source, "compiled", _eval_expr=eval_expr, _expr=e)


def compile_slacks(pairs: Sequence[tuple[Expr, Expr]], params: Sequence[str] | None = None
                   ) -> Callable[[Env | Sequence[float]], list[float]]:
    """Compile constraints, given as (lhs, rhs) pairs, to one generated
    function that returns each pair's rhs - lhs, in order: the floats of
    eval_expr(rhs, env) - eval_expr(lhs, env).  It takes env or, given
    params, one sequence, as compile_expr's does.  As in compile_expr,
    each variable is read once and equal subtrees, of one pair or of
    several, are computed once.  Where the fast path raises, every pair is
    evaluated again by eval_expr, rhs before lhs and pair by pair, so the
    first failing side raises what it always raised."""
    gen = SourceGen(params)
    slacks = []
    for lhs, rhs in pairs:
        right = gen.emit(rhs)
        left = gen.emit(lhs)
        slacks.append(f"{right} - {left}")
    source = (f"def slacks({gen.arg}):\n"
              f"    try:\n{gen.prologue(8)}{gen.source(gen.lines, 8)}"
              f"        return [{', '.join(slacks)}]\n"
              f"    except {_FAST_PATH_ERRORS}:\n"
              f"        pass\n"
              f"    env = {gen.env}\n"
              f"    return [_eval_expr(rhs, env) - _eval_expr(lhs, env)\n"
              f"            for lhs, rhs in _pairs]\n")
    return gen.define(source, "slacks", _eval_expr=eval_expr, _pairs=tuple(pairs))


class SourceGen:
    """Straight-line Python source for expressions, one local per
    distinct subtree.

    Subtrees are merged by structure (hash-consing): a node's key is its
    kind, its name and the locals of its children, and a constant's key
    is its float.hex, so -0.0 and 0.0 stay apart and no key relies on
    Expr equality.  Arithmetic is eval_expr's: add is 0 + a + b + ...,
    mul is 1.0 * a * b * ..., the denominator of a div is evaluated
    first, exp10(x) is 10.0 ** x, and constants are passed in as objects
    rather than printed.  Each variable is read once into a local
    (`reads`, by `prologue`); `bind` makes a variable name a given local
    instead.  Equal values computed twice are the same float, so merging
    changes no result.  Reads are (local, variable name) pairs, lines
    (local, code) pairs.  `varying` holds every bound local and every
    local computed from one, so a caller that changes the bound locals
    need recompute only those.

    The generated function's argument is `arg`: a name-keyed env, or,
    given a `params` order, one sequence of values in that order.  `env`
    is the expression a fallback evaluates the env as: env itself, or
    dict(zip(params, args)), built only by the fallback."""

    def __init__(self, params: Sequence[str] | None = None):
        self.params = None if params is None else tuple(params)
        self.arg, self.env = (("env", "env") if params is None
                              else ("args", "dict(zip(_params, args))"))
        self.reads: list[tuple[str, str]] = []
        self.lines: list[tuple[str, str]] = []
        self.consts: dict[str, float] = {}
        self.varying: set[str] = set()
        self._vars: dict[str, str] = {}
        self._keys: dict[tuple, str] = {}
        self._ids: dict[int, str] = {}   # id(node) -> local, for shared nodes

    def bind(self, name: str, local: str) -> None:
        self._vars[name] = local
        self.varying.add(local)

    def read(self, name: str) -> str:
        """The local the variable `name` is read into."""
        local = self._vars.get(name)
        if local is None:
            local = self._vars[name] = f"v{len(self.reads)}"
            self.reads.append((local, name))
        return local

    def prologue(self, indent: int) -> str:
        """The source that reads every variable into its local: one
        env[name] lookup each or, given params, one statement unpacking
        args in params order (a parameter nothing reads goes to _), then,
        for a variable params does not name, the KeyError env[name] would
        raise."""
        pad = " " * indent
        if self.params is None:
            return "".join(f"{pad}{local} = env[{name!r}]\n" for local, name in self.reads)
        local_of = {name: local for local, name in self.reads}
        targets = "".join(f"{local_of.get(p, '_')}, " for p in self.params)
        source = f"{pad}({targets}) = args\n"
        unbound = [name for _, name in self.reads if name not in self.params]
        if unbound:
            source += f"{pad}raise KeyError({unbound[0]!r})\n"
        return source

    def emit(self, e: Expr) -> str:
        """Name of a local (or constant) holding e's value."""
        done = self._ids.get(id(e))
        if done is not None:
            return done
        k = e.kind
        if k == "const":
            key = (k, float(e.value).hex())
            name = self._keys.get(key)
            if name is None:
                name = self._keys[key] = f"_c{len(self.consts)}"
                self.consts[name] = e.value
        elif k == "var":
            name = self.read(var_name(e.name, e.index))
        elif k in ("add", "mul", "neg", "div", "func"):
            if k == "func" and e.name not in _FUNC_EVAL:
                raise UnsupportedNode(f"func:{e.name}")
            if k == "div":
                den = self.emit(e.children[1])
                args = [self.emit(e.children[0]), den]
            else:
                args = [self.emit(c) for c in e.children]
            key = (k, e.name, *args)
            name = self._keys.get(key)
            if name is None:
                if k == "add":
                    code = " + ".join(["0", *args])
                elif k == "mul":
                    code = " * ".join(["1.0", *args])
                elif k == "neg":
                    code = f"-{args[0]}"
                elif k == "div":
                    code = f"{args[0]} / {args[1]}"
                elif e.name == "exp10":
                    code = f"10.0 ** {args[0]}"
                else:
                    code = f"_{e.name}({args[0]})"
                name = self._keys[key] = f"t{len(self._keys)}"
                self.lines.append((name, code))
                if not self.varying.isdisjoint(args):
                    self.varying.add(name)
        elif k == "bigsum":
            raise UnboundIndexSet(e.name)
        else:
            raise UnsupportedNode(k)
        self._ids[id(e)] = name
        return name

    @staticmethod
    def source(lines: list[tuple[str, str]], indent: int) -> str:
        pad = " " * indent
        return "".join(f"{pad}{name} = {code}\n" for name, code in lines)

    def define(self, source: str, fname: str, **names) -> Callable:
        """The function `fname` defined by source, with the constants,
        function evaluators and params the emitted lines read."""
        namespace = {**{f"_{f}": fn for f, fn in _FUNC_EVAL.items()},
                     **self.consts, "_params": self.params, **names}
        exec(compile(source, f"<{fname}>", "exec"), namespace)
        return namespace[fname]


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, wrt: str) -> Expr:
    """Exact symbolic partial derivative of e with respect to the variable
    whose canonical identifier is `wrt`."""
    k = e.kind
    if k == "const":
        return ZERO
    if k == "var":
        return ONE if var_name(e.name, e.index) == wrt else ZERO
    if k == "add":
        return add(*(differentiate(c, wrt) for c in e.children))
    if k == "neg":
        return neg(differentiate(e.children[0], wrt))
    if k == "mul":
        terms = []
        cs = e.children
        for i in range(len(cs)):
            di = differentiate(cs[i], wrt)
            if _is_const(di, 0.0):
                continue
            terms.append(mul(*cs[:i], di, *cs[i + 1:]))
        return add(*terms)
    if k == "div":
        a, b = e.children
        da, db = differentiate(a, wrt), differentiate(b, wrt)
        return div(add(mul(da, b), neg(mul(a, db))), mul(b, b))
    if k == "func":
        u = e.children[0]
        du = differentiate(u, wrt)
        if _is_const(du, 0.0):
            return ZERO
        if e.name == "log2":
            return div(du, mul(const(math.log(2.0)), u))
        if e.name == "ln":
            return div(du, u)
        if e.name == "sqrt":
            return div(du, mul(const(2.0), sqrt(u)))
        if e.name == "exp10":
            return mul(const(math.log(10.0)), exp10(u), du)
    raise UnsupportedNode(k)


# ---------------------------------------------------------------------------
# structural rewrites

def bind_index(e: Expr, symbol: str, index: int) -> Expr:
    """Replace the symbolic index `symbol` on every variable with a
    concrete index."""
    if e.kind == "var":
        if e.index == symbol:
            return var(e.name, index)
        return e
    if not e.children:
        return e
    return Expr(e.kind, tuple(bind_index(c, symbol, index) for c in e.children),
                e.value, e.name, e.index)


def expand_sums(e: Expr, bindings: Mapping[str, Iterable[int]]) -> Expr:
    """Expand every bigsum by substituting its index set's members in
    binding order.  The result contains no bigsum nodes."""
    if e.kind == "bigsum":
        if e.name not in bindings:
            raise UnboundIndexSet(e.name)
        body = e.children[0]
        terms = [expand_sums(bind_index(body, e.name, i), bindings)
                 for i in bindings[e.name]]
        return add(*terms)
    if not e.children:
        return e
    return Expr(e.kind, tuple(expand_sums(c, bindings) for c in e.children),
                e.value, e.name, e.index)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables (matched by canonical identifier) with expressions."""
    if e.kind == "var":
        return mapping.get(var_name(e.name, e.index), e)
    if not e.children:
        return e
    return Expr(e.kind, tuple(substitute(c, mapping) for c in e.children),
                e.value, e.name, e.index)


def level1_terms(e: Expr) -> list[Expr]:
    """Additive terms whose sum is algebraically equal to e.

    Negations are carried into terms; a negated sum is distributed so
    that no returned term has an additive root.  A child with no sum at
    its root, or under its one negation, is its own term and is not
    entered.
    """
    if e.kind == "add":
        out: list[Expr] = []
        for c in e.children:
            k = c.kind
            if k == "add" or k == "neg" and c.children[0].kind == "add":
                out.extend(level1_terms(c))
            else:
                out.append(c)
        return out
    if e.kind == "neg" and e.children[0].kind == "add":
        return [neg(t) for t in level1_terms(e.children[0])]
    return [e]


def free_vars(e: Expr) -> set[str]:
    """Canonical identifiers of every variable occurring in e."""
    return {var_name(base, index) for base, index in e.var_pairs}


def node_names(e: Expr, kind: str) -> set[str]:
    """The name of every node of one kind in e: base names for "var",
    index-set symbols for "bigsum"."""
    out = {e.name} if e.kind == kind else set()
    for c in e.children:
        out |= node_names(c, kind)
    return out


def contains_bigsum(e: Expr) -> bool:
    if e.kind == "bigsum":
        return True
    return any(contains_bigsum(c) for c in e.children)


# ---------------------------------------------------------------------------
# canonical rendering

_PREC = {"add": 1, "neg": 2, "mul": 3, "div": 3}
_ATOM = 4


def _prec(e: Expr) -> int:
    return _PREC.get(e.kind, _ATOM)


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render(e: Expr) -> str:
    """Canonical text form: infix, minimally parenthesized, sum(S: body)
    for bigsums.  Used by golden tests and CLI dumps."""
    k = e.kind
    if k == "const":
        return _fmt_const(e.value)
    if k == "var":
        return var_name(e.name, e.index)
    if k == "add":
        parts = []
        for i, c in enumerate(e.children):
            if c.kind == "neg":
                inner = render(c.children[0])
                if _prec(c.children[0]) < _PREC["neg"]:
                    inner = f"({inner})"
                parts.append(f"- {inner}" if i else f"-{inner}")
            else:
                s = render(c)
                parts.append(f"+ {s}" if i else s)
        return " ".join(parts)
    if k == "neg":
        inner = render(e.children[0])
        if _prec(e.children[0]) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if k == "mul":
        parts = []
        for c in e.children:
            s = render(c)
            if _prec(c) < _PREC["mul"]:
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if k == "div":
        num, den = e.children
        ns = render(num)
        if _prec(num) < _PREC["div"]:
            ns = f"({ns})"
        ds = render(den)
        if _prec(den) <= _PREC["div"]:
            ds = f"({ds})"
        return f"{ns}/{ds}"
    if k == "func":
        return f"{e.name}({render(e.children[0])})"
    if k == "bigsum":
        return f"sum({e.name}: {render(e.children[0])})"
    raise UnsupportedNode(k)
