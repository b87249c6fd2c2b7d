"""The interprocedural taint interpreter (TAINT rule family).

Values delivered by ``receive()`` (and an automaton's ``messages``
argument) start ``RAW`` — a Byzantine sender controls them completely.
The interpreter pushes taint through assignments, calls (resolved
through ``self`` methods, inherited methods, and helper objects bound
in ``__init__``), containers, and comprehensions, and flags ``RAW``
values reaching the two sinks the fault-tolerance argument cares
about: ``self.decide(...)`` (TAINT001) and the returned payload of
``outgoing`` / ``message`` (TAINT002).

Taint drops to ``FILTERED`` — accounted for, never flagged — at:

* a call whose terminal name is a recognized sanitizer (the global
  registry plus the module's ``TAINT_SANITIZERS`` declaration);
* a local that was an argument of a sanitizer call used as a branch
  test (``if not self._valid(x): return`` leaves ``x`` filtered on
  the fall-through path, ``if self._valid(x): ...`` inside the body);
* any load evaluated under a *threshold guard* — an ``if`` whose test
  compares against ``config.n`` / ``config.t`` arithmetic or a
  ``len(...)`` count (the quorum idiom every agreement protocol uses).

Comparisons and ``len`` produce clean values: protoflow deliberately
does not track implicit flows — a 1-bit channel through a branch
condition is part of every threshold protocol's design, not a leak.

The analysis is a per-class fixpoint: ``receive`` is re-interpreted
until the ``self`` attribute taints (including those of bound helper
objects) stabilize, then one reporting pass runs over the sinks.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.statics.findings import Finding
from repro.statics.flow.lattice import Taint, demote, join_taint
from repro.statics.flow.rules import TAINT001
from repro.statics.model import (
    ClassInfo,
    ModuleInfo,
    ProjectIndex,
    bind_parameters,
)
from repro.statics.visitor import attribute_chain

#: Builtins whose result carries no adversarial content.
_CLEAN_CALLS = frozenset(
    {
        "len", "isinstance", "issubclass", "range", "bool", "int",
        "float", "str", "repr", "hash", "type", "enumerate",
    }
)

#: Mutating container methods: receiver absorbs the argument taints.
_MUTATORS = frozenset(
    {
        "append", "add", "extend", "insert", "update", "setdefault",
        "discard", "remove", "pop", "popitem", "clear", "learn",
    }
)

_MAX_DEPTH = 12

#: The module-level declaration this pass trusts, and the sanitizers
#: recognized project-wide without a per-module declaration.
SANITIZER_DECLARATION = "TAINT_SANITIZERS"
GLOBAL_SANITIZERS = ("eig_byzantine_decision",)


def sanitizer_names(module: ModuleInfo) -> FrozenSet[str]:
    """Bare terminal names ``module`` may call as sanitizers."""
    declared = module.declaration(SANITIZER_DECLARATION).entries
    names = {key.split(".")[-1] for key in declared}
    names.update(GLOBAL_SANITIZERS)
    return frozenset(names)

Value = Union[Taint, "Instance"]


@dataclasses.dataclass
class Instance:
    """The abstract state of one object: attr taints + bound helpers."""

    cls: ClassInfo
    attrs: Dict[str, Taint] = dataclasses.field(default_factory=dict)
    objects: Dict[str, "Instance"] = dataclasses.field(default_factory=dict)

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        flat: List[Tuple[str, int]] = sorted(
            (name, int(taint)) for name, taint in self.attrs.items()
        )
        for name in sorted(self.objects):
            flat.extend(
                (f"{name}.{inner}", value)
                for inner, value in self.objects[name].snapshot()
            )
        return tuple(flat)


def taint_of(value: Value) -> Taint:
    """The payload taint of a value (object identity itself is clean)."""
    if isinstance(value, Instance):
        return join_taint(*value.attrs.values())
    return value


@dataclasses.dataclass
class TaintReport:
    """What one class's taint analysis produced."""

    findings: List[Finding] = dataclasses.field(default_factory=list)
    sanitizers_used: Set[str] = dataclasses.field(default_factory=set)


class _Frame:
    """One interpreted method activation."""

    def __init__(
        self,
        inst: Instance,
        module: ModuleInfo,
        symbol: str,
        env: Dict[str, Value],
        guard: bool = False,
    ):
        self.inst = inst
        self.module = module
        self.symbol = symbol
        self.env = env
        self.guard = guard
        self.returns: List[Tuple[ast.AST, Taint]] = []


class TaintInterpreter:
    """Interprets one certified class; reuse one instance per class."""

    def __init__(self, index: ProjectIndex, reporting: bool = False):
        self.index = index
        self.reporting = reporting
        self.report = TaintReport()
        self._in_progress: Set[Tuple[int, str]] = set()

    # -- entry points --------------------------------------------------------

    def instantiate(
        self, info: ClassInfo, args: Sequence[Taint] = (), depth: int = 0
    ) -> Instance:
        """Abstractly run ``__init__`` to build the attribute state."""
        inst = Instance(cls=info)
        found = self.index.find_method(info, "__init__")
        if found is not None:
            owner, method = found
            self._call(inst, owner, method, list(args), depth)
        return inst

    def run_method(
        self,
        inst: Instance,
        name: str,
        args: Sequence[Taint],
    ) -> Tuple[Taint, List[Tuple[ast.AST, Taint]]]:
        """Interpret ``inst.name(*args)``; returns (taint, return sites)."""
        found = self.index.find_method(inst.cls, name)
        if found is None:
            return join_taint(*args), []
        owner, method = found
        return self._call_with_sites(inst, owner, method, list(args), 0)

    # -- call machinery ------------------------------------------------------

    def _call(
        self,
        inst: Instance,
        owner: ClassInfo,
        method: ast.FunctionDef,
        args: List[Taint],
        depth: int,
    ) -> Taint:
        return self._call_with_sites(inst, owner, method, args, depth)[0]

    def _call_with_sites(
        self,
        inst: Instance,
        owner: ClassInfo,
        method: ast.FunctionDef,
        args: List[Taint],
        depth: int,
    ) -> Tuple[Taint, List[Tuple[ast.AST, Taint]]]:
        frame = _Frame(
            inst,
            owner.module,
            f"{owner.name}.{method.name}",
            bind_parameters(method, args, Taint.CLEAN),
        )
        return self._activate((id(inst), method.name), frame, method, args, depth)

    def _activate(
        self,
        key: Tuple[int, str],
        frame: _Frame,
        function: ast.FunctionDef,
        args: List[Taint],
        depth: int,
    ) -> Tuple[Taint, List[Tuple[ast.AST, Taint]]]:
        """Interpret ``function`` in ``frame``; (taint, return sites).

        Too deep, or already running (recursion): the join of ``args``.
        """
        if depth > _MAX_DEPTH or key in self._in_progress:
            return join_taint(*args), []
        self._in_progress.add(key)
        try:
            self._exec_block(function.body, frame, depth)
            result = join_taint(*(taint for _, taint in frame.returns))
            return result, frame.returns
        finally:
            self._in_progress.discard(key)

    # -- statements ----------------------------------------------------------

    def _exec_block(
        self, body: Sequence[ast.stmt], frame: _Frame, depth: int
    ) -> None:
        for stmt in body:
            self._exec(stmt, frame, depth)

    def _exec(self, stmt: ast.stmt, frame: _Frame, depth: int) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, frame, depth)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, frame, depth)
        elif isinstance(stmt, (ast.For, ast.While)):
            self._exec_loop(stmt, frame, depth)
        elif isinstance(stmt, ast.Return):
            taint = (
                self._eval(stmt.value, frame, depth)
                if stmt.value is not None
                else Taint.CLEAN
            )
            frame.returns.append((stmt, taint_of(taint)))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, frame, depth)
        elif isinstance(stmt, (ast.With, ast.Try)):
            for field in ast.iter_child_nodes(stmt):
                if isinstance(field, ast.stmt):
                    self._exec(field, frame, depth)
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    self._exec_block(handler.body, frame, depth)
                self._exec_block(stmt.finalbody, frame, depth)
            else:
                self._exec_block(stmt.body, frame, depth)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, frame, depth)
        # pass / break / continue / defs: no dataflow effect.

    def _exec_assign(self, stmt: ast.stmt, frame: _Frame, depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            targets, value = [stmt.target], stmt.value
        else:
            assert isinstance(stmt, ast.AugAssign)
            targets, value = [stmt.target], stmt.value
        result = self._eval(value, frame, depth)
        augment = isinstance(stmt, ast.AugAssign)
        for target in targets:
            self._store(target, result, frame, augment=augment)

    def _store(
        self,
        target: ast.expr,
        value: Value,
        frame: _Frame,
        augment: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            if augment:
                value = join_taint(
                    taint_of(value),
                    taint_of(frame.env.get(target.id, Taint.CLEAN)),
                )
            frame.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            chain = attribute_chain(target)
            if chain is not None and chain[0] == "self" and len(chain) >= 2:
                self._store_attr(frame.inst, chain[1:], value)
        elif isinstance(target, ast.Subscript):
            # ``container[key] = value`` — the container absorbs both.
            inner = target.value
            slice_taint = taint_of(self._eval(target.slice, frame, 0))
            absorbed = join_taint(taint_of(value), slice_taint)
            if isinstance(inner, ast.Name):
                previous = frame.env.get(inner.id, Taint.CLEAN)
                if isinstance(value, Instance):
                    frame.env[inner.id] = value
                else:
                    frame.env[inner.id] = join_taint(
                        taint_of(previous), absorbed
                    )
            elif isinstance(inner, ast.Attribute):
                chain = attribute_chain(inner)
                if chain is not None and chain[0] == "self":
                    if isinstance(value, Instance):
                        self._bind_object(frame.inst, chain[1:], value)
                    else:
                        self._store_attr(frame.inst, chain[1:], absorbed)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, taint_of(value), frame)

    def _store_attr(
        self, inst: Instance, chain: List[str], value: Value
    ) -> None:
        if not chain:
            return
        head = chain[0]
        if len(chain) > 1:
            nested = inst.objects.get(head)
            if nested is not None:
                self._store_attr(nested, chain[1:], value)
            else:
                inst.attrs[head] = join_taint(
                    inst.attrs.get(head, Taint.CLEAN), taint_of(value)
                )
            return
        if isinstance(value, Instance):
            self._bind_object(inst, chain, value)
            return
        # Attribute taints only grow during the fixpoint; a drain/reset
        # (``self._outbox = []``) therefore cannot launder earlier taint.
        inst.attrs[head] = join_taint(
            inst.attrs.get(head, Taint.CLEAN), value
        )

    def _bind_object(
        self, inst: Instance, chain: List[str], value: Instance
    ) -> None:
        if not chain:
            return
        head = chain[0]
        existing = inst.objects.get(head)
        if existing is not None and existing.cls is value.cls:
            for name, taint in value.attrs.items():
                existing.attrs[name] = join_taint(
                    existing.attrs.get(name, Taint.CLEAN), taint
                )
            for name, nested in value.objects.items():
                existing.objects.setdefault(name, nested)
        else:
            inst.objects[head] = value

    # -- branches ------------------------------------------------------------

    def _exec_if(self, stmt: ast.If, frame: _Frame, depth: int) -> None:
        self._eval(stmt.test, frame, depth)
        sanitized_body = _sanitizer_args(stmt.test, frame.module, False)
        sanitized_else = _sanitizer_args(stmt.test, frame.module, True)
        threshold = _is_threshold_test(stmt.test, frame.module)

        body_env = dict(frame.env)
        else_env = dict(frame.env)
        for name in sanitized_body:
            if name in body_env:
                body_env[name] = demote(taint_of(body_env[name]))
        for name in sanitized_else:
            if name in else_env:
                else_env[name] = demote(taint_of(else_env[name]))

        body_frame = _Frame(
            frame.inst, frame.module, frame.symbol, body_env,
            guard=frame.guard or threshold,
        )
        body_frame.returns = frame.returns
        self._exec_block(stmt.body, body_frame, depth)
        else_frame = _Frame(
            frame.inst, frame.module, frame.symbol, else_env,
            guard=frame.guard,
        )
        else_frame.returns = frame.returns
        self._exec_block(stmt.orelse, else_frame, depth)

        body_abrupt = _is_abrupt(stmt.body)
        else_abrupt = stmt.orelse and _is_abrupt(stmt.orelse)
        if body_abrupt and not else_abrupt:
            frame.env = else_frame.env
        elif else_abrupt and not body_abrupt:
            frame.env = body_frame.env
        else:
            merged: Dict[str, Value] = {}
            for name in set(body_frame.env) | set(else_frame.env):
                left = body_frame.env.get(name, Taint.CLEAN)
                right = else_frame.env.get(name, Taint.CLEAN)
                if isinstance(left, Instance) and left is right:
                    merged[name] = left
                else:
                    merged[name] = join_taint(taint_of(left), taint_of(right))
            frame.env = merged

    def _exec_loop(
        self, stmt: Union[ast.For, ast.While], frame: _Frame, depth: int
    ) -> None:
        if isinstance(stmt, ast.For):
            iterable = self._eval(stmt.iter, frame, depth)
            element: Value
            if isinstance(iterable, Instance):
                element = iterable
            else:
                element = taint_of(iterable)
            self._store(stmt.target, element, frame)
        else:
            self._eval(stmt.test, frame, depth)
        # Two passes propagate loop-carried taint to a fixpoint for
        # this 3-point lattice (one pass to taint, one to observe).
        for _ in range(2):
            self._exec_block(stmt.body, frame, depth)
        self._exec_block(stmt.orelse, frame, depth)

    # -- expressions ---------------------------------------------------------

    def _eval(
        self, node: Optional[ast.expr], frame: _Frame, depth: int
    ) -> Value:
        if node is None:
            return Taint.CLEAN
        if isinstance(node, ast.Constant):
            return Taint.CLEAN
        if isinstance(node, ast.Name):
            value = frame.env.get(node.id, Taint.CLEAN)
            if frame.guard and not isinstance(value, Instance):
                return demote(value)
            return value
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, frame)
        if isinstance(node, ast.Call):
            return self._eval_call(node, frame, depth)
        if isinstance(node, ast.Subscript):
            container = self._eval(node.value, frame, depth)
            if isinstance(container, Instance):
                return container
            self._eval(node.slice, frame, depth)
            return container
        if isinstance(node, (ast.Compare, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, frame, depth)
            return Taint.CLEAN
        if isinstance(node, ast.BoolOp):
            return join_taint(
                *(taint_of(self._eval(value, frame, depth))
                  for value in node.values)
            )
        if isinstance(node, ast.BinOp):
            return join_taint(
                taint_of(self._eval(node.left, frame, depth)),
                taint_of(self._eval(node.right, frame, depth)),
            )
        if isinstance(node, ast.IfExp):
            self._eval(node.test, frame, depth)
            guarded = frame.guard or _is_threshold_test(
                node.test, frame.module
            )
            inner = _Frame(
                frame.inst, frame.module, frame.symbol, frame.env, guarded
            )
            return join_taint(
                taint_of(self._eval(node.body, inner, depth)),
                taint_of(self._eval(node.orelse, inner, depth)),
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return join_taint(
                *(taint_of(self._eval(item, frame, depth))
                  for item in node.elts)
            )
        if isinstance(node, ast.Dict):
            taints = [
                taint_of(self._eval(key, frame, depth))
                for key in node.keys
                if key is not None
            ]
            taints.extend(
                taint_of(self._eval(value, frame, depth))
                for value in node.values
            )
            return join_taint(*taints)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._eval_comprehension(node, frame, depth)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, frame, depth)
        if isinstance(node, ast.Lambda):
            return Taint.CLEAN
        # Any other expression kind (f-strings, awaits, ...): join every
        # child expression.
        return join_taint(
            *(
                taint_of(self._eval(child, frame, depth))
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            )
        )

    def _eval_attribute(self, node: ast.Attribute, frame: _Frame) -> Value:
        chain = attribute_chain(node)
        if chain is not None and chain[0] == "self":
            value = self._load_attr(frame.inst, chain[1:])
            if frame.guard and not isinstance(value, Instance):
                return demote(taint_of(value))
            return value
        if chain is not None and chain[0] in frame.env:
            base = frame.env[chain[0]]
            if isinstance(base, Instance):
                return self._load_attr(base, chain[1:])
            return demote(base) if frame.guard else base
        return Taint.CLEAN

    def _load_attr(self, inst: Instance, chain: List[str]) -> Value:
        if not chain:
            return inst
        head = chain[0]
        nested = inst.objects.get(head)
        if nested is not None:
            return self._load_attr(nested, chain[1:])
        return inst.attrs.get(head, Taint.CLEAN)

    def _eval_comprehension(
        self, node: ast.expr, frame: _Frame, depth: int
    ) -> Value:
        inner = _Frame(
            frame.inst, frame.module, frame.symbol, dict(frame.env),
            frame.guard,
        )
        guarded = frame.guard
        for comp in node.generators:  # type: ignore[attr-defined]
            iterable = self._eval(comp.iter, inner, depth)
            element: Value
            if isinstance(iterable, Instance):
                element = iterable
            else:
                element = taint_of(iterable)
            self._store(comp.target, element, inner)
            for condition in comp.ifs:
                self._eval(condition, inner, depth)
                for name in _sanitizer_args(
                    condition, frame.module, negated=False
                ):
                    if name in inner.env:
                        inner.env[name] = demote(
                            taint_of(inner.env[name])
                        )
                guarded = guarded or _is_threshold_test(
                    condition, frame.module
                )
        inner.guard = guarded
        if isinstance(node, ast.DictComp):
            return join_taint(
                taint_of(self._eval(node.key, inner, depth)),
                taint_of(self._eval(node.value, inner, depth)),
            )
        return taint_of(
            self._eval(node.elt, inner, depth)  # type: ignore[attr-defined]
        )

    # -- calls ---------------------------------------------------------------

    def _eval_call(
        self, node: ast.Call, frame: _Frame, depth: int
    ) -> Value:
        arg_values = [self._eval(arg, frame, depth) for arg in node.args]
        arg_values.extend(
            self._eval(keyword.value, frame, depth)
            for keyword in node.keywords
        )
        arg_taints = [taint_of(value) for value in arg_values]
        joined = join_taint(*arg_taints)
        chain = attribute_chain(node.func)
        terminal = chain[-1] if chain else None
        if terminal is None and isinstance(node.func, ast.Attribute):
            # ``something().method(...)`` — receiver not a pure chain.
            receiver = self._eval(node.func.value, frame, depth)
            return join_taint(taint_of(receiver), joined)

        # Sanitizers launder; record which ones the class relies on.
        if terminal is not None and terminal in sanitizer_names(frame.module):
            self.report.sanitizers_used.add(terminal)
            return Taint.FILTERED if joined is Taint.RAW else joined

        if terminal in _CLEAN_CALLS:
            return Taint.CLEAN

        # Constructor of an indexed class -> a fresh abstract instance.
        constructed = self.index.resolve_class(frame.module, node.func)
        if constructed is not None:
            return self.instantiate(constructed, arg_taints, depth + 1)

        assert chain is not None or terminal is None
        if chain is not None and chain[0] == "self":
            return self._eval_self_call(
                node, chain, arg_taints, joined, frame, depth
            )

        if chain is not None and chain[0] in frame.env:
            receiver = frame.env[chain[0]]
            if isinstance(receiver, Instance) and len(chain) >= 2:
                return self._call_on_instance(
                    receiver, chain[1:], arg_taints, joined, depth
                )
            if terminal in _MUTATORS and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                if isinstance(base, ast.Name):
                    previous = frame.env.get(base.id, Taint.CLEAN)
                    frame.env[base.id] = join_taint(
                        taint_of(previous), joined
                    )
            return join_taint(taint_of(receiver), joined)

        if terminal == "broadcast" and arg_taints:
            return arg_taints[0]

        # Module-level function defined here: interpret it.
        if (
            chain is not None
            and len(chain) == 1
            and terminal in frame.module.functions
        ):
            return self._call_function(
                frame.module, frame.module.functions[terminal],
                arg_taints, depth,
            )
        return joined

    def _eval_self_call(
        self,
        node: ast.Call,
        chain: List[str],
        arg_taints: List[Taint],
        joined: Taint,
        frame: _Frame,
        depth: int,
    ) -> Value:
        # self.decide(value, ...) — the decision sink.
        if len(chain) == 2 and chain[1] == "decide":
            value = (
                taint_of(self._eval(node.args[0], frame, depth))
                if node.args
                else Taint.CLEAN
            )
            if frame.guard:
                value = demote(value)
            if value is Taint.RAW and self.reporting:
                self.report.findings.append(
                    Finding.at(
                        TAINT001.id,
                        frame.module.relative,
                        node,
                        frame.symbol,
                        "decide() receives a value derived from "
                        "receive() that never passed a recognized "
                        "sanitizer (majority/threshold/legality filter)",
                    )
                )
            return Taint.CLEAN
        if len(chain) == 2:
            found = self.index.find_method(frame.inst.cls, chain[1])
            if found is not None:
                owner, method = found
                return self._call(
                    frame.inst, owner, method, arg_taints, depth + 1
                )
            return joined
        # self.attr.method(...) — resolved through the binding map.
        return self._call_on_instance(
            self._resolve_receiver(frame.inst, chain[1:-1]),
            chain[-1:],
            arg_taints,
            joined,
            depth,
            fallback_attr=(frame.inst, chain[1]),
        )

    def _resolve_receiver(
        self, inst: Instance, chain: List[str]
    ) -> Optional[Instance]:
        current: Optional[Instance] = inst
        for name in chain:
            if current is None:
                return None
            current = current.objects.get(name)
        return current

    def _call_on_instance(
        self,
        receiver: Optional[Instance],
        chain: List[str],
        arg_taints: List[Taint],
        joined: Taint,
        depth: int,
        fallback_attr: Optional[Tuple[Instance, str]] = None,
    ) -> Value:
        if receiver is None:
            # Unknown receiver: a mutator call still taints the
            # attribute it targets so stored values keep their taint.
            if fallback_attr is not None and chain and chain[-1] in _MUTATORS:
                owner, attr = fallback_attr
                owner.attrs[attr] = join_taint(
                    owner.attrs.get(attr, Taint.CLEAN), joined
                )
            return joined
        name = chain[-1]
        module = receiver.cls.module
        if name in sanitizer_names(module):
            self.report.sanitizers_used.add(name)
            return Taint.FILTERED if joined is Taint.RAW else joined
        found = self.index.find_method(receiver.cls, name)
        if found is not None:
            owner, method = found
            return self._call(receiver, owner, method, arg_taints, depth + 1)
        if name in _MUTATORS:
            for attr in list(receiver.attrs) or ["_items"]:
                receiver.attrs[attr] = join_taint(
                    receiver.attrs.get(attr, Taint.CLEAN), joined
                )
        return joined

    def _call_function(
        self,
        module: ModuleInfo,
        function: ast.FunctionDef,
        arg_taints: List[Taint],
        depth: int,
    ) -> Taint:
        # A module-level function runs against an attribute-less
        # stand-in for ``self``.
        owner = ClassInfo(
            name="<module>", qualname=module.qualname, module=module,
            node=ast.ClassDef(
                name="<module>", bases=[], keywords=[], body=[],
                decorator_list=[],
            ),
            bases=[],
        )
        frame = _Frame(
            Instance(cls=owner),
            module,
            function.name,
            bind_parameters(function, arg_taints, Taint.CLEAN),
        )
        key = (id(module), function.name)
        return self._activate(key, frame, function, arg_taints, depth + 1)[0]


# -- guard classification ----------------------------------------------------


def _is_abrupt(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Continue, ast.Break, ast.Raise)
    )


def _references_quorum(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("n", "t"):
            chain = attribute_chain(sub)
            if chain is not None and "config" in chain:
                return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
        ):
            return True
    return False


def _is_threshold_test(test: ast.expr, module: ModuleInfo) -> bool:
    """Whether ``test`` is a quorum/threshold comparison."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Compare) and _references_quorum(sub):
            return True
        if isinstance(sub, ast.Call):
            chain = attribute_chain(sub.func)
            if chain and chain[-1] in sanitizer_names(module):
                return True
    return False


def _sanitizer_args(
    test: ast.expr, module: ModuleInfo, negated: bool
) -> List[str]:
    """Local names vouched for by a sanitizing branch test.

    ``negated=False`` returns the names filtered inside the *body* of
    ``if sanitizer(x):``; ``negated=True`` the names filtered on the
    *else*/fall-through path of ``if not sanitizer(x):``.
    """
    target: Optional[ast.expr] = None
    if negated:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            target = test.operand
    else:
        target = test
    if isinstance(target, ast.BoolOp) and isinstance(target.op, ast.And):
        # ``if san(x) and other:`` — the body only runs when every
        # conjunct held, so each conjunct's vouching stands.  (An
        # ``or`` cannot vouch: the body runs even if the sanitizer
        # conjunct was false.)
        names: List[str] = []
        for value in target.values:
            names.extend(_sanitizer_args(value, module, negated=False))
        return names
    if not isinstance(target, ast.Call):
        return []
    chain = attribute_chain(target.func)
    if not chain or chain[-1] not in sanitizer_names(module):
        return []
    args: List[str] = []
    for arg in target.args:
        if isinstance(arg, ast.Name):
            args.append(arg.id)
    return args
