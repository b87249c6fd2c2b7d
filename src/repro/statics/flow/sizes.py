"""The message-size interpreter (COM rule family).

Infers a symbolic per-round bit bound for every certified protocol's
payload by abstract interpretation over :class:`~.lattice.SizeVal`:

* ``constant`` — O(1) in n and in the round number;
* ``linear`` — O(n) per round: one entry per processor, or a buffer
  that the send path drains every round;
* ``history`` — grows with the execution: an attribute that only ever
  accumulates across ``receive`` calls, or one rebuilt from a value
  derived from itself (the full-information recursion
  ``state_r = (state_{r-1}, messages_r)``, recognized *through* local
  variables via the dependency component of ``SizeVal``).

The inferred bound is cross-checked against the module's
``MESSAGE_BOUNDS`` declaration by the COM pass (see ``passes.py``);
the canonical-form claim of the paper is exactly that every protocol
admits a non-``history`` bound after the Theorem 5 transform, so a
``history`` inference without a justified declaration is the linter
telling you to route the protocol through ``repro.compact``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from repro.statics.flow.lattice import Size, SizeVal, join_sizes
from repro.statics.model import (
    ClassInfo,
    ProjectIndex,
    bind_parameters,
    self_attribute,
)
from repro.statics.visitor import attribute_chain

_MAX_DEPTH = 10

#: Container methods that accumulate into their receiver.
_ACCUMULATORS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "learn"}
)

#: Methods returning (a view of) their receiver unchanged in size.
_VIEWS = frozenset({"items", "values", "keys", "copy", "get"})


def _is_empty_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple", "dict", "set", "frozenset")
        and not node.args
    ):
        return True
    return False


@dataclasses.dataclass
class SizeSummary:
    """The size analysis of one certified class."""

    inferred: Size
    accumulating: Set[str]


def analyze_process(index: ProjectIndex, info: ClassInfo) -> SizeSummary:
    """Infer the per-round payload bound of a ``Process`` subclass."""
    state = _ClassSizeState(index, info)
    # A drain idiom lives in outgoing() or receive(); either home counts.
    state.scan_drains("outgoing")
    state.scan_drains("receive")
    state.run_receive_path(("receive",))
    payload = state.eval_payload("outgoing")
    return SizeSummary(inferred=payload, accumulating=state.accumulating)


def analyze_automaton(index: ProjectIndex, info: ClassInfo) -> SizeSummary:
    """Infer the bound of an ``AutomatonProtocol``'s message map.

    The Section 3.1 automaton threads its state through the message
    tuple: ``delta_p`` maps the n-tuple of round-r messages to the next
    state, and ``mu_pq`` maps that state to round-(r+1) messages.  The
    full-information recursion is therefore a transition whose result
    *retains* the message tuple (size >= linear, derived from
    ``messages``) feeding a ``message`` that embeds the state — each
    round nests the previous n-tuple, so the bound is ``history``.
    """
    state = _ClassSizeState(index, info)
    messages = SizeVal(Size.LINEAR, frozenset({"<messages>"}))
    produced = state.eval_method_return("transition", {"messages": messages})
    nests = produced.size >= Size.LINEAR and "<messages>" in produced.deps
    state_size = SizeVal(
        Size.HISTORY if nests else produced.size, frozenset({"<state>"})
    )
    payload = state.eval_method_return("message", {"state": state_size})
    inferred = payload.size
    if "<state>" in payload.deps:
        inferred = max(inferred, state_size.size)
    return SizeSummary(inferred=inferred, accumulating=state.accumulating)


class _ClassSizeState:
    """Mutable per-class analysis state for the size interpreter."""

    def __init__(self, index: ProjectIndex, info: ClassInfo):
        self.index = index
        self.info = info
        self.bindings = index.static_bindings(info)
        self.attr_sizes: Dict[str, Size] = {}
        self.accumulating: Set[str] = set()
        self.self_referential: Set[str] = set()
        self.drained: Set[str] = set()
        self._in_progress: Set[str] = set()

    # -- attribute resolution ------------------------------------------------

    def attr_size(self, name: str) -> SizeVal:
        if name in self.self_referential:
            return SizeVal(Size.HISTORY, frozenset({name}))
        base = self.attr_sizes.get(name, Size.CONSTANT)
        if name in self.accumulating:
            if name in self.drained:
                base = max(base, Size.LINEAR)
            else:
                base = Size.HISTORY
        return SizeVal(base, frozenset({name}))

    # -- drains (send path, structural) --------------------------------------

    def scan_drains(self, entry: str) -> None:
        for _, _, method in self.index.reachable_methods(self.info, entry):
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    # Tuple swap: ``items, self._x = self._x, []``.
                    for target in node.targets:
                        if isinstance(target, ast.Tuple) and isinstance(
                            node.value, ast.Tuple
                        ):
                            for element, rhs in zip(
                                target.elts, node.value.elts
                            ):
                                name = self_attribute(element)
                                if name is not None and _is_empty_literal(
                                    rhs
                                ):
                                    self.drained.add(name)
                        else:
                            name = self_attribute(target)
                            if name is not None and _is_empty_literal(
                                node.value
                            ):
                                self.drained.add(name)

    # -- receive-path interpretation -----------------------------------------

    def run_receive_path(self, entries: Sequence[str]) -> None:
        for _ in range(3):
            before = (
                dict(self.attr_sizes),
                set(self.accumulating),
                set(self.self_referential),
            )
            for entry in entries:
                found = self.index.find_method(self.info, entry)
                if found is None:
                    continue
                owner, method = found
                env = bind_parameters(method, (), SizeVal())
                self._exec_block(method.body, env, owner, 0, per_n=False)
            after = (
                dict(self.attr_sizes),
                set(self.accumulating),
                set(self.self_referential),
            )
            if before == after:
                break

    # -- payload evaluation ---------------------------------------------------

    def eval_payload(self, entry: str) -> Size:
        value = self.eval_method_return(entry, {})
        size = value.size
        for dep in value.deps:
            size = max(size, self.attr_size(dep).size)
        return size

    def eval_method_return(
        self, name: str, param_overrides: Dict[str, SizeVal]
    ) -> SizeVal:
        found = self.index.find_method(self.info, name)
        if found is None:
            return SizeVal()
        owner, method = found
        env = bind_parameters(method, (), SizeVal())
        env.update(param_overrides)
        return self._exec_for_return(method, env, owner, 0)

    def _exec_for_return(
        self,
        method: ast.FunctionDef,
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
    ) -> SizeVal:
        returns: List[SizeVal] = []
        self._exec_block(
            method.body, env, owner, depth, per_n=False, returns=returns
        )
        return join_sizes(returns) if returns else SizeVal()

    # -- statement walk -------------------------------------------------------

    def _exec_block(
        self,
        body: Sequence[ast.stmt],
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
        per_n: bool,
        returns: Optional[List[SizeVal]] = None,
    ) -> None:
        for stmt in body:
            self._exec(stmt, env, owner, depth, per_n, returns)

    def _exec(
        self,
        stmt: ast.stmt,
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
        per_n: bool,
        returns: Optional[List[SizeVal]],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env, owner, depth)
            for target in stmt.targets:
                self._store(target, value, env, per_n)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._store(
                stmt.target,
                self._eval(stmt.value, env, owner, depth),
                env,
                per_n,
            )
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env, owner, depth)
            name = self_attribute(stmt.target)
            if name is not None:
                self.accumulating.add(name)
                if name in value.deps and value.size >= Size.LINEAR:
                    self.self_referential.add(name)
            elif isinstance(stmt.target, ast.Name):
                previous = env.get(stmt.target.id, SizeVal())
                env[stmt.target.id] = join_sizes([previous, value])
        elif isinstance(stmt, ast.Return):
            if returns is not None and stmt.value is not None:
                returns.append(self._eval(stmt.value, env, owner, depth))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env, owner, depth, per_n=per_n)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env, owner, depth)
            self._exec_block(stmt.body, env, owner, depth, per_n, returns)
            self._exec_block(stmt.orelse, env, owner, depth, per_n, returns)
        elif isinstance(stmt, ast.For):
            iterable = self._eval(stmt.iter, env, owner, depth)
            loop_per_n = per_n or self._is_per_n(stmt.iter, env)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = SizeVal(Size.CONSTANT, iterable.deps)
            elif isinstance(stmt.target, (ast.Tuple, ast.List)):
                for element in stmt.target.elts:
                    if isinstance(element, ast.Name):
                        env[element.id] = SizeVal(
                            Size.CONSTANT, iterable.deps
                        )
            for _ in range(2):
                self._exec_block(
                    stmt.body, env, owner, depth, loop_per_n, returns
                )
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                self._exec_block(stmt.body, env, owner, depth, per_n, returns)
        elif isinstance(stmt, (ast.With, ast.Try)):
            inner: List[ast.stmt] = list(getattr(stmt, "body", []))
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    inner.extend(handler.body)
                inner.extend(stmt.finalbody)
                inner.extend(stmt.orelse)
            self._exec_block(inner, env, owner, depth, per_n, returns)

    def _store(
        self,
        target: ast.expr,
        value: SizeVal,
        env: Dict[str, SizeVal],
        per_n: bool,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        name = self_attribute(target)
        if name is None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._store(element, value, env, per_n)
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                container = env.get(target.value.id, SizeVal())
                grown = join_sizes([container, value])
                if per_n:
                    grown = grown.widen(Size.LINEAR)
                env[target.value.id] = grown
            return
        if isinstance(target, ast.Subscript):
            # ``self.x[key] = v`` accumulates into the attribute.
            self.accumulating.add(name)
            if name in value.deps and value.size >= Size.LINEAR:
                self.self_referential.add(name)
            return
        # Self-reference is growth only when the stored value is itself
        # a collection carrying the attribute (full-information
        # nesting); ``self.value = f(..., self.value, ...)`` over
        # scalars is a plain update.
        if name in value.deps and value.size >= Size.LINEAR:
            self.self_referential.add(name)
        self.attr_sizes[name] = max(
            self.attr_sizes.get(name, Size.CONSTANT), value.size
        )

    def _is_per_n(
        self, iterable: ast.expr, env: Dict[str, SizeVal]
    ) -> bool:
        chain = attribute_chain(iterable)
        if chain is None and isinstance(iterable, ast.Call):
            chain = attribute_chain(iterable.func)
        if chain is None:
            return False
        if "process_ids" in chain:
            return True
        root = chain[0]
        if root == "self":
            return any(
                part in self.accumulating or part in self.self_referential
                for part in chain[1:]
            )
        if root in env:
            return env[root].size >= Size.LINEAR
        return False

    # -- expression evaluation ------------------------------------------------

    def _eval(
        self,
        node: ast.expr,
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
        per_n: bool = False,
    ) -> SizeVal:
        if isinstance(node, ast.Constant):
            return SizeVal()
        if isinstance(node, ast.Name):
            return env.get(node.id, SizeVal())
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain is not None and chain[0] == "self" and len(chain) >= 2:
                if chain[1] == "config":
                    if chain[-1] == "process_ids":
                        return SizeVal(Size.LINEAR, frozenset())
                    return SizeVal()
                return self.attr_size(chain[1])
            if chain is not None and chain[0] in env:
                return env[chain[0]]
            return SizeVal()
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, owner, depth, per_n)
        if isinstance(node, ast.Subscript):
            container = self._eval(node.value, env, owner, depth)
            return SizeVal(Size.CONSTANT, container.deps)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return join_sizes(
                self._eval(item, env, owner, depth) for item in node.elts
            )
        if isinstance(node, ast.Dict):
            parts = [
                self._eval(value, env, owner, depth)
                for value in node.values
            ]
            parts.extend(
                self._eval(key, env, owner, depth)
                for key in node.keys
                if key is not None
            )
            return join_sizes(parts)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._eval_comprehension(node, env, owner, depth)
        if isinstance(node, ast.IfExp):
            return join_sizes(
                [
                    self._eval(node.body, env, owner, depth),
                    self._eval(node.orelse, env, owner, depth),
                ]
            )
        if isinstance(node, (ast.Compare, ast.UnaryOp, ast.Lambda)):
            return SizeVal()
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, owner, depth)
        parts = [
            self._eval(child, env, owner, depth)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return join_sizes(parts)

    def _eval_comprehension(
        self,
        node: ast.expr,
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
    ) -> SizeVal:
        inner = dict(env)
        per_n = False
        for comp in node.generators:  # type: ignore[attr-defined]
            iterable = self._eval(comp.iter, inner, owner, depth)
            per_n = per_n or self._is_per_n(comp.iter, inner)
            targets = (
                comp.target.elts
                if isinstance(comp.target, (ast.Tuple, ast.List))
                else [comp.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    inner[target.id] = SizeVal(
                        Size.CONSTANT, iterable.deps
                    )
        if isinstance(node, ast.DictComp):
            # A recipient map ``{q: payload(q) for q in process_ids}``
            # is the outgoing shape itself: the per-round bound is the
            # per-recipient payload, not n times it.
            if (
                per_n
                and isinstance(node.key, ast.Name)
                and any(
                    isinstance(comp.target, ast.Name)
                    and comp.target.id == node.key.id
                    for comp in node.generators
                )
            ):
                return self._eval(node.value, inner, owner, depth)
            element = join_sizes(
                [
                    self._eval(node.key, inner, owner, depth),
                    self._eval(node.value, inner, owner, depth),
                ]
            )
        else:
            element = self._eval(
                node.elt, inner, owner, depth  # type: ignore[attr-defined]
            )
        return element.widen(Size.LINEAR) if per_n else element

    def _eval_call(
        self,
        node: ast.Call,
        env: Dict[str, SizeVal],
        owner: ClassInfo,
        depth: int,
        per_n: bool,
    ) -> SizeVal:
        args = [self._eval(arg, env, owner, depth) for arg in node.args]
        args.extend(
            self._eval(keyword.value, env, owner, depth)
            for keyword in node.keywords
        )
        joined = join_sizes(args)
        chain = attribute_chain(node.func)
        terminal = chain[-1] if chain else None

        if terminal in ("len", "isinstance", "range", "min", "max", "sum"):
            return SizeVal()
        if terminal == "broadcast" and args:
            return args[0]
        if terminal in ("tuple", "list", "sorted", "dict", "set", "frozenset"):
            return joined
        if chain is not None and chain[0] == "self":
            # Mutator on an attribute: cross-round accumulation.
            if len(chain) >= 3 and terminal in _ACCUMULATORS:
                attr = chain[1]
                self.accumulating.add(attr)
                if any(
                    attr in arg.deps and arg.size >= Size.LINEAR
                    for arg in args
                ):
                    self.self_referential.add(attr)
                return SizeVal()
            if len(chain) == 2 and terminal is not None:
                return self._call_method(
                    self.info, terminal, args, env, depth
                )
            if len(chain) >= 3 and chain[1] in self.bindings:
                helper = self.bindings[chain[1]]
                if terminal in _VIEWS:
                    return joined
                if terminal is not None:
                    return self._call_method(helper, terminal, args, env, depth)
            if terminal in _VIEWS and len(chain) >= 3:
                return self.attr_size(chain[1])
            return joined
        if chain is not None and chain[0] in env:
            receiver = env[chain[0]]
            if terminal in _ACCUMULATORS:
                grown = join_sizes([receiver, joined])
                if per_n:
                    grown = grown.widen(Size.LINEAR)
                env[chain[0]] = grown
                return SizeVal()
            if terminal in _VIEWS:
                return receiver
            return join_sizes([receiver, joined])
        if (
            chain is not None
            and len(chain) == 1
            and terminal in owner.module.functions
        ):
            return self._call_function(
                owner, owner.module.functions[terminal], args, depth
            )
        return joined

    def _call_method(
        self,
        target_class: ClassInfo,
        name: str,
        args: List[SizeVal],
        env: Dict[str, SizeVal],
        depth: int,
    ) -> SizeVal:
        key = f"{target_class.qualname}.{name}"
        if depth > _MAX_DEPTH or key in self._in_progress:
            return join_sizes(args)
        found = self.index.find_method(target_class, name)
        if found is None:
            return join_sizes(args)
        owner, method = found
        call_env = bind_parameters(method, args, SizeVal())
        self._in_progress.add(key)
        try:
            return self._exec_for_return(method, call_env, owner, depth + 1)
        finally:
            self._in_progress.discard(key)

    def _call_function(
        self,
        owner: ClassInfo,
        function: ast.FunctionDef,
        args: List[SizeVal],
        depth: int,
    ) -> SizeVal:
        key = f"{owner.module.qualname}.{function.name}"
        if depth > _MAX_DEPTH or key in self._in_progress:
            return join_sizes(args)
        call_env = bind_parameters(function, args, SizeVal())
        self._in_progress.add(key)
        try:
            return self._exec_for_return(function, call_env, owner, depth + 1)
        finally:
            self._in_progress.discard(key)
