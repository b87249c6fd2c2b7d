"""The project model: the one front end every pass reads.

A lint run builds one :class:`ProjectIndex` — each file read once and
parsed once, by :func:`parse_module`, the package's only ``ast.parse``
— and every pass is a rule over ``(index, module)``: determinism,
purity, contracts and the protoflow families all ask this model for
modules, classes, import-resolved inheritance, declarations and
call-graph queries instead of walking the tree themselves.  Which
*files* a pass looks at stays the pass's own policy
(``PROTOCOL_PACKAGES``, ``WORKER_MODULES``, ``CLOCK_MODULES`` in the
runner, ``CONTRACT_PACKAGES`` in the contract pass, :data:`FLOW_PACKAGES`
here with the protoflow queries that need it); the index only
guarantees that asking twice costs one parse.

Declarations
    Four module-level dict literals are trusted by the passes —
    ``PURITY_EXEMPT``, ``TAINT_SANITIZERS``, ``MESSAGE_BOUNDS`` and
    ``CATALOG_EXEMPT`` — and :func:`read_declaration` reads all of
    them under one grammar: a string key mapped to a non-blank string,
    or to a ``(bound, justification)`` pair of non-blank strings.
    Anything else comes back as a :class:`Malformed` note that the
    owning pass turns into *its* finding (PUR005 / TAINT003 / COM003 /
    CON002).

Class qualnames are canonicalized to the ``repro.`` namespace from the
path below the scan root, so fixture trees (rooted anywhere) interoperate
with ``from repro.runtime.node import Process`` imports.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.statics.visitor import attribute_chain

#: Packages whose protocol classes get the FLOW/COM/TAINT passes.
FLOW_PACKAGES = ("core", "agreement", "avalanche", "compact", "fullinfo")

#: Modules indexed for inheritance/binding resolution only (never linted).
SUPPORT_MODULES = ("runtime/node.py",)

#: The inheritance roots that make a class a certified protocol.
PROCESS_ROOT = "repro.runtime.node.Process"
AUTOMATON_ROOT = "repro.core.automaton.AutomatonProtocol"

T = TypeVar("T")


# -- declarations --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Entry:
    """One well-formed declaration entry.

    ``value`` is the plain string (a justification, or a bare bound)
    or the first element of the pair form; ``justification`` is the
    pair's second element and ``""`` otherwise.  ``node`` is the key's
    AST node, where findings about the entry are reported.
    """

    value: str
    justification: str
    node: ast.AST

    @property
    def bound(self) -> str:
        """``value`` under the name ``MESSAGE_BOUNDS`` readers use."""
        return self.value

    @property
    def line(self) -> int:
        """The source line of the entry's key."""
        return self.node.lineno


@dataclasses.dataclass(frozen=True)
class Malformed:
    """One declaration shape the grammar rejects.

    ``kind`` is ``"dict"`` (the name is bound to something other than
    a dict literal), ``"key"`` (a key that is not a non-blank string
    literal) or ``"value"`` (``key`` maps to neither a non-blank string
    nor a pair of them); ``node`` is the offending node.
    """

    kind: str
    key: Optional[str]
    node: ast.AST


@dataclasses.dataclass
class Declaration:
    """A module's ``NAME = {...}`` declaration: entries plus rejects."""

    entries: Dict[str, Entry] = dataclasses.field(default_factory=dict)
    malformed: List[Malformed] = dataclasses.field(default_factory=list)


def _text(node: Optional[ast.AST]) -> Optional[str]:
    """The non-blank string literal ``node`` is, else ``None``."""
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.strip()
    ):
        return node.value
    return None


def read_declaration(tree: ast.Module, name: str) -> Declaration:
    """Every module-level ``name = {key: value}`` entry, validated."""
    declaration = Declaration()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == name
            for target in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            declaration.malformed.append(Malformed("dict", None, node))
            continue
        for key, item in zip(value.keys, value.values):
            symbol = _text(key)
            if key is None or symbol is None:
                declaration.malformed.append(
                    Malformed("key", None, key if key is not None else node)
                )
                continue
            parts = (
                item.elts
                if isinstance(item, ast.Tuple) and len(item.elts) == 2
                else [item]
            )
            texts = [text for text in map(_text, parts) if text is not None]
            if len(texts) != len(parts):
                declaration.malformed.append(Malformed("value", symbol, item))
                continue
            declaration.entries[symbol] = Entry(
                texts[0], "".join(texts[1:]), key
            )
    return declaration


# -- modules and classes -------------------------------------------------------


@dataclasses.dataclass(eq=False)
class ClassInfo:
    """One class definition plus its import-resolved base names."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: List[str]
    methods: Dict[str, ast.FunctionDef] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass(eq=False)
class ModuleInfo:
    """One parsed module: AST, imports, classes, functions, declarations."""

    path: pathlib.Path
    relative: str
    qualname: str
    tree: ast.Module
    imports: Dict[str, str] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = dataclasses.field(
        default_factory=dict
    )
    _declarations: Dict[str, Declaration] = dataclasses.field(
        default_factory=dict
    )

    def declaration(self, name: str) -> Declaration:
        """The module's ``name = {...}`` declaration, read once."""
        if name not in self._declarations:
            self._declarations[name] = read_declaration(self.tree, name)
        return self._declarations[name]

    @property
    def docstring(self) -> str:
        """The module docstring (``""`` when there is none)."""
        return ast.get_docstring(self.tree) or ""


def _parse_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


def parse_module(
    source: str, relative: str, path: Optional[pathlib.Path] = None
) -> ModuleInfo:
    """One source text in, one indexed module out.

    The package's only ``ast.parse``; a ``SyntaxError`` propagates, so
    a file that does not parse fails the run for every pass alike.
    ``relative`` is the ``<root>/<package>/<module>.py`` path findings
    carry; the qualname is that path below its first component, in the
    ``repro.`` namespace.
    """
    location = path if path is not None else pathlib.Path(relative)
    tree = ast.parse(source, filename=str(location))
    subpath = relative.split("/", 1)[-1]
    qualname = "repro." + subpath.removesuffix(".py").replace("/", ".")
    qualname = qualname.replace(".__init__", "")
    module = ModuleInfo(
        path=location,
        relative=relative,
        qualname=qualname,
        tree=tree,
        imports=_parse_imports(tree),
    )
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            module.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            bases: List[str] = []
            for base in node.bases:
                chain = attribute_chain(base)
                if chain is None:
                    continue
                root = module.imports.get(chain[0])
                if root is not None:
                    bases.append(".".join([root] + chain[1:]))
                elif len(chain) == 1:
                    bases.append(f"{qualname}.{chain[0]}")
                else:
                    bases.append(".".join(chain))
            module.classes[node.name] = ClassInfo(
                name=node.name,
                qualname=f"{qualname}.{node.name}",
                module=module,
                node=node,
                bases=bases,
                methods={
                    child.name: child
                    for child in node.body
                    if isinstance(child, ast.FunctionDef)
                },
            )
    return module


# -- function-level helpers the interpreters share -----------------------------


def parameter_names(function: ast.FunctionDef) -> List[str]:
    """Positional parameter names, without a leading ``self``."""
    names = [arg.arg for arg in function.args.args]
    return names[1:] if names[:1] == ["self"] else names


def bind_parameters(
    function: ast.FunctionDef, args: Sequence[T], default: T
) -> Dict[str, T]:
    """``args`` bound to ``function``'s parameters by position.

    Parameters beyond ``args``, and keyword-only ones, get ``default``.
    """
    env = {
        name: args[position] if position < len(args) else default
        for position, name in enumerate(parameter_names(function))
    }
    for arg in function.args.kwonlyargs:
        env.setdefault(arg.arg, default)
    return env


def self_attribute(target: ast.expr) -> Optional[str]:
    """``attr`` for a ``self.attr`` / ``self.attr[key]`` store target."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _constructor_call(value: ast.expr) -> Optional[ast.Call]:
    """The call building ``value`` (or each element of a comprehension)."""
    if isinstance(value, ast.Call):
        return value
    if isinstance(value, ast.DictComp) and isinstance(value.value, ast.Call):
        return value.value
    if isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
        return value.elt
    return None


def _is_abstract(method: ast.FunctionDef) -> bool:
    for decorator in method.decorator_list:
        chain = attribute_chain(decorator)
        if chain and chain[-1] in ("abstractmethod", "abstractproperty"):
            return True
    body = [
        stmt
        for stmt in method.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
    ]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


# -- the index -----------------------------------------------------------------

Method = Tuple[ClassInfo, str, ast.FunctionDef]


class ProjectIndex:
    """Every indexed module and class, with inheritance resolution.

    ``packages`` (directories, scanned recursively) and ``modules``
    (single files) are paths below ``package_root``; a file named by
    several scopes is parsed once.  The defaults are protoflow's own
    scope; ``repro lint`` passes the union of every pass's scope.
    """

    def __init__(
        self,
        package_root: pathlib.Path,
        packages: Sequence[str] = FLOW_PACKAGES,
        modules: Sequence[str] = SUPPORT_MODULES,
    ):
        self.package_root = package_root
        self.prefix = package_root.name
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._bindings: Dict[str, Dict[str, ClassInfo]] = {}
        self._reachable: Dict[Tuple[str, str], List[Method]] = {}
        for package in packages:
            directory = package_root / package
            if directory.is_dir():
                for path in sorted(directory.rglob("*.py")):
                    self._load(path)
        for module in modules:
            if (package_root / module).is_file():
                self._load(package_root / module)
        #: The modules protoflow lints, and the classes its constructor
        #: resolution may fall back to by bare name.
        self.linted = self.under(FLOW_PACKAGES)
        flow_scope = self.linted + [
            module
            for module in map(self.module, SUPPORT_MODULES)
            if module is not None
        ]
        self._flow_classes = [
            info for module in flow_scope for info in module.classes.values()
        ]

    def _load(self, path: pathlib.Path) -> None:
        subpath = path.relative_to(self.package_root).as_posix()
        relative = f"{self.prefix}/{subpath}"
        if relative not in self.modules:
            self.add(parse_module(path.read_text(), relative, path))

    def add(self, module: ModuleInfo) -> ModuleInfo:
        """Register one parsed module (and its classes)."""
        self.modules[module.relative] = module
        for info in module.classes.values():
            self.classes[info.qualname] = info
        return module

    def module(self, subpath: str) -> Optional[ModuleInfo]:
        """The indexed module at ``subpath`` below the root, if any."""
        return self.modules.get(f"{self.prefix}/{subpath}")

    def under(self, packages: Sequence[str]) -> List[ModuleInfo]:
        """Indexed modules inside ``packages``, package by package."""
        return [
            module
            for package in packages
            for relative, module in self.modules.items()
            if relative.startswith(f"{self.prefix}/{package}/")
        ]

    # -- inheritance --------------------------------------------------------

    def is_subclass(
        self, info: ClassInfo, root: str, by_name: bool = False
    ) -> bool:
        """Whether ``info`` transitively derives from qualname ``root``.

        ``by_name`` also accepts a base nothing indexed defines whose
        last component is ``root``'s class name — all a lone source
        string (or a re-exported root) can offer.  The purity pass asks
        that way, since checking one class too many is the safe side
        for a linter; certification never does.
        """
        root_name = root.rsplit(".", 1)[-1]
        seen: Set[str] = set()
        frontier = list(info.bases)
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            parent = self.classes.get(base)
            if base == root or (
                by_name
                and parent is None
                and base.rsplit(".", 1)[-1] == root_name
            ):
                return True
            if parent is not None:
                frontier.extend(parent.bases)
        return False

    def mro(self, info: ClassInfo) -> List[ClassInfo]:
        """``info`` plus every indexed ancestor, nearest first."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        frontier = [info]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.bases:
                parent = self.classes.get(base)
                if parent is not None:
                    frontier.append(parent)
        return out

    def find_method(
        self, info: ClassInfo, name: str
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """``name`` resolved along the indexed inheritance chain."""
        for cls in self.mro(info):
            method = cls.methods.get(name)
            if method is not None:
                return cls, method
        return None

    def resolve_class(
        self, module: ModuleInfo, func: ast.expr
    ) -> Optional[ClassInfo]:
        """The indexed class a constructor expression names, if any.

        Resolved by the expression's terminal name: a class of this
        module, an imported one (under its own name — an ``as`` alias
        does not resolve), or the only class of that name in
        protoflow's scope (factories often construct classes imported
        under ``if TYPE_CHECKING`` guards).
        """
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        if name in module.classes:
            return module.classes[name]
        imported = self.classes.get(module.imports.get(name, ""))
        if imported is not None:
            return imported if imported.name == name else None
        candidates = [
            info for info in self._flow_classes if info.name == name
        ]
        return candidates[0] if len(candidates) == 1 else None

    # -- call-graph queries (computed once per class) -----------------------

    def static_bindings(self, info: ClassInfo) -> Dict[str, ClassInfo]:
        """``self.attr -> ClassInfo`` bindings made anywhere in the class.

        Covers plain assignment, subscript assignment, and dict/list
        comprehensions whose element is a constructor call — the idioms
        the compact stack uses to bind per-subject helper instances.
        """
        cached = self._bindings.get(info.qualname)
        if cached is not None:
            return cached
        bindings: Dict[str, ClassInfo] = {}
        for cls in self.mro(info):
            for method in cls.methods.values():
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    call = _constructor_call(node.value)
                    if call is None:
                        continue
                    constructed = self.resolve_class(cls.module, call.func)
                    if constructed is None:
                        continue
                    for target in node.targets:
                        attr_name = self_attribute(target)
                        if attr_name is not None:
                            bindings.setdefault(attr_name, constructed)
        self._bindings[info.qualname] = bindings
        return bindings

    def reachable_methods(self, info: ClassInfo, entry: str) -> List[Method]:
        """Methods reachable from ``info.entry`` through self/helper calls.

        Follows ``self.method(...)`` within the class (and its indexed
        ancestors) and ``self.attr.method(...)`` into helper classes
        bound in ``__init__`` — the call graph the send/receive path
        analyses walk.  Bounded by visited-set, so cycles terminate.
        """
        cached = self._reachable.get((info.qualname, entry))
        if cached is not None:
            return cached
        out: List[Method] = []
        seen: Set[Tuple[str, str]] = set()
        frontier: List[Tuple[ClassInfo, str]] = [(info, entry)]
        while frontier:
            cls, name = frontier.pop(0)
            if (cls.qualname, name) in seen:
                continue
            seen.add((cls.qualname, name))
            found = self.find_method(cls, name)
            if found is None:
                continue
            owner, method = found
            out.append((owner, name, method))
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if chain is None or chain[0] != "self":
                    continue
                if len(chain) == 2:
                    frontier.append((cls, chain[1]))
                elif len(chain) >= 3:
                    helper = self.static_bindings(cls).get(chain[1])
                    if helper is not None:
                        frontier.append((helper, chain[-1]))
        self._reachable[(info.qualname, entry)] = out
        return out

    # -- certified protocols -------------------------------------------------

    def certified(self) -> List[ClassInfo]:
        """Every protocol class the certificate covers, sorted.

        A class is certified when it is a concrete :class:`Process`
        subclass (defines or inherits an ``outgoing`` implementation
        from an indexed ancestor) or an ``AutomatonProtocol`` subclass
        defining ``message``.
        """
        out: List[ClassInfo] = []
        for module in self.linted:
            for info in module.classes.values():
                if self.is_subclass(info, PROCESS_ROOT):
                    found = self.find_method(info, "outgoing")
                elif self.is_subclass(info, AUTOMATON_ROOT):
                    found = self.find_method(info, "message")
                else:
                    continue
                if found is not None and not _is_abstract(found[1]):
                    out.append(info)
        return sorted(out, key=lambda info: info.qualname)

    def kind_of(self, info: ClassInfo) -> str:
        """``"process"`` or ``"automaton"`` for a certified class."""
        if self.is_subclass(info, PROCESS_ROOT):
            return "process"
        return "automaton"
