"""A P4-style match-action pipeline.

Models the programmable data plane InstaPLC is built on (DPDK SWX + P4 in
the paper): a parser extracts header fields into a context, a sequence of
match-action tables decides the frame's fate, and primitive actions can
rewrite headers, multicast, drop, update registers, or raise digests to the
control plane.  The control-plane API (entry insert/delete, register
access, digest listeners) mirrors P4Runtime's shape.
"""

from __future__ import annotations

import fnmatch
import itertools
import os
import re
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Any, Callable

from ..net.packet import Packet


class MatchKind(Enum):
    """Supported match kinds."""

    EXACT = auto()
    TERNARY = auto()  # value with '*' wildcards via fnmatch


@dataclass
class PacketContext:
    """Mutable per-packet state flowing through the pipeline."""

    packet: Packet
    ingress_port: int
    fields: dict[str, Any] = field(default_factory=dict)
    egress_ports: list[int] = field(default_factory=list)
    #: mirrored copies: (egress port, field overrides applied to the copy)
    clones: list[tuple[int, dict[str, Any]]] = field(default_factory=list)
    dropped: bool = False
    digests: list[dict[str, Any]] = field(default_factory=list)
    #: trace of (table, action) decisions, for debugging and tests
    trace: list[tuple[str, str]] = field(default_factory=list)

    # -- primitive actions -------------------------------------------------

    def forward(self, port: int) -> None:
        """Add an egress port."""
        self.egress_ports.append(port)

    def clone(self, port: int, **overrides: Any) -> None:
        """Mirror a copy out ``port`` with rewritten fields (clone session)."""
        self.clones.append((port, overrides))

    def drop(self) -> None:
        """Discard the frame (clones already created still egress)."""
        self.dropped = True
        self.egress_ports.clear()

    def set_field(self, name: str, value: Any) -> None:
        """Rewrite a parsed field; the deparser folds it into the frame."""
        self.fields[name] = value

    def digest(self, **data: Any) -> None:
        """Raise a digest to the control plane."""
        self.digests.append(data)


#: An action implementation: ``fn(ctx, **params)``.
ActionFn = Callable[..., None]


def _compile_pattern(pattern: Any) -> Callable[[str], Any]:
    """The ``re`` match function that ``fnmatch.fnmatch`` uses for
    ``pattern``; call it on ``os.path.normcase(str(value))``."""
    return re.compile(fnmatch.translate(os.path.normcase(str(pattern)))).match


@dataclass(frozen=True)
class TableEntry:
    """One installed table entry."""

    key: tuple[Any, ...]
    action: str
    params: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    entry_id: int = field(default_factory=itertools.count(1).__next__)


class Table:
    """A match-action table over named key fields."""

    def __init__(
        self,
        name: str,
        key_fields: list[str],
        match_kind: MatchKind = MatchKind.EXACT,
        default_action: str = "NoAction",
        default_params: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.key_fields = list(key_fields)
        self.match_kind = match_kind
        self.default_action = default_action
        self.default_params = default_params or {}
        self._entries: dict[tuple[Any, ...], TableEntry] = {}
        #: Ternary entries, highest priority first, each with one
        #: compiled pattern per key field.
        self._ternary_entries: list[
            tuple[TableEntry, tuple[Callable[[str], Any], ...]]
        ] = []
        self.hits = 0
        self.misses = 0

    def insert(
        self,
        key: tuple[Any, ...] | list[Any],
        action: str,
        params: dict[str, Any] | None = None,
        priority: int = 0,
    ) -> TableEntry:
        """Install an entry (replaces an existing identical key)."""
        key_tuple = tuple(key)
        if len(key_tuple) != len(self.key_fields):
            raise ValueError(
                f"table {self.name}: key arity {len(key_tuple)} != "
                f"{len(self.key_fields)}"
            )
        entry = TableEntry(
            key=key_tuple, action=action, params=params or {}, priority=priority
        )
        if self.match_kind is MatchKind.EXACT:
            self._entries[key_tuple] = entry
        else:
            matchers = tuple(_compile_pattern(p) for p in key_tuple)
            self._ternary_entries = [
                item for item in self._ternary_entries
                if item[0].key != key_tuple
            ]
            self._ternary_entries.append((entry, matchers))
            self._ternary_entries.sort(key=lambda item: -item[0].priority)
        return entry

    def delete(self, key: tuple[Any, ...] | list[Any]) -> bool:
        """Remove an entry; returns ``True`` when one existed."""
        key_tuple = tuple(key)
        if self.match_kind is MatchKind.EXACT:
            return self._entries.pop(key_tuple, None) is not None
        before = len(self._ternary_entries)
        self._ternary_entries = [
            item for item in self._ternary_entries if item[0].key != key_tuple
        ]
        return len(self._ternary_entries) != before

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._ternary_entries.clear()

    def entries(self) -> list[TableEntry]:
        """All installed entries."""
        if self.match_kind is MatchKind.EXACT:
            return list(self._entries.values())
        return [entry for entry, _ in self._ternary_entries]

    def lookup(self, ctx: PacketContext) -> tuple[str, dict[str, Any], bool]:
        """Match the context; returns ``(action, params, hit)``."""
        key = tuple(ctx.fields.get(name) for name in self.key_fields)
        if self.match_kind is MatchKind.EXACT:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                return entry.action, entry.params, True
        else:
            normcase = os.path.normcase
            values = [normcase(str(actual)) for actual in key]
            for entry, matchers in self._ternary_entries:
                for value, match in zip(values, matchers):
                    if match(value) is None:
                        break
                else:
                    self.hits += 1
                    return entry.action, entry.params, True
        self.misses += 1
        return self.default_action, self.default_params, False


class Register:
    """A P4 register array: data-plane state the control plane can read."""

    def __init__(self, name: str, size: int, initial: Any = 0) -> None:
        if size < 1:
            raise ValueError("register size must be positive")
        self.name = name
        self._cells: list[Any] = [initial] * size

    def read(self, index: int) -> Any:
        """Read one cell."""
        return self._cells[index]

    def write(self, index: int, value: Any) -> None:
        """Write one cell."""
        self._cells[index] = value

    def __len__(self) -> int:
        return len(self._cells)


@dataclass
class PipelineStage:
    """One table application, optionally guarded by a predicate."""

    table: Table
    guard: Callable[[PacketContext], bool] | None = None


class P4Pipeline:
    """Parser + ordered table stages + action registry."""

    def __init__(
        self,
        name: str,
        parser: Callable[[Packet, int], dict[str, Any]],
    ) -> None:
        self.name = name
        self.parser = parser
        self.stages: list[PipelineStage] = []
        self.tables: dict[str, Table] = {}
        self.registers: dict[str, Register] = {}
        self._actions: dict[str, ActionFn] = {"NoAction": lambda ctx: None}

    def add_table(
        self,
        table: Table,
        guard: Callable[[PacketContext], bool] | None = None,
    ) -> Table:
        """Append a table stage."""
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        self.stages.append(PipelineStage(table=table, guard=guard))
        return table

    def add_register(self, register: Register) -> Register:
        """Register a named register array."""
        if register.name in self.registers:
            raise ValueError(f"duplicate register {register.name!r}")
        self.registers[register.name] = register
        return register

    def register_action(self, name: str, fn: ActionFn) -> None:
        """Make an action available to table entries."""
        if name in self._actions:
            raise ValueError(f"duplicate action {name!r}")
        self._actions[name] = fn

    def process(self, packet: Packet, ingress_port: int) -> PacketContext:
        """Run one frame through parser and all stages."""
        ctx = PacketContext(
            packet=packet,
            ingress_port=ingress_port,
            fields=self.parser(packet, ingress_port),
        )
        for stage in self.stages:
            if ctx.dropped:
                break
            if stage.guard is not None and not stage.guard(ctx):
                continue
            action_name, params, _ = stage.table.lookup(ctx)
            ctx.trace.append((stage.table.name, action_name))
            action = self._actions.get(action_name)
            if action is None:
                raise KeyError(
                    f"table {stage.table.name} references unknown action "
                    f"{action_name!r}"
                )
            action(ctx, **params)
        return ctx
