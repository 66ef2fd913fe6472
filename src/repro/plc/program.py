"""Control programs: an IEC 61131-3-flavoured function-block model.

A PLC's application logic is expressed as a network of function blocks
wired output-to-input, executed once per scan cycle in topological order.
The block library covers what the examples need — timers, counters, PID,
clamping, and :class:`Lambda` for anything else — without pretending to be
a full 61131 runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


class Block:
    """One function block.  Subclasses implement :meth:`evaluate`."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        """Produce outputs from inputs; ``dt_s`` is the scan period."""
        raise NotImplementedError


class Lambda(Block):
    """Wrap a plain function ``f(inputs) -> outputs`` as a block."""

    def __init__(self, name: str, fn: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
        super().__init__(name)
        self._fn = fn

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        return self._fn(inputs)


class Limit(Block):
    """Clamp input ``in`` to [low, high]."""

    def __init__(self, name: str, low: float, high: float) -> None:
        super().__init__(name)
        if low > high:
            raise ValueError("low must not exceed high")
        self.low = low
        self.high = high

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        value = float(inputs.get("in", 0.0))
        return {"out": min(self.high, max(self.low, value))}


class Ton(Block):
    """On-delay timer (TON): ``q`` goes true after ``in`` held for ``pt_s``."""

    def __init__(self, name: str, pt_s: float) -> None:
        super().__init__(name)
        if pt_s < 0:
            raise ValueError("preset time cannot be negative")
        self.pt_s = pt_s
        self._elapsed_s = 0.0

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        if bool(inputs.get("in")):
            self._elapsed_s = min(self.pt_s, self._elapsed_s + dt_s)
        else:
            self._elapsed_s = 0.0
        return {"q": self._elapsed_s >= self.pt_s, "et": self._elapsed_s}


class Ctu(Block):
    """Count-up counter (CTU) with rising-edge detection and preset ``pv``."""

    def __init__(self, name: str, pv: int) -> None:
        super().__init__(name)
        self.pv = pv
        self._count = 0
        self._last_cu = False

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        cu = bool(inputs.get("cu"))
        if bool(inputs.get("reset")):
            self._count = 0
        elif cu and not self._last_cu:
            self._count += 1
        self._last_cu = cu
        return {"q": self._count >= self.pv, "cv": self._count}


class Pid(Block):
    """Discrete PID controller on error ``sp - pv`` with output clamping."""

    def __init__(
        self,
        name: str,
        kp: float,
        ki: float = 0.0,
        kd: float = 0.0,
        out_low: float = float("-inf"),
        out_high: float = float("inf"),
    ) -> None:
        super().__init__(name)
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.out_low = out_low
        self.out_high = out_high
        self._integral = 0.0
        self._last_error: float | None = None

    def evaluate(self, inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        error = float(inputs.get("sp", 0.0)) - float(inputs.get("pv", 0.0))
        derivative = 0.0
        if self._last_error is not None and dt_s > 0:
            derivative = (error - self._last_error) / dt_s
        proposed = (
            self.kp * error + self.ki * (self._integral + error * dt_s)
            + self.kd * derivative
        )
        clamped = min(self.out_high, max(self.out_low, proposed))
        # Anti-windup: only integrate when not saturated against the error.
        if proposed == clamped or (proposed > clamped) != (error > 0):
            self._integral += error * dt_s
        self._last_error = error
        return {"out": clamped, "error": error}


@dataclass(frozen=True)
class Wire:
    """Connects ``(src_block, src_key)`` to ``(dst_block, dst_key)``."""

    src_block: str
    src_key: str
    dst_block: str
    dst_key: str


@dataclass
class FunctionBlockProgram:
    """A wired network of blocks executed once per scan.

    ``input_map`` routes process-image inputs into block inputs as
    ``{"image_key": ("block", "key")}``; ``output_map`` routes block outputs
    to the process image as ``{"image_key": ("block", "key")}``.
    """

    blocks: dict[str, Block] = field(default_factory=dict)
    wires: list[Wire] = field(default_factory=list)
    input_map: dict[str, tuple[str, str]] = field(default_factory=dict)
    output_map: dict[str, tuple[str, str]] = field(default_factory=dict)
    # Each block's outputs from the previous scan, read by cyclic wires.
    _last_outputs: dict[str, dict[str, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add_block(self, block: Block) -> Block:
        """Register a block (names must be unique)."""
        if block.name in self.blocks:
            raise ValueError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        return block

    def connect(self, src: str, src_key: str, dst: str, dst_key: str) -> None:
        """Wire a block output to a block input."""
        for name in (src, dst):
            if name not in self.blocks:
                raise KeyError(f"unknown block {name!r}")
        self.wires.append(Wire(src, src_key, dst, dst_key))

    def _execution_order(self) -> list[str]:
        dependencies: dict[str, set[str]] = {name: set() for name in self.blocks}
        for wire in self.wires:
            dependencies[wire.dst_block].add(wire.src_block)
        order: list[str] = []
        ready = sorted(n for n, deps in dependencies.items() if not deps)
        remaining = {n: set(deps) for n, deps in dependencies.items() if deps}
        while ready:
            current = ready.pop(0)
            order.append(current)
            newly_ready = []
            for name, deps in list(remaining.items()):
                deps.discard(current)
                if not deps:
                    newly_ready.append(name)
                    del remaining[name]
            ready.extend(sorted(newly_ready))
            ready.sort()
        if remaining:
            # Cycles execute with one-scan-old values, like a real PLC:
            # append them in name order.
            order.extend(sorted(remaining))
        return order

    def execute(self, image_inputs: dict[str, Any], dt_s: float) -> dict[str, Any]:
        """Run one scan: map inputs, evaluate blocks, map outputs."""
        block_inputs: dict[str, dict[str, Any]] = {
            name: {} for name in self.blocks
        }
        for image_key, (block, key) in self.input_map.items():
            if image_key in image_inputs:
                block_inputs[block][key] = image_inputs[image_key]
        block_outputs = self._last_outputs
        new_outputs: dict[str, dict[str, Any]] = {}
        for name in self._execution_order():
            for wire in self.wires:
                if wire.dst_block == name:
                    source = new_outputs.get(
                        wire.src_block, block_outputs.get(wire.src_block, {})
                    )
                    if wire.src_key in source:
                        block_inputs[name][wire.dst_key] = source[wire.src_key]
            new_outputs[name] = self.blocks[name].evaluate(
                block_inputs[name], dt_s
            )
        self._last_outputs = new_outputs
        result: dict[str, Any] = {}
        for image_key, (block, key) in self.output_map.items():
            outputs = new_outputs.get(block, {})
            if key in outputs:
                result[image_key] = outputs[key]
        return result


def passthrough_program(mapping: dict[str, str]) -> FunctionBlockProgram:
    """A program that copies inputs to outputs (``{"out_key": "in_key"}``)."""
    program = FunctionBlockProgram()
    block = Lambda("copy", lambda inputs: dict(inputs))
    program.add_block(block)
    for out_key, in_key in mapping.items():
        program.input_map[in_key] = ("copy", in_key)
        program.output_map[out_key] = ("copy", in_key)
    return program
