"""Function-block programs."""

import pytest

from repro.plc import (
    Ctu,
    FunctionBlockProgram,
    Lambda,
    Limit,
    Pid,
    Ton,
    passthrough_program,
)


class TestBlocks:
    def test_limit(self):
        limit = Limit("l", low=0.0, high=10.0)
        assert limit.evaluate({"in": 25.0}, 0.1)["out"] == 10.0
        assert limit.evaluate({"in": -5.0}, 0.1)["out"] == 0.0
        with pytest.raises(ValueError):
            Limit("bad", low=5, high=1)

    def test_ton_delays_output(self):
        timer = Ton("t", pt_s=0.5)
        assert not timer.evaluate({"in": True}, 0.2)["q"]
        assert not timer.evaluate({"in": True}, 0.2)["q"]
        assert timer.evaluate({"in": True}, 0.2)["q"]

    def test_ton_resets_when_input_drops(self):
        timer = Ton("t", pt_s=0.3)
        timer.evaluate({"in": True}, 0.2)
        timer.evaluate({"in": False}, 0.2)
        assert not timer.evaluate({"in": True}, 0.2)["q"]

    def test_ctu_counts_rising_edges_only(self):
        counter = Ctu("c", pv=2)
        assert counter.evaluate({"cu": True}, 0.1)["cv"] == 1
        assert counter.evaluate({"cu": True}, 0.1)["cv"] == 1  # held high
        counter.evaluate({"cu": False}, 0.1)
        result = counter.evaluate({"cu": True}, 0.1)
        assert result["cv"] == 2
        assert result["q"]

    def test_ctu_reset(self):
        counter = Ctu("c", pv=5)
        counter.evaluate({"cu": True}, 0.1)
        assert counter.evaluate({"cu": False, "reset": True}, 0.1)["cv"] == 0

    def test_pid_proportional_action(self):
        pid = Pid("p", kp=2.0)
        assert pid.evaluate({"sp": 10.0, "pv": 7.0}, 0.1)["out"] == pytest.approx(6.0)

    def test_pid_integral_accumulates(self):
        pid = Pid("p", kp=0.0, ki=1.0)
        first = pid.evaluate({"sp": 1.0, "pv": 0.0}, 1.0)["out"]
        second = pid.evaluate({"sp": 1.0, "pv": 0.0}, 1.0)["out"]
        assert second > first

    def test_pid_output_clamped(self):
        pid = Pid("p", kp=100.0, out_low=-1.0, out_high=1.0)
        assert pid.evaluate({"sp": 10.0, "pv": 0.0}, 0.1)["out"] == 1.0


class TestProgram:
    def test_wiring_propagates_values(self):
        program = FunctionBlockProgram()
        program.add_block(Lambda("double", lambda i: {"out": i["in"] * 2.0}))
        program.add_block(Limit("limit", low=0.0, high=5.0))
        program.connect("double", "out", "limit", "in")
        program.input_map["raw"] = ("double", "in")
        program.output_map["clamped"] = ("limit", "out")
        assert program.execute({"raw": 10.0}, 0.1) == {"clamped": 5.0}

    def test_execution_order_is_topological(self):
        order = []

        def tracer(name):
            def fn(inputs):
                order.append(name)
                return {"out": 1}
            return fn

        program = FunctionBlockProgram()
        program.add_block(Lambda("late", tracer("late")))
        program.add_block(Lambda("early", tracer("early")))
        program.connect("early", "out", "late", "in")
        program.execute({}, 0.1)
        assert order == ["early", "late"]

    def test_cycle_uses_previous_scan_values(self):
        # a -> b -> a: the loop must execute with one-scan-old values.
        program = FunctionBlockProgram()
        program.add_block(Lambda("a", lambda i: {"out": i.get("in", 0) + 1}))
        program.add_block(Lambda("b", lambda i: {"out": i.get("in", 0)}))
        program.connect("a", "out", "b", "in")
        program.connect("b", "out", "a", "in")
        program.output_map["value"] = ("b", "out")
        first = program.execute({}, 0.1)["value"]
        second = program.execute({}, 0.1)["value"]
        assert second > first  # state advances scan by scan

    def test_duplicate_block_rejected(self):
        program = FunctionBlockProgram()
        program.add_block(Lambda("x", dict))
        with pytest.raises(ValueError):
            program.add_block(Lambda("x", dict))

    def test_connect_unknown_block_rejected(self):
        program = FunctionBlockProgram()
        program.add_block(Lambda("x", dict))
        with pytest.raises(KeyError):
            program.connect("x", "out", "ghost", "in")

    def test_passthrough_program(self):
        program = passthrough_program({"dev.echo": "dev.counter"})
        assert program.execute({"dev.counter": 7}, 0.1) == {"dev.echo": 7}

    def test_missing_inputs_produce_no_outputs(self):
        program = passthrough_program({"out": "in"})
        assert program.execute({}, 0.1) == {}
