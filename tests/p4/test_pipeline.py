"""P4 pipeline semantics: tables, actions, registers, digests."""

import fnmatch

import pytest

from repro.net import Packet
from repro.p4 import (
    MatchKind,
    P4Pipeline,
    PacketContext,
    Register,
    Table,
    default_parser,
)


def make_pipeline():
    return P4Pipeline("test", parser=default_parser)


def packet(src="a", dst="b", msg_type="", flow="f"):
    return Packet(
        src=src, dst=dst, payload_bytes=50, flow_id=flow,
        payload={"type": msg_type} if msg_type else {},
    )


class TestExactTable:
    def test_hit_runs_action_with_params(self):
        pipeline = make_pipeline()
        forwarded = []
        pipeline.register_action(
            "fwd", lambda ctx, port: forwarded.append(port) or ctx.forward(port)
        )
        table = pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["b"], "fwd", {"port": 3})
        ctx = pipeline.process(packet(), 0)
        assert forwarded == [3]
        assert ctx.egress_ports == [3]
        assert table.hits == 1

    def test_miss_runs_default_action(self):
        pipeline = make_pipeline()
        table = pipeline.add_table(Table("t", key_fields=["dst"]))
        ctx = pipeline.process(packet(dst="unknown"), 0)
        assert ctx.egress_ports == []
        assert table.misses == 1
        assert ctx.trace == [("t", "NoAction")]

    def test_insert_replaces_same_key(self):
        pipeline = make_pipeline()
        hits = []
        pipeline.register_action("a1", lambda ctx: hits.append(1))
        pipeline.register_action("a2", lambda ctx: hits.append(2))
        table = pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["b"], "a1")
        table.insert(["b"], "a2")
        pipeline.process(packet(), 0)
        assert hits == [2]

    def test_delete_entry(self):
        pipeline = make_pipeline()
        table = pipeline.add_table(Table("t", key_fields=["dst"]))
        table.insert(["b"], "NoAction")
        assert table.delete(["b"])
        assert not table.delete(["b"])
        assert table.entries() == []

    def test_key_arity_checked(self):
        table = Table("t", key_fields=["a", "b"])
        with pytest.raises(ValueError):
            table.insert(["x"], "NoAction")


class TestTernaryTable:
    def test_wildcard_matches(self):
        pipeline = make_pipeline()
        seen = []
        pipeline.register_action("note", lambda ctx, tag: seen.append(tag))
        table = pipeline.add_table(
            Table("t", key_fields=["src", "msg_type"], match_kind=MatchKind.TERNARY)
        )
        table.insert(["a", "*"], "note", {"tag": "any-from-a"})
        pipeline.process(packet(msg_type="hello"), 0)
        assert seen == ["any-from-a"]

    def test_priority_orders_overlapping_entries(self):
        pipeline = make_pipeline()
        seen = []
        pipeline.register_action("note", lambda ctx, tag: seen.append(tag))
        table = pipeline.add_table(
            Table("t", key_fields=["src"], match_kind=MatchKind.TERNARY)
        )
        table.insert(["*"], "note", {"tag": "low"}, priority=1)
        table.insert(["a"], "note", {"tag": "high"}, priority=10)
        pipeline.process(packet(src="a"), 0)
        pipeline.process(packet(src="z"), 0)
        assert seen == ["high", "low"]

    def test_delete_ternary_entry(self):
        table = Table("t", key_fields=["src"], match_kind=MatchKind.TERNARY)
        table.insert(["a*"], "NoAction")
        assert table.delete(["a*"])
        assert table.entries() == []

    def test_compiled_patterns_match_like_fnmatch(self):
        patterns = ["*", "a*", "?b", "[ab]c", "[!a]*", "x.y", "a+b", "(*)", 7, None]
        values = ["a", "ab", "bb", "ac", "bc", "xzy", "x.y", "a+b", "aab",
                  "(q)", "7", 7, None, "None", "", "a\nb"]
        for pattern in patterns:
            table = Table("t", key_fields=["src"], match_kind=MatchKind.TERNARY)
            table.insert([pattern], "hit")
            for value in values:
                ctx = PacketContext(packet=packet(), ingress_port=0)
                ctx.fields["src"] = value
                _, _, hit = table.lookup(ctx)
                assert hit == fnmatch.fnmatch(str(value), str(pattern)), (
                    pattern, value,
                )


class TestPipelineFlow:
    def test_stages_run_in_order(self):
        pipeline = make_pipeline()
        trace = []
        pipeline.register_action("first", lambda ctx: trace.append("first"))
        pipeline.register_action("second", lambda ctx: trace.append("second"))
        t1 = pipeline.add_table(Table("t1", key_fields=["src"]))
        t2 = pipeline.add_table(Table("t2", key_fields=["src"]))
        t1.insert(["a"], "first")
        t2.insert(["a"], "second")
        pipeline.process(packet(), 0)
        assert trace == ["first", "second"]

    def test_drop_short_circuits_later_stages(self):
        pipeline = make_pipeline()
        trace = []
        pipeline.register_action("kill", lambda ctx: ctx.drop())
        pipeline.register_action("later", lambda ctx: trace.append("later"))
        t1 = pipeline.add_table(Table("t1", key_fields=["src"]))
        t2 = pipeline.add_table(Table("t2", key_fields=["src"]))
        t1.insert(["a"], "kill")
        t2.insert(["a"], "later")
        ctx = pipeline.process(packet(), 0)
        assert ctx.dropped
        assert trace == []

    def test_guard_skips_stage(self):
        pipeline = make_pipeline()
        trace = []
        pipeline.register_action("note", lambda ctx: trace.append(1))
        table = Table("t", key_fields=["src"])
        table.insert(["a"], "note")
        pipeline.add_table(table, guard=lambda ctx: False)
        pipeline.process(packet(), 0)
        assert trace == []

    def test_digest_collected(self):
        pipeline = make_pipeline()
        pipeline.register_action("tell", lambda ctx: ctx.digest(kind="x", n=1))
        table = pipeline.add_table(Table("t", key_fields=["src"]))
        table.insert(["a"], "tell")
        ctx = pipeline.process(packet(), 0)
        assert ctx.digests == [{"kind": "x", "n": 1}]

    def test_unknown_action_raises(self):
        pipeline = make_pipeline()
        table = pipeline.add_table(Table("t", key_fields=["src"]))
        table.insert(["a"], "ghost")
        with pytest.raises(KeyError):
            pipeline.process(packet(), 0)

    def test_duplicate_registration_rejected(self):
        pipeline = make_pipeline()
        pipeline.add_table(Table("t", key_fields=["src"]))
        with pytest.raises(ValueError):
            pipeline.add_table(Table("t", key_fields=["dst"]))
        pipeline.register_action("a", lambda ctx: None)
        with pytest.raises(ValueError):
            pipeline.register_action("a", lambda ctx: None)

    def test_parser_fields_available_to_keys(self):
        ctx_fields = default_parser(packet(msg_type="connect_request"), 4)
        assert ctx_fields["msg_type"] == "connect_request"
        assert ctx_fields["ingress_port"] == 4


class TestRegister:
    def test_read_write(self):
        register = Register("r", size=4)
        register.write(2, 99)
        assert register.read(2) == 99
        assert register.read(0) == 0
        assert len(register) == 4

    def test_out_of_range(self):
        register = Register("r", size=2)
        with pytest.raises(IndexError):
            register.read(5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Register("r", size=0)

    def test_clone_records_overrides(self):
        ctx = PacketContext(packet=packet(), ingress_port=0)
        ctx.clone(3, dst="other")
        assert ctx.clones == [(3, {"dst": "other"})]
