"""Unit tests for the exception hierarchy and the buffer registry."""

import pytest

from repro.kernel.bench import load_kernel_bench
from repro.network.simulator import load_checkpoint
from repro.perf.harness import load_bench

from repro.core.registry import (
    BUFFER_TYPES,
    PAPER_ORDER,
    buffer_class,
    buffer_kinds,
    make_buffer,
    make_buffer_factory,
    register_buffer_type,
)
from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            BufferEmptyError,
            BufferFullError,
            ConfigurationError,
            ProtocolError,
            RoutingError,
            SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_catches_everything(self):
        caught = []
        for exc in (BufferFullError, RoutingError, ProtocolError):
            try:
                raise exc("x")
            except ReproError as error:
                caught.append(type(error))
        assert caught == [BufferFullError, RoutingError, ProtocolError]

    @pytest.mark.parametrize(
        "loader", [load_checkpoint, load_bench, load_kernel_bench]
    )
    @pytest.mark.parametrize(
        "content", ['{"format": 1, "sta', "[1, 2]"], ids=["truncated", "array"]
    )
    def test_malformed_json_files_raise_a_typed_error(
        self, loader, content, tmp_path
    ):
        path = tmp_path / "document.json"
        path.write_text(content)
        with pytest.raises(ConfigurationError, match=str(path)):
            loader(path)


class TestRegistry:
    def test_paper_order_registered(self):
        # The paper's four buffers are always present; extension
        # architectures (repro.arch) may add more but never shadow them.
        assert set(PAPER_ORDER) <= set(BUFFER_TYPES)
        for kind in PAPER_ORDER:
            assert buffer_class(kind).kind == kind

    def test_buffer_kinds_lists_paper_buffers_first(self):
        kinds = buffer_kinds()
        assert kinds[: len(PAPER_ORDER)] == PAPER_ORDER
        # buffer_kinds() loads the architecture zoo.
        assert "CQ" in kinds
        assert "DAMQ-RSV" in kinds

    def test_lookup_case_insensitive(self):
        assert buffer_class("damq").kind == "DAMQ"
        assert buffer_class("Fifo").kind == "FIFO"
        assert buffer_class("cq").kind == "CQ"
        assert buffer_class("damq-rsv").kind == "DAMQ-RSV"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            buffer_class("VOQ")

    def test_unknown_kind_lists_available_architectures(self):
        with pytest.raises(ConfigurationError) as excinfo:
            buffer_class("VOQ")
        message = str(excinfo.value)
        for kind in (*PAPER_ORDER, "CQ", "DAMQ-RSV"):
            assert kind in message

    def test_register_rejects_rebinding(self):
        from repro.core.damq import DamqBuffer
        from repro.core.fifo import FifoBuffer

        register_buffer_type("DAMQ", DamqBuffer)  # idempotent no-op
        with pytest.raises(ConfigurationError):
            register_buffer_type("DAMQ", FifoBuffer)

    @pytest.mark.parametrize("kind", buffer_kinds())
    def test_make_buffer_constructs_each(self, kind):
        buffer = make_buffer(kind, capacity=4, num_outputs=4)
        assert buffer.kind == kind
        assert buffer.capacity == 4

    def test_factory_binds_capacity(self):
        factory = make_buffer_factory("SAMQ", capacity=8)
        buffer = factory(4)
        assert buffer.capacity == 8
        assert buffer.num_outputs == 4

    def test_factory_rejects_bad_combo_late(self):
        factory = make_buffer_factory("SAMQ", capacity=5)
        with pytest.raises(ConfigurationError):
            factory(4)  # 5 not divisible by 4
