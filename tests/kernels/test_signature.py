"""Tests for NIDL signature parsing."""

import pytest

from repro.errors import SignatureError
from repro.kernels import ParamKind, parse_signature
from repro.memory import AccessKind


class TestPaperSignatures:
    def test_fig4_square(self):
        # K1 = build_kernel(K1_CODE, "square", "ptr, sint32")
        sig = parse_signature("ptr, sint32")
        assert len(sig) == 2
        assert sig[0].is_pointer
        assert sig[0].access is AccessKind.READ_WRITE
        assert sig[1].kind is ParamKind.SCALAR
        assert sig[1].type_name == "sint32"

    def test_fig4_sum(self):
        # "const ptr, const ptr, ptr, sint32"
        sig = parse_signature("const ptr, const ptr, ptr, sint32")
        assert sig[0].access is AccessKind.READ
        assert sig[1].access is AccessKind.READ
        assert sig[2].access is AccessKind.READ_WRITE
        assert not sig[3].is_pointer


class TestQualifiers:
    def test_const_is_read_only(self):
        assert parse_signature("const ptr")[0].access is AccessKind.READ

    def test_in_is_read_only(self):
        assert parse_signature("in ptr")[0].access is AccessKind.READ

    def test_out_is_write_only(self):
        assert parse_signature("out ptr")[0].access is AccessKind.WRITE

    def test_inout_is_read_write(self):
        assert parse_signature("inout ptr")[0].access is AccessKind.READ_WRITE

    def test_unqualified_defaults_to_read_write(self):
        # "For arguments without annotations, the scheduler treats them
        # as modifiable by the kernel."
        assert parse_signature("ptr")[0].access is AccessKind.READ_WRITE


class TestNamedForm:
    def test_named_parameters(self):
        sig = parse_signature("x: inout pointer float, n: sint32")
        assert sig[0].name == "x"
        assert sig[0].is_pointer
        assert sig[0].type_name == "float"
        assert sig[1].name == "n"

    def test_default_names_positional(self):
        sig = parse_signature("ptr, ptr")
        assert sig[0].name == "arg0"
        assert sig[1].name == "arg1"

    def test_pointer_element_type(self):
        sig = parse_signature("const pointer double")
        assert sig[0].type_name == "double"

    def test_pointer_default_element_float(self):
        assert parse_signature("ptr")[0].type_name == "float"


class TestAccessors:
    def test_pointer_and_scalar_split(self):
        sig = parse_signature("const ptr, ptr, sint32, float")
        assert [p.is_pointer for p in sig] == [True, True, False, False]

    def test_iteration(self):
        sig = parse_signature("ptr, sint32")
        assert [p.position for p in sig] == [0, 1]


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "ptr,,sint32",
            "unknowntype",
            "const",
            "const sint32",          # qualifier on scalar
            "ptr banana",            # unknown element type
            "ptr float extra",       # trailing tokens
            "sint32 extra",
            "1bad: ptr",             # invalid name
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(SignatureError):
            parse_signature(bad)
