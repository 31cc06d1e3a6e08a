"""NIDL kernel-signature parsing.

GrCUDA specifies kernel signatures with the Native Interface Definition
Language (NIDL) or Truffle NFI: a comma-separated list of parameter
types, optionally named, with access qualifiers.  Examples from the paper
(Fig. 4)::

    "ptr, sint32"
    "const ptr, const ptr, ptr, sint32"

and the named form::

    "x: inout pointer float, n: sint32"

Access qualifiers drive the scheduler's read-only dependency rules
(section IV-D): ``const`` and ``in`` mark a pointer read-only, ``out``
write-only, and unqualified pointers are treated as read-write —
"not specifying arguments as read-only does not affect correctness, but
might limit the scheduler from performing further optimizations."
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.errors import SignatureError
from repro.memory.array import AccessKind

_SCALAR_TYPES = {
    "sint8", "sint16", "sint32", "sint64",
    "uint8", "uint16", "uint32", "uint64",
    "char", "float", "double", "float32", "float64",
    "sll64", "bool",
}

_POINTER_TYPES = {"ptr", "pointer"}

_QUALIFIERS = {
    "const": AccessKind.READ,
    "in": AccessKind.READ,
    "out": AccessKind.WRITE,
    "inout": AccessKind.READ_WRITE,
}


class ParamKind(enum.Enum):
    POINTER = "pointer"
    SCALAR = "scalar"


@dataclass(frozen=True)
class Parameter:
    """One kernel parameter.

    ``access`` is only meaningful for pointers; scalars are passed by
    value and never create dependencies (Fig. 4: "scalar value passed by
    copy, ignored for dependencies").
    """

    name: str
    kind: ParamKind
    access: AccessKind
    type_name: str
    position: int

    @property
    def is_pointer(self) -> bool:
        return self.kind is ParamKind.POINTER


@dataclass(frozen=True)
class Signature:
    """A parsed NIDL signature."""

    parameters: tuple[Parameter, ...]
    raw: str

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self):
        return iter(self.parameters)

    def __getitem__(self, i: int) -> Parameter:
        return self.parameters[i]


def _parse_parameter(token: str, position: int) -> Parameter:
    token = token.strip()
    if not token:
        raise SignatureError(f"empty parameter at position {position}")
    name = f"arg{position}"
    if ":" in token:
        name_part, _, token = token.partition(":")
        name = name_part.strip()
        if not name.isidentifier():
            raise SignatureError(
                f"invalid parameter name {name!r} at position {position}"
            )
        token = token.strip()

    words = token.split()
    if not words:
        raise SignatureError(f"missing type at position {position}")

    access = AccessKind.READ_WRITE
    if words[0] in _QUALIFIERS:
        access = _QUALIFIERS[words[0]]
        words = words[1:]
        if not words:
            raise SignatureError(
                f"qualifier without type at position {position}"
            )

    base = words[0]
    if base in _POINTER_TYPES:
        # Optional element type, e.g. "pointer float".
        elem = words[1] if len(words) > 1 else "float"
        if len(words) > 2:
            raise SignatureError(
                f"trailing tokens {words[2:]} at position {position}"
            )
        if elem not in _SCALAR_TYPES:
            raise SignatureError(
                f"unknown element type {elem!r} at position {position}"
            )
        return Parameter(
            name=name,
            kind=ParamKind.POINTER,
            access=access,
            type_name=elem,
            position=position,
        )

    if base in _SCALAR_TYPES:
        if len(words) > 1:
            raise SignatureError(
                f"trailing tokens {words[1:]} at position {position}"
            )
        if access is not AccessKind.READ_WRITE:
            raise SignatureError(
                f"scalar parameter at position {position} cannot carry an"
                f" access qualifier (scalars are passed by copy)"
            )
        return Parameter(
            name=name,
            kind=ParamKind.SCALAR,
            access=AccessKind.READ,
            type_name=base,
            position=position,
        )

    raise SignatureError(
        f"unknown type {base!r} at position {position}"
        f" (expected one of {sorted(_POINTER_TYPES | _SCALAR_TYPES)})"
    )


@functools.cache
def parse_signature(text: str) -> Signature:
    """Parse a NIDL signature string into a :class:`Signature`.

    Memoized per string: a :class:`Signature` is immutable, so every
    kernel built from one signature string shares one parse.

    Raises
    ------
    SignatureError
        On any malformed input; the message pinpoints the parameter.
    """
    if not text or not text.strip():
        raise SignatureError("signature must not be empty")
    params = tuple(
        _parse_parameter(tok, i) for i, tok in enumerate(text.split(","))
    )
    return Signature(parameters=params, raw=text)
