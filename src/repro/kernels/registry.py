"""Kernel registry and the ``build_kernel`` entry point.

GrCUDA's ``buildkernel(code, name, signature)`` compiles CUDA source with
NVRTC.  Our "source" is either a Python callable (the functional
implementation) or the name of an implementation previously registered in
a :class:`KernelRegistry`.  The workload suite and the serving layer pass
callables: each :class:`~repro.graphs.taskgraph.KernelDecl` carries its
``fn``, and nothing registers in :data:`GLOBAL_REGISTRY`.  A registry
serves host programs that name their kernels, as GrCUDA programs name
CUDA source; a :class:`~repro.session.Session` may carry its own.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import LaunchError
from repro.kernels.kernel import Kernel, LaunchHandler
from repro.kernels.profile import CostModel, LinearCostModel
from repro.kernels.signature import parse_signature


class KernelRegistry:
    """Named kernel implementations with their default cost models."""

    def __init__(self) -> None:
        self._impls: dict[str, tuple[Callable[..., None], CostModel]] = {}

    def register(
        self,
        name: str,
        compute_fn: Callable[..., None],
        cost_model: CostModel | None = None,
    ) -> None:
        if name in self._impls:
            raise ValueError(f"kernel {name!r} already registered")
        self._impls[name] = (compute_fn, cost_model or LinearCostModel())

    def __contains__(self, name: str) -> bool:
        return name in self._impls

    def get(self, name: str) -> tuple[Callable[..., None], CostModel]:
        try:
            return self._impls[name]
        except KeyError:
            raise LaunchError(
                f"no kernel implementation registered under {name!r}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._impls)


#: Process-wide registry used by build_kernel when given a string "code".
GLOBAL_REGISTRY = KernelRegistry()


def build_kernel(
    code: Callable[..., None] | str,
    name: str,
    signature: str,
    cost_model: CostModel | None = None,
    launch_handler: LaunchHandler | None = None,
    registry: KernelRegistry | None = None,
) -> Kernel:
    """Build a launchable kernel, mirroring GrCUDA's ``buildkernel``.

    Parameters
    ----------
    code:
        Either the functional implementation itself (a callable taking
        numpy views and scalars), or the name of a registered
        implementation.
    name:
        Kernel name, as it appears in timelines and metrics.
    signature:
        NIDL signature string, e.g. ``"const ptr, ptr, sint32"``.
    cost_model:
        Roofline cost model; defaults to the registered model (for string
        codes) or a generic :class:`LinearCostModel`.
    launch_handler:
        Where launches are sent; the runtime fills this in.
    registry:
        Registry for string lookups; defaults to the global one.
    """
    sig = parse_signature(signature)
    if isinstance(code, str):
        reg = registry or GLOBAL_REGISTRY
        compute_fn, registered_model = reg.get(code)
        model = cost_model or registered_model
    else:
        compute_fn = code
        model = cost_model or LinearCostModel()
    return Kernel(
        name=name,
        signature=sig,
        compute_fn=compute_fn,
        cost_model=model,
        launch_handler=launch_handler,
    )
