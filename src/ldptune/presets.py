"""Named protocol instantiations and parameter resolution.

Twelve names, each a row of `PROTOCOLS`: the eight standard protocols (grr,
ss, sue, oue, blh, olh, she, the) resolve their parameter from (eps, k) by
the usual fixed rules, and the four adaptive ones (ass, aue, alh, athe)
resolve it by minimizing the weighted ASR+MSE objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (PARAMS, Family, ProtocolConfig, RangeError, check_eps,
                    check_k, is_real)
from .optimizer import (
    ObjectiveWeights,
    OptimizationResult,
    optimize_alh,
    optimize_ass,
    optimize_athe,
    optimize_aue,
)
from .protocols import olh_g, oue_params, ss_default_omega, sue_params

DEFAULT_WEIGHTS = ObjectiveWeights(0.5)
_MSE_ONLY = ObjectiveWeights(0.0)

# every name's family and the rule that fixes its free parameter from
# (eps, k, weights, n): a value, or an OptimizationResult whose config is the
# point's.  The eight standard protocols come first, then the four adaptive.
# The rules look the optimizers up when called, so a wrapper set on this
# module's attribute sees every call.
PROTOCOLS = {
    "grr": (Family.GRR, lambda eps, k, w, n: None),
    "ss": (Family.SS, lambda eps, k, w, n: ss_default_omega(eps, k)),
    "sue": (Family.UE, lambda eps, k, w, n: sue_params(eps)[0]),
    "oue": (Family.UE, lambda eps, k, w, n: oue_params(eps)[0]),
    "blh": (Family.LH, lambda eps, k, w, n: 2),
    "olh": (Family.LH, lambda eps, k, w, n: olh_g(eps)),
    "she": (Family.SHE, lambda eps, k, w, n: None),
    "the": (Family.THE,
            lambda eps, k, w, n: optimize_athe(eps, k, _MSE_ONLY, n)),
    "ass": (Family.SS, lambda eps, k, w, n: optimize_ass(eps, k, w, n)),
    "aue": (Family.UE, lambda eps, k, w, n: optimize_aue(eps, k, w, n)),
    "alh": (Family.LH, lambda eps, k, w, n: optimize_alh(eps, k, w, n)),
    "athe": (Family.THE, lambda eps, k, w, n: optimize_athe(eps, k, w, n)),
}
PROTOCOL_NAMES = tuple(PROTOCOLS)
ADAPTIVE_NAMES = PROTOCOL_NAMES[8:]


@dataclass(frozen=True)
class ResolvedProtocol:
    """A named protocol with its parameter pinned for one (eps, k)."""

    name: str
    config: ProtocolConfig
    optimization: OptimizationResult | None = None

    @property
    def param_name(self) -> str:
        """The free parameter's name; "" for grr and she."""
        return PARAMS[self.config.family][0]

    @property
    def param_value(self):
        """The free parameter (int or float); None for grr and she."""
        return self.config.param


def resolve_protocol(name: str, eps: float, k: int,
                     weights: ObjectiveWeights | None = None,
                     n: float = 1, param=None) -> ResolvedProtocol:
    """Build the ProtocolConfig for a protocol name at (eps, k).

    `param` overrides the resolved free parameter (omega, p, g, or theta) and
    is rejected for grr/she, which have none.  Adaptive names optimize under
    `weights` (an ObjectiveWeights, default w_asr = 0.5) and the user count
    `n`, a finite real > 0, unless `param` pins the value directly.  `the`
    and the adaptive names report the optimizer's own config.
    """
    name = name.lower()
    if name not in PROTOCOLS:
        raise RangeError("protocol", f"one of {', '.join(PROTOCOL_NAMES)}", name)
    check_eps(eps)
    check_k(k)
    if not (is_real(n) and 0 < n < math.inf):
        raise RangeError("n", "a finite real > 0", n)
    if weights is None:
        weights = DEFAULT_WEIGHTS
    elif not isinstance(weights, ObjectiveWeights):
        raise RangeError("weights", "an ObjectiveWeights", weights)
    family, rule = PROTOCOLS[name]
    value = rule(eps, k, weights, n) if param is None else param
    if isinstance(value, OptimizationResult):
        return ResolvedProtocol(name, value.config, value)
    return ResolvedProtocol(name, ProtocolConfig(family, eps, k, value))
