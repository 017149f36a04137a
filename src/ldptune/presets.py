"""Named protocol instantiations and parameter resolution.

Twelve names: the eight standard protocols (grr, ss, sue, oue, blh, olh, she,
the) resolve their parameter from (eps, k) by the usual fixed rules, and the
four adaptive ones (ass, aue, alh, athe) resolve it by minimizing the
weighted ASR+MSE objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (Family, ProtocolConfig, RangeError, check_eps, check_k,
                    validate_config)
from .optimizer import (
    ObjectiveWeights,
    OptimizationResult,
    optimize_alh,
    optimize_ass,
    optimize_athe,
    optimize_aue,
)
from .protocols import (PARAM_NAME, family_config, olh_g, oue_params,
                        ss_default_omega, sue_params)

# every name's family: the eight standard protocols, then the four adaptive
FAMILIES = {
    "grr": Family.GRR, "ss": Family.SS, "sue": Family.UE, "oue": Family.UE,
    "blh": Family.LH, "olh": Family.LH, "she": Family.SHE, "the": Family.THE,
    "ass": Family.SS, "aue": Family.UE, "alh": Family.LH, "athe": Family.THE,
}
PROTOCOL_NAMES = tuple(FAMILIES)
ADAPTIVE_NAMES = PROTOCOL_NAMES[8:]

DEFAULT_WEIGHTS = ObjectiveWeights(0.5, 0.5)


@dataclass(frozen=True)
class ResolvedProtocol:
    """A named protocol with its parameter pinned for one (eps, k)."""

    name: str
    config: ProtocolConfig
    optimization: OptimizationResult | None = None

    @property
    def param_name(self) -> str:
        """The free parameter's field in `config`; "" for grr and she."""
        return PARAM_NAME[Family(self.config.family)]

    @property
    def param_value(self):
        """The free parameter (int or float); None for grr and she."""
        return getattr(self.config, self.param_name) if self.param_name else None


def resolve_protocol(name: str, eps: float, k: int,
                     weights: ObjectiveWeights | None = None,
                     n: float = 1, param=None) -> ResolvedProtocol:
    """Build the ProtocolConfig for a protocol name at (eps, k).

    `param` overrides the resolved free parameter (omega, p, g, or theta) and
    is rejected for grr/she, which have none.  Adaptive names optimize under
    `weights` (default (0.5, 0.5)) and the user count `n`, a finite real > 0,
    unless `param` pins the value directly.  `the` and the adaptive names
    report the optimizer's own config.
    """
    name = name.lower()
    if name not in FAMILIES:
        raise RangeError("protocol", f"one of {', '.join(PROTOCOL_NAMES)}", name)
    check_eps(eps)
    check_k(k)
    if not (isinstance(n, (int, float)) and not isinstance(n, bool)
            and 0 < n < math.inf):
        raise RangeError("n", "a finite real > 0", n)
    if param is not None and not math.isfinite(param):
        raise RangeError("param", "a finite real", param)
    if weights is None:
        weights = DEFAULT_WEIGHTS

    value = opt = None
    if param is not None:
        value = param
    elif name == "ss":
        value = ss_default_omega(eps, k)
    elif name == "sue":
        value = sue_params(eps)[0]
    elif name == "oue":
        value = oue_params(eps)[0]
    elif name == "blh":
        value = 2
    elif name == "olh":
        value = olh_g(eps)
    elif name == "the":
        opt = optimize_athe(eps, k, ObjectiveWeights(0.0, 1.0), n)
    elif name == "ass":
        opt = optimize_ass(eps, k, weights, n)
    elif name == "aue":
        opt = optimize_aue(eps, k, weights, n)
    elif name == "alh":
        opt = optimize_alh(eps, k, weights, n)
    elif name == "athe":
        opt = optimize_athe(eps, k, weights, n)
    cfg = opt.config if opt else family_config(FAMILIES[name], eps, k, value)
    return ResolvedProtocol(name, validate_config(cfg), opt)
