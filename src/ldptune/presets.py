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
from .protocols import olh_g, oue_params, ss_default_omega, sue_params, ue_pair_from_p

PROTOCOL_NAMES = ("grr", "ss", "sue", "oue", "blh", "olh", "she", "the",
                  "ass", "aue", "alh", "athe")
ADAPTIVE_NAMES = ("ass", "aue", "alh", "athe")

_PARAM_NAME = {
    "grr": "", "she": "",
    "ss": "omega", "ass": "omega",
    "sue": "p", "oue": "p", "aue": "p",
    "blh": "g", "olh": "g", "alh": "g",
    "the": "theta", "athe": "theta",
}

DEFAULT_WEIGHTS = ObjectiveWeights(0.5, 0.5)


@dataclass(frozen=True)
class ResolvedProtocol:
    """A named protocol with its parameter pinned for one (eps, k)."""

    name: str
    config: ProtocolConfig
    param_name: str
    param_value: object  # int, float, or None for parameter-free families
    optimization: OptimizationResult | None = None


def resolve_protocol(name: str, eps: float, k: int,
                     weights: ObjectiveWeights | None = None,
                     n: float = 1, param=None) -> ResolvedProtocol:
    """Build the ProtocolConfig for a protocol name at (eps, k).

    `param` overrides the resolved free parameter (omega, p, g, or theta) and
    is rejected for grr/she, which have none.  Adaptive names optimize under
    `weights` (default (0.5, 0.5)) and the user count `n`, a finite real > 0,
    unless `param` pins the value directly.
    """
    name = name.lower()
    if name not in PROTOCOL_NAMES:
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

    if name in ("grr", "she"):
        if param is not None:
            raise RangeError("param", f"absent for {name}", param)
        fam = Family.GRR if name == "grr" else Family.SHE
        cfg = validate_config(ProtocolConfig(fam, eps, k))
        return ResolvedProtocol(name, cfg, "", None)

    opt = None
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
        value = opt.theta_star
    elif name == "ass":
        opt = optimize_ass(eps, k, weights, n)
        value = opt.theta_star
    elif name == "aue":
        opt = optimize_aue(eps, k, weights, n)
        value = opt.theta_star
    elif name == "alh":
        opt = optimize_alh(eps, k, weights, n)
        value = opt.theta_star
    else:  # athe
        opt = optimize_athe(eps, k, weights, n)
        value = opt.theta_star

    pname = _PARAM_NAME[name]
    if pname in ("omega", "g") and abs(float(value) - round(float(value))) > 1e-9:
        raise RangeError(pname, "an integer", value)
    if pname == "omega":
        value = int(round(float(value)))
        cfg = ProtocolConfig(Family.SS, eps, k, omega=value)
    elif pname == "p":
        p, q = ue_pair_from_p(eps, float(value))
        cfg = ProtocolConfig(Family.UE, eps, k, p=p, q=q)
        value = float(value)
    elif pname == "g":
        value = int(round(float(value)))
        cfg = ProtocolConfig(Family.LH, eps, k, g=value)
    else:
        cfg = ProtocolConfig(Family.THE, eps, k, theta=float(value))
        value = float(value)
    return ResolvedProtocol(name, validate_config(cfg), pname, value, opt)
