"""Risk-neutral density extraction from option prices.

Generative log-return models are calibrated to option quotes by Monte
Carlo pricing under static no-arbitrage penalties; densities, quantile
characteristics and moment term structures are read off the fitted
models.  A self-contained Heston simulation study provides ground truth
for validation.

Importing the package loads none of its modules: each name below is
imported from its module on first use, ``from rndkit import *`` included.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_LAZY = {
    "NormalSampleSet": "sampling",
    "draw_standard_normal": "sampling",
    "RnQParams": "models",
    "RnMlpParams": "models",
    "RnDmlpParams": "models",
    "bind": "models",
    "sample_log_returns": "models",
    "rnq_mu_from_constraint": "models",
    "init_rnmlp": "models",
    "init_rndmlp": "models",
    "zero_net_rnmlp": "models",
    "price_chain": "pricing",
    "build_synthetic_grid": "arbitrage",
    "price_surface": "arbitrage",
    "audit_price_surface": "arbitrage",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_LAZY])
