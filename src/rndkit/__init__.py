"""Risk-neutral density extraction from option prices.

Generative log-return models are calibrated to option quotes by Monte
Carlo pricing under static no-arbitrage penalties; densities, quantile
characteristics and moment term structures are read off the fitted
models.  A self-contained Heston simulation study provides ground truth
for validation.
"""

from .sampling import NormalSampleSet, draw_standard_normal
from .models import (
    RnQParams,
    RnMlpParams,
    RnDmlpParams,
    bind,
    sample_log_returns,
    rnq_mu_from_constraint,
    init_rnmlp,
    init_rndmlp,
    zero_net_rnmlp,
)
from .pricing import price_chain
from .arbitrage import build_synthetic_grid, price_surface, audit_price_surface

__version__ = "0.1.0"
