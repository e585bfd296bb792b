"""Elementary symmetric polynomials and closed-form Vandermonde inversion.

The package computes ESPs over arbitrary pairwise-distinct complex node
sets through four backends, inverts the associated Vandermonde matrices in
closed form, scores inverse quality through the companion-matrix identity
block, and runs a one-dimensional interpolation / super-resolution
benchmark.  See the ``vandinv`` CLI for the experiment front end.
"""

__version__ = "0.1.0"

from .errors import (
    NodeCollisionError,
    NumericalError,
    OrderOverflowError,
    SingularityError,
)
from .esp import (
    ESP_BACKENDS,
    FULL_SET_ESP_BACKENDS,
    MAX_UNSCALED_ORDER,
    esp_all_orders,
    esp_bruteforce_oracle,
    esp_dropped,
    esp_single,
    esp_table,
)
from .interpolation import (
    FUNCTION_KINDS,
    InterpolationReport,
    evaluate_superresolved,
    fit_coefficients,
    interp_experiment,
    sample_function,
)
from .nodes import (
    DISTINCTNESS_RTOL,
    NODE_FAMILIES,
    RNG_ALGORITHM,
    NodeSet,
    generate_nodes,
    perturb_roots_of_unity,
    validate_pairwise_distinct,
)
from .stability import (
    SweepGrid,
    companion_identity_nmse,
    derive_seed,
    nmse,
    noise_sweep,
    shifted_identity_block,
)
from .vandermonde import (
    INVERSE_BACKENDS,
    barycentric_weights,
    build_vandermonde,
    compute_inverse,
    inverse_closed_form,
    inverse_elimination_baseline,
    inverse_wa_product,
    stanley_matrix,
)

__all__ = [
    "__version__",
    "NumericalError",
    "SingularityError",
    "OrderOverflowError",
    "NodeCollisionError",
    "DISTINCTNESS_RTOL",
    "NODE_FAMILIES",
    "RNG_ALGORITHM",
    "NodeSet",
    "generate_nodes",
    "perturb_roots_of_unity",
    "validate_pairwise_distinct",
    "ESP_BACKENDS",
    "FULL_SET_ESP_BACKENDS",
    "MAX_UNSCALED_ORDER",
    "esp_table",
    "esp_dropped",
    "esp_single",
    "esp_all_orders",
    "esp_bruteforce_oracle",
    "INVERSE_BACKENDS",
    "build_vandermonde",
    "barycentric_weights",
    "stanley_matrix",
    "inverse_closed_form",
    "inverse_wa_product",
    "inverse_elimination_baseline",
    "compute_inverse",
    "nmse",
    "companion_identity_nmse",
    "shifted_identity_block",
    "SweepGrid",
    "noise_sweep",
    "derive_seed",
    "FUNCTION_KINDS",
    "InterpolationReport",
    "sample_function",
    "fit_coefficients",
    "evaluate_superresolved",
    "interp_experiment",
]
