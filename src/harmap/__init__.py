"""Numerics for planar harmonic mappings on the unit disk.

Truncated-series harmonic maps f = h + conj(g), their distortion functionals
(area and length functions, Hardy means, Bloch seminorm), executable
verifiers for the sharp inequalities relating them, majorant / Lipschitz
machinery with the Poisson-kernel derivative bounds, and a seeded fuzzing
corpus generator with a CLI front end.

All public operations are pure functions of immutable inputs and safe to
evaluate in parallel; reductions use fixed-shape pairwise summation so
results do not depend on evaluation order.
"""

from .core import (
    HarmonicMap,
    MapStack,
    coeff_from_contour,
    derivatives,
    directional_derivative_max,
    is_sense_preserving,
    load_map,
    map_json_bytes,
    qc_constant,
    save_map,
    wirtinger,
)
from .functionals import (
    area_quadrature,
    area_series,
    area_sup,
    bloch_seminorm,
    grid_sup,
    hardy_mean,
    hardy_norm,
    hyperbolic_distance,
    length_function,
    length_sup,
    lipschitz_ratio,
)
from .grids import r_ladder
from .lipschitz import (
    PowerMajorant,
    SampledMajorant,
    check_scaling_lemma,
    chord_interpolation_bound,
    cond_a_constant,
    cond_b_constant,
    cond_c_constant,
    majorant_from_config,
    poisson_kernel,
    poisson_kernel_mean,
    poisson_kernel_wirtinger,
    regularity_check,
    trig_max_identity,
    verify_hl_equivalence,
)
from .report import write_csv, write_json_lines
from .verify import (
    FuzzSpec,
    GenerationFailed,
    builtin_maps,
    fuzz_corpus,
    verify_area_overlap,
    verify_coeff_bound,
    verify_gradient_bound,
    verify_hardy_area,
    verify_isoperimetric,
    verify_three_circles,
)

__version__ = "0.1.0"
