"""Statistical detection of spatial redundancy in images.

Patch self-similarity is tested against stationary Gaussian background
models: an offset is reported only when its patch distance is improbably
small under the background, with the expected number of false detections
bounded by a user budget.  On top of the detector sit three applications:
threshold NL-means denoising, lattice extraction and texture periodicity
ranking.
"""

__version__ = "0.1.0"

from .background import (
    MicrotextureModel,
    cumulants,
    from_exemplar,
    sample,
    white_noise,
)
from .denoise import (
    DenoiseConfig,
    DenoiseReport,
    nlmeans_a_priori_threshold,
    nlmeans_classic,
    nlmeans_threshold,
    psnr,
)
from .detect import (
    DetectionResult,
    OffsetLawTable,
    autosim_detection,
    offset_laws,
)
from .grid import (
    PatchDomain,
    as_map,
    autocorrelation,
    laplacian,
)
from .lattice import (
    DetectionGraph,
    GraphTooSmall,
    LatticeFit,
    alternate_minimization,
    build_graph,
    c_per,
    nearest_neighbor_edges,
    q_energy,
    rank_textures,
    update_basis,
    update_coeffs,
)
from .quadform import QuadFormLaw, WoodFParams, cdf, fit, quantile
