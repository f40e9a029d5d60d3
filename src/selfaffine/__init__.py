"""Subadditive thermodynamic formalism on the full shift, applied to
self-affine iterated function systems: cylinder functions, topological
pressure, equilibrium-measure approximants, and the affinity dimension."""

__version__ = "0.1.0"

from .affine import (
    AffineIFS,
    BoxDimensionResult,
    ChaosGame,
    box_dimension,
    render_pgm,
    sample_translations,
    validate_ifs,
)
from .cache import PartitionSumCache
from .cylinder import AxiomReport, NaturalCylinderFunction, verify_axioms
from .equilibrium import (
    CylinderMeasure,
    EquilibriumDiagnostics,
    diagnostics,
    entropy_depth,
    entropy_table,
)
from .errors import (
    BudgetExceededError,
    DegenerateCloudError,
    IFSFormatError,
    IFSValidationError,
    LevelOverflowError,
    NumericallySingularError,
)
from .ifsfile import parse_ifs_file, parse_ifs_text, serialize_ifs, write_ifs_file
from .linalg import singular_values, word_matrix
from .pressure import (
    DimensionReport,
    PressureReport,
    affinity_dimension,
    log_partition_sum,
    pressure_curve,
    pressure_level,
    pressure_root,
    pressure_sequence,
)
from .symbolic import DEFAULT_WORD_BUDGET, Word, pack_word
