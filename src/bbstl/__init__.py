"""Monitoring of kernel-measured temporal logic and its Fourier analysis.

The toolkit evaluates robust semantics of past-time temporal formulas whose
atoms are bounded-bandwidth kernel measurements, approximates the monitor
operators with delay-polynomial structures, derives their generalized
frequency response functions, and uses those responses to decide which
frequency bands of a signal a monitor actually depends on.
"""

from .analysis import (
    CutoffScan,
    GfrfGrid,
    SafetyReport,
    Tolerances,
    compression_safety_report,
    cutoff_scan,
    gfrf_grid,
    output_spectrum,
)
from .compose import (
    FormulaOperator,
    SinceSample,
    build_formula_operator,
    compose_gfrf,
    compositions,
    formula_to_gfrf,
    merge_terms,
    prune_gfrf,
    since_sampled_gfrf,
    sum_gfrf,
    symmetrize_gfrf,
)
from .logic import (
    And,
    Atom,
    Diagnostic,
    Formula,
    Hist,
    Interval,
    KernelTable,
    Not,
    Once,
    Or,
    Since,
    TrueFormula,
    boolean_sat,
    boolean_signal,
    format_formula,
    parse_formula,
    validate,
)
from .monitor import (
    RobustnessSignal,
    robustness,
    since_robustness,
    sliding_extremum,
    temporal_depth,
    valid_domain,
)
from .signals import (
    Kernel,
    Signal,
    Spectrum,
    correlate,
    default_metric_dictionary,
    fft,
    ifft,
    kernel_from_spec,
    load_kernel_table,
    load_signal_csv,
    lowpass,
    make_gaussian_kernel,
    measure,
    metric_d,
    save_signal_csv,
    save_spectrum_csv,
    sum_of_sinusoids,
    table_kernel,
)
from .volterra import (
    FitConfig,
    Gfrf,
    GfrfTerm,
    MemorylessPoly,
    OperatorPipeline,
    PolyDelayOperator,
    SeparableFit,
    apply_pipeline,
    atom_volterra,
    fit_poly_delay,
    fit_separable_minmax,
    memoryless_poly_gfrf,
    negation_volterra,
    poly_delay_to_gfrf,
)

__version__ = "0.1.0"
