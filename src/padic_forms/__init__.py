"""Isotropy of additive forms over the unramified quadratic extension of
the 2-adic numbers, with machine-checkable certificates."""

from .artifacts import (
    AgreementReport,
    Block,
    BlockForm,
    DescentCertificate,
    DescentResult,
    GammaReport,
    agreement_experiment,
    gamma_experiment,
    named_form,
    sample_form,
    verify_descent,
)
from .engine import (
    ContractionCertificate,
    certificate_to_json,
    validate_certificate,
)
from .errors import (
    CertificateError,
    DegreeShapeError,
    HenselError,
    NotADthPower,
    NotAUnit,
    OracleBudgetError,
    PadicFormsError,
    PrecisionMismatch,
)
from .flat import SearchOutcome
# normalize and cyclic_shift stay until the benchmark's refresh:
# perfbench/worker.py imports normalize from here
from .forms import (
    AdditiveForm,
    cyclic_shift,
    default_precision,
    normalize,
    reduce_levels,
)
from .oracle import (
    OracleDecision,
    decide_isotropy_exhaustive,
    power_value_set,
    primitive_zero_mod,
)
from .ring import F4, RingElem, dth_root, multiplier_set, teichmuller_alpha
from .solver import (
    IsotropyResult,
    decide_isotropy,
    isotropy_threshold,
)
from .sweeps import (
    SWEEP_LEMMAS,
    MinimalityReport,
    SweepReport,
    exhaustive_lemma_ids,
    minimality_probe,
    sampled_lemma_ids,
    sweep_lemma,
)
from .witness import Witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "AdditiveForm",
    "AgreementReport",
    "Block",
    "BlockForm",
    "CertificateError",
    "ContractionCertificate",
    "DegreeShapeError",
    "DescentCertificate",
    "DescentResult",
    "F4",
    "GammaReport",
    "HenselError",
    "IsotropyResult",
    "MinimalityReport",
    "NotADthPower",
    "NotAUnit",
    "OracleBudgetError",
    "OracleDecision",
    "PadicFormsError",
    "PrecisionMismatch",
    "RingElem",
    "SWEEP_LEMMAS",
    "SearchOutcome",
    "SweepReport",
    "Witness",
    "agreement_experiment",
    "certificate_to_json",
    "cyclic_shift",
    "decide_isotropy",
    "decide_isotropy_exhaustive",
    "default_precision",
    "dth_root",
    "exhaustive_lemma_ids",
    "gamma_experiment",
    "isotropy_threshold",
    "minimality_probe",
    "multiplier_set",
    "named_form",
    "normalize",
    "power_value_set",
    "primitive_zero_mod",
    "reduce_levels",
    "sample_form",
    "sampled_lemma_ids",
    "sweep_lemma",
    "teichmuller_alpha",
    "validate_certificate",
    "verify_descent",
    "verify_witness",
]
