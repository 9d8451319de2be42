"""Second-generation p-values over interval estimates and interval nulls.

Library surface: extended-real interval arithmetic (:mod:`sgpv.intervals`),
the p-value itself with delta-gap ranking (:mod:`sgpv.core`), closed-form
design frequency properties (:mod:`sgpv.design`), false discovery and
confirmation rates (:mod:`sgpv.reliability`), batch screening
(:mod:`sgpv.screening`), and a seeded Monte Carlo oracle
(:mod:`sgpv.simulate`). The ``sgpv`` command line tool fronts all of it.

The package is lazy (PEP 562): ``import sgpv`` loads only :mod:`sgpv.errors`.
A public name, or one of the modules above, is imported from its home
module on first use and kept, so a program loads only the modules it uses.
"""

import importlib

from . import errors

# The home module of each public name; the std_normal_* names are aliases.
_HOME = {
    name: module
    for module, names in {
        "_normal": ("std_normal_cdf", "std_normal_quantile"),
        "core": ("Classification", "FOLD_CHANGE_NULL", "NullSpec", "SgpvResult", "classify",
                 "delta_gap", "max_p_over_null", "round_half_away", "second_gen_p",
                 "traditional_p"),
        "design": ("DesignConfig", "OutcomeProbs", "correction_trigger_power", "outcome_probs",
                   "outcome_probs_array", "prob_alt", "prob_inconclusive", "prob_null",
                   "required_interval_ratio"),
        "intervals": ("ExtendedInterval", "intersect", "length", "log10_interval", "truncate",
                      "z_interval"),
        "reliability": ("PriorOdds", "classical_beta", "classical_power", "fcr_sgpv",
                        "fdr_sgpv", "fdr_test", "fnr_test", "reliability_rates_array"),
        "screening": ("CrossTab", "GroupSummary", "ScreenReport", "ScreenSummary",
                      "attach_adjustments", "bh_qvalues", "bonferroni_flags", "cross_tab",
                      "ranked_indices", "screen_intervals", "track_arrays", "two_sample_ci"),
        "simulate": ("ReliabilitySimResult", "SimConfig", "SimResult", "simulate_outcomes",
                     "simulate_reliability"),
    }.items()
    for name in names
}
_ALIASES = {"std_normal_cdf": "norm_cdf", "std_normal_quantile": "norm_quantile"}


def __getattr__(name: str):
    if name in _HOME:
        module = importlib.import_module("." + _HOME[name], __name__)
        value = getattr(module, _ALIASES.get(name, name))
    elif name in _HOME.values():
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*__all__, *globals()})


__version__ = "0.1.0"

__all__ = sorted([*_HOME, "errors"])
