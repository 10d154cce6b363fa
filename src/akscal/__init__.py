"""Almost-Kähler scalar-curvature toolkit.

Exact curvature tables for invariant-frame geometries, intersection-form
bound functionals with analytic certificates, a discrete lab for the adjoint
linearized scalar-curvature operator on the sheared 4-quotient, and a
constructive circle-rearrangement engine.

Each public name below is resolved on first use (PEP 562), so `import akscal`
loads no layer, and only the grid and operator lab import SciPy.
"""

import importlib

_EXPORTS = {
    "tensor": ("anti_invariant_part", "invariant_part", "exp_metric",
               "log_recover", "check_acs"),
    "lie": ("LieFrameSpec", "CurvatureTables", "kt_spec", "abelian_spec",
            "make_frame_spec", "parse_frame_spec", "serialize_frame_spec",
            "curvature_tables", "nabla_j_norm_sq", "z_ratio"),
    "zbound": ("IntersectionModel", "ZBoundResult", "ZBoundCertificate",
               "ConeError", "make_model", "cp2_model", "barlow_sigma_model",
               "r8_sigma_model", "parse_model", "serialize_model",
               "eval_z_bound", "optimize_z_bound", "h_function",
               "h_function_max", "y_ratio", "y_ratio_min", "certify_global"),
    "grid": ("QuotientGrid",),
    "operator_lab": ("SlotBasis", "SpectralReport", "OrderFit", "anti_slots",
                     "symbol_sweep", "kernel_gap", "spectral_floor",
                     "richardson_orders", "theta_test_field",
                     "random_invariant_field"),
    "rearrange": ("RearrangementPlan", "PiecewiseDiffeo", "PlanError",
                  "build_plan", "realize_diffeo", "rearrange_error"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: the package always hands out the submodule's binding
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
