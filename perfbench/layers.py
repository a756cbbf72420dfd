"""Layer spans for the traced run, and the per-layer metrics made from
them.

``install`` wraps the library's layer boundaries with a Tracer;
``layer_metrics`` turns the recorded spans and counts into the metrics
named in LAYER_METRICS.  Every metric is reported on every workload; a
layer a workload never enters reads 0.

Each row of LAYER_METRICS also says which end-to-end metric the layer
metric should move, and on which workload.
"""

import os

from ccrpoly import builder, cli, isogeny, trivariate
from ccrpoly.ffield import UniPoly
from ccrpoly.qseries import PowerSeries
from ccrpoly.symbolic import MultiPoly
from ccrpoly.trivariate import TrivariatePoly

_BUILD = "op_p50_ms on build; setup_s on step256, batch and cli"
_BUILD_ONLY = "op_p50_ms on build"
_STEP = "op_p50_ms and op_tail_ms on step256; partly ops_per_s on batch"
_BATCH = "ops_per_s and op_p50_ms on batch; no change on step256"
_ISOGENY = "op_p50_ms on step256 and batch"
_CLI = "op_p50_ms on cli (warm calls) and setup_s on cli (cold calls)"
_TRACE = "none: describes the traced run itself"

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = [
    ("builder.power_sums_s", "s", "lower", _BUILD),
    ("qseries.mul_s", "s", "lower", _BUILD),
    ("qseries.mul_calls", "count", "lower", _BUILD),
    ("qseries.coeff_bits_max", "bits", "lower", _BUILD),
    ("builder.n_q", "count", "lower", _BUILD),
    ("builder.attempts", "count", "lower", _BUILD),
    ("builder.match_s", "s", "lower", _BUILD_ONLY),
    ("builder.match_calls", "count", "lower", _BUILD_ONLY),
    ("builder.newton_s", "s", "lower", _BUILD_ONLY),
    ("symbolic.mul_s", "s", "lower", _BUILD_ONLY),
    ("builder.gates_s", "s", "lower", _BUILD_ONLY),
    ("builder.phi_s", "s", "lower", _BUILD_ONLY),
    ("builder.build_U31_s", "s", "lower", _BUILD_ONLY),
    ("builder.build_W23_s", "s", "lower", _BUILD_ONLY),
    ("builder.build_Ua23_s", "s", "lower", _BUILD_ONLY),
    ("builder.build_Phi13_s", "s", "lower", _BUILD_ONLY),
    ("ffield.roots_s", "s", "lower", _STEP),
    ("ffield.powmod_s", "s", "lower", _STEP),
    ("ffield.powmod_calls", "count", "lower", _STEP),
    ("ffield.gcd_s", "s", "lower", _STEP),
    ("ffield.mul_count", "count", "lower", _STEP),
    ("ffield.inv_count", "count", "lower", _STEP),
    ("ffield.bundle_s", "s", "lower", _BATCH),
    ("ffield.bundle_calls", "count", "lower", _BATCH),
    ("trivariate.partial_s", "s", "lower", _BATCH),
    ("trivariate.partial_calls", "count", "lower", _BATCH),
    ("trivariate.to_basis_calls", "count", "lower", _BATCH),
    ("ffield.specialize_s", "s", "lower", _BATCH),
    ("ffield.specialize_calls", "count", "lower", _BATCH),
    ("formulas.recovery_s", "s", "lower", _BATCH),
    ("isogeny.elkies_step_s", "s", "lower", _ISOGENY),
    ("isogeny.atkin_step_s", "s", "lower", _ISOGENY),
    ("isogeny.b_star_s", "s", "lower", _ISOGENY),
    ("isogeny.roots_found", "count", "higher", _ISOGENY),
    ("isogeny.atkin_primes", "count", "lower", _ISOGENY),
    ("isogeny.degenerate", "count", "lower", _ISOGENY),
    ("isogeny.validated_frac", "frac", "higher", _ISOGENY),
    ("trivariate.to_text_s", "s", "lower", _CLI),
    ("trivariate.from_text_s", "s", "lower", _CLI),
    ("trivariate.store_bytes", "bytes", "lower", _CLI),
    ("cli.load_or_build_s", "s", "lower", _CLI),
    ("cli.cache_hits", "count", "higher", _CLI),
    ("cli.cache_misses", "count", "lower", _CLI),
    ("cli.import_s", "s", "lower", _CLI),
    ("split.power_sums_of_U31", "frac", "lower", _BUILD_ONLY),
    ("split.roots_of_steps", "frac", "lower", _STEP),
    ("split.bundle_specialize_of_steps", "frac", "lower", _BATCH),
    ("trace.overhead_s", "s", "lower", _TRACE),
    ("trace.overhead_frac", "frac", "lower", _TRACE),
]

# Count-type metrics: these repeat exactly across traced runs of one seed.
COUNT_METRICS = tuple(name for name, *_ in LAYER_METRICS
                      if name.endswith("_calls") or name in (
                          "ffield.mul_count", "ffield.inv_count",
                          "builder.n_q", "builder.attempts",
                          "qseries.coeff_bits_max"))


def _coeff_bits(series: PowerSeries) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


def _match_attrs(args, kwargs):
    s = args[0]
    return {"n_q_max": s.end, "coeff_bits_max": _coeff_bits(s)}


def _build_attrs(args, kwargs):
    return {"kind": args[0], "ell": args[1]}


def _phi_attrs(args, kwargs):
    return {"kind": "Phi", "ell": args[0]}


def _field_counts(field):
    return {"ffield.mul_count": field.mul_count,
            "ffield.inv_count": field.inv_count}


def _cache_state(args, kwargs):
    kind, ell, directory = args[:3]
    basis = "j" if kind == "Phi" else kwargs.get("basis", "E4E6")
    hit = os.path.exists(cli._store_path(directory, kind, ell, basis)) \
        and not kwargs.get("rebuild", False)
    return {"hit": hit}


def install(tracer):
    """Wrap every layer boundary the workloads cross."""
    w = tracer.wrap

    def copy(attrs, args, kwargs, result):
        return dict(attrs)

    def roots_counts(attrs, args, kwargs, result):
        return {"isogeny.roots_found": len(result),
                "isogeny.atkin_primes": int(not result)}

    def step_before(args, kwargs):
        state = _field_counts(args[0].field)
        state["roots_found"] = tracer.counts.get("isogeny.roots_found", 0)
        return state

    def step_after(attrs, args, kwargs, result):
        counts = {k: v - attrs[k] for k, v in
                  _field_counts(args[0].field).items()}
        found = tracer.counts.get("isogeny.roots_found", 0) \
            - attrs["roots_found"]
        counts["isogeny.degenerate"] = found - len(result)
        flags = [r.validated for r in result if hasattr(r, "validated")]
        counts["isogeny.elkies_results"] = len(flags)
        counts["isogeny.validated"] = sum(
            f.v_root is not False and f.w_root is not False
            and f.phi_match is not False for f in flags)
        return counts

    def text_bytes(attrs, args, kwargs, result):
        return {"trivariate.store_bytes": len(result)}

    def cache_counts(attrs, args, kwargs, result):
        return {"cli.cache_hits": int(attrs["hit"]),
                "cli.cache_misses": int(not attrs["hit"])}

    for mod in (builder, cli):
        w(mod, "build", "builder.build", before=_build_attrs)
        w(mod, "build_classical_phi", "builder.phi", before=_phi_attrs)
    w(builder, "_build_at", "builder.build_at")
    w(builder, "power_sums", "builder.power_sums")
    w(builder, "match_to_form_basis", "builder.match",
      before=_match_attrs, after=copy)
    w(builder, "_newton_elementary", "builder.newton")
    w(builder, "_denominator_is_smooth", "builder.gates")
    w(TrivariatePoly, "validate", "builder.gates")
    w(TrivariatePoly, "is_integral", "builder.gates")
    w(PowerSeries, "__mul__", "qseries.mul")
    w(PowerSeries, "__rmul__", "qseries.mul")
    w(MultiPoly, "__mul__", "symbolic.mul")
    w(MultiPoly, "__rmul__", "symbolic.mul")

    w(isogeny, "roots", "ffield.roots", after=roots_counts)
    w(isogeny, "specialize", "ffield.specialize")
    w(isogeny, "derivative_bundle", "ffield.bundle")
    w(UniPoly, "powmod", "ffield.powmod")
    w(UniPoly, "gcd", "ffield.gcd")
    w(TrivariatePoly, "partial", "trivariate.partial")
    w(TrivariatePoly, "to_basis", "trivariate.to_basis")
    for name in ("e4_tilde", "e6_tilde", "atkin_sigma", "atkin_e4_tilde"):
        w(isogeny, name, "formulas.recovery")
    w(isogeny, "atkin_b_star", "isogeny.b_star")
    for mod in (isogeny, cli):
        w(mod, "elkies_step", "isogeny.elkies_step",
          before=step_before, after=step_after)
        w(mod, "atkin_step", "isogeny.atkin_step",
          before=step_before, after=step_after)

    for mod in (trivariate, cli):
        w(mod, "poly_to_text", "trivariate.to_text", after=text_bytes)
        w(mod, "poly_from_text", "trivariate.from_text")
    w(cli, "load_or_build", "cli.load_or_build",
      before=_cache_state, after=cache_counts)


def _share(tracer, part_names, whole_names, within=None) -> float:
    """Time of spans named in part_names over time of spans named in
    whole_names; with ``within``, only spans under a span that satisfies
    it count."""
    def total(names):
        out = 0
        for s in tracer.spans:
            if s.name in names and all(a.name not in names
                                       for a in tracer.ancestors(s)):
                if within is None or within(s) or any(
                        within(a) for a in tracer.ancestors(s)):
                    out += s.duration
        return out

    whole = total(whole_names)
    return total(part_names) / whole if whole else 0.0


def layer_metrics(tracer, import_s: float, overhead_s: float,
                  untraced_s: float) -> dict:
    """Every LAYER_METRICS value from one traced run."""
    seconds, calls = tracer.totals()
    counts = tracer.counts
    m = {
        "builder.power_sums_s": seconds.get("builder.power_sums", 0.0),
        "qseries.mul_s": seconds.get("qseries.mul", 0.0),
        "qseries.mul_calls": calls.get("qseries.mul", 0),
        "qseries.coeff_bits_max": counts.get("coeff_bits_max", 0),
        "builder.n_q": counts.get("n_q_max", 0),
        "builder.attempts": (calls.get("builder.build_at", 0)
                             / calls["builder.build"]
                             if calls.get("builder.build") else 0),
        "builder.match_s": seconds.get("builder.match", 0.0),
        "builder.match_calls": calls.get("builder.match", 0),
        "builder.newton_s": seconds.get("builder.newton", 0.0),
        "symbolic.mul_s": seconds.get("symbolic.mul", 0.0),
        "builder.phi_s": seconds.get("builder.phi", 0.0),
    }
    # the integrality gate converts to the AB basis inside _build_at
    m["builder.gates_s"] = seconds.get("builder.gates", 0.0) + sum(
        s.duration for s in tracer.spans
        if s.name == "trivariate.to_basis" and s.parent is not None
        and tracer.spans[s.parent].name == "builder.build_at") / 1e9
    for key in ("U31", "W23", "Ua23", "Phi13"):
        m[f"builder.build_{key}_s"] = sum(
            s.duration for s in tracer.spans
            if s.name in ("builder.build", "builder.phi")
            and f"{s.attrs['kind']}{s.attrs['ell']}" == key) / 1e9
    for metric, span in (("roots", "roots"), ("powmod", "powmod"),
                         ("gcd", "gcd"), ("bundle", "bundle"),
                         ("specialize", "specialize")):
        m[f"ffield.{metric}_s"] = seconds.get(f"ffield.{span}", 0.0)
    m["ffield.powmod_calls"] = calls.get("ffield.powmod", 0)
    m["ffield.bundle_calls"] = calls.get("ffield.bundle", 0)
    m["ffield.specialize_calls"] = calls.get("ffield.specialize", 0)
    m["ffield.mul_count"] = counts.get("ffield.mul_count", 0)
    m["ffield.inv_count"] = counts.get("ffield.inv_count", 0)
    m["trivariate.partial_s"] = seconds.get("trivariate.partial", 0.0)
    m["trivariate.partial_calls"] = calls.get("trivariate.partial", 0)
    m["trivariate.to_basis_calls"] = calls.get("trivariate.to_basis", 0)
    m["formulas.recovery_s"] = seconds.get("formulas.recovery", 0.0)
    m["isogeny.elkies_step_s"] = seconds.get("isogeny.elkies_step", 0.0)
    m["isogeny.atkin_step_s"] = seconds.get("isogeny.atkin_step", 0.0)
    m["isogeny.b_star_s"] = seconds.get("isogeny.b_star", 0.0)
    for key in ("roots_found", "atkin_primes", "degenerate"):
        m[f"isogeny.{key}"] = counts.get(f"isogeny.{key}", 0)
    results = counts.get("isogeny.elkies_results", 0)
    m["isogeny.validated_frac"] = (counts.get("isogeny.validated", 0)
                                   / results if results else 0.0)
    m["trivariate.to_text_s"] = seconds.get("trivariate.to_text", 0.0)
    m["trivariate.from_text_s"] = seconds.get("trivariate.from_text", 0.0)
    m["trivariate.store_bytes"] = counts.get("trivariate.store_bytes", 0)
    m["cli.load_or_build_s"] = seconds.get("cli.load_or_build", 0.0)
    m["cli.cache_hits"] = counts.get("cli.cache_hits", 0)
    m["cli.cache_misses"] = counts.get("cli.cache_misses", 0)
    m["cli.import_s"] = import_s

    steps = ("isogeny.elkies_step", "isogeny.atkin_step")
    m["split.power_sums_of_U31"] = _share(
        tracer, ("builder.power_sums",), ("builder.build",),
        within=lambda s: s.name == "builder.build"
        and s.attrs == {"kind": "U", "ell": 31})
    m["split.roots_of_steps"] = _share(tracer, ("ffield.roots",), steps)
    m["split.bundle_specialize_of_steps"] = _share(
        tracer, ("ffield.bundle", "ffield.specialize"), steps)
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s else 0.0
    if set(m) != {row[0] for row in LAYER_METRICS}:
        raise RuntimeError("layer_metrics and LAYER_METRICS disagree")
    return m
