"""The package's public surface: exactly the names below, and every name the
acceptance suite calls among them."""

import ast
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct import errors

PUBLIC = {
    # ensembles
    "EnsembleKind", "EnsembleSpec", "MatrixSample", "gse_from_goe", "mix_trial_seed",
    "sample", "sample_goe", "sample_gse", "sample_gue", "sample_matched_wigner",
    "sample_tridiag_beta", "superpose_decimate_even",
    # errors
    "DegenerateInputError", "DiscretizationFailureError", "DomainError", "InvalidDataError",
    "InvalidSizeError", "NumericalFailureError", "NumericalRangeError", "ShapeError",
    "UnsupportedError",
    # fluctuations
    "IndexSpec", "bulk_index_spec", "edge_index_spec", "normalize", "predicted_cov",
    "thetas_from_indices",
    # kernel
    "CumulantReport", "KernelOperator", "counting_cumulants", "discretize_operator",
    "expected_count", "hermite_psi", "kernel_diag", "variance_count",
    # semicircle
    "CenterScale", "bulk_center_scale", "edge_center_scale", "semicircle_cdf",
    "semicircle_density", "semicircle_quantile",
    # spectra
    "SpectrumSample", "Tridiagonal", "check_interlacing", "eigenvalues", "eigenvalues_at",
    "sturm_count_below_batch", "tridiag_eigenvalues", "tridiag_eigenvalues_selected",
    "tridiagonalize",
    # stats
    "ExperimentPlan", "ExperimentResult", "Thresholds", "counting_experiment",
    "empirical_corr", "ks_one_sample", "ks_two_sample", "run_mc",
    "standard_normal_cdf", "summarize_vectors",
}


def exported():
    """Public names of the package namespace, submodules excluded."""
    return {
        name
        for name, obj in vars(wf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }


def test_exports_exactly_the_public_names():
    assert len(PUBLIC) == 60
    assert exported() == PUBLIC


def parsed_modules():
    """(file name, syntax tree) of each module of the package."""
    for path in sorted(Path(wf.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_a_private_name_of_another():
    """A helper two modules share is public in the module both import (the
    argument rules live in errors); attribute uses such as stats._map_trials
    are not imports and are not checked."""
    offenders = []
    for module, tree in parsed_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "wigner_fluct":
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    offenders.append(f"{module}:{node.lineno} imports {name}")
    assert offenders == []


def test_acceptance_suite_calls_only_public_names():
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    called = set(re.findall(r"\bwf\.([A-Za-z_]\w*)", text))
    assert called
    assert called <= PUBLIC


def test_bound_messages_are_written_only_by_the_integer_rule():
    """Every integer, bound, seed-range, membership and rank message comes from
    a rule of errors (integer, uint64, one_of, rank), cli's argparse messages
    included: its parsers only turn text into numbers.  The last six wordings
    are those of the hand-written range and count checks the rules replaced."""
    wordings = (
        "must be >=", "must be an integer", "must be < 2**64", "must be one of",
        "-dimensional", "must be a scalar",
        "must be <=", "out of range", "invalid for n", "must satisfy", "need at least",
        "at least one",
    )
    offenders = []
    for module, tree in parsed_modules():
        if module == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(wording in node.value for wording in wordings):
                    offenders.append(f"{module}:{node.lineno}")
    assert offenders == []


def raises(node, cls):
    """True if node is a raise statement whose exception names the class cls."""
    raised = ast.walk(node.exc) if isinstance(node, ast.Raise) and node.exc else ()
    return any(getattr(n, "id", getattr(n, "attr", "")) == cls for n in raised)


def test_nan_and_real_data_are_decided_only_by_errors():
    """No module but errors raises InvalidDataError or calls isnan: every NaN
    and every dtype that is not real is refused by a rule of errors."""
    offenders = []
    for module, tree in parsed_modules():
        if module == "errors.py":
            continue
        for node in ast.walk(tree):
            if raises(node, "InvalidDataError"):
                offenders.append(f"{module}:{node.lineno} raises InvalidDataError")
            if isinstance(node, ast.Attribute) and node.attr == "isnan":
                offenders.append(f"{module}:{node.lineno} calls isnan")
    assert offenders == []


def test_integers_out_of_range_are_decided_only_by_errors():
    """No module but errors raises InvalidSizeError: every size, count, index
    and position out of range is refused by integer (or a seed by uint64)."""
    offenders = [
        f"{module}:{node.lineno}"
        for module, tree in parsed_modules()
        if module != "errors.py"
        for node in ast.walk(tree)
        if raises(node, "InvalidSizeError")
    ]
    assert offenders == []


# (rule, arguments, the class it raises, its message): the seed, membership,
# finiteness and rank rules beside integer and strictly_increasing, and
# integer's upper bound
REFUSED_BY_RULE = [
    ("uint64", (-1, "seed"), wf.InvalidSizeError, "seed must be >= 0, got -1"),
    ("uint64", (2**64, "seed"), wf.InvalidSizeError, f"seed must be < 2**64, got {2**64}"),
    ("one_of", (3, "beta", (1, 2, 4)), wf.UnsupportedError, "beta must be one of {1,2,4}, got 3"),
    ("finite", ([0.0, float("nan")], "data"), wf.InvalidDataError, "data must be finite"),
    # the array rules' shared cast: complex data is refused before it is cast
    *[
        (rule, (data, "x"), wf.InvalidDataError, "x must be real, got dtype complex128")
        for rule, data in (("finite", np.array([1j])), ("strictly_increasing", [0, 1j]))
    ],
    ("extended_real", (1j, "x"), wf.InvalidDataError, "x must be real, got dtype complex128"),
    ("extended_real", ([-np.inf, np.nan], "x"), wf.InvalidDataError, "x must not be NaN"),
    # NaN is data to strictly_increasing too, alone or among other entries
    *[
        ("strictly_increasing", (data, "x"), wf.InvalidDataError, "x must not be NaN")
        for data in ([np.nan], [0.0, np.nan], [np.nan, 0.0, 1.0])
    ],
    # rank, one row per wording
    *[
        ("rank", (np.zeros(shape), "x", *ndims), wf.ShapeError,
         f"x must be {wording}, got shape {shape}")
        for shape, ndims, wording in (
            ((2,), (0,), "a scalar"),
            ((1, 2), (0, 1), "a scalar or one-dimensional"),
            ((2, 3), (1,), "one-dimensional"),
            ((3, 2, 2), (1, 2), "one- or two-dimensional"),
            ((), (2,), "two-dimensional"),
        )
    ],
    # integer's upper bound, alone and with its lower bound
    ("integer", (4, "k", None, 3), wf.InvalidSizeError, "k must be <= 3, got 4"),
    ("integer", (np.int64(4), "k", 1, 3), wf.InvalidSizeError, "k must be <= 3, got 4"),
    ("integer", (0, "k", 1, 3), wf.InvalidSizeError, "k must be >= 1, got 0"),
    ("integer", (2**70, "k", 1, 3), wf.InvalidSizeError, f"k must be <= 3, got {2**70}"),
    ("integer", (2.0, "k", 1, 3), wf.InvalidSizeError, "k must be an integer, got 2.0"),
]


@pytest.mark.parametrize("rule, args, cls, message", REFUSED_BY_RULE)
def test_each_argument_rule_raises_one_class(rule, args, cls, message):
    with pytest.raises(ValueError) as exc:
        getattr(errors, rule)(*args)
    assert type(exc.value) is cls and str(exc.value) == message


def test_argument_rules_return_the_value_they_accept():
    assert errors.uint64(np.uint64(2**64 - 1), "seed") == 2**64 - 1
    assert errors.one_of(4, "beta", (1, 2, 4)) == 4
    assert errors.integer(3, "k", most=3) == 3
    at_both_bounds = errors.integer(np.int64(1), "k", 1, 1)
    assert at_both_bounds == 1 and type(at_both_bounds) is int
    assert errors.finite([1, 2], "data").dtype == float
    line = [-np.inf, 0.0, np.inf]
    assert errors.extended_real(line, "x").tolist() == line
    assert errors.strictly_increasing(line, "x").tolist() == line
    scalar = np.array(0.5)
    assert errors.rank(scalar, "x", 0) is scalar


def test_the_packages_own_spectra_pass_its_rules():
    # a SpectrumSample is read as its values by every rule, through numpy's array protocol
    a, b = wf.eigenvalues(wf.sample_goe(8, 1)), wf.eigenvalues(wf.sample_goe(9, 2))
    merged = wf.superpose_decimate_even(a, b)
    assert np.array_equal(merged, wf.superpose_decimate_even(a.values, b.values))
    assert np.array_equal(wf.gse_from_goe(b), wf.gse_from_goe(b.values))
    assert wf.ks_one_sample(a) == wf.ks_one_sample(a.values)
    interlaced = wf.check_interlacing(b.values, merged)
    assert wf.check_interlacing(b, wf.SpectrumSample(merged)) is interlaced
    assert np.asarray(a) is a.values and np.asarray(a, copy=True) is not a.values


# Public entries that take outside data, each with an input it refuses and
# the class it raises: a complex ndarray, a Python complex in a list, NaN, and
# the wrong rank or order where the entry reads a 1-D spectrum, the wrong
# rank wherever it reads a scalar, vector or matrix (with rank's message, the
# row's last entry), and an empty or mismatched shape or a value outside its
# domain where it checks one.  None may warn, truncate, answer, or let a numpy
# or Python exception through.
_Z = np.array([0.0, 1.0 + 1.0j, 2.0])
_L = [0.0, 1j, 2.0]
_BULK2 = wf.IndexSpec("bulk", (2,))
_ONE = wf.IndexSpec("bulk", (1,))
_GOE4 = wf.sample_goe(4, 1)
DATA, SHAPE = wf.InvalidDataError, wf.ShapeError
REFUSED_AT_ENTRY = [
    ("check_interlacing-complex", lambda: wf.check_interlacing(_Z, [0.5, 1.5]), DATA),
    ("check_interlacing-list", lambda: wf.check_interlacing(_L, [0.5, 1.5]), DATA),
    ("check_interlacing-nan", lambda: wf.check_interlacing([0.0, np.nan, 2.0], [0.5, 1.5]), DATA),
    ("check_interlacing-order", lambda: wf.check_interlacing([2.0, 0.0, 1.0], [0.5, 1.5]), SHAPE),
    ("check_interlacing-rank", lambda: wf.check_interlacing([[0.0, 1.0, 2.0]], [0.5, 1.5]), SHAPE),
    ("normalize-complex", lambda: wf.normalize(_Z, _BULK2, 1), DATA),
    ("normalize-list", lambda: wf.normalize(_L, _BULK2, 1), DATA),
    ("normalize-order", lambda: wf.normalize([0.0, 2.0, 1.0], _BULK2, 1), SHAPE),
    ("normalize-rank", lambda: wf.normalize([[0.0, 1.0, 2.0]], _BULK2, 1), SHAPE),
    ("sturm-complex", lambda: wf.sturm_count_below_batch(_Z[None], [[1.0, 1.0]], 0.0), DATA),
    ("sturm-list", lambda: wf.sturm_count_below_batch([[0.0, 0.0]], [[1j]], 0.0), DATA),
    ("sturm-nan", lambda: wf.sturm_count_below_batch([[0.0, np.nan]], [[1.0]], 0.0), DATA),
    ("sturm-shift-complex", lambda: wf.sturm_count_below_batch([[0.0, 1.0]], [[1.0]], 1j), DATA),
    ("sturm-shift-str", lambda: wf.sturm_count_below_batch([[0.0, 1.0]], [[1.0]], "a"), DATA),
    ("counting_experiment-cut-complex", lambda: wf.counting_experiment(5, 1, 1j, 3, 0), DATA),
    ("expected_count-complex", lambda: wf.expected_count(10, (0j, 1.0)), DATA),
    ("expected_count-nan", lambda: wf.expected_count(10, (np.nan, 1.0)), DATA),
    ("expected_count-triple", lambda: wf.expected_count(10, (0.0, 1.0, 2.0)), SHAPE),
    ("hermite_psi-complex", lambda: wf.hermite_psi(3, np.array([0.5 + 1j])), DATA),
    ("hermite_psi-list", lambda: wf.hermite_psi(3, [1j]), DATA),
    ("hermite_psi-nan", lambda: wf.hermite_psi(3, np.nan), DATA),
    ("hermite_psi-inf", lambda: wf.hermite_psi(3, -np.inf), DATA),
    ("kernel_diag-complex", lambda: wf.kernel_diag(4, _Z), DATA),
    ("kernel_diag-list", lambda: wf.kernel_diag(4, _L), DATA),
    ("kernel_diag-nan", lambda: wf.kernel_diag(4, [0.0, np.nan]), DATA),
    ("summarize_vectors-complex", lambda: wf.summarize_vectors(_Z[:, None], _ONE), DATA),
    ("summarize_vectors-list", lambda: wf.summarize_vectors([[0.1], [1j], [0.3]], _ONE), DATA),
    ("summarize_vectors-rank", lambda: wf.summarize_vectors(np.ones((3, 1, 2)), _ONE), SHAPE),
    ("ks_one_sample-complex", lambda: wf.ks_one_sample(_Z), DATA),
    ("ks_one_sample-list", lambda: wf.ks_one_sample(_L), DATA),
    ("ks_one_sample-rank", lambda: wf.ks_one_sample([[0.1], [0.2], [0.9]]), SHAPE),
    ("ks_two_sample-complex", lambda: wf.ks_two_sample([0.1, 0.2], _Z), DATA),
    ("ks_two_sample-list", lambda: wf.ks_two_sample(_L, [0.1, 0.2]), DATA),
    ("ks_two_sample-rank", lambda: wf.ks_two_sample([[0.1], [0.2]], [0.1, 0.2]), SHAPE),
    ("empirical_corr-complex", lambda: wf.empirical_corr(_Z), DATA),
    ("empirical_corr-list", lambda: wf.empirical_corr(_L), DATA),
    ("empirical_corr-rank", lambda: wf.empirical_corr(np.ones((3, 2, 2))), SHAPE),
    ("Thresholds-complex", lambda: wf.Thresholds(ks_max=np.array(0.1 + 1j)), DATA),
    ("Thresholds-list", lambda: wf.Thresholds(var_lo=[0.8j]), DATA),
    ("SpectrumSample-complex", lambda: wf.SpectrumSample(_Z), DATA),
    ("SpectrumSample-list", lambda: wf.SpectrumSample(_L), DATA),
    ("SpectrumSample-nan", lambda: wf.SpectrumSample([np.nan]), DATA),
    # 2**70 is an integer index out of range, not data that is not real
    ("IndexSpec-huge-index",
     lambda: wf.normalize([0.0, 1.0], wf.IndexSpec("bulk", (2**70,)), 1),
     wf.InvalidSizeError, f"k must be <= 2, got {2**70}"),
    ("IndexSpec-thetas-str", lambda: wf.IndexSpec("bulk", (1, 2), thetas=("a",)), DATA),
    ("IndexSpec-thetas-nan", lambda: wf.IndexSpec("bulk", (1, 2), thetas=(np.nan,)), DATA),
    ("IndexSpec-gamma-str", lambda: wf.IndexSpec("edge", (2,), gamma="x"), DATA),
    ("superpose-complex", lambda: wf.superpose_decimate_even(_Z, [0.5, 1.5, 2.5]), DATA),
    ("superpose-list", lambda: wf.superpose_decimate_even([0.5, 1.5], _L), DATA),
    ("gse_from_goe-complex", lambda: wf.gse_from_goe(_Z), DATA),
    ("gse_from_goe-list", lambda: wf.gse_from_goe(_L), DATA),
    ("Tridiagonal-complex", lambda: wf.Tridiagonal(diag=_Z, offdiag=[1.0, 1.0]), DATA),
    ("Tridiagonal-list", lambda: wf.Tridiagonal(diag=[0.0, 0.0], offdiag=[1j]), DATA),
    ("tridiagonalize-complex", lambda: wf.tridiagonalize(np.array([[1.0, 1j], [-1j, 1.0]])), DATA),
    ("tridiagonalize-list", lambda: wf.tridiagonalize([[1.0, 1j], [-1j, 1.0]]), DATA),
    ("semicircle_density-complex", lambda: wf.semicircle_density(0.5 + 0j), DATA),
    ("semicircle_density-str", lambda: wf.semicircle_density("0.5"), DATA),
    ("semicircle_density-nan", lambda: wf.semicircle_density(np.nan), DATA),
    ("semicircle_cdf-complex", lambda: wf.semicircle_cdf(0.5 + 0j), DATA),
    ("semicircle_cdf-str", lambda: wf.semicircle_cdf("0.5"), DATA),
    ("semicircle_quantile-complex", lambda: wf.semicircle_quantile(0.5 + 0j), DATA),
    ("semicircle_quantile-str", lambda: wf.semicircle_quantile("0.5"), DATA),
    ("discretize_operator-width-complex",
     lambda: wf.discretize_operator(20, (0.0, 2.5), wavelengths_per_panel=3 + 0j), DATA),
    ("discretize_operator-width-str",
     lambda: wf.discretize_operator(20, (0.0, 2.5), wavelengths_per_panel="3"), DATA),
    # inputs of the wrong rank or length
    ("sturm-shift-length",
     lambda: wf.sturm_count_below_batch([[0.0, 1.0]], [[1.0]], [0.0, 1.0, 2.0]), SHAPE),
    ("sturm-shift-rank", lambda: wf.sturm_count_below_batch([[0.0, 1.0]], [[1.0]], [[0.0, 1.0]]),
     SHAPE, "shift must be a scalar or one-dimensional, got shape (1, 2)"),
    ("counting_experiment-cut-rank", lambda: wf.counting_experiment(5, 1, [0.0, 1.0], 3, 0),
     SHAPE, "cut must be a scalar, got shape (2,)"),
    ("IndexSpec-thetas-scalar", lambda: wf.IndexSpec("bulk", (1, 2), thetas=0.5),
     SHAPE, "gap exponents must be one-dimensional, got shape ()"),
    ("IndexSpec-thetas-nested", lambda: wf.IndexSpec("bulk", (1, 2), thetas=((0.5,),)),
     SHAPE, "gap exponents must be one-dimensional, got shape (1, 1)"),
    ("IndexSpec-gamma-pair", lambda: wf.IndexSpec("edge", (2,), gamma=[0.5, 0.6]),
     SHAPE, "gamma must be a scalar, got shape (2,)"),
    ("IndexSpec-gamma-list", lambda: wf.IndexSpec("edge", (2,), gamma=[0.5]),
     SHAPE, "gamma must be a scalar, got shape (1,)"),
    ("IndexSpec-thetas-count", lambda: wf.IndexSpec("bulk", (1, 2, 3), thetas=(0.5,)),
     SHAPE, "3 indices need 2 gap exponents, got 1"),
    ("Tridiagonal-empty", lambda: wf.Tridiagonal(diag=[], offdiag=[]), SHAPE, "empty tridiagonal"),
    ("tridiagonalize-not-square", lambda: wf.tridiagonalize(np.zeros((2, 3))),
     SHAPE, "expected a square matrix, got shape (2, 3)"),
    ("discretize_operator-empty", lambda: wf.discretize_operator(20, (50.0, 60.0)),
     SHAPE, "interval (50.0, 60.0) is empty after truncation"),
    # values outside a domain: a bulk spec has no edge exponent, a scale is positive
    ("IndexSpec-bulk-gamma", lambda: wf.IndexSpec("bulk", (5,), gamma=0.7),
     wf.DomainError, "bulk regime needs gamma = 0, got 0.7"),
    ("CenterScale-zero-scale", lambda: wf.CenterScale(0.0, 0.0),
     wf.DomainError, "scale must be positive, got 0.0"),
    ("Thresholds-rank", lambda: wf.Thresholds(ks_max=[0.1]),
     SHAPE, "ks_max must be a scalar, got shape (1,)"),
    ("summarize_vectors-scalar", lambda: wf.summarize_vectors(np.array(0.5), _ONE),
     SHAPE, "vectors must be one- or two-dimensional, got shape ()"),
    ("summarize_vectors-no-trial", lambda: wf.summarize_vectors(np.ones((0, 1)), _ONE),
     wf.InvalidSizeError, "trials must be >= 1, got 0"),
    ("eigenvalues_at-scalar", lambda: wf.eigenvalues_at(_GOE4, 3),
     SHAPE, "positions must be one-dimensional, got shape ()"),
    ("eigenvalues-complex-vector", lambda: wf.eigenvalues([1j, 2.0]),
     SHAPE, "matrix must be two-dimensional, got shape (2,)"),
    ("tridiagonalize-empty", lambda: wf.tridiagonalize(np.zeros((0, 0))), SHAPE,
     "empty tridiagonal"),
    ("eigenvalues-empty", lambda: wf.eigenvalues(np.zeros((0, 0))), SHAPE, "empty tridiagonal"),
    ("semicircle_density-array", lambda: wf.semicircle_density(np.array([0.1, 0.2])),
     SHAPE, "x must be a scalar, got shape (2,)"),
    ("semicircle_cdf-array", lambda: wf.semicircle_cdf(np.array([0.1, 0.2])),
     SHAPE, "t must be a scalar, got shape (2,)"),
    ("semicircle_quantile-array", lambda: wf.semicircle_quantile(np.array([0.1, 0.2])),
     SHAPE, "q must be a scalar, got shape (2,)"),
    ("discretize_operator-width-pair",
     lambda: wf.discretize_operator(20, (0.0, 2.5), wavelengths_per_panel=[3.0, 4.0]),
     SHAPE, "wavelengths per panel must be a scalar, got shape (2,)"),
]


@pytest.mark.parametrize(
    "call, cls, message",
    [(row[1], row[2], row[3] if len(row) > 3 else None) for row in REFUSED_AT_ENTRY],
    ids=[row[0] for row in REFUSED_AT_ENTRY],
)
def test_public_entries_refuse_data_that_is_not_real(call, cls, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert type(exc.value) is cls
    assert message is None or str(exc.value) == message


# Every index, position and count out of range, at each public entry that
# reads one: InvalidSizeError in integer's wording.
_T4 = wf.Tridiagonal(diag=[1.0, 2.0, 3.0, 4.0], offdiag=[0.5, 0.5, 0.5])
OUT_OF_RANGE = [
    ("eigenvalues_at", lambda: wf.eigenvalues_at(_GOE4, [4]), "position must be <= 3, got 4"),
    ("eigenvalues_at-negative", lambda: wf.eigenvalues_at(_GOE4, [-1]),
     "position must be >= 0, got -1"),
    ("selected-hi", lambda: wf.tridiag_eigenvalues_selected(_T4, 0, 4),
     "position hi must be <= 3, got 4"),
    ("selected-reversed", lambda: wf.tridiag_eigenvalues_selected(_T4, 2, 1),
     "position hi must be >= 2, got 1"),
    ("selected-lo", lambda: wf.tridiag_eigenvalues_selected(_T4, -1, 1),
     "position lo must be >= 0, got -1"),
    ("normalize-bulk", lambda: wf.normalize([0.0, 1.0, 2.0, 3.0], wf.IndexSpec("bulk", (5,)), 1),
     "k must be <= 4, got 5"),
    ("edge_center_scale", lambda: wf.edge_center_scale(10, 10, 1), "k must be <= 9, got 10"),
    # an offset past the edge was refused as an exponent: gamma in (0, 1), got 1.0
    ("edge_index_spec", lambda: wf.edge_index_spec((3, 10), 10), "k must be <= 9, got 10"),
    # checked before the gap exponents, which exceed 1 past n
    ("bulk_index_spec", lambda: wf.bulk_index_spec((10, 910), 900), "k must be <= 900, got 910"),
    ("edge_center_scale-zero", lambda: wf.edge_center_scale(0, 10, 1), "k must be >= 1, got 0"),
    ("bulk_center_scale-zero", lambda: wf.bulk_center_scale(0, 10, 1), "k must be >= 1, got 0"),
    ("bulk_center_scale-above", lambda: wf.bulk_center_scale(11, 10, 1),
     "k must be <= 10, got 11"),
    ("ks_one_sample", lambda: wf.ks_one_sample([]), "sample size must be >= 1, got 0"),
    ("ks_two_sample", lambda: wf.ks_two_sample([0.1], []), "sample size must be >= 1, got 0"),
    ("empirical_corr-one-trial", lambda: wf.empirical_corr(np.ones((1, 2))),
     "trials must be >= 2, got 1"),
    ("empirical_corr-no-column", lambda: wf.empirical_corr(np.ones((3, 0))),
     "coordinates must be >= 1, got 0"),
    ("IndexSpec-no-index", lambda: wf.IndexSpec("bulk", ()),
     "number of eigenvalue indices must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in OUT_OF_RANGE], ids=[row[0] for row in OUT_OF_RANGE]
)
def test_every_integer_out_of_range_is_an_invalid_size_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is wf.InvalidSizeError and str(exc.value) == message

