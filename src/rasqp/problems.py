"""Constrained stochastic problem abstraction, concrete problem families,
and dataset ingestion.

A problem couples a sampled objective (finite-sum over a dataset or an
expectation over a noise distribution) with deterministic nonlinear
constraints. Constraint evaluators are always deterministic functions of x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .counters import Counters
from .errors import ConfigError, NumericalFailure, ParseError


# ------------------------------------------------------------------
# sampling modes
# ------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSum:
    dataset_size: int


@dataclass(frozen=True)
class Expectation:
    # sampler(rng, count) -> 1-D float64 ndarray of noise realizations
    sampler: Callable[[np.random.Generator, int], np.ndarray]


@dataclass
class ProblemSpec:
    n: int
    m_E: int
    m_I: int
    mode: FiniteSum | Expectation
    # sums(x, items, order) over the samples `items` (a 1-D ndarray):
    # order 0 -> (value sum,), 1 -> (value sum, gradient sum),
    # 2 -> (value sum, gradient sum, sum of squared per-sample gradient norms)
    sums: Callable
    constraint_eval: Callable  # x -> (c_E, c_I)
    jacobian_eval: Callable    # x -> (J_E, J_I)
    x_init: np.ndarray
    # analytically known noiseless objective/gradient, when available
    true_value: Optional[Callable] = None
    true_gradient: Optional[Callable] = None
    name: str = ""


# ------------------------------------------------------------------
# subsampled evaluation
# ------------------------------------------------------------------

def _sums_over(problem: ProblemSpec, x: np.ndarray, samples: np.ndarray,
               counters: Optional[Counters] = None, order: int = 1):
    """`problem.sums(x, samples, order)`, checked finite. Counts one
    function evaluation per sample, and one gradient evaluation per sample
    when order >= 1.

    Order 0, which line searches call most, checks the value sum alone; the
    higher orders also check the iterate and every sum."""
    if order >= 1 and not np.all(np.isfinite(x)):
        raise NumericalFailure("non-finite iterate")
    out = problem.sums(x, samples, order)
    if not np.isfinite(out[0]) or (order >= 1 and not all(
            np.all(np.isfinite(s)) for s in out[1:])):
        raise NumericalFailure("non-finite subsampled sums")
    if counters is not None:
        counters.function_evals += samples.size
        if order >= 1:
            counters.gradient_evals += samples.size
    return out


def gradient_stats(problem: ProblemSpec, x: np.ndarray, samples: np.ndarray,
                   counters: Optional[Counters] = None):
    """Per-sample gradient statistics over `samples`: (value sum, gradient
    sum, sum of squared gradient norms). Counts one gradient evaluation per
    sample."""
    return _sums_over(problem, x, samples, counters, order=2)


def eval_subsampled(problem: ProblemSpec, x: np.ndarray, samples: np.ndarray,
                    counters: Optional[Counters] = None):
    """Sample-average objective value and gradient over `samples`. Counts
    one gradient evaluation per sample."""
    if samples.size < 1:
        raise ConfigError("empty sample set")
    vsum, gsum = _sums_over(problem, x, samples, counters)
    return vsum / samples.size, gsum / samples.size


def eval_subsampled_value(problem: ProblemSpec, x: np.ndarray,
                          samples: np.ndarray,
                          counters: Optional[Counters] = None) -> float:
    """Sample-average objective only (used by line searches; no gradient cost)."""
    (vsum,) = _sums_over(problem, x, samples, counters, order=0)
    return vsum / samples.size


def eval_constraints(problem: ProblemSpec, x: np.ndarray):
    """Deterministic constraint values and Jacobians at x."""
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("non-finite iterate")
    c_E, c_I = problem.constraint_eval(x)
    J_E, J_I = problem.jacobian_eval(x)
    c_E = np.atleast_1d(np.asarray(c_E, dtype=float))
    c_I = np.atleast_1d(np.asarray(c_I, dtype=float))
    J_E = np.asarray(J_E, dtype=float).reshape(problem.m_E, problem.n)
    J_I = np.asarray(J_I, dtype=float).reshape(problem.m_I, problem.n)
    for arr in (c_E, c_I, J_E, J_I):
        if not np.all(np.isfinite(arr)):
            raise NumericalFailure("non-finite constraint value or Jacobian")
    return c_E, c_I, J_E, J_I


def draw_samples(problem: ProblemSpec, size: int, rng: np.random.Generator,
                 superset_of: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw a sample set, a 1-D ndarray, optionally with a previous set as
    its prefix.

    Finite-sum sets hold int64 dataset row ids, drawn without replacement
    from the sorted ids not in the prefix. Expectation sets hold the float64
    noise realizations themselves, from one sampler call for the rest, so
    that re-evaluating over the same set is deterministic.
    """
    n_base = 0 if superset_of is None else superset_of.size
    if size < n_base:
        raise ConfigError("requested size smaller than the set to contain")
    finite = isinstance(problem.mode, FiniteSum)
    if finite and size > problem.mode.dataset_size:
        raise ConfigError(f"size {size} exceeds dataset size "
                          f"{problem.mode.dataset_size}")
    if superset_of is not None and size == n_base:
        return superset_of
    if finite:
        free = np.ones(problem.mode.dataset_size, dtype=bool)
        if superset_of is not None:
            free[superset_of] = False
        extra = rng.choice(np.flatnonzero(free), size=size - n_base,
                           replace=False)
    else:
        extra = np.asarray(problem.mode.sampler(rng, size - n_base))
    if superset_of is None:
        return extra
    return np.concatenate([superset_of, extra])


# ------------------------------------------------------------------
# datasets (LIBSVM text format)
# ------------------------------------------------------------------

@dataclass
class Dataset:
    """Sparse classification dataset with an implicit constant bias feature.

    `X` is the samples-by-features CSR matrix; its last column is the bias
    feature, 1.0 in every row. Labels are class indices in 0..n_classes-1.
    """
    X: sp.csr_matrix
    labels: np.ndarray
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return self.X.shape[0]

    @staticmethod
    def from_dense(features: np.ndarray, labels, n_classes: int) -> "Dataset":
        """Every entry of `features` (samples x raw features) is stored,
        zeros included, followed by the bias feature."""
        n_samples, n_raw = features.shape
        nf = n_raw + 1
        data = np.hstack([features, np.ones((n_samples, 1))]).ravel()
        X = sp.csr_matrix(
            (data, np.tile(np.arange(nf, dtype=np.int64), n_samples),
             np.arange(0, n_samples * nf + 1, nf, dtype=np.int64)),
            shape=(n_samples, nf))
        return Dataset(X=X, labels=np.asarray(labels, dtype=np.int64),
                       n_classes=n_classes)


def parse_libsvm(stream) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices).

    Appends a constant-1 bias feature and remaps labels to 0..n_classes-1
    in sorted order of the raw label values.
    """
    if isinstance(stream, (str, bytes)):
        lines = (stream.decode() if isinstance(stream, bytes) else stream).splitlines()
    else:
        lines = [ln.decode() if isinstance(ln, bytes) else ln for ln in stream]

    # feature entries of all rows, each row closed by a bias placeholder
    indices, data, raw_labels = [], [], []
    max_idx = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", line=lineno)
        prev_idx = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"bad feature token {tok!r}", line=lineno)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno)
            if idx <= prev_idx:
                raise ParseError(f"feature index {idx} not increasing", line=lineno)
            prev_idx = idx
            indices.append(idx - 1)
            data.append(val)
            max_idx = max(max_idx, idx)
        indices.append(-1)
        data.append(1.0)
        raw_labels.append(label)

    if not raw_labels:
        raise ParseError("empty dataset")

    classes = sorted(set(raw_labels))
    label_map = {lab: i for i, lab in enumerate(classes)}
    n_raw = max_idx  # highest 1-based raw index; bias gets slot n_raw (0-based)
    indices = np.array(indices, dtype=np.int64)
    bias = np.flatnonzero(indices < 0)
    indices[bias] = n_raw
    X = sp.csr_matrix(
        (np.array(data), indices,
         np.concatenate([[0], bias + 1]).astype(np.int64)),
        shape=(len(raw_labels), n_raw + 1))
    labels = np.array([label_map[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(X=X, labels=labels, n_classes=len(classes))


# ------------------------------------------------------------------
# problem families
# ------------------------------------------------------------------

def _sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def build_logreg_problem(dataset: Dataset, constraint_kind: str) -> ProblemSpec:
    """Multi-class logistic regression with per-class norm constraints.

    The objective is the negative cross-entropy under class-wise sigmoids,
    averaged over samples, so that minimization trains the classifier.
    `constraint_kind` is "equality" (per-class squared norm equals 1) or
    "inequality" (at most 1).
    """
    if len(dataset) == 0:
        raise ConfigError("empty dataset")
    if constraint_kind not in ("equality", "inequality"):
        raise ConfigError(f"unknown constraint kind {constraint_kind!r}")

    nf = dataset.n_features
    K = dataset.n_classes
    n = nf * K
    X = dataset.X
    labels = dataset.labels

    # a per-sample gradient is a multiple of its row placed in its label's
    # class block, so its squared norm needs only the row's
    row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()

    def rows_sums(Xs, lab, sq, x, order):
        """`sums` over the rows of `Xs`, labelled `lab`, squared norms `sq`."""
        # one-hot label: only the labelled class's score contributes
        a_lab = (Xs @ x.reshape(K, nf).T)[np.arange(lab.size), lab]
        vsum = float(np.sum(np.logaddexp(0.0, -a_lab)))
        if order == 0:
            return (vsum,)
        coef = _sigmoid(a_lab) - 1.0
        # entry (i, j) adds coef_i * X_ij at lab_i * nf + j, row by row: the
        # same products in the same order as one CSC product per class.
        # Built in place, so a batch needs two temporaries per entry, not four
        cnt = np.diff(Xs.indptr)
        bins = np.repeat(lab * nf, cnt)
        bins += Xs.indices
        weights = np.repeat(coef, cnt)
        weights *= Xs.data
        gsum = np.bincount(bins, weights=weights, minlength=n)
        if order == 1:
            return vsum, gsum
        return vsum, gsum, float(np.sum(coef * coef * sq))

    # (items, rows, labels, squared norms) of the last sample set: an inner
    # solve evaluates one set many times, so it gathers once per set. The
    # set is compared by content with a private copy, so a caller that
    # refills its array in place still gets its own rows
    last = None

    def sums(x, items, order):
        nonlocal last
        batch = last
        if batch is None or not np.array_equal(items, batch[0]):
            items = np.array(items)
            batch = last = (items, X[items], labels[items], row_sq[items])
        return rows_sums(*batch[1:], x, order)

    m = K

    def constraint_eval(x):
        W = x.reshape(K, nf)
        c = np.sum(W * W, axis=1) - 1.0
        if constraint_kind == "equality":
            return c, np.zeros(0)
        return np.zeros(0), c

    r = np.arange(K)

    def jacobian_eval(x):
        J = np.zeros((K, n))
        J.reshape(K, K, nf)[r, r] = 2.0 * x.reshape(K, nf)
        if constraint_kind == "equality":
            return J, np.zeros((0, n))
        return np.zeros((0, n)), J

    m_E = m if constraint_kind == "equality" else 0
    m_I = m if constraint_kind == "inequality" else 0

    # the full data set needs no gather: X[arange(N)] is X
    def true_value(x):
        return rows_sums(X, labels, row_sq, x, 0)[0] / len(dataset)

    def true_gradient(x):
        return rows_sums(X, labels, row_sq, x, 1)[1] / len(dataset)

    return ProblemSpec(
        n=n, m_E=m_E, m_I=m_I, mode=FiniteSum(len(dataset)),
        sums=sums, constraint_eval=constraint_eval,
        jacobian_eval=jacobian_eval,
        # start on the constraint boundary: a zero start would zero out the
        # norm-constraint Jacobian and leave the solver without a direction
        x_init=np.full(n, 1.0 / np.sqrt(nf)),
        true_value=true_value, true_gradient=true_gradient,
        name=f"logreg-{constraint_kind}")


def build_augmented_problem(value_fn, grad_fn, constraint_eval, jacobian_eval,
                            m_E, m_I, x_init, noise_level,
                            name="augmented") -> ProblemSpec:
    """Expectation-mode problem F(x, xi) = f(x) + xi * ||x - x_init - e||^2
    with xi uniform on [-noise_level, noise_level], so E[F] = f.

    The offset by the all-ones vector keeps the noise term nonzero at the
    starting point.
    """
    if noise_level < 0:
        raise ConfigError("noise_level must be nonnegative")
    x_init = np.asarray(x_init, dtype=float)
    n = x_init.size
    shift = x_init + np.ones(n)

    def sampler(rng, count):
        return rng.uniform(-noise_level, noise_level, size=count)

    def sums(x, xi, order):
        d = x - shift
        m = xi.size
        s = float(np.sum(xi))
        vsum = m * value_fn(x) + s * float(d @ d)
        if order == 0:
            return (vsum,)
        g0 = grad_fn(x)
        gsum = m * g0 + 2.0 * s * d
        if order == 1:
            return vsum, gsum
        # ||g0 + 2 xi d||^2 expanded over the sample vector xi
        sqsum = (m * float(g0 @ g0)
                 + 4.0 * s * float(g0 @ d)
                 + 4.0 * float(np.sum(xi * xi)) * float(d @ d))
        return vsum, gsum, sqsum

    return ProblemSpec(
        n=n, m_E=m_E, m_I=m_I, mode=Expectation(sampler), sums=sums,
        constraint_eval=constraint_eval, jacobian_eval=jacobian_eval,
        x_init=x_init, true_value=value_fn, true_gradient=grad_fn, name=name)
