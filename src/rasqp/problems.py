"""Constrained stochastic problem abstraction, concrete problem families,
and dataset ingestion.

A problem couples a sampled objective (finite-sum over a dataset or an
expectation over a noise distribution) with deterministic nonlinear
constraints. Constraint evaluators are always deterministic functions of x.
A dataset is held as plain CSR arrays (`indptr`, `indices`, `data`), so
this module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    # sampler(rng, count) -> float64 ndarray of shape (count,): the noise
    # realizations, asked for at most DRAW_CHUNK at a time and checked by
    # `draw_samples`, which keeps only their moments (`NoiseMoments`)
    sampler: Callable[[np.random.Generator, int], np.ndarray]


# draws per sampler call; drawing a set of any size holds one such piece
# at a time. xi'xi is a sum of one dot per piece, so another size moves its
# bits and with them the adaptive batch sizes. On the noisy quadratic 2^16
# draws within the quartiles of the fastest size, 2^17, of 2^12..2^20.
DRAW_CHUNK = 2 ** 16


@dataclass(frozen=True)
class NoiseMoments:
    """An expectation sample set as the expectation sums read it: its size
    m, the sum of its draws and their sum of squares (xi'xi). No draw is
    kept. Like an array it has a `.size`; it has no length or truth value.
    `a + b` is the set of both sets' draws."""
    size: int
    sum_xi: float
    sum_sq: float

    @staticmethod
    def of(xi: np.ndarray) -> "NoiseMoments":
        """The moments of the draws `xi`, a float64 1-D ndarray."""
        return NoiseMoments(xi.size, float(xi.sum()), float(xi @ xi))

    def __add__(self, other: "NoiseMoments") -> "NoiseMoments":
        return NoiseMoments(self.size + other.size,
                            self.sum_xi + other.sum_xi,
                            self.sum_sq + other.sum_sq)

    def __sub__(self, other: "NoiseMoments") -> "NoiseMoments":
        """The set without the draws of `other`, a part of it."""
        return NoiseMoments(self.size - other.size,
                            self.sum_xi - other.sum_xi,
                            self.sum_sq - other.sum_sq)


# a sample set, as `draw_samples` returns it
SampleSet = np.ndarray | NoiseMoments


@dataclass
class ProblemSpec:
    """A stochastic objective under deterministic constraints.

    `true_gradient(x)` is the gradient of the underlying objective, which
    the true-problem metrics read. It is never None once built: a finite
    sum without one gets the exact average over its whole data set, and an
    expectation problem without one raises ConfigError, since no sample
    average is its exact gradient. `x_init` is kept as a float64 copy of
    the start given (an array, a list, ...), which must be one-dimensional
    or ConfigError is raised."""
    m_E: int
    m_I: int
    mode: FiniteSum | Expectation
    # sums(x, items, order) over the sample set `items`, as `draw_samples`
    # returns it (int64 row ids, or `NoiseMoments`):
    # order 0 -> (value sum,), 1 -> (value sum, gradient sum),
    # 2 -> (value sum, gradient sum, sum of squared per-sample gradient norms)
    sums: Callable
    constraints: Callable  # x -> (c_E, c_I, J_E, J_I)
    x_init: np.ndarray
    # the noiseless objective, when known, and its gradient (see the
    # class docstring)
    true_value: Optional[Callable] = None
    true_gradient: Optional[Callable] = None

    def __post_init__(self):
        self.x_init = np.array(self.x_init, dtype=float)
        if self.x_init.ndim != 1:
            raise ConfigError(f"x_init must be one-dimensional, got shape "
                              f"{self.x_init.shape}")
        if self.true_gradient is None:
            if not isinstance(self.mode, FiniteSum):
                raise ConfigError("an expectation problem needs its "
                                  "true_gradient")
            full = np.arange(self.mode.dataset_size)
            self.true_gradient = lambda x: eval_subsampled(self, x, full)[1]

    @property
    def n(self) -> int:
        return self.x_init.size


# ------------------------------------------------------------------
# subsampled evaluation
# ------------------------------------------------------------------

def _sums_over(problem: ProblemSpec, x: np.ndarray, samples: SampleSet,
               counters: Optional[Counters] = None, order: int = 1):
    """`problem.sums(x, samples, order)`, checked finite. Counts one
    function evaluation per sample, and one gradient evaluation per sample
    when order >= 1. An empty sample set raises ConfigError.

    Order 0, which line searches call most, checks the value sum alone; the
    higher orders also check the iterate and every sum."""
    if samples.size < 1:
        raise ConfigError("empty sample set")
    if order >= 1 and not np.isfinite(x).all():
        raise NumericalFailure("non-finite iterate")
    out = problem.sums(x, samples, order)
    if not np.isfinite(out[0]) or (order >= 1 and not all(
            np.isfinite(s).all() for s in out[1:])):
        raise NumericalFailure("non-finite subsampled sums")
    if counters is not None:
        counters.function_evals += samples.size
        if order >= 1:
            counters.gradient_evals += samples.size
    return out


def gradient_stats(problem: ProblemSpec, x: np.ndarray, samples: SampleSet,
                   counters: Optional[Counters] = None):
    """Per-sample gradient statistics over `samples`: (value sum, gradient
    sum, sum of squared gradient norms). Counts one gradient evaluation per
    sample."""
    return _sums_over(problem, x, samples, counters, order=2)


def eval_subsampled(problem: ProblemSpec, x: np.ndarray, samples: SampleSet,
                    counters: Optional[Counters] = None):
    """Sample-average objective value and gradient over `samples`. Counts
    one gradient evaluation per sample."""
    vsum, gsum = _sums_over(problem, x, samples, counters)
    return vsum / samples.size, gsum / samples.size


def eval_subsampled_value(problem: ProblemSpec, x: np.ndarray,
                          samples: SampleSet,
                          counters: Optional[Counters] = None) -> float:
    """Sample-average objective only (used by line searches; no gradient cost)."""
    (vsum,) = _sums_over(problem, x, samples, counters, order=0)
    return vsum / samples.size


def eval_constraints(problem: ProblemSpec, x: np.ndarray):
    """Deterministic constraint values and Jacobians at x. The hook returns
    float64 arrays of shapes (m_E,), (m_I,), (m_E, n) and (m_I, n), taken
    as they are; any other form raises ConfigError."""
    if not np.isfinite(x).all():
        raise NumericalFailure("non-finite iterate")
    out = problem.constraints(x)
    m_E, m_I, n = problem.m_E, problem.m_I, problem.n
    shapes = [(m_E,), (m_I,), (m_E, n), (m_I, n)]
    got = [(getattr(a, "shape", None), getattr(a, "dtype", None)) for a in out]
    if got != [(shape, np.dtype(float)) for shape in shapes]:
        raise ConfigError(
            "constraint hook returned "
            + ", ".join(f"{getattr(a, 'dtype', type(a).__name__)} "
                        f"{np.shape(a)}" for a in out)
            + f", not float64 {shapes}, for m_E = {m_E}, m_I = {m_I}")
    for arr in out:
        if not np.isfinite(arr).all():
            raise NumericalFailure("non-finite constraint value or Jacobian")
    return out


def draw_samples(problem: ProblemSpec, size: int, rng: np.random.Generator,
                 superset_of: Optional[SampleSet] = None) -> SampleSet:
    """Draw a sample set, optionally with a previous set as its prefix.

    Finite-sum sets are 1-D int64 ndarrays of dataset row ids, drawn
    without replacement from the sorted ids not in the prefix. Expectation
    sets are `NoiseMoments`: the sampler is asked for the new draws in
    pieces of at most DRAW_CHUNK, in order, so the draws are those of one
    call for them all, and each piece is summed and dropped. The pieces
    split where numpy's pairwise sum splits an array, so the set's sum of
    draws has the bits of `np.sum` over all of them; a prefix adds its
    moments. Each sampler return must be a float64 1-D ndarray of exactly
    the draws asked for, else ConfigError; the draws themselves are not
    scanned.
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
    if not finite:
        extra = _draw_moments(problem.mode.sampler, rng, size - n_base)
        return extra if superset_of is None else superset_of + extra
    free = np.ones(problem.mode.dataset_size, dtype=bool)
    if superset_of is not None:
        free[superset_of] = False
    extra = rng.choice(np.flatnonzero(free), size=size - n_base,
                       replace=False)
    if superset_of is None:
        return extra
    return np.concatenate([superset_of, extra])


def after_prefix(samples: SampleSet, prefix: SampleSet) -> SampleSet:
    """The samples of a set that `draw_samples` drew with `prefix` as its
    prefix, without the prefix."""
    if isinstance(samples, NoiseMoments):
        return samples - prefix
    return samples[prefix.size:]


def _draw_moments(sampler, rng: np.random.Generator,
                  count: int) -> NoiseMoments:
    """`NoiseMoments` of `count` >= 1 new draws, drawn in order and split
    in two as numpy's pairwise sum splits `count` values (the first part a
    multiple of 8, near half) until a part fits in DRAW_CHUNK."""
    if count > DRAW_CHUNK:
        half = count // 2
        half -= half % 8
        head = _draw_moments(sampler, rng, half)
        return head + _draw_moments(sampler, rng, count - half)
    xi = sampler(rng, count)
    if not (isinstance(xi, np.ndarray) and xi.dtype == np.float64
            and xi.shape == (count,)):
        got = (f"{xi.dtype} ndarray of shape {xi.shape}"
               if isinstance(xi, np.ndarray) else type(xi).__name__)
        raise ConfigError(f"sampler returned {got} for count = {count}, "
                          f"not a float64 ndarray of shape ({count},)")
    return NoiseMoments.of(xi)


# ------------------------------------------------------------------
# datasets (LIBSVM text format)
# ------------------------------------------------------------------

@dataclass
class Dataset:
    """Sparse classification dataset in CSR form, with an implicit constant
    bias feature.

    Row i stores the values `data[indptr[i]:indptr[i + 1]]` at the feature
    columns `indices[indptr[i]:indptr[i + 1]]`, in increasing column order;
    its last entry is the bias feature, column n_features - 1, with value
    1.0. Labels are class indices in 0..n_classes-1, one per row.

    Construction checks that form (integer row pointers, feature indices
    and labels; row pointers start at 0, do not decrease and end at the
    entry count; at least one row; labels and feature indices in range;
    finite feature values),
    raising ConfigError, and derives `row_sq`, each row's squared norm,
    once. Nothing writes to the arrays, so problems may share a data set,
    as those of the memoized `bench.make_synthetic_dataset` do (read-only).
    """
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_features: int
    labels: np.ndarray
    n_classes: int
    row_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ptr, idx, labels, N = self.indptr, self.indices, self.labels, len(self)
        if not all(np.issubdtype(a.dtype, np.integer)
                   for a in (ptr, idx, labels)):
            raise ConfigError("row pointers, feature indices and labels "
                              "must have an integer dtype")
        if N < 1:
            raise ConfigError("empty dataset")
        if not (ptr[0] == 0 and np.all(np.diff(ptr) >= 0)
                and ptr[-1] == idx.size == self.data.size):
            raise ConfigError("row pointers must start at 0, not decrease "
                              "and end at the entry count")
        K = self.n_classes
        if labels.shape != (N,) or not np.all((labels >= 0) & (labels < K)):
            raise ConfigError(f"need one label per row in 0..{K - 1}")
        if not np.all((idx >= 0) & (idx < self.n_features)):
            raise ConfigError(f"feature indices must be in "
                              f"0..{self.n_features - 1}")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("feature values must be finite")
        # a per-sample logistic gradient is a multiple of its row, so its
        # squared norm needs only the row's. Summed as a CSR matrix's
        # X.multiply(X).sum(axis=1) sums: zero products dropped, then one
        # np.add.reduceat segment per nonempty row
        sq = self.data * self.data
        kept = sq != 0
        kept_ptr = ptr - np.searchsorted(np.flatnonzero(~kept), ptr)
        nonempty = np.flatnonzero(np.diff(kept_ptr))
        self.row_sq = np.zeros(N)
        self.row_sq[nonempty] = np.add.reduceat(sq[kept], kept_ptr[nonempty])
        self.row_sq.flags.writeable = False

    def __len__(self):
        return self.indptr.size - 1

    @staticmethod
    def from_dense(features: np.ndarray, labels, n_classes: int) -> "Dataset":
        """Every entry of `features` (samples x raw features) is stored,
        zeros included, followed by the bias feature."""
        n_samples, n_raw = features.shape
        nf = n_raw + 1
        return Dataset(
            indptr=np.arange(0, n_samples * nf + 1, nf, dtype=np.int64),
            indices=np.tile(np.arange(nf, dtype=np.int64), n_samples),
            data=np.hstack([features, np.ones((n_samples, 1))]).ravel(),
            n_features=nf, labels=np.asarray(labels, dtype=np.int64),
            n_classes=n_classes)


def parse_libsvm(stream) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices).

    Appends a constant-1 bias feature and remaps labels to 0..n_classes-1
    in sorted order of the raw label values. A malformed token, a
    non-finite label or feature value, or a feature index that does not
    increase raises ParseError naming the line.
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
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {tokens[0]!r}", line=lineno)
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
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}",
                                 line=lineno)
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
    labels = np.array([label_map[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(indptr=np.concatenate([[0], bias + 1]).astype(np.int64),
                   indices=indices, data=np.array(data, dtype=float),
                   n_features=n_raw + 1, labels=labels,
                   n_classes=len(classes))


# ------------------------------------------------------------------
# problem families
# ------------------------------------------------------------------

def _sigmoid(a):
    # 1 / (1 + exp(-a)) where a >= 0 and exp(a) / (1 + exp(a)) elsewhere,
    # from one exp(-|a|), which cannot overflow
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def build_logreg_problem(dataset: Dataset, constraint_kind: str) -> ProblemSpec:
    """Multi-class logistic regression with per-class norm constraints.

    The objective is the negative cross-entropy under class-wise sigmoids,
    averaged over samples, so that minimization trains the classifier.
    `constraint_kind` is "equality" (per-class squared norm equals 1) or
    "inequality" (at most 1).
    """
    if constraint_kind not in ("equality", "inequality"):
        raise ConfigError(f"unknown constraint kind {constraint_kind!r}")

    nf, K = dataset.n_features, dataset.n_classes
    n = nf * K
    indptr, data, labels, row_sq, N = (dataset.indptr, dataset.data,
                                       dataset.labels, dataset.row_sq,
                                       len(dataset))
    counts = np.diff(indptr)
    # one-hot labels: a row's score and gradient involve only its label's
    # class block, so each stored entry has one index into x
    at_all = np.repeat(labels * nf, counts)
    at_all += dataset.indices

    # the current set's values and indices into x, and each evaluation's
    # scratch, live in arrays kept from set to set, sized for the whole data
    # set and grown only for a set with repeated rows: a large array made
    # per call can be mapped afresh and fault in every page it writes.
    # np.take with mode="clip" (`Dataset` checks the indices are in range)
    # writes into them unbuffered
    space = np.empty((2, data.size)), np.empty(data.size, np.intp)

    def entries(items):
        """(values, indices into x, row ids, entries per row, squared row
        norms, scratch) of the stored entries of rows `items`, row by row."""
        nonlocal space
        cnt = counts[items]
        pos = np.repeat(indptr[items] - (np.cumsum(cnt) - cnt), cnt)
        pos += np.arange(pos.size)
        if space[1].size < pos.size:
            space = None  # the old arrays go before the larger ones come
            space = np.empty((2, pos.size)), np.empty(pos.size, np.intp)
        (vals, work), at = space[0][:, :pos.size], space[1][:pos.size]
        np.take(data, pos, out=vals, mode="clip")
        np.take(at_all, pos, out=at, mode="clip")
        return (vals, at, np.repeat(np.arange(items.size), cnt), cnt,
                row_sq[items], work)

    def full_entries():
        # the full set needs no gather; its row ids are as large as its
        # data, so they are derived per call, not kept
        return (data, at_all, np.repeat(np.arange(N), counts), counts, row_sq,
                space[0][1, :data.size])

    def labelled_scores(ent, x):
        # each row's labelled-class score sums its products in stored order,
        # as a CSR matrix product does, so the sums are the same bits
        vals, at, rows, cnt, _, work = ent
        np.take(x, at, out=work, mode="clip")
        work *= vals
        return np.bincount(rows, weights=work, minlength=cnt.size)

    def scores(ent, x):
        a_lab = labelled_scores(ent, x)
        return a_lab, float(np.sum(np.logaddexp(0.0, -a_lab)))

    def rows_sums(ent, a_lab, vsum, order):
        """`sums` over the entries `ent` from their `scores`."""
        if order == 0:
            return (vsum,)
        vals, at, rows, _, sq, work = ent
        coef = _sigmoid(a_lab) - 1.0
        # entry (i, j) adds coef_i * X_ij at lab_i * nf + j, row by row: the
        # same products in the same order as one CSC product per class
        np.take(coef, rows, out=work, mode="clip")
        work *= vals
        gsum = np.bincount(at, weights=work, minlength=n)
        if order == 1:
            return vsum, gsum
        return vsum, gsum, float(np.sum(coef * coef * sq))

    # (items, entries) of the last sample set and (x, scores, value sum) of
    # the last point on it: an inner solve evaluates one set many times, and
    # its accepted line-search trial twice. Both are compared by content
    # with private copies, as callers refill in place
    last = point = None

    def sums(x, items, order):
        nonlocal last, point
        if last is None or not np.array_equal(items, last[0]):
            last = point = None  # freed before the next set is gathered
            items = np.array(items)
            last = (items, entries(items))
        if point is None or not np.array_equal(x, point[0]):
            point = (np.array(x), *scores(last[1], x))
        return rows_sums(last[1], *point[1:], order)

    r = np.arange(K)
    no_c, no_J = np.zeros(0), np.zeros((0, n))

    def constraints(x):
        W = x.reshape(K, nf)
        c = np.sum(W * W, axis=1) - 1.0
        J = np.zeros((K, n))
        J.reshape(K, K, nf)[r, r] = 2.0 * W
        if constraint_kind == "equality":
            return c, no_c, J, no_J
        return no_c, c, no_J, J

    m_E = K if constraint_kind == "equality" else 0

    def true_value(x):
        return scores(full_entries(), x)[1] / N

    def true_gradient(x):
        ent = full_entries()
        return rows_sums(ent, labelled_scores(ent, x), None, 1)[1] / N

    return ProblemSpec(
        m_E=m_E, m_I=K - m_E, mode=FiniteSum(N),
        sums=sums, constraints=constraints,
        # start on the constraint boundary: a zero start would zero out the
        # norm-constraint Jacobian and leave the solver without a direction
        x_init=np.full(n, 1.0 / np.sqrt(nf)),
        true_value=true_value, true_gradient=true_gradient)


def build_expectation_problem(value_fn, grad_fn, noise_fn, noise_grad,
                              constraints, m_E, m_I, x_init,
                              noise_level) -> ProblemSpec:
    """Expectation-mode problem F(x, xi) = f(x) + xi * h(x) with xi uniform
    on [-noise_level, noise_level], so E[F] = f: `value_fn` and `grad_fn`
    are f and its gradient, `noise_fn` and `noise_grad` h and its gradient.
    The draws are those of numpy's Generator.uniform(-noise_level,
    noise_level), bit for bit, made by scaling Generator.random; a noise
    level that is negative, NaN, or whose range 2 * noise_level overflows
    raises ConfigError.

    The sums over a set of m draws need only s = sum xi and xi'xi, the
    `NoiseMoments` a set is: sum F = m f + s h, sum grad F = m grad f +
    s grad h, and sum ||grad f + xi grad h||^2 = m ||grad f||^2 +
    2 s grad f . grad h + xi'xi ||grad h||^2.
    """
    if not noise_level >= 0:
        raise ConfigError("noise_level must be nonnegative")
    try:
        width = 2.0 * noise_level
    except OverflowError:     # an integer too large for a float
        width = np.inf
    if not np.isfinite(width):
        raise ConfigError(f"noise_level {noise_level} overflows the draw "
                          "range 2 * noise_level")

    def sampler(rng, count):
        # numpy's uniform arithmetic, low + (high - low) * u, in place on
        # the bare fill: uniform's draws and end state, at a lower cost
        xi = rng.random(count)
        xi *= width
        xi -= noise_level
        return xi

    def sums(x, xi, order):
        m, s = xi.size, xi.sum_xi
        vsum = m * value_fn(x) + s * noise_fn(x)
        if order == 0:
            return (vsum,)
        g, gh = grad_fn(x), noise_grad(x)
        gsum = m * g + s * gh
        if order == 1:
            return vsum, gsum
        return vsum, gsum, (m * float(g @ g) + 2.0 * s * float(g @ gh)
                            + xi.sum_sq * float(gh @ gh))

    return ProblemSpec(
        m_E=m_E, m_I=m_I, mode=Expectation(sampler), sums=sums,
        constraints=constraints, x_init=x_init,
        true_value=value_fn, true_gradient=grad_fn)


def build_augmented_problem(value_fn, grad_fn, constraints, m_E, m_I, x_init,
                            noise_level) -> ProblemSpec:
    """The `build_expectation_problem` instance with the noise term
    h(x) = ||x - x_init - e||^2, whose offset by the all-ones vector e keeps
    it nonzero at the starting point."""
    shift = np.asarray(x_init, dtype=float) + 1.0
    return build_expectation_problem(
        value_fn, grad_fn, lambda x: float((x - shift) @ (x - shift)),
        lambda x: 2.0 * (x - shift), constraints, m_E, m_I, x_init,
        noise_level)
