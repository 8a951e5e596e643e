"""Monte-Carlo estimation of the average held-out energy curve.

The measurement plan is bootstrap x fold x seed: for each sample size N,
draw ``n_boots`` bootstrap datasets of N rows (with replacement), split
each into ``k_folds`` disjoint folds by a seeded shuffle, and train
``m_seeds`` models per fold on the complementary folds.  Each trained
model contributes one record: the summed held-out negative log-likelihood
over its fold and the fold size.  Records aggregate into an
:class:`EnergyCurve` with one point per N.

Jobs are trained one sample size at a time, in plan order.  Every learner
trains and scores all of one N's jobs in a single ``score_many`` call (the
logistic learner stacks them into one batched Newton solve; the MLP
learner trains one stack per minibatch count, each one stacked minibatch
SGD (the folds' training-set sizes differ by one and mostly share a
count); the k-NN fits and scores one job at a time).  A learner whose fit
ignores the seed (``USES_SEED`` False) is handed each distinct (train
rows, held-out rows) pair once, and the jobs that differ only in the seed
share its terms.

Per-example NLL values are clamped to [0, 50] before summing so a single
degenerate prediction cannot dominate a record; clamp events are counted
and reported.  All randomness derives from the config's master seed, so
the whole pipeline is a pure function of (dataset, config).
"""

from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter

import numpy as np

from .errors import (
    ConfigError,
    DuplicateKey,
    EmptyGroup,
    InvalidArgument,
    InvariantViolation,
    NonFinite,
    ParseError,
)

# characters that would split a record line if a dataset id held them
DATASET_ID_FORBIDDEN = (",", "\r", "\n")

# Clamp range for a single held-out NLL term.
NLL_CLAMP_LO = 0.0
NLL_CLAMP_HI = 50.0


@dataclass(frozen=True)
class EnergyRecord:
    """One trained model's held-out measurement."""

    dataset_id: str
    sample_size: int
    boot_index: int
    fold_index: int
    seed_index: int
    nll_sum: float
    heldout_count: int

    def __post_init__(self):
        if any(ch in self.dataset_id for ch in DATASET_ID_FORBIDDEN):
            raise InvariantViolation(
                f"dataset_id {self.dataset_id!r} must not contain a comma "
                "or a line break")
        if self.sample_size < 2:
            raise InvariantViolation(f"sample_size must be >= 2, got {self.sample_size}")
        if min(self.boot_index, self.fold_index, self.seed_index) < 0:
            raise InvariantViolation("indices must be non-negative")
        if self.heldout_count < 1:
            raise InvariantViolation(f"heldout_count must be >= 1, got {self.heldout_count}")
        if not np.isfinite(self.nll_sum):
            raise NonFinite(f"nll_sum not finite: {self.nll_sum}")


# a record file's columns are EnergyRecord's fields, with their types
RECORD_HEADER = ",".join(f.name for f in fields(EnergyRecord))
_RECORD_KINDS = tuple(f.type for f in fields(EnergyRecord))
CURVE_HEADER = "sample_size,u_mean,u_stderr,record_count"


@dataclass(frozen=True)
class ProtocolConfig:
    """Plan shape: bootstraps x folds x seeds over an N grid."""

    n_grid: tuple
    master_seed: int = 0
    n_boots: int = 4
    k_folds: int = 5
    m_seeds: int = 5

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if len(grid) == 0:
            raise ConfigError("n_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
        if self.n_boots < 1 or self.m_seeds < 1:
            raise ConfigError("n_boots and m_seeds must be >= 1")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if grid[0] < self.k_folds:
            raise ConfigError(
                f"every N must be >= k_folds={self.k_folds}, got N={grid[0]}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")


def default_n_grid(lo: int = 50, hi: int = 5000, count: int = 12) -> tuple:
    """Log-spaced integer N grid, deduplicated."""
    return tuple(int(v) for v in
                 np.unique(np.round(np.geomspace(lo, hi, count)).astype(int)))


@dataclass(frozen=True)
class Job:
    """One model to train: indices plus the rows it sees."""

    sample_size: int
    boot_index: int
    fold_index: int
    seed_index: int
    seed: int
    train_rows: np.ndarray
    heldout_rows: np.ndarray


@dataclass(frozen=True)
class EnergyCurve:
    """Averaged energy per sample size, with uncertainty.

    ``scale`` records what the underlying per-example quantity was:
    "nll" for negative log-likelihood curves, "probability-complement"
    for sampler-based curves.  The two are never mixed.
    """

    n: np.ndarray
    u_mean: np.ndarray
    u_stderr: np.ndarray
    record_count: np.ndarray
    scale: str = "nll"

    def __post_init__(self):
        try:
            n = np.asarray(self.n, dtype=np.int64)
            rc = np.asarray(self.record_count, dtype=np.int64)
        except OverflowError:
            raise InvalidArgument(
                "curve N and record_count must fit in 64 bits") from None
        u = np.asarray(self.u_mean, dtype=np.float64)
        se = np.asarray(self.u_stderr, dtype=np.float64)
        if not (n.size == u.size == se.size == rc.size):
            raise InvalidArgument("curve arrays must share one length")
        if n.size == 0:
            raise InvalidArgument("curve must have at least one point")
        if np.any(np.diff(n) <= 0):
            raise InvalidArgument("curve N values must be strictly increasing")
        if not np.all(np.isfinite(u)):
            raise NonFinite("curve u_mean must be finite")
        if np.any(se < 0.0) or not np.all(np.isfinite(se)):
            raise InvalidArgument("curve u_stderr must be finite and >= 0")
        if np.any(rc < 1):
            raise InvalidArgument("curve record_count must be >= 1")
        for name, arr in (("n", n), ("u_mean", u), ("u_stderr", se),
                          ("record_count", rc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return int(self.n.size)

    @property
    def points(self):
        return list(zip(self.n.tolist(), self.u_mean.tolist(),
                        self.u_stderr.tolist(), self.record_count.tolist()))


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from a tuple of non-negative integers."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, np.uint64)[0])


def derive_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


# stream tags so bootstrap draws and job seeds never collide
_STREAM_BOOT = 1
_STREAM_JOB = 2


def plan_experiment(config: ProtocolConfig, dataset_size: int) -> list:
    """Expand the config into the full deterministic job list.

    Each bootstrap draws N rows with replacement, then a seeded shuffle
    partitions the draw into folds whose sizes differ by at most one.
    Duplicated rows may land in both a train and a heldout fold of the
    same bootstrap; folds still partition the multiset.
    """
    dataset_size = int(dataset_size)
    if dataset_size < config.k_folds:
        raise ConfigError(
            f"dataset size {dataset_size} below k_folds {config.k_folds}")
    if max(config.n_grid) > dataset_size:
        raise ConfigError(
            f"n_grid maximum {max(config.n_grid)} exceeds dataset size {dataset_size}")
    jobs = []
    for n in config.n_grid:
        for i in range(config.n_boots):
            rng = derive_rng(config.master_seed, _STREAM_BOOT, n, i)
            sample = rng.integers(0, dataset_size, size=n)
            perm = rng.permutation(n)
            base, extra = divmod(n, config.k_folds)
            start = 0
            for j in range(config.k_folds):
                size = base + (1 if j < extra else 0)
                fold_pos = perm[start:start + size]
                start += size
                mask = np.ones(n, dtype=bool)
                mask[fold_pos] = False
                train = sample[mask]
                heldout = sample[fold_pos]
                train.setflags(write=False)
                heldout.setflags(write=False)
                for l in range(config.m_seeds):
                    seed = derive_seed(config.master_seed, _STREAM_JOB, n, i, j, l)
                    jobs.append(Job(n, i, j, l, seed, train, heldout))
    return jobs


def clamped_nll_terms(raw_nll: np.ndarray) -> tuple:
    """Clamp per-example NLL terms to [0, 50]; returns (terms, clamp_events)."""
    raw = np.asarray(raw_nll, dtype=np.float64)
    clamped = np.clip(raw, NLL_CLAMP_LO, NLL_CLAMP_HI)
    # NaN survives clip; surface it to the caller unchanged
    events = int(np.count_nonzero(clamped != raw))
    return clamped, events


def _distinct_jobs(learner, jobs) -> tuple:
    """(jobs to score, each job's index among them).

    For a learner with ``USES_SEED`` False, jobs with equal train and
    held-out rows are one job, scored at its first place in order.
    """
    if learner.USES_SEED:
        return list(jobs), range(len(jobs))
    slots, distinct, index = {}, [], []
    for job in jobs:
        key = tuple(np.asarray(rows, dtype=np.int64).tobytes()
                    for rows in (job.train_rows, job.heldout_rows))
        if key not in slots:
            slots[key] = len(distinct)
            distinct.append(job)
        index.append(slots[key])
    return distinct, index


def _evaluate_group(dataset, learner, jobs, dataset_id: str) -> list:
    """(EnergyRecord, clamp_events) for jobs of one sample size, in order.

    The learner's ``score_many`` trains and scores the group's distinct
    jobs in one call (see the module docstring), and a training failure
    names its job in ``job``.  Every job keeps its record, so seed copies
    of a seed-free learner are recorded, and counted, as before.
    """
    distinct, index = _distinct_jobs(learner, jobs)
    scored = []
    for raw in learner.score_many(dataset, distinct):
        terms, events = clamped_nll_terms(raw)
        scored.append((float(np.sum(terms)), events))
    results = []
    for job, i in zip(jobs, index):
        nll_sum, events = scored[i]
        record = EnergyRecord(dataset_id, job.sample_size, job.boot_index,
                              job.fold_index, job.seed_index, nll_sum,
                              int(job.heldout_rows.size))
        results.append((record, events))
    return results


@dataclass(frozen=True)
class RunResult:
    records: list
    clamp_events: int


def run_protocol(dataset, learner, config: ProtocolConfig,
                 dataset_id: str = "data") -> RunResult:
    """Plan, train, and collect records for the whole grid.

    The jobs of each sample size are trained and scored together by the
    learner's ``score_many``: in one batched Newton solve for the logistic
    learner, in one stack per minibatch count for the MLP, one job at a
    time for the k-NN, and each distinct job once for a learner that
    ignores the seed (see the module docstring).  Records come out in plan
    order, one per job, all computed in the calling thread.
    """
    jobs = plan_experiment(config, dataset.n_rows)
    results = []
    for _, group in groupby(jobs, key=lambda job: job.sample_size):
        results.extend(_evaluate_group(dataset, learner, list(group), dataset_id))
    records = [rec for rec, _ in results]
    clamps = sum(ev for _, ev in results)
    return RunResult(records, clamps)


def estimate_avg_energy(records, scale: str = "nll") -> EnergyCurve:
    """Aggregate records into the energy curve.

    One replicate is one (boot, seed) pair pooled over its folds:
    ``sum(nll_sum) / sum(heldout_count)``.  The point mean is the average
    over replicates and the uncertainty is the standard error across
    replicate means (zero for a single replicate).

    Args:
        records: EnergyRecord list for a single dataset_id.
        scale: the curve's ``scale`` (see :class:`EnergyCurve`).

    Raises:
        EmptyGroup: no records at all.
        InvalidArgument: records span multiple dataset ids.
    """
    records = list(records)
    if not records:
        raise EmptyGroup("no records to aggregate")
    ids = {r.dataset_id for r in records}
    if len(ids) > 1:
        raise InvalidArgument(
            f"records span multiple dataset ids {sorted(ids)}; filter first")
    by_n: dict = {}
    for rec in records:
        by_n.setdefault(rec.sample_size, {}).setdefault(
            (rec.boot_index, rec.seed_index), []).append(rec)
    ns = sorted(by_n)
    means, errs, counts = [], [], []
    for n in ns:
        reps = by_n[n]
        rep_means = []
        for key in sorted(reps):
            group = reps[key]
            total = sum(r.nll_sum for r in group)
            count = sum(r.heldout_count for r in group)
            rep_means.append(total / count)
        rep_means = np.asarray(rep_means)
        means.append(float(np.mean(rep_means)))
        if rep_means.size > 1:
            errs.append(float(np.std(rep_means, ddof=1) / np.sqrt(rep_means.size)))
        else:
            errs.append(0.0)
        counts.append(sum(len(g) for g in reps.values()))
    return EnergyCurve(np.array(ns), np.array(means), np.array(errs),
                       np.array(counts), scale=scale)


# ---------------------------------------------------------------------------
# files: the line readers, and the one table reader and writer of record,
# curve, tabular data and spectrum files
# ---------------------------------------------------------------------------

def content_lines(path):
    """(line number, stripped line) for each line of a text file that is
    neither blank nor a '#' comment; line numbers count from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def header_values(path) -> dict:
    """The ``# key=value`` comment lines of a text file, as lower-cased key
    -> (line number, stripped value); a later line wins.  Spaces around the
    key and value are allowed."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#") and "=" in line:
                key, _, value = line[1:].partition("=")
                values[key.strip().lower()] = (lineno, value.strip())
    return values


def read_table(path, kinds, header=None, key=0):
    """(line number, converted values) for each row of a comma-separated file.

    The rows are the content lines after ``header``, which, when given, must
    be the first of them.  ``kinds`` holds one converter per column, or is
    one converter for every column, and the first row then sets the width.
    The first ``key`` values of a row must differ from every earlier row's.

    Raises:
        ParseError: a missing or different header, a row of the wrong
            width, or a field its column's converter rejects (with line and
            column).
        DuplicateKey: a repeated key, naming its line.
    """
    lines = content_lines(path)
    if header is not None:
        lineno, first = next(lines, (1, None))
        if first != header:
            raise ParseError(f"expected header {header!r}", lineno)
    names = header.split(",") if header else None
    seen = set()
    for lineno, line in lines:
        parts = line.split(",")
        if callable(kinds):
            kinds = (kinds,) * len(parts)
        if len(parts) != len(kinds):
            raise ParseError(f"expected {len(kinds)} fields, got {len(parts)}",
                             lineno)
        values = []
        try:
            for kind, field in zip(kinds, parts):
                values.append(kind(field))
        except ValueError:
            name = names[len(values)] if names else "field"
            raise ParseError(f"bad {name} {field!r}", lineno,
                             len(values) + 1) from None
        if key:
            row_key = tuple(values[:key])
            if row_key in seen:
                raise DuplicateKey(f"duplicate key {row_key} at line {lineno}")
            seen.add(row_key)
        yield lineno, values


def write_table(path, header, rows, comments=()) -> None:
    """Write '#' comment lines, the header, then one comma-separated line per
    row; a float is written as ``repr(float(v))``, which reads back bitwise."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n")


def write_records(path, records, comments=()) -> None:
    """Write a record file: the comment lines, then one row per record."""
    write_table(path, RECORD_HEADER,
                map(attrgetter(*RECORD_HEADER.split(",")), records), comments)


def ingest_records(path) -> list:
    """Read a record file with :func:`read_table`; (dataset, N, boot, fold,
    seed) is its key.

    Raises:
        ParseError: missing header or malformed line or field, located.
        InvariantViolation: invalid field values (e.g. heldout_count 0),
            naming the line.
        DuplicateKey: repeated (dataset, N, boot, fold, seed) key.
    """
    records = []
    for lineno, values in read_table(path, _RECORD_KINDS, RECORD_HEADER, key=5):
        try:
            records.append(EnergyRecord(*values))
        except (InvariantViolation, NonFinite) as exc:
            raise InvariantViolation(f"line {lineno}: {exc}") from None
    return records


def write_curve(path, curve: EnergyCurve, comments=()) -> None:
    """Write a curve file: the comment lines and a ``scale=`` line, then one
    row per N."""
    write_table(path, CURVE_HEADER, curve.points,
                [*comments, f"scale={curve.scale}"])


def read_curve(path, scale: str = "nll") -> EnergyCurve:
    """Read a curve file with :func:`read_table`: rows in any order, each N
    once.

    Raises:
        ParseError: no data rows, or as :func:`read_table`.
        DuplicateKey: a repeated N, naming its line.
    """
    rows = sorted(values for _, values in
                  read_table(path, (int, float, float, int), CURVE_HEADER, key=1))
    if not rows:
        raise ParseError("curve file has no data rows", line=0)
    return EnergyCurve(*zip(*rows), scale=scale)
