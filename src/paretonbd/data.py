"""Transaction-log ingestion, cohort splitting, and weekly RFM summaries.

The pipeline turns raw purchase events into one row per customer:

    x              repeat purchases inside the calibration window
    t_x            weeks between the first purchase and the last calibration
                   purchase (recency)
    T              weeks between the first purchase and the split date
    holdout_count  purchases strictly after the split date

Same-day purchases are merged (summing spend and units) before any
summarization, so x == 0 always means exactly one calibration transaction.
Time is kept as real weeks (days / 7), never rounded to whole weeks.
"""

import csv
import datetime
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

DAYS_PER_WEEK = 7.0

# Covariates computable from calibration-period records.
COVARIATE_NAMES = ("units", "total_spend", "mean_spend")


@dataclass
class TransactionRecord:
    customer_id: str
    date: datetime.date
    spend: float
    units: int | None = None


@dataclass
class TransactionLog:
    """Purchase events sorted by (customer_id, date), with window bounds."""

    records: list
    start_date: datetime.date
    end_date: datetime.date

    def customer_ids(self):
        return sorted({r.customer_id for r in self.records})

    def by_customer(self):
        groups = {}
        for r in self.records:
            groups.setdefault(r.customer_id, []).append(r)
        return groups


@dataclass
class CohortSplit:
    """Customer-level train/test partition plus the temporal split point."""

    train_ids: tuple
    test_ids: tuple
    split_date: datetime.date
    holdout_length_weeks: float


def make_log(records):
    """Sort records and derive the window bounds from the observed dates."""
    if not records:
        raise ValueError("no records")
    ordered = sorted(records, key=lambda r: (r.customer_id, r.date))
    dates = [r.date for r in ordered]
    return TransactionLog(ordered, min(dates), max(dates))


def ingest_cdnow(path):
    """Read the whitespace-separated master format: id date(YYYYMMDD) units spend."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 fields, got {len(fields)}"
                )
            cid, rawdate, rawunits, rawspend = fields
            try:
                date = datetime.datetime.strptime(rawdate, "%Y%m%d").date()
                units = int(rawunits)
                spend = float(rawspend)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if units < 0 or spend < 0:
                raise ValueError(f"{path}: line {lineno}: negative units or spend")
            records.append(TransactionRecord(cid, date, spend, units))
    if not records:
        raise ValueError(f"{path}: no records")
    return make_log(records)


def ingest_csv(path):
    """Read the generic format: header customer_id,date,spend[,units], ISO dates."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no records") from None
        expected = ["customer_id", "date", "spend"]
        if header[:3] != expected or header[3:] not in ([], ["units"]):
            raise ValueError(f"{path}: line 1: bad header {header!r}")
        has_units = header[3:] == ["units"]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: wrong field count")
            try:
                date = datetime.date.fromisoformat(row[1])
                spend = float(row[2])
                units = int(row[3]) if has_units else None
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if spend < 0 or (units is not None and units < 0):
                raise ValueError(f"{path}: line {lineno}: negative units or spend")
            records.append(TransactionRecord(row[0], date, spend, units))
    if not records:
        raise ValueError(f"{path}: no records")
    return make_log(records)


def write_transactions_csv(path, log):
    """Emit a log in the generic CSV format (round-trips through ingest_csv)."""
    has_units = all(r.units is not None for r in log.records)
    header = ["customer_id", "date", "spend"] + (["units"] if has_units else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in log.records:
            row = [r.customer_id, r.date.isoformat(), repr(r.spend)]
            if has_units:
                row.append(r.units)
            writer.writerow(row)


def merge_same_day(log):
    """Collapse each (customer, date) group to one record with summed amounts."""
    merged = []
    for recs in log.by_customer().values():
        group = None
        for r in recs:
            if group is not None and group.date == r.date:
                units = None
                if group.units is not None and r.units is not None:
                    units = group.units + r.units
                group = TransactionRecord(
                    r.customer_id, r.date, group.spend + r.spend, units
                )
            else:
                if group is not None:
                    merged.append(group)
                group = r
        merged.append(group)
    return make_log(merged)


def mid_date(log):
    """Calendar date at the integer midpoint of the day span; ties round down."""
    span = (log.end_date - log.start_date).days
    if span <= 0:
        raise ValueError("log spans a single day; no midpoint exists")
    return log.start_date + datetime.timedelta(days=span // 2)


def split_customers(log, train_fraction, seed):
    """Seeded customer partition with |train| = round(train_fraction * N)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly inside (0, 1)")
    ids = log.customer_ids()
    if len(ids) < 2:
        raise ValueError("need at least 2 customers to split")
    n_train = int(np.floor(train_fraction * len(ids) + 0.5))
    perm = np.random.default_rng(seed).permutation(len(ids))
    train = tuple(sorted(ids[i] for i in perm[:n_train]))
    test = tuple(sorted(ids[i] for i in perm[n_train:]))
    return train, test


def make_cohort_split(log, train_fraction, seed, split_date=None):
    """Assemble a CohortSplit; the split date defaults to the log mid-date."""
    if split_date is None:
        split_date = mid_date(log)
    holdout_weeks = (log.end_date - split_date).days / DAYS_PER_WEEK
    if holdout_weeks <= 0:
        raise ValueError("split date leaves no holdout period")
    train, test = split_customers(log, train_fraction, seed)
    return CohortSplit(train, test, split_date, holdout_weeks)


def _covariates(cal, names):
    """Covariate vector of one customer's calibration-period records."""
    row = []
    for name in names:
        if name == "units":
            if any(r.units is None for r in cal):
                raise ValueError("covariate 'units' requested but dataset has no units")
            row.append(float(sum(r.units for r in cal)))
        elif name == "total_spend":
            row.append(sum(r.spend for r in cal))
        else:
            row.append(sum(r.spend for r in cal) / len(cal))
    return row


def summarize_rfm(log, split, ids, covariate_names=()):
    """Weekly RFM summaries (plus holdout truth) for the given customers,
    with the named covariates of their calibration-period records.

    Customers without a calibration-period purchase, or first seen exactly on
    the split date (T would be 0), are excluded with a logged warning.
    """
    for name in covariate_names:
        if name not in COVARIATE_NAMES:
            raise ValueError(f"unknown covariate {name!r}")
    groups = log.by_customer()
    kept, covs, skipped = [], [], 0
    for cid in sorted(ids):
        recs = groups.get(cid)
        if not recs or recs[0].date > split.split_date:
            skipped += 1
            continue
        first = recs[0].date
        if first == split.split_date:
            # T == 0 carries no calibration information and breaks rate scaling.
            skipped += 1
            continue
        cal = [r for r in recs if r.date <= split.split_date]
        kept.append(
            (
                cid,
                len(cal) - 1,
                (cal[-1].date - first).days / DAYS_PER_WEEK,
                (split.split_date - first).days / DAYS_PER_WEEK,
                len(recs) - len(cal),
            )
        )
        covs.append(_covariates(cal, covariate_names))
    if skipped:
        logger.warning(
            "excluded %d of %d customers with no usable calibration history",
            skipped,
            len(ids),
        )
    return CalibrationTable(
        customer_ids=[k[0] for k in kept],
        x=[k[1] for k in kept],
        t_x=[k[2] for k in kept],
        T=[k[3] for k in kept],
        holdout_count=[k[4] for k in kept],
        covariates=np.asarray(covs, dtype=float).reshape(
            len(kept), len(covariate_names)),
        covariate_names=tuple(covariate_names),
    )


class CalibrationTable:
    """Per-customer RFM summaries as aligned numpy columns.

    customer_ids, x, t_x, T and holdout_count hold one entry per customer,
    and covariates one row, so the estimators work vectorized.  The columns
    are validated by the constructor.
    """

    def __init__(self, customer_ids, x, t_x, T, holdout_count, covariates=None,
                 covariate_names=()):
        self.customer_ids = list(customer_ids)
        n = len(self.customer_ids)
        self.x = np.asarray(x, dtype=int)
        self.t_x = np.asarray(t_x, dtype=float)
        self.T = np.asarray(T, dtype=float)
        self.holdout_count = np.asarray(holdout_count, dtype=int)
        if covariates is None:
            covariates = np.empty((n, 0))
        self.covariates = np.asarray(covariates, dtype=float)
        self.covariate_names = tuple(covariate_names)
        if not (
            len(self.x) == len(self.t_x) == len(self.T)
            == len(self.holdout_count) == n == self.covariates.shape[0]
        ):
            raise ValueError("misaligned summary columns")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise ValueError("covariate names do not match covariate columns")
        if (self.x < 0).any() or (self.holdout_count < 0).any():
            raise ValueError("negative counts")
        if (self.t_x < 0).any() or (self.t_x > self.T).any():
            raise ValueError("recency must satisfy 0 <= t_x <= T")
        if ((self.x == 0) & (self.t_x != 0)).any():
            raise ValueError("x == 0 requires t_x == 0")

    def __len__(self):
        return len(self.customer_ids)

    def features(self):
        """(n, 3 + k) matrix of (x, t_x, T, covariates...) columns."""
        out = np.empty((len(self.x), 3 + self.covariates.shape[1]))
        out[:, 0] = self.x
        out[:, 1] = self.t_x
        out[:, 2] = self.T
        out[:, 3:] = self.covariates
        return out

    def to_csv(self, path):
        header = ["customer_id", "x", "t_x", "T", "holdout_count"]
        header += [f"cov_{name}" for name in self.covariate_names]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, cid in enumerate(self.customer_ids):
                row = [
                    cid,
                    int(self.x[i]),
                    repr(float(self.t_x[i])),
                    repr(float(self.T[i])),
                    int(self.holdout_count[i]),
                ]
                row += [repr(float(v)) for v in self.covariates[i]]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            base = ["customer_id", "x", "t_x", "T", "holdout_count"]
            if header[: len(base)] != base:
                raise ValueError(f"{path}: bad summaries header {header!r}")
            cov_names = []
            for col in header[len(base):]:
                if not col.startswith("cov_"):
                    raise ValueError(f"{path}: bad covariate column {col!r}")
                cov_names.append(col[len("cov_"):])
            ids, x, t_x, T, hold, covs = [], [], [], [], [], []
            for row in reader:
                if not row:
                    continue
                ids.append(row[0])
                x.append(int(row[1]))
                t_x.append(float(row[2]))
                T.append(float(row[3]))
                hold.append(int(row[4]))
                covs.append([float(v) for v in row[5:]])
        covariates = np.asarray(covs, dtype=float).reshape(len(ids), len(cov_names))
        return cls(ids, x, t_x, T, hold, covariates, tuple(cov_names))
