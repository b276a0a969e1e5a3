"""Corruption samplers that turn labeled data into positive-unlabeled data.

Two sampling schemes are supported.

Single-sample: one draw of n rows from the source; each positive row is
labeled independently with probability ``c`` (selected completely at
random), everything else goes to the unlabeled part of the same sample.
The unlabeled rows then follow the mixture with positive weight
(pi - pi c) / (1 - pi c), which ``unlabeled_positive_fraction_ss`` returns
and ``puerm check`` compares with drawn samples.

Case-control: the labeled set is drawn from the positive rows only and the
unlabeled set independently from all rows (positive fraction pi). Component
sizes track the expected composition of a single-sample draw with a nominal
budget of n rows: with A = 1 / (1 - c (1 - pi)), the labeled size is
round(A c pi n) under banker's rounding and the unlabeled size is the
remainder n - n_labeled, so the two parts always sum to exactly n.

``corrupt`` picks the sampler for a scenario name (``datasets.SCENARIOS``)
and is the one place that does so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import SCENARIO_CC, SCENARIO_SS, SCENARIOS, LabeledDataset, PUDataset
from .errors import DataError, ParameterError
from .numerics import Rng


@dataclass
class ScarConfig:
    """Single-sample corruption parameters.

    ``c`` is the probability that a positive row receives a label,
    independent of its features; ``n`` is the number of rows drawn from
    the source.
    """

    c: float
    n: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ParameterError(f"c must be in [0, 1], got {self.c}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")


@dataclass
class CaseControlConfig:
    """Case-control corruption parameters.

    ``c`` plays the same labeling-frequency role as in the single-sample
    scheme but must be < 1 here: at c=1 the unlabeled component would be
    empty. ``pi`` is the known positive-class prior and ``n`` the nominal
    total budget shared by the two components. The values are checked by
    ``case_control_sizes``, so a budget that leaves no unlabeled rows is
    refused here.
    """

    c: float
    pi: float
    n: int = 1000

    def __post_init__(self):
        case_control_sizes(self.n, self.pi, self.c)


def scar_label(source: LabeledDataset, cfg: ScarConfig, rng: Rng) -> PUDataset:
    """Draw ``cfg.n`` rows from ``source`` and label them at random.

    Rows are sampled without replacement. Each drawn row with y=+1
    receives s=+1 independently with probability ``cfg.c``; all other
    rows get s=-1. Ground-truth labels are retained for evaluation.
    """
    if cfg.n > source.n:
        raise ParameterError(
            f"requested {cfg.n} rows without replacement but the source has "
            f"only {source.n}"
        )
    idx = rng.sample_without_replacement(source.n, cfg.n)
    y = source.y[idx]
    flips = rng.bernoulli(cfg.c, cfg.n)
    s = np.where((y == 1) & flips, 1, -1).astype(np.int64)
    pi = source.pi if source.pi is not None else source.empirical_prior()
    return PUDataset(
        x=source.x[idx],
        s=s,
        y_true=y,
        pi=pi,
        scenario=SCENARIO_SS,
        c=cfg.c,
        pi_is_empirical=source.pi is None,
    )


def case_control_sizes(n: int, pi: float, c: float) -> tuple[int, int]:
    """Component sizes (n_labeled, n_unlabeled) for a nominal budget ``n``.

    The labeled count is round(A * c * pi * n) with A = 1 / (1 - c (1 - pi)),
    rounded half to even; the unlabeled count is the remainder n - n_labeled.
    Because A * c * pi * n + A * (1 - c) * n = n exactly, the remainder rule
    and direct rounding of the unlabeled formula agree whenever the labeled
    formula does not land on a .5 tie.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    if not 0.0 <= c < 1.0:
        raise ParameterError(f"c must be in [0, 1) (c=1 leaves no unlabeled rows), got {c}")
    a = 1.0 / (1.0 - c * (1.0 - pi))
    n_labeled = int(np.rint(a * c * pi * n))
    n_unlabeled = n - n_labeled
    if n_unlabeled <= 0:
        raise ParameterError(
            f"budget n={n} leaves no unlabeled rows at pi={pi}, c={c}"
        )
    return n_labeled, n_unlabeled


def case_control_sample(
    source: LabeledDataset, cfg: CaseControlConfig, rng: Rng
) -> PUDataset:
    """Draw a case-control PU set with a nominal budget of ``cfg.n`` rows.

    The labeled component comes from the positive rows of ``source`` and
    the unlabeled component from all rows; the two draws are independent,
    so a source row may appear in both. Each component is drawn without
    replacement when the source is large enough, with replacement
    otherwise. Labeled rows get s=+1, unlabeled rows s=-1.
    """
    n_labeled, n_unlabeled = case_control_sizes(cfg.n, cfg.pi, cfg.c)
    pos_idx = source.positive_rows
    if pos_idx.size == 0:
        raise DataError("source dataset has no positive rows")

    def draw(pool_size: int, k: int) -> np.ndarray:
        if k <= pool_size:
            return rng.sample_without_replacement(pool_size, k)
        return rng.integers(k, pool_size)

    lab = pos_idx[draw(pos_idx.size, n_labeled)]
    unl = draw(source.n, n_unlabeled)
    idx = np.concatenate([lab, unl])
    s = np.concatenate(
        [np.ones(n_labeled, dtype=np.int64), -np.ones(n_unlabeled, dtype=np.int64)]
    )
    return PUDataset(
        x=source.x[idx],
        s=s,
        y_true=source.y[idx],
        pi=cfg.pi,
        scenario=SCENARIO_CC,
        c=cfg.c,
        pi_is_empirical=False,
    )


def corrupt(
    source: LabeledDataset, scenario: str, c: float, n: int, rng: Rng
) -> PUDataset:
    """PU sample of budget ``n`` drawn from ``source`` under ``scenario``.

    Single-sample runs ``scar_label``; case-control runs
    ``case_control_sample`` at the source's prior, or at its empirical
    prior when the source carries none.
    """
    if scenario == SCENARIO_SS:
        return scar_label(source, ScarConfig(c=c, n=n), rng)
    if scenario == SCENARIO_CC:
        pi = source.pi if source.pi is not None else source.empirical_prior()
        return case_control_sample(source, CaseControlConfig(c=c, pi=pi, n=n), rng)
    raise ParameterError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")


def unlabeled_positive_fraction_ss(pi: float, c: float) -> float:
    """Expected true-positive fraction among single-sample unlabeled rows.

    A fraction c of positives is removed into the labeled part, leaving
    pi (1 - c) / (1 - pi c) of the remaining rows positive. The
    case-control counterpart is simply pi (its unlabeled component follows
    the full marginal), so no separate function is provided for it.
    """
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    if not 0.0 <= c <= 1.0:
        raise ParameterError(f"c must be in [0, 1], got {c}")
    return pi * (1.0 - c) / (1.0 - pi * c)
