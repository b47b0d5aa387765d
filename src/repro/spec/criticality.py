"""Explicit criticality specification (Sec. IV-A).

Every instrument ``i`` carries two non-negative *damage weights*: ``do_i``
(damage of losing observability) and ``ds_i`` (damage of losing
settability).  A system designer writes these down; for the paper's
experiments they are randomized with the published recipe — 70 % of the
instruments get a non-zero observability weight, 70 % a non-zero
settability weight, 10 % are marked *important for observation* and 10 %
*important for control*, where an important instrument's weight is at least
the sum of all the uncritical weights (Sec. IV-A's guard that a critical
instrument can never be traded against any set of uncritical ones).
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterable, List, Mapping, Tuple

from ..errors import SpecificationError
from ..rsn.network import RsnNetwork


class CriticalitySpec:
    """Damage weights ``(do_i, ds_i)`` for a set of instruments.

    ``critical_observation`` / ``critical_control`` optionally name the
    instruments the designer declares *important* (Sec. IV-A); when absent
    they are derived from weight dominance.
    """

    def __init__(
        self,
        weights: Mapping[str, Tuple[float, float]],
        critical_observation: Iterable[str] = (),
        critical_control: Iterable[str] = (),
    ):
        self._weights: Dict[str, Tuple[float, float]] = {}
        for name, pair in weights.items():
            try:
                do_w, ds_w = pair
            except (TypeError, ValueError):
                raise SpecificationError(
                    f"instrument {name!r}: weights must be a (do, ds) pair"
                ) from None
            if do_w < 0 or ds_w < 0:
                raise SpecificationError(
                    f"instrument {name!r}: damage weights must be >= 0"
                )
            self._weights[name] = (float(do_w), float(ds_w))
        self._critical_obs = frozenset(critical_observation)
        self._critical_ctl = frozenset(critical_control)
        for name in self._critical_obs | self._critical_ctl:
            if name not in self._weights:
                raise SpecificationError(
                    f"critical instrument {name!r} has no weights"
                )

    # ------------------------------------------------------------------
    def __contains__(self, instrument: str) -> bool:
        return instrument in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def instruments(self) -> List[str]:
        return list(self._weights.keys())

    def do(self, instrument: str) -> float:
        """Damage of losing the observability of ``instrument``."""
        return self._weights.get(instrument, (0.0, 0.0))[0]

    def ds(self, instrument: str) -> float:
        """Damage of losing the settability of ``instrument``."""
        return self._weights.get(instrument, (0.0, 0.0))[1]

    def weight(self, instrument: str) -> Tuple[float, float]:
        return self._weights.get(instrument, (0.0, 0.0))

    def total_do(self) -> float:
        return sum(do for do, _ in self._weights.values())

    def total_ds(self) -> float:
        return sum(ds for _, ds in self._weights.values())

    # ------------------------------------------------------------------
    def critical_for_observation(self) -> List[str]:
        """Instruments declared (or, lacking a declaration, inferred to be)
        important for observation.

        The inference follows Sec. IV-A's dominance rule: an instrument
        whose ``do`` weight is at least the sum of all *non-dominant*
        ``do`` weights.
        """
        if self._critical_obs:
            return sorted(self._critical_obs)
        return self._dominant(index=0)

    def critical_for_control(self) -> List[str]:
        """Instruments important for control (settability); see
        :meth:`critical_for_observation`."""
        if self._critical_ctl:
            return sorted(self._critical_ctl)
        return self._dominant(index=1)

    def _dominant(self, index: int) -> List[str]:
        total = sum(pair[index] for pair in self._weights.values())
        return sorted(
            name
            for name, pair in self._weights.items()
            if pair[index] > 0 and pair[index] >= total - pair[index]
        )

    # ------------------------------------------------------------------
    def check_against(self, network: RsnNetwork) -> None:
        """Raise when the spec names instruments the network lacks."""
        known = set(network.instrument_names())
        unknown = [name for name in self._weights if name not in known]
        if unknown:
            raise SpecificationError(
                f"specification names unknown instruments: {sorted(unknown)}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "weights": {
                name: [do, ds] for name, (do, ds) in self._weights.items()
            },
            "critical_observation": sorted(self._critical_obs),
            "critical_control": sorted(self._critical_ctl),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CriticalitySpec":
        if "weights" not in data:
            # legacy flat form: plain name -> [do, ds]
            return cls({name: tuple(pair) for name, pair in data.items()})
        return cls(
            {
                name: tuple(pair)
                for name, pair in data["weights"].items()
            },
            critical_observation=data.get("critical_observation", ()),
            critical_control=data.get("critical_control", ()),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CriticalitySpec":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other):
        return (
            isinstance(other, CriticalitySpec)
            and self._weights == other._weights
            and self._critical_obs == other._critical_obs
            and self._critical_ctl == other._critical_ctl
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<CriticalitySpec for {len(self._weights)} instruments>"


def random_spec(
    instruments: Iterable[str],
    seed: int = 0,
    frac_weighted_obs: float = 0.7,
    frac_weighted_set: float = 0.7,
    frac_critical_obs: float = 0.1,
    frac_critical_set: float = 0.1,
    weight_range: Tuple[int, int] = (1, 10),
) -> CriticalitySpec:
    """The paper's randomized explicit specification (Sec. VI).

    70 % of the instruments receive a random non-zero observability weight
    and 70 % a random non-zero settability weight; 10 % are then raised to
    *important for observation* and another 10 % to *important for
    control*, each important weight being the sum of all uncritical weights
    of its kind (so a single important instrument outweighs every possible
    combination of unimportant ones, as Sec. IV-A requires).
    """
    names = list(instruments)
    rng = random.Random(seed)
    lo, hi = weight_range
    if lo < 1 or hi < lo:
        raise SpecificationError("weight_range must satisfy 1 <= lo <= hi")
    for name, frac in (
        ("frac_weighted_obs", frac_weighted_obs),
        ("frac_weighted_set", frac_weighted_set),
        ("frac_critical_obs", frac_critical_obs),
        ("frac_critical_set", frac_critical_set),
    ):
        if not 0.0 <= frac <= 1.0:
            raise SpecificationError(f"{name} must be within [0, 1]")

    do_w = {name: 0.0 for name in names}
    ds_w = {name: 0.0 for name in names}
    n = len(names)
    for name in rng.sample(names, round(frac_weighted_obs * n)):
        do_w[name] = float(rng.randint(lo, hi))
    for name in rng.sample(names, round(frac_weighted_set * n)):
        ds_w[name] = float(rng.randint(lo, hi))

    critical_obs = rng.sample(names, round(frac_critical_obs * n))
    critical_ctl = rng.sample(names, round(frac_critical_set * n))
    obs_set, ctl_set = set(critical_obs), set(critical_ctl)
    uncritical_do = sum(do_w[name] for name in names if name not in obs_set)
    uncritical_ds = sum(ds_w[name] for name in names if name not in ctl_set)
    for name in critical_obs:
        do_w[name] = max(uncritical_do, float(hi))
    for name in critical_ctl:
        ds_w[name] = max(uncritical_ds, float(hi))

    return CriticalitySpec(
        {name: (do_w[name], ds_w[name]) for name in names},
        critical_observation=critical_obs,
        critical_control=critical_ctl,
    )


def spec_for_network(
    network: RsnNetwork, seed: int = 0, **kwargs
) -> CriticalitySpec:
    """Convenience wrapper: the paper's random spec over a network's
    instruments."""
    return random_spec(network.instrument_names(), seed=seed, **kwargs)


def uniform_spec(
    instruments: Iterable[str], do: float = 1.0, ds: float = 1.0
) -> CriticalitySpec:
    """Every instrument weighted identically — handy in tests and as the
    "count the inaccessible instruments" special case of Eq. 1."""
    return CriticalitySpec({name: (do, ds) for name in instruments})
