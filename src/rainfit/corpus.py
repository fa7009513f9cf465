"""Site ingestion and synthetic corpus generation.

A corpus is a set of per-site wet-day samples.  Ingestion reads one CSV per
site (schema: header `date,rainfall_mm`, YYYY-MM-DD dates, empty value =
missing), drops missing and zero rows, and keeps only the positive amounts;
nothing downstream looks at dates.  The synthetic generator stands in for
non-redistributable observational archives: each site draws from a named
family with recorded truth parameters, optionally quantized to an
instrument-style increment (half-to-even, zeros dropped).

A manifest is a JSON file with a top-level `seed` and either `sites` (CSV
paths relative to the manifest) or `generators` (specs as produced by the
presets here), or both.

Loading site CSVs needs the standard library alone: numpy, the model and
RNG modules are imported only where generator specs are checked, sites
drawn or seeds derived.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CorpusError",
    "EmptySeriesError",
    "GeneratorSpec",
    "MalformedRowError",
    "Manifest",
    "PRESETS",
    "SiteSeries",
    "build_preset",
    "filter_corpus",
    "load_manifest",
    "load_site",
    "save_site",
    "simulate_corpus",
    "simulate_site",
    "write_manifest",
]

CSV_HEADER = "date,rainfall_mm"
_START_DATE = date(2000, 1, 1)
# `save_site` dates row i _START_DATE + i days, so a site holds at most
# this many rows before the dates pass 9999-12-31.
_MAX_ROWS = (date.max - _START_DATE).days + 1


class CorpusError(ValueError):
    """Problem with corpus content (file format, empty series, bad spec)."""


class MalformedRowError(CorpusError):
    def __init__(self, path, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


class EmptySeriesError(CorpusError):
    pass


class SiteSeries:
    """One site's positive wet-day amounts (order preserved, dates dropped).

    `values` is a read-only float64 array.  A site that `load_site` read
    keeps the doubles it checked and makes them that array on first use,
    so reading site CSVs loads no numpy.
    """

    __slots__ = ("site_id", "_values")

    def __init__(self, site_id: str, values) -> None:
        import numpy as np

        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptySeriesError(f"site {site_id}: no wet days")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise CorpusError(f"site {site_id}: values must be finite and > 0")
        arr.flags.writeable = False
        self.site_id, self._values = site_id, arr

    @classmethod
    def _read(cls, site_id: str, doubles: array) -> SiteSeries:
        """The site of doubles that `load_site` found finite and > 0."""
        site = cls.__new__(cls)
        site.site_id, site._values = site_id, doubles
        return site

    @property
    def values(self) -> np.ndarray:
        if isinstance(self._values, array):
            import numpy as np

            self._values = np.frombuffer(self._values)
            self._values.flags.writeable = False
        return self._values

    @property
    def n_wet(self) -> int:
        return len(self._values)


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> MalformedRowError:
    """The error for exc, met reading path, at the line of path's first bad byte.

    A text file's decoder reads ahead of its lines, so the line is found
    by decoding the whole file again.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        exc = first
    line_no = data.count(b"\n", 0, exc.start) + 1
    return MalformedRowError(path, line_no, f"not UTF-8 text ({exc.reason})")


def load_site(path) -> SiteSeries:
    """Read one site CSV; drop missing and zero rows; error on malformed rows.

    Raises MalformedRowError with the offending line number (a byte that
    is not UTF-8 included), or EmptySeriesError when no positive values
    remain.
    """
    path = Path(path)
    # Unboxed doubles, 8 bytes a value, not a list of float objects.
    values = array("d")
    # Bound once, outside the per-row loop: this pays for the date-form check.
    append, isfinite, fromisoformat = values.append, math.isfinite, date.fromisoformat
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if line_no == 1:
                    if line != CSV_HEADER:
                        raise MalformedRowError(path, 1, f"header must be '{CSV_HEADER}'")
                    continue
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise MalformedRowError(path, line_no, "expected 2 fields")
                day_text, value_text = parts
                # YYYY-MM-DD only: from Python 3.11 on, fromisoformat also reads
                # 20000101 and ISO week dates (2000-W01-1), which 3.10 rejects.
                try:
                    if len(day_text) != 10 or day_text[4] != "-" or day_text[7] != "-":
                        raise ValueError(day_text)
                    fromisoformat(day_text)
                except ValueError:
                    raise MalformedRowError(path, line_no, f"bad date {day_text!r}") from None
                if value_text == "":
                    continue
                try:
                    value = float(value_text)
                except ValueError:
                    raise MalformedRowError(path, line_no, f"bad value {value_text!r}") from None
                if not isfinite(value) or value < 0.0:
                    raise MalformedRowError(path, line_no, f"rainfall must be finite and >= 0, got {value!r}")
                if value > 0.0:
                    append(value)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    if not values:
        raise EmptySeriesError(f"{path}: no wet days")
    return SiteSeries._read(path.stem, values)


def save_site(path, series: SiteSeries) -> None:
    """Write a site per the CSV schema, one row per wet value, sequential dates."""
    path = Path(path)
    lines = [CSV_HEADER]
    for i, v in enumerate(series.values):
        lines.append(f"{(_START_DATE + timedelta(days=i)).isoformat()},{float(v)!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def filter_corpus(sites, min_wet: int = 100) -> tuple[list[SiteSeries], int]:
    """Keep sites with at least min_wet wet days; also report how many dropped."""
    sites = list(sites)
    kept = [s for s in sites if s.n_wet >= min_wet]
    return kept, len(sites) - len(kept)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic site.

    family is 'egpd' or 'gamma-mixture'; params are the family's parameter
    record as a plain dict, checked by building it (`model_params`), whose
    values are real numbers or lists of them, never a boolean or a string;
    n, the number of draws, is from 100 to the 2,921,940 rows `save_site`
    can date; discretize_mm, a finite number > 0 when set, rounds draws
    half-to-even to that increment and drops resulting zeros.
    """

    site_id: str
    family: str
    params: dict
    n: int
    seed: int
    discretize_mm: float | None = None

    def __post_init__(self) -> None:
        import numpy as np

        # `simulate` writes the site to <site_id>.csv inside its output directory.
        site_id = self.site_id
        if not isinstance(site_id, str) or site_id in ("", ".", "..") or {"/", "\\"} & set(site_id):
            raise CorpusError(
                f"site_id must be a nonempty string with no path separator, not '.' or '..';"
                f" got {site_id!r}"
            )
        if self.family not in ("egpd", "gamma-mixture"):
            raise CorpusError(f"unknown family {self.family!r}")
        if not 100 <= self.n <= _MAX_ROWS:
            raise CorpusError(f"generator n must be from 100 to {_MAX_ROWS}, got {self.n!r}")
        # Each value, or each element of a list, must be a real number, as a
        # numpy scalar is.  A JSON `true` would otherwise pass for the number
        # 1, and "1.2" for 1.2: the parameter records call float().  None is
        # an unset discretize_mm (as a parameter, model_params rejects it).
        values = {**(self.params if isinstance(self.params, dict) else {}),
                  "discretize_mm": self.discretize_mm}
        for key, value in values.items():
            items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
            bad = [v for v in items
                   if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Real))]
            if bad:
                kind = "a boolean" if isinstance(bad[0], (bool, np.bool_)) else f"a {type(bad[0]).__name__}"
                raise CorpusError(f"{key!r} holds {kind}, not a number: {value!r}")
        if self.discretize_mm is not None and not 0.0 < self.discretize_mm < math.inf:
            raise CorpusError(f"discretize_mm must be finite and > 0, got {self.discretize_mm!r}")
        try:
            self.model_params()
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"bad {self.family} params ({exc})") from None

    def model_params(self):
        """The family's parameter object (`EgpdParams` or `GammaMixtureParams`)."""
        from .egpd import EgpdParams
        from .gamma_mixture import GammaMixtureParams

        model = EgpdParams if self.family == "egpd" else GammaMixtureParams
        return model(**self.params)

    def to_dict(self) -> dict:
        """The fields as a dict, without discretize_mm when it is unset."""
        out = asdict(self)
        if self.discretize_mm is None:
            del out["discretize_mm"]
        return out


def simulate_site(spec: GeneratorSpec) -> SiteSeries:
    """Draw one synthetic site; bit-reproducible for a given spec."""
    from .egpd import egpd_simulate
    from .gamma_mixture import mixture_simulate
    from .numerics import RngState

    simulate = egpd_simulate if spec.family == "egpd" else mixture_simulate
    values = simulate(spec.n, spec.model_params(), RngState(seed=spec.seed))
    if spec.discretize_mm is not None:
        inc = spec.discretize_mm
        values = (values / inc).round() * inc
        values = values[values > 0.0]
    return SiteSeries(site_id=spec.site_id, values=values)


def simulate_corpus(specs) -> list[SiteSeries]:
    return [simulate_site(spec) for spec in specs]


# --- presets ----------------------------------------------------------------

_PRESET_SALT = {
    "paper-like-50": 101,
    "egpd-50": 102,
    "egpd-50-discretized": 102,  # same draws as egpd-50, rounded to 0.2 mm
    "mixture-50": 104,
}


def _draw_egpd(g: np.random.Generator, low_rain: bool) -> dict:
    if low_rain:
        kappa = g.uniform(0.5, 1.0)
        sigma = g.uniform(2.0, 8.0)
        xi = g.uniform(0.05, 0.3)
    else:
        kappa = g.uniform(0.5, 2.0)
        sigma = g.uniform(2.0, 10.0)
        xi = g.uniform(0.0, 0.3)
    return {"kappa": float(kappa), "sigma": float(sigma), "xi": float(xi)}


def _draw_mixture(g: np.random.Generator) -> dict:
    k = int(g.integers(2, 4))
    bands = [(0.4, 1.2, 0.3, 2.0), (1.0, 3.0, 2.0, 8.0), (2.0, 5.0, 6.0, 15.0)][:k]
    shapes = [float(g.uniform(a_lo, a_hi)) for a_lo, a_hi, _, _ in bands]
    scales = [float(g.uniform(b_lo, b_hi)) for _, _, b_lo, b_hi in bands]
    w = g.dirichlet([1.0] * k)
    w = (w + 0.08) / (1.0 + 0.08 * k)
    w = w / w.sum()
    return {"weights": [float(x) for x in w], "shapes": shapes, "scales": scales}


def build_preset(name: str, seed: int) -> list[GeneratorSpec]:
    """Deterministic 50-site generator lists.

    paper-like-50: 25 EGPD + 25 gamma-mixture sites, moderate sizes; the
    all-purpose benchmark corpus.  egpd-50: EGPD-only sites drawn from a
    low-rain band (plenty of probability mass near small amounts, where
    instrument quantization bites).  egpd-50-discretized: the same sites
    rounded to 0.2 mm.  mixture-50: gamma-mixture-only sites.  All
    parameter draws and per-site seeds derive from (preset, seed, index).
    """
    from .numerics import RngState

    if name not in _PRESET_SALT:
        raise CorpusError(f"unknown preset {name!r}; known: {sorted(_PRESET_SALT)}")
    salt = _PRESET_SALT[name]
    specs = []
    for i in range(50):
        state = RngState(seed).derive(salt, i)
        g = state.generator()
        site_id = f"site-{i:03d}"
        site_seed = state.derive(1).stream
        if name == "paper-like-50":
            if i < 25:
                family, params = "egpd", _draw_egpd(g, low_rain=False)
            else:
                family, params = "gamma-mixture", _draw_mixture(g)
            n = int(g.integers(600, 1501))
            disc = None
        elif name in ("egpd-50", "egpd-50-discretized"):
            family, params = "egpd", _draw_egpd(g, low_rain=True)
            n = int(g.integers(1200, 2401))
            disc = 0.2 if name == "egpd-50-discretized" else None
        else:
            family, params = "gamma-mixture", _draw_mixture(g)
            n = int(g.integers(1200, 2401))
            disc = None
        specs.append(
            GeneratorSpec(
                site_id=site_id,
                family=family,
                params=params,
                n=n,
                seed=site_seed,
                discretize_mm=disc,
            )
        )
    return specs


PRESETS = tuple(sorted(_PRESET_SALT))


# --- manifests ---------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    seed: int
    site_paths: tuple[Path, ...]
    generators: tuple[GeneratorSpec, ...]


def _integer(entry: dict, key: str) -> int:
    """entry[key], which must be a JSON integer: 1.5 or "1" is not truncated or parsed."""
    value = entry[key]
    if type(value) is not int:
        raise CorpusError(f"'{key}' must be an integer, got {value!r}")
    return value


def load_manifest(path) -> Manifest:
    """Parse a corpus manifest; site paths resolve relative to the manifest.

    A manifest of the wrong shape is a CorpusError that names the file and,
    for a generator, the entry's index; a byte that is not UTF-8, the file
    and its line.  So is a site id, a CSV's stem or a generator's
    `site_id`, that two sites share.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict) or type(raw.get("seed")) is not int:
        raise CorpusError(f"{path}: manifest must be an object with an integer 'seed'")
    seed = raw["seed"]
    sites, entries = raw.get("sites", []), raw.get("generators", [])
    if not (isinstance(sites, list) and all(isinstance(p, str) for p in sites)):
        raise CorpusError(f"{path}: 'sites' must be a list of CSV paths")
    if not isinstance(entries, list):
        raise CorpusError(f"{path}: 'generators' must be a list of objects")
    site_paths = tuple(path.parent / p for p in sites)
    generators = []
    for i, entry in enumerate(entries):
        from .numerics import RngState  # an entry without a seed derives one

        try:
            if not isinstance(entry, dict):
                raise CorpusError(f"expected an object, got {entry!r}")
            generators.append(
                GeneratorSpec(
                    site_id=entry.get("site_id", f"site-{i:03d}"),
                    family=entry["family"],
                    params=entry["params"],
                    n=_integer(entry, "n"),
                    seed=_integer(entry, "seed") if "seed" in entry else RngState(seed).derive(i).stream,
                    discretize_mm=entry.get("discretize_mm"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: bad generator entry {i}: {exc}") from None
    if not site_paths and not generators:
        raise CorpusError(f"{path}: manifest lists no sites and no generators")
    seen: set[str] = set()
    for site_id in [p.stem for p in site_paths] + [g.site_id for g in generators]:
        if site_id in seen:
            raise CorpusError(f"{path}: duplicate site id {site_id!r}")
        seen.add(site_id)
    return Manifest(seed=seed, site_paths=site_paths, generators=tuple(generators))


def write_manifest(path, seed: int, *, sites=(), generators=()) -> None:
    payload: dict = {"seed": seed}
    if sites:
        payload["sites"] = [str(s) for s in sites]
    if generators:
        payload["generators"] = [g.to_dict() for g in generators]
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
