"""Experiment driver: seeded sweeps over (beta, s, variant) grids with CSV output.

Every variant at a grid point consumes the identical source sequence and
channel realization for its seed, so per-seed comparisons between protocol
variants are paired.  The variants of a grid point that share its segment and
pivot lengths share one Module I (``protocol.shared_matching``), which the
baseline and improved protocols always do: they differ in Module II alone.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, fields
from itertools import product

from .core import (
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    check_settings,
    random_bits,
    substream,
)
from .protocol import Metrics, shared_matching, synchronize

__all__ = [
    "CSV_FIELDS",
    "ExperimentConfig",
    "Variant",
    "parse_config",
    "run_point",
    "run_single",
    "sweep",
]

log = logging.getLogger(__name__)

GRID_FIELDS = ["n", "beta", "s", "w", "c", "a_max", "seed"]
METRIC_FIELDS = [f.name for f in fields(Metrics)]
CSV_FIELDS = GRID_FIELDS + METRIC_FIELDS


@dataclass(frozen=True)
class Variant:
    """One protocol configuration under comparison.

    ``s`` pins the variant to a fixed segment multiplier regardless of the
    sweep's s-grid; leave it None to follow the grid.
    """

    name: str
    w: int
    a: tuple[float, ...]
    c: float = ProtocolParams.c
    s: float | None = None


BASELINE = Variant("baseline", w=1, a=(1.0,))
IMPROVED = Variant("improved", w=ProtocolParams.w, a=ProtocolParams.a)  # the default session


@dataclass
class ExperimentConfig:
    n: int
    beta_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    variants: tuple[Variant, ...] = (BASELINE, IMPROVED)
    trials: int = 20
    ec_policy: str = ProtocolParams.ec_policy
    seed0: int = 0
    csv_path: str | None = None
    jsonl_path: str | None = None

    def validate(self) -> None:
        if not self.beta_grid or not self.s_grid or not self.variants:
            raise InvalidConfig("beta_grid, s_grid, and variants must be non-empty")
        if self.trials < 1:
            raise InvalidConfig("trials must be >= 1")
        # Every setting a session of the grid would use; what also depends on
        # n or on the layout is left to run_point, which skips such a point.
        for beta, s, var in product(self.beta_grid, self.s_grid, self.variants):
            s_eff = s if var.s is None else var.s
            try:
                check_settings(beta, s_eff, var.c, var.w, var.a, self.ec_policy)
            except InvalidConfig as exc:
                where = f"variant {var.name} at beta={beta:g} s={s_eff:g}"
                raise InvalidConfig(f"{where}: {exc}") from exc


def parse_numbers(text: str, kind=float) -> tuple:
    """A comma-separated list of numbers, each read by ``kind``."""
    return tuple(kind(v) for v in text.split(","))


def _parse_variant(text: str) -> Variant:
    kv: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise InvalidConfig(f"variant token {token!r} is not key=value")
        key, val = token.split("=", 1)
        kv[key] = val
    try:
        w = int(kv["w"])
        a = parse_numbers(kv["a"])
    except KeyError as exc:
        raise InvalidConfig(f"variant needs w= and a=: {text!r}") from exc
    optional = {key: float(kv[key]) for key in ("c", "s") if key in kv}
    return Variant(name=kv.get("name", f"w{w}"), w=w, a=a, **optional)


# config key -> (ExperimentConfig field, parser of its value)
_CONFIG_KEYS = {
    "n": ("n", int),
    "beta_grid": ("beta_grid", parse_numbers),
    "s_grid": ("s_grid", parse_numbers),
    "trials": ("trials", int),
    "ec_policy": ("ec_policy", str),
    "seed0": ("seed0", int),
    "csv": ("csv_path", str),
    "jsonl": ("jsonl_path", str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key/value grammar; see README for the full field list."""
    named: dict[str, object] = {}
    variants: list[Variant] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if key == "variant":
            variants.append(_parse_variant(val))
        elif key in _CONFIG_KEYS:
            field, parse = _CONFIG_KEYS[key]
            named[field] = parse(val)
    if variants:
        named["variants"] = tuple(variants)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in named:
            raise InvalidConfig(f"config is missing required key {f.name!r}")
    cfg = ExperimentConfig(**named)
    cfg.validate()
    return cfg


def run_single(params: ProtocolParams):
    """Generate a source and channel realization from the seed, then synchronize."""
    x = random_bits(params.n, substream(params.seed, "source"))
    outcome = apply_deletion_channel(x, params.beta, substream(params.seed, "channel"))
    x_hat, metrics, transcript = synchronize(x, outcome.y, params, outcome)
    return x_hat, metrics, transcript


def run_point(
    n: int,
    beta: float,
    s: float,
    variants,
    seed: int,
    ec_policy: str = ProtocolParams.ec_policy,
) -> list[dict]:
    """One seed at one grid point: one CSV row per variant, all sharing (X, Y).

    Variants that share the point's segment and pivot lengths share one
    Module I (``shared_matching``); their rows are those each would give alone.
    """
    x = random_bits(n, substream(seed, "source"))
    outcome = apply_deletion_channel(x, beta, substream(seed, "channel"))
    rows = []
    with shared_matching():
        for var in variants:
            s_eff = var.s if var.s is not None else s
            try:
                params = ProtocolParams(
                    n=n, beta=beta, s=s_eff, c=var.c, w=var.w, a=var.a,
                    seed=seed, ec_policy=ec_policy,
                )
            except InvalidConfig as exc:
                log.warning("skipping %s at beta=%g s=%g: %s", var.name, beta, s_eff, exc)
                continue
            row = {key: getattr(params, key) for key in GRID_FIELDS}
            try:
                _, met, _ = synchronize(x, outcome.y, params, outcome)
                row.update(met.to_json_obj())
            except Exception:  # must not happen; recorded, not raised
                log.exception(
                    "run failed for %s at beta=%g s=%g seed=%d", var.name, beta, s_eff, seed
                )
                row.update(dict.fromkeys(METRIC_FIELDS, 0), synchronized=False)
            rows.append(row)
    return rows


def sweep(config: ExperimentConfig) -> list[dict]:
    """Run the full grid; write CSV (and optional JSONL) and return all rows.

    Both outputs are opened first, so an unwritable path raises before any
    run, but neither is truncated until the grid has given at least one row:
    a sweep that raises or runs nothing leaves an existing file as it was.
    """
    config.validate()
    with ExitStack() as outputs:
        csv_fh, jsonl_fh = (
            outputs.enter_context(open(path, "a", newline="")) if path else None
            for path in (config.csv_path, config.jsonl_path)
        )
        rows: list[dict] = []
        for beta, s, trial in product(config.beta_grid, config.s_grid, range(config.trials)):
            seed = config.seed0 + trial
            rows += run_point(config.n, beta, s, config.variants, seed, config.ec_policy)
        if not rows:
            return rows
        if csv_fh:
            csv_fh.truncate(0)
            writer = csv.DictWriter(csv_fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(
                {**r, "synchronized": "true" if r["synchronized"] else "false"} for r in rows
            )
        if jsonl_fh:
            jsonl_fh.truncate(0)
            for row in rows:
                jsonl_fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return rows
