"""Experiment driver: seeded sweeps over (beta, s, variant) grids with CSV output.

Every variant at a grid point consumes the identical source sequence and
channel realization for its seed, so per-seed comparisons between protocol
variants are paired.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, fields

from .core import (
    EC_EMPIRICAL,
    EC_THEORETICAL,
    BitSeq,
    InvalidConfig,
    ProtocolParams,
    apply_deletion_channel,
    random_bits,
    substream,
)
from .protocol import Metrics, synchronize

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
    c: float = 3.0
    s: float | None = None


BASELINE = Variant("baseline", w=1, a=(1.0,))
IMPROVED = Variant("improved", w=2, a=(1.0, 3.5))


@dataclass
class ExperimentConfig:
    n: int
    beta_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    variants: tuple[Variant, ...] = (BASELINE, IMPROVED)
    trials: int = 20
    ec_policy: str = EC_EMPIRICAL
    seed0: int = 0
    csv_path: str | None = None
    jsonl_path: str | None = None

    def validate(self) -> None:
        if not self.beta_grid or not self.s_grid or not self.variants:
            raise InvalidConfig("beta_grid, s_grid, and variants must be non-empty")
        if self.trials < 1:
            raise InvalidConfig("trials must be >= 1")
        if self.ec_policy not in (EC_EMPIRICAL, EC_THEORETICAL):
            raise InvalidConfig(f"unknown ec_policy {self.ec_policy!r}")


def _parse_variant(text: str) -> Variant:
    kv: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise InvalidConfig(f"variant token {token!r} is not key=value")
        key, val = token.split("=", 1)
        kv[key] = val
    try:
        w = int(kv["w"])
        a = tuple(float(v) for v in kv["a"].split(","))
    except KeyError as exc:
        raise InvalidConfig(f"variant needs w= and a=: {text!r}") from exc
    return Variant(
        name=kv.get("name", f"w{w}"),
        w=w,
        a=a,
        c=float(kv.get("c", 3.0)),
        s=float(kv["s"]) if "s" in kv else None,
    )


def parse_config(text: str) -> ExperimentConfig:
    """Flat key/value grammar; see README for the full field list."""
    values: dict[str, str] = {}
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
        else:
            values[key] = val

    def floats(key: str) -> tuple[float, ...]:
        return tuple(float(v) for v in values[key].split(","))

    try:
        cfg = ExperimentConfig(
            n=int(values["n"]),
            beta_grid=floats("beta_grid"),
            s_grid=floats("s_grid"),
            variants=tuple(variants) if variants else (BASELINE, IMPROVED),
            trials=int(values.get("trials", 20)),
            ec_policy=values.get("ec_policy", EC_EMPIRICAL),
            seed0=int(values.get("seed0", 0)),
            csv_path=values.get("csv"),
            jsonl_path=values.get("jsonl"),
        )
    except KeyError as exc:
        raise InvalidConfig(f"config is missing required key {exc}") from exc
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
    ec_policy: str = EC_EMPIRICAL,
) -> list[dict]:
    """One seed at one grid point: one CSV row per variant, all sharing (X, Y)."""
    x = random_bits(n, substream(seed, "source"))
    outcome = apply_deletion_channel(x, beta, substream(seed, "channel"))
    rows = []
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
        row = dict(zip(GRID_FIELDS, (n, beta, s_eff, var.w, var.c, max(var.a), seed)))
        try:
            _, met, _ = synchronize(x, outcome.y, params, outcome)
            row.update(met.to_json_obj())
        except Exception:  # must not happen; recorded, not raised
            log.exception("run failed for %s at beta=%g s=%g seed=%d", var.name, beta, s_eff, seed)
            row.update(dict.fromkeys(METRIC_FIELDS, 0), synchronized=False)
        rows.append(row)
    return rows


def sweep(config: ExperimentConfig, csv_path: str | None = None) -> list[dict]:
    """Run the full grid; write CSV (and optional JSONL) and return all rows."""
    config.validate()
    rows: list[dict] = []
    for beta in config.beta_grid:
        for s in config.s_grid:
            for trial in range(config.trials):
                seed = config.seed0 + trial
                rows.extend(
                    run_point(config.n, beta, s, config.variants, seed, config.ec_policy)
                )
    path = csv_path or config.csv_path
    if path:
        write_csv(rows, path)
    if config.jsonl_path:
        with open(config.jsonl_path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["synchronized"] = "true" if row["synchronized"] else "false"
            writer.writerow(out)
