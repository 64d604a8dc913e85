import csv
import dataclasses
import itertools
import json

import pytest

from delsync.core import EC_EMPIRICAL, EC_THEORETICAL, InvalidConfig
from delsync.harness import (
    BASELINE,
    CSV_FIELDS,
    IMPROVED,
    ExperimentConfig,
    Variant,
    parse_config,
    run_point,
    sweep,
)

CONFIG_TEXT = """
# two-point smoke grid
n = 4000
beta_grid = 0.01
s_grid = 2
trials = 2
seed0 = 5
ec_policy = empirical
variant = name=baseline w=1 a=1 c=3
variant = name=improved w=2 a=1,3.5 c=3
"""


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.n == 4000
        assert cfg.beta_grid == (0.01,)
        assert cfg.s_grid == (2.0,)
        assert cfg.trials == 2
        assert cfg.seed0 == 5
        assert [v.name for v in cfg.variants] == ["baseline", "improved"]
        assert cfg.variants[1].a == (1.0, 3.5)

    def test_defaults_applied(self):
        cfg = parse_config("n = 1000\nbeta_grid = 0.01\ns_grid = 1,2\n")
        assert cfg.trials == 20
        assert cfg.variants == (BASELINE, IMPROVED)

    def test_variant_with_pinned_s(self):
        cfg = parse_config(
            "n=1000\nbeta_grid=0.01\ns_grid=2\nvariant = w=1 a=1 s=1.5\n"
        )
        assert cfg.variants[0].s == 1.5

    def test_missing_required_key(self):
        with pytest.raises(InvalidConfig):
            parse_config("beta_grid = 0.01\ns_grid = 1\n")

    def test_bad_line_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("n = 100\nnot a key value line\n")

    def test_pinned_s_is_checked_in_place_of_the_grid(self):
        pinned = Variant("pinned", w=2, a=(1.0, 3.5), s=-1.0)
        with pytest.raises(InvalidConfig, match="variant pinned at beta=0.01 s=-1: s must"):
            ExperimentConfig(4000, (0.01,), (2.0,), variants=(BASELINE, pinned)).validate()
        # a grid s that only pinned variants meet is not used by any session
        ExperimentConfig(4000, (0.01,), (-1.0,), variants=(dataclasses.replace(pinned, s=2.0),)).validate()

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config("n = 100\nbeta_grid = 0.01\ns_grid = 1\ntrials = 0\n")


def _without_runtime(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "runtime_ms"}


class TestRunPoint:
    def test_one_row_per_variant(self):
        rows = run_point(4000, 0.01, 2.0, [BASELINE, IMPROVED], seed=7)
        assert len(rows) == 2
        assert {r["w"] for r in rows} == {1, 2}
        assert all(r["synchronized"] for r in rows)

    def test_rows_are_paired_on_the_same_channel(self):
        # Variants of one point run on the same source and channel and share
        # Module I; each row must be the one that variant gives alone.
        pinned = Variant("pinned", w=2, a=(1, 3.5), s=1.5)
        variants = [BASELINE, IMPROVED, pinned]
        for seed, ec_policy in itertools.product((3, 4, 5), (EC_EMPIRICAL, EC_THEORETICAL)):
            together = run_point(4000, 0.01, 2.0, variants, seed, ec_policy)
            alone = [run_point(4000, 0.01, 2.0, [var], seed, ec_policy)[0] for var in variants]
            assert [_without_runtime(r) for r in together] == [_without_runtime(r) for r in alone]

    def test_same_seed_reproduces_rows(self):
        a = run_point(4000, 0.01, 2.0, [IMPROVED], seed=11)
        b = run_point(4000, 0.01, 2.0, [IMPROVED], seed=11)
        a0 = {k: v for k, v in a[0].items() if k != "runtime_ms"}
        b0 = {k: v for k, v in b[0].items() if k != "runtime_ms"}
        assert a0 == b0

    def test_variant_s_override(self):
        var = Variant("pinned", w=2, a=(1, 3.5), s=1.0)
        rows = run_point(4000, 0.01, 2.0, [var], seed=1)
        assert rows[0]["s"] == 1.0

    def test_invalid_point_skipped(self):
        # beta=0.5 makes L_P >= L_S: the variant is skipped, not crashed
        rows = run_point(4000, 0.5, 1.0, [BASELINE], seed=1)
        assert rows == []

    def test_runtime_failure_recorded_as_row(self, monkeypatch):
        import delsync.harness as harness

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "synchronize", boom)
        rows = run_point(4000, 0.01, 2.0, [IMPROVED], seed=1)
        assert len(rows) == 1
        assert rows[0]["synchronized"] is False
        assert set(rows[0]) == set(CSV_FIELDS)


class TestSweep:
    def test_csv_schema_and_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        cfg = dataclasses.replace(parse_config(CONFIG_TEXT), csv_path=str(path))
        rows = sweep(cfg)
        assert len(rows) == 4  # 1 beta x 1 s x 2 trials x 2 variants
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_FIELDS
            file_rows = list(reader)
        assert len(file_rows) == 4
        assert {r["synchronized"] for r in file_rows} == {"true"}

    def test_jsonl_output(self, tmp_path):
        text = CONFIG_TEXT + f"jsonl = {tmp_path / 'out.jsonl'}\n"
        cfg = parse_config(text)
        rows = sweep(cfg)
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == len(rows)
        assert json.loads(lines[0])["n"] == 4000

    def test_rows_order_deterministic(self):
        cfg = parse_config(CONFIG_TEXT)
        a = [
            {k: v for k, v in row.items() if k != "runtime_ms"} for row in sweep(cfg)
        ]
        b = [
            {k: v for k, v in row.items() if k != "runtime_ms"} for row in sweep(cfg)
        ]
        assert a == b
