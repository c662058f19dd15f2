"""Fixed-seed `kpfit bench --format records` output stays within tolerance.

The golden files in tests/data were written by

    kpfit bench --basis tests/data/basis.txt --trials 40 --seed 7 \
        --format records OPTIONS --out tests/data/golden_bench_NAME.json

for the option sets below. A change that moves a record beyond these
tolerances on purpose regenerates the file and says why in CHANGES.md.
"""

import json
import math
from pathlib import Path

import pytest

from kpfit.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "sigma1": ["--pixel-sigma", "1"],
    "outliers": ["--pixel-sigma", "2", "--outlier-count", "2", "--outlier-mag", "60"],
    "near": ["--depth-min", "2", "--depth-max", "4", "--pixel-sigma", "1"],
}

# final_cost is a minimum found to relative_tolerance=1e-9, so two runs that
# differ only in summation order agree far more closely than that
FINAL_COST_REL = 1e-10
ROTATION_DEG_ABS = 1e-6
TRANSLATION_REL = 1e-9
# fields compared with a tolerance: (relative, absolute)
TOLERANCES = {
    "final_cost": (FINAL_COST_REL, 0.0),
    "rotation_error_deg": (0.0, ROTATION_DEG_ABS),
    "mean_rot_deg": (0.0, ROTATION_DEG_ABS),
    "median_rot_deg": (0.0, ROTATION_DEG_ABS),
    "translation_error": (TRANSLATION_REL, 0.0),
    "mean_trans": (TRANSLATION_REL, 0.0),
    "median_trans": (TRANSLATION_REL, 0.0),
}


def assert_same_fields(got, want, where):
    assert sorted(got) == sorted(want), where
    for key, expected in want.items():
        value = got[key]
        if key == "error":
            # the class is exact; the message may carry rounded numbers
            assert value.split(":")[0] == expected.split(":")[0], (where, key)
        elif key in TOLERANCES and expected is not None:
            rel, abs_ = TOLERANCES[key]
            if math.isnan(expected):
                assert math.isnan(value), (where, key)
            else:
                assert value == pytest.approx(expected, rel=rel, abs=abs_), (where, key)
        else:
            assert value == expected, (where, key)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bench_records_match_golden(name, tmp_path):
    out = tmp_path / "records.json"
    argv = ["bench", "--basis", str(DATA / "basis.txt"), "--trials", "40"]
    argv += ["--seed", "7", "--format", "records", *GOLDEN[name], "--out", str(out)]
    assert main(argv) == 0
    got = json.loads(out.read_text())
    want = json.loads((DATA / f"golden_bench_{name}.json").read_text())

    assert sorted(got) == sorted(want)
    assert (got["format"], got["version"]) == (want["format"], want["version"])
    assert sorted(got["methods"]) == sorted(want["methods"])
    for method, stats in want["methods"].items():
        assert_same_fields(got["methods"][method], stats, method)
    assert len(got["records"]) == len(want["records"])
    for rec, expected in zip(got["records"], want["records"]):
        where = (expected["trial"], expected["method"])
        assert (rec["trial"], rec["method"]) == where
        assert_same_fields(rec, expected, where)
