"""CSV row generation: headers, landmarks, grids, and determinism."""

import dataclasses
import hashlib
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel_lab import bounds, figures
from insdel_lab.bounds import (
    as_fraction,
    comparison_report,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
)
from insdel_lab.figures import (
    bound_profile_rows,
    bound_table_rows,
    comparison_rows,
    rate_region_rows,
    write_rows,
)


class TestBoundTable:
    def test_header_and_endpoints(self):
        rows = bound_table_rows(0.9, 2, points=11)
        assert rows[0] == "tau_d,rho,phi1,phi2,unique"
        assert len(rows) == 12
        first = rows[1].split(",")
        assert first[0] == "0.0"
        assert first[4] == "0.9"  # unique decoding line starts at delta
        last = rows[-1].split(",")
        assert last[0] == "0.9"
        assert last[1] == "0.0"  # bound vanishes at tau_d = delta

    def test_points_validation(self):
        with pytest.raises(ValueError):
            bound_table_rows(0.9, 2, points=1)

    def test_points_must_be_an_int(self):
        # a float failed later, in range, with TypeError
        with pytest.raises(ValueError, match="^points must be an int, got 3.0$"):
            bound_table_rows(0.9, 2, 3.0)


class TestComparisonRows:
    def test_landmark_rows_spliced_in(self):
        rows = comparison_rows(0.9, 2, points=64)
        landmarks = [row for row in rows[1:] if row.rsplit(",", 1)[1]]
        labels = sorted(row.rsplit(",", 1)[1] for row in landmarks)
        assert labels == ["P1", "P2"]
        p2_row = next(row for row in landmarks if row.endswith("P2"))
        fields = p2_row.split(",")
        assert fields[0] == "0.7"
        assert fields[1] == "0.2"

    def test_no_landmarks_below_crossover(self):
        rows = comparison_rows(0.5, 2, points=16)
        assert all(row.endswith(",") for row in rows[1:])

    def test_row_count_includes_landmarks(self):
        base = comparison_rows(0.9, 2, points=32)
        # 32 grid points + header + up to 2 landmark rows
        assert len(base) in (33, 34, 35)

    def test_landmarks_on_one_tau_get_a_row_each(self):
        # delta1(3) + 1e-16: the window is thinner than a float step, so P1
        # and P2 fall on one tau_d between two grid points
        delta = Fraction(5527864045000421607, 10**19)
        assert comparison_report(delta, 3).p1[0] == comparison_report(delta, 3).p2[0]
        rows = comparison_rows(delta, 3, 5)
        assert len(rows) == 8
        row = "0.10557280900008433,0.4472135954999578,0.44721359549995765,0.4472135954999578,"
        assert [row for row in rows if not row.endswith(",")] == [
            "tau_d,rho,phi2,unique,landmark",
            row + "P1",
            row + "P2",
        ]

    def test_landmarks_on_one_grid_point_get_a_row_each(self, monkeypatch):
        # P2 (tau_d = 7/10) is on the 37-point grid of delta = 9/10 at L = 2;
        # with P1 moved onto it, the grid row takes P2 and P1 gets its own
        report = comparison_report(0.9, 2)
        monkeypatch.setattr(
            figures, "comparison_report", lambda *args: dataclasses.replace(report, p1=report.p2)
        )
        rows = comparison_rows(0.9, 2, 37)
        assert len(rows) == 37 + 2
        k = rows.index("0.7,0.2,-0.6,0.2,P2")
        assert rows[k - 1] == rows[k][: -len("P2")] + "P1"
        assert sum(not row.endswith(",") for row in rows) == 3


class TestProfileRows:
    def test_multi_list_size_header(self):
        rows = bound_profile_rows(0.8, (2, 3, 10), points=8)
        assert rows[0] == "x,rho_L2,rho_L3,rho_L10"
        assert len(rows) == 9
        first = rows[1].split(",")
        assert first[0] == "0.2"  # x starts at 1 - delta
        assert set(first[1:]) == {"0.0"}

    def test_empty_list_sizes_rejected(self):
        with pytest.raises(ValueError):
            bound_profile_rows(0.8, (), points=8)


class TestRateRegionRows:
    def test_blocks_per_rate(self):
        rows = rate_region_rows(2, (Fraction(1, 4), Fraction(2, 5)), points=10)
        assert rows[0] == "rate,tau_d,tau_i_max"
        assert len(rows) == 21
        assert rows[1].startswith("0.25,0.0,")
        assert rows[11].startswith("0.4,0.0,")

    def test_tau_grid_stays_inside_delta(self):
        rows = rate_region_rows(3, (Fraction(1, 4),), points=5)
        taus = [float(row.split(",")[1]) for row in rows[1:]]
        assert max(taus) < 0.5  # delta = 1/2 for R = 1/4, endpoint excluded

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            rate_region_rows(2, (Fraction(1, 2),), points=5)
        with pytest.raises(ValueError):
            rate_region_rows(2, (), points=5)


class TestWriteRows:
    def test_byte_determinism(self, tmp_path):
        rows = bound_table_rows(0.9, 2, points=16)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(rows, a)
        write_rows(bound_table_rows(0.9, 2, points=16), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")


def _fmt(value):
    return repr(float(value))


@st.composite
def _deltas(draw):
    """A delta in (0, 1): a reduced Fraction, an unreduced string or a float."""
    dd = draw(st.integers(2, 40))
    dn = draw(st.integers(1, dd - 1))
    scale = draw(st.integers(1, 4))
    return draw(st.sampled_from((Fraction(dn, dd), f"{dn * scale}/{dd * scale}", dn / dd)))


@st.composite
def _rates(draw):
    """A rate in (0, 1/2): a reduced Fraction, an unreduced string or a float."""
    rd = draw(st.integers(3, 60))
    rn = draw(st.integers(1, (rd - 1) // 2))
    scale = draw(st.integers(1, 4))
    return draw(st.sampled_from((Fraction(rn, rd), f"{rn * scale}/{rd * scale}", rn / rd)))


LIST_SIZES = st.integers(2, 12)
POINTS = st.integers(2, 40)


class TestGridPoints:
    """Rows match the same rows built by per-row Fraction arithmetic."""

    @given(_deltas(), LIST_SIZES, POINTS)
    def test_bound_table(self, delta, list_size, points):
        d = as_fraction(delta)
        rows = ["tau_d,rho,phi1,phi2,unique"]
        for k in range(points):
            tau = d * k / (points - 1)
            x = 1 - tau
            values = (
                tau,
                insertion_bound(d, list_size, x),
                hy_quadratic1(d, x),
                hy_quadratic2(d, list_size, x),
                d - tau,
            )
            rows.append(",".join(_fmt(v) for v in values))
        assert bound_table_rows(delta, list_size, points) == rows

    @given(_deltas(), LIST_SIZES, POINTS)
    def test_comparison(self, delta, list_size, points):
        d = as_fraction(delta)
        report = comparison_report(d, list_size)
        landmarks = [
            (as_fraction(point[0]), label)
            for point, label in ((report.p1, "P1"), (report.p2, "P2"))
            if point is not None
        ]
        # a landmark on a grid point takes its row, and every other gets one
        grid = {d * k / (points - 1) for k in range(points)} - {tau for tau, _ in landmarks}
        rows = ["tau_d,rho,phi2,unique,landmark"]
        for tau, label in sorted([(tau, "") for tau in grid] + landmarks):
            x = 1 - tau
            unique = d - tau if tau < d else Fraction(0)
            rho, phi2 = insertion_bound(d, list_size, x), hy_quadratic2(d, list_size, x)
            values = (tau, rho, phi2, unique)
            rows.append(",".join(_fmt(v) for v in values) + "," + label)
        assert comparison_rows(delta, list_size, points) == rows

    def test_landmark_on_grid(self):
        # P2 (tau_d = 7/10) falls on the 37-point grid of delta = 9/10 at
        # L = 2, and P1 between two of its points
        rows = comparison_rows("18/20", 2, 37)
        assert len(rows) == 37 + 2
        assert [row.split(",")[0] for row in rows if row.endswith("P2")] == ["0.7"]
        assert sum(row.endswith("P1") for row in rows) == 1

    @given(_deltas(), st.lists(LIST_SIZES, min_size=1, max_size=4, unique=True), POINTS)
    def test_profile(self, delta, list_sizes, points):
        d = as_fraction(delta)
        rows = ["x," + ",".join(f"rho_L{L}" for L in list_sizes)]
        for k in range(points):
            x = (1 - d) + d * k / (points - 1)
            rows.append(",".join([_fmt(x)] + [_fmt(insertion_bound(d, L, x)) for L in list_sizes]))
        assert bound_profile_rows(delta, list_sizes, points) == rows

    @given(st.lists(_rates(), min_size=1, max_size=3, unique_by=as_fraction), LIST_SIZES, POINTS)
    def test_rate_region(self, rates, list_size, points):
        rows = ["rate,tau_d,tau_i_max"]
        for rate in rates:
            r = as_fraction(rate)
            d = 1 - 2 * r
            for k in range(points):
                tau = d * k / points
                rows.append(f"{_fmt(r)},{_fmt(tau)},{_fmt(insertion_bound(d, list_size, 1 - tau))}")
        assert rate_region_rows(list_size, rates, points) == rows


def _digest(rows):
    return hashlib.sha256(("\n".join(rows) + "\n").encode("utf-8")).hexdigest()


class TestPinnedBytes:
    """CSV bytes at delta = 9/10 and 512 points, recorded from per-point evaluation.

    L <= 10 was recorded from Fraction-per-point rows, L = 40 and 100 from
    per-point integer pairs; over a progression the max form's denominator
    carries lcm(1..L), so those cells come from pairs far beyond 64 bits.
    """

    DELTA = Fraction(9, 10)
    TABLE = {
        2: "1a24eaf3d3d069e2e699f0a3d6bd4a1b62f802a8c4deb610348f08a0d5e64e62",
        3: "762eb043d6d3f77e1affd2ffb9939d50d9c5e7a97672c863b7a72dcc41c1d053",
        10: "b1a3f71f44f63372e7ba5e951f1bdb2adf32d2af8c7b4565ca6279904187b851",
        40: "cda40a30c92c48b3611b69e59cfd53f0e24cf2c43f69033d8cc671b535bcadd4",
    }
    COMPARISON = {
        2: "caca31a629de07dbbce9ee4234c8abd677e596d3d1a1794d58119a8b4e9d726f",
        3: "e08005e01282eabedf97cddccc498437b43b8cf07a4cb1465e61d1bbfc8333fa",
        10: "bd5b9cfff5fb6637c40109254029d66109d3a996981ab8fa4129efb3d75167ad",
    }

    @pytest.mark.parametrize("list_size", (2, 3, 10, 40))
    def test_bound_table(self, list_size):
        rows = bound_table_rows(self.DELTA, list_size, 512)
        assert _digest(rows) == self.TABLE[list_size]

    @pytest.mark.parametrize("list_size", (2, 3, 10))
    def test_comparison(self, list_size):
        rows = comparison_rows(self.DELTA, list_size, 512)
        assert _digest(rows) == self.COMPARISON[list_size]

    def test_profile(self):
        rows = bound_profile_rows(self.DELTA, (2, 3, 10), 512)
        assert _digest(rows) == "a7fe12ac7762cc185ea59471945c8ed97d13c9ed518dd4bb85d121c274120325"

    def test_profile_large_list_sizes(self):
        rows = bound_profile_rows(self.DELTA, (2, 10, 40, 100), 512)
        assert _digest(rows) == "1984bc96f94aac4a1e5a88db8225f7dd91fa45e310ec078af100e2a658a008f8"

    def test_rate_region(self):
        rows = rate_region_rows(3, (Fraction(1, 10), Fraction(13, 97)), 512)
        assert _digest(rows) == "c2aea13f6cbde02088e76159a7e10d2160c63c588193c517dfed9b899d7efd1f"


class TestValidation:
    """Bad input is rejected before any row: points, then delta, then list sizes."""

    DELTA_ONE = r"^relative distance must satisfy 0 < delta < 1, got 1$"
    SIZE_ONE = r"^list size must be an integer >= 2, got 1$"

    def test_delta_before_list_sizes(self):
        with pytest.raises(ValueError, match=self.DELTA_ONE):
            bound_table_rows(1, 2)
        for rows in (bound_table_rows, comparison_rows):
            with pytest.raises(ValueError, match=self.DELTA_ONE):
                rows(1, 1)
        with pytest.raises(ValueError, match=self.DELTA_ONE):
            bound_profile_rows(1, (1,))
        with pytest.raises(ValueError, match="two grid points"):
            bound_table_rows(1, 1, points=1)

    def test_list_sizes(self):
        with pytest.raises(ValueError, match=self.SIZE_ONE):
            bound_profile_rows(Fraction(9, 10), (2, 1))
        for rows in (bound_table_rows, comparison_rows):
            with pytest.raises(ValueError, match=self.SIZE_ONE):
                rows(Fraction(9, 10), 1)
        with pytest.raises(ValueError, match=self.SIZE_ONE):
            rate_region_rows(1, (Fraction(1, 4),))

    def test_each_rate_before_its_block(self):
        half = r"^rate must lie in \(0, 1/2\), got 1/2$"
        with pytest.raises(ValueError, match=half):
            rate_region_rows(1, (Fraction(1, 2),))
        with pytest.raises(ValueError, match=half):
            rate_region_rows(2, (Fraction(1, 4), Fraction(1, 2)))
        with pytest.raises(ValueError, match=self.SIZE_ONE):
            rate_region_rows(1, (Fraction(1, 4), Fraction(1, 2)))

    def test_a_repeated_list_size_is_refused(self):
        # a repeat would write its column twice, under one header name
        with pytest.raises(ValueError, match="^list size 2 is repeated$"):
            bound_profile_rows(Fraction(4, 5), (2, 3, 2))

    @pytest.mark.parametrize("rates", [("1/4", 0.25), (Fraction(1, 4), "2/8"), (0.1, 0.25, 0.1)])
    def test_a_repeated_rate_is_refused(self, rates):
        # equal exact values repeat a block, however they are written
        repeated = as_fraction(rates[-1])
        with pytest.raises(ValueError, match=f"^rate {repeated} is repeated$"):
            rate_region_rows(2, rates)


class TestBenchmarkDigests:
    """The seed-0 outputs of the benchmark's `figures` workload keep their
    recorded bytes: every job of `figure_calls`, against the digests in
    perfbench/frozen/figures_seed0.json."""

    PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

    @pytest.fixture
    def workloads(self, monkeypatch):
        # compiled from its source, so no bytecode is written beside it; the
        # dataclasses in it resolve their annotations through sys.modules
        path = self.PERFBENCH / "workloads.py"
        module = types.ModuleType("perfbench_workloads")
        module.__file__ = str(path)
        monkeypatch.setitem(sys.modules, module.__name__, module)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        return module

    def test_seed_zero_outputs_match_the_recorded_digests(self, workloads):
        lib = types.SimpleNamespace(figures=figures, bounds=bounds)
        calls = workloads.figure_calls(lib, workloads.DEFAULT_SEED)
        recorded = json.loads(workloads.FIGURE_DIGESTS.read_text(encoding="utf-8"))
        digests = {name: workloads.output_digest(call()) for name, call, _, _ in calls}
        assert digests == recorded
