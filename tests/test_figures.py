"""CSV row generation: headers, landmarks, grids, and determinism."""

from fractions import Fraction

import pytest

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


class TestGridPoints:
    """Rows match the same rows built by per-row Fraction arithmetic."""

    DELTA = "18/20"  # unreduced on purpose
    POINTS = 37  # P2 (tau_d = 7/10) falls on this grid at L = 2

    def test_bound_table(self):
        d = as_fraction(self.DELTA)
        for list_size in (2, 3):
            rows = ["tau_d,rho,phi1,phi2,unique"]
            for k in range(self.POINTS):
                tau = d * k / (self.POINTS - 1)
                x = 1 - tau
                values = (
                    tau,
                    insertion_bound(d, list_size, x),
                    hy_quadratic1(d, x),
                    hy_quadratic2(d, list_size, x),
                    d - tau,
                )
                rows.append(",".join(_fmt(v) for v in values))
            assert bound_table_rows(self.DELTA, list_size, self.POINTS) == rows

    def test_comparison(self):
        d = as_fraction(self.DELTA)
        for list_size in (2, 3):
            report = comparison_report(d, list_size)
            labelled = {
                as_fraction(point[0]): label
                for point, label in ((report.p1, "P1"), (report.p2, "P2"))
                if point is not None
            }
            assert len(labelled) == 2
            grid = {d * k / (self.POINTS - 1) for k in range(self.POINTS)}
            rows = ["tau_d,rho,phi2,unique,landmark"]
            for tau in sorted(grid | set(labelled)):
                x = 1 - tau
                unique = d - tau if tau < d else Fraction(0)
                rho, phi2 = insertion_bound(d, list_size, x), hy_quadratic2(d, list_size, x)
                values = (tau, rho, phi2, unique)
                rows.append(",".join(_fmt(v) for v in values) + "," + labelled.get(tau, ""))
            assert comparison_rows(self.DELTA, list_size, self.POINTS) == rows
        on_grid = comparison_rows(self.DELTA, 2, self.POINTS)
        assert len(on_grid) == self.POINTS + 2  # header, grid, P1; P2 shares a row

    def test_profile(self):
        d = as_fraction(self.DELTA)
        list_sizes = (2, 3, 10)
        rows = ["x,rho_L2,rho_L3,rho_L10"]
        for k in range(self.POINTS):
            x = (1 - d) + d * k / (self.POINTS - 1)
            rows.append(",".join([_fmt(x)] + [_fmt(insertion_bound(d, L, x)) for L in list_sizes]))
        assert bound_profile_rows(self.DELTA, list_sizes, self.POINTS) == rows

    def test_rate_region(self):
        rates = ("2/8", 0.1, Fraction(13, 97))
        rows = ["rate,tau_d,tau_i_max"]
        for rate in rates:
            r = as_fraction(rate)
            d = 1 - 2 * r
            for k in range(self.POINTS):
                tau = d * k / self.POINTS
                rows.append(f"{_fmt(r)},{_fmt(tau)},{_fmt(insertion_bound(d, 3, 1 - tau))}")
        assert rate_region_rows(3, rates, self.POINTS) == rows
