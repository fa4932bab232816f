import csv
import io
import json
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import multiperfect.arithmetic as arithmetic
import multiperfect.bounds as bounds
import multiperfect.cli as cli
import multiperfect.search as search
from multiperfect.arithmetic import factorize
from multiperfect.bounds import bound_report
from multiperfect.classify import classify, is_primitive
from multiperfect.cli import main


def interval_json(interval):
    lower, upper = interval.decimal(20)
    return {"lower": lower, "upper": upper}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScan:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "3", "--limit", "1000000",
            "--output", "json", "--jobs", "1", "--quiet",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == ["120", "672", "523776"]
        assert records[1]["factors"] == [[2, 5], [3, 1], [7, 1]]
        assert records[1]["omega"] == 3
        assert records[1]["alpha"] == "3"
        assert records[1]["primitive"] is True
        assert records[1]["source"] == "scan"

    def test_empty_scan_is_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "2", "--limit", "5", "--jobs", "1", "--quiet"
        )
        assert code == 0
        assert out == ""

    def test_csv_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "2", "--limit", "10000",
            "--output", "csv", "--jobs", "1", "--quiet",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["6", "28", "496", "8128"]
        factors = json.loads(rows[3]["factors"])
        assert factors == [[2, 6], [127, 1]]

    def test_record_round_trip_through_classify(self, capsys):
        # emitted records must re-parse and agree with the library
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "3", "--limit", "1000000",
            "--jobs", "1", "--quiet",
        )
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            fi = factorize(int(rec["n"]))
            assert [[p, e] for p, e in fi.factors] == rec["factors"]
            assert fi.omega == rec["omega"]
            perf = classify(fi)
            assert str(perf.alpha) == rec["alpha"].replace("/", "/")
            assert is_primitive(fi) == rec["primitive"]

    def test_odd_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "9/5", "--limit", "100",
            "--odd-only", "--jobs", "1", "--quiet",
        )
        assert code == 0
        assert out == ""


class TestChainSearchCommand:
    def test_matches_scan(self, capsys):
        code, chain_out, _ = run_cli(
            capsys, "chain-search", "--alpha", "3", "--limit", "1000000",
            "--max-omega", "6", "--jobs", "1", "--quiet",
        )
        assert code == 0
        ns = [json.loads(line)["n"] for line in chain_out.splitlines()]
        assert ns == ["120", "672", "523776"]
        sources = {json.loads(line)["source"] for line in chain_out.splitlines()}
        assert sources == {"chain"}

    def test_non_exhaustive_exit_code(self, capsys, monkeypatch):
        original = search.factored_sigma_prime_power

        def flaky(p, e):
            if p == 31:
                raise search.FactorizationExhausted("synthetic budget hit")
            return original(p, e)

        monkeypatch.setattr(search, "factored_sigma_prime_power", flaky)
        for command in ("chain-search", "verify"):
            argv = [command, "--alpha", "3", "--limit", "1000000",
                    "--max-omega", "6", "--jobs", "1"]
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert "NON-EXHAUSTIVE" in err
            code, _, err = run_cli(capsys, *argv, "--quiet")
            assert code == 2
            assert err == ""


class TestSignatureCommands:
    def test_reconstruct_prints_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "signature", "reconstruct",
            "--alpha", "3", "--p1", "2", "--exponents", "5,1,1",
        )
        assert code == 0
        assert out.strip() == "672"

    def test_reconstruct_failure_is_reported_not_raised(self, capsys):
        code, out, _ = run_cli(
            capsys, "signature", "reconstruct",
            "--alpha", "2", "--p1", "3", "--exponents", "1",
        )
        assert code == 0
        assert "not_alpha_perfect" in out

    def test_reconstruct_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "signature", "reconstruct", "--alpha", "3", "--p1", "2",
            "--exponents", "5,1,1", "--output", "json",
        )
        payload = json.loads(out)
        assert payload["value"] == "672"
        assert payload["chain"] == [[2, 5], [3, 1], [7, 1]]
        assert payload["failure"] is None

    def test_extract(self, capsys):
        code, out, _ = run_cli(
            capsys, "signature", "extract", "672", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p1"] == 2
        assert payload["exponents"] == [5, 1, 1]
        assert payload["chain_primes"] == [2, 3, 7]

    def test_extract_non_primitive_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "signature", "extract", "210")
        assert code == 1
        assert "not primitive" in err

    def test_bad_exponent_token(self, capsys):
        code, _, err = run_cli(
            capsys, "signature", "reconstruct",
            "--alpha", "3", "--p1", "2", "--exponents", "5,x,1",
        )
        assert code == 1
        assert "'x'" in err

    def test_nonprime_p1_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "signature", "reconstruct",
            "--alpha", "3", "--p1", "4", "--exponents", "1",
        )
        assert code == 1
        assert "not prime" in err


class TestClassifyAndDecompose:
    def test_classify_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "672", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "3"
        assert payload["status"] == "multiperfect"
        assert payload["primitive"] is True

    def test_classify_rational(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2", "--output", "json")
        payload = json.loads(out)
        assert payload["alpha"] == "3/2"
        assert payload["status"] == "not_multiperfect"
        assert payload["rational_multiperfect"] is True

    def test_decompose_json(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "210", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert [part["n"] for part in payload["parts"]] == ["6"]
        assert payload["parts"][0]["multiplier"] == 2
        assert payload["leftover"]["n"] == "35"
        assert payload["leftover_is_multiperfect"] is False


class TestBoundsCommand:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--alpha", "2", "--max-r", "3", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "2"
        assert len(payload["rows"]) == 3
        row = payload["rows"][1]
        assert row["r"] == 2
        assert row["absolute_count_bound"] == "131072"
        assert row["chain_check"] is True

    def test_table_with_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--alpha", "3/2", "--max-r", "2",
            "--limit", "1000", "--output", "table",
        )
        assert code == 0
        assert "alpha = 3/2" in out

    def test_r20_past_the_int_string_limit(self, capsys):
        # 2*4^8000 has 4817 digits, more than int <-> str converts by default
        for output in ("json", "csv", "table"):
            code, out, _ = run_cli(
                capsys, "bounds", "--alpha", "2", "--max-r", "20",
                "--output", output,
            )
            assert code == 0
            if output == "json":
                value = json.loads(out)["rows"][19]["absolute_count_bound"]
            elif output == "csv":
                value = list(csv.reader(io.StringIO(out)))[20][4]
            else:
                assert "r=20" in out and "absolute <= 6.038938674478456e+4816" in out
                continue
            assert int(Decimal(value)) == 2 * 4**8000

    @pytest.mark.parametrize("k", [2, 3])
    def test_table_rounds_the_absolute_bound_up(self, capsys, k):
        code, out, _ = run_cli(capsys, "bounds", "--alpha", str(k), "--max-r", "20")
        assert code == 0
        printed = re.findall(r"^r=\s*(\d+) .* absolute <= (\S+) ", out, re.M)
        assert [int(r) for r, _ in printed] == list(range(1, 21))
        for r, text in printed[3:]:
            value = Decimal(text)
            ulp = Decimal((0, (1,), value.as_tuple().exponent))
            assert value - ulp < k * 4 ** (int(r) ** 3) <= value

    @pytest.mark.parametrize("alpha, max_r, limit", [("2", 21, None), ("3/2", 6, 10**6)])
    def test_rows_are_the_bound_reports(self, capsys, alpha, max_r, limit):
        argv = ["bounds", "--alpha", alpha, "--max-r", str(max_r), "--output", "json"]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == max_r
        for r, row in enumerate(rows, start=1):
            report = bound_report(Fraction(alpha), r, limit)
            expected = {
                "r": r,
                "count_coefficient": interval_json(report.f_values[r]),
                "primitive_count_bound": interval_json(report.primitive_count),
            }
            if report.multiperfect_count is not None:
                expected["multiperfect_count_bound"] = interval_json(
                    report.multiperfect_count
                )
            if report.absolute_count is not None:
                expected["absolute_count_bound"] = str(Decimal(report.absolute_count))
                expected["chain_check"] = all(
                    ok for _, ok in report.chain_inequalities
                )
            assert row == expected
        if alpha == "2":
            assert "multiperfect_count_bound" in rows[20]
            assert "absolute_count_bound" not in rows[20]
            assert "chain_check" not in rows[20]
        else:
            assert all("multiperfect_count_bound" not in row for row in rows)

    @pytest.mark.parametrize("max_r", ["0", "-1"])
    def test_max_r_must_be_positive(self, capsys, max_r):
        code, out, err = run_cli(capsys, "bounds", "--alpha", "2", "--max-r", max_r)
        assert code == 1
        assert out == ""
        assert "--max-r" in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--alpha", "2", "--max-r", "2", "--output", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "r"
        assert len(rows) == 3

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_only_the_table_shortens(self, capsys, monkeypatch, output):
        # json and csv print the full digits; only the table's lines are built
        # through _shorten, so the other forms never call it.
        def refuse(digits):
            raise AssertionError("_shorten called")

        monkeypatch.setattr(cli, "_shorten", refuse)
        code, out, _ = run_cli(
            capsys, "bounds", "--alpha", "2", "--max-r", "20", "--output", output
        )
        assert code == 0
        assert str(Decimal(2 * 4**8000))[:20] in out


class TestVerifyCommand:
    def test_summary_embeds_both_routes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "3", "--limit", "1000000",
            "--max-omega", "8", "--jobs", "1", "--quiet",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["primitive_set_equal"] is True
        assert [r["n"] for r in payload["oracle"]] == ["120", "672", "523776"]
        assert [r["n"] for r in payload["chain"]] == ["120", "672", "523776"]
        assert payload["exhaustive"] is True
        assert payload["bound_checks"]
        assert all(c["passed"] for c in payload["bound_checks"])
        assert payload["nodes_explored"] > 0

    @pytest.mark.parametrize("output", ["table", "csv"])
    def test_output_is_json_only(self, capsys, output):
        code, out, err = run_cli(
            capsys, "verify", "--alpha", "3", "--limit", "1000",
            "--max-omega", "4", "--jobs", "1", "--output", output,
        )
        assert code == 1
        assert out == ""
        assert "--output" in err


class TestArgumentErrors:
    def test_bad_alpha_names_token(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--alpha", "3/x", "--limit", "10")
        assert code == 1
        assert "3/x" in err

    def test_alpha_must_exceed_one(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--alpha", "1", "--limit", "10")
        assert code == 1
        assert "alpha" in err

    def test_float_limit_rejected(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--alpha", "2", "--limit", "1e6")
        assert code == 1
        assert "1e6" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--alpha", "2", "--limit", "10", "--frobnicate"
        )
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize("command", ["chain-search", "verify"])
    def test_oversized_max_omega_exits_1(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "--alpha", "4", "--limit", "1000000",
            "--max-omega", "1000000000", "--jobs", "1",
        )
        assert code == 1
        assert out == ""
        assert "max_omega 1000000000" in err


class TestFailureExits:
    def test_recursion_limit_exits_2(self, capsys, monkeypatch):
        def too_deep(walk, product, sigma_prod):
            raise RecursionError

        monkeypatch.setattr(search._Walk, "visit", too_deep)
        code, _, err = run_cli(
            capsys, "chain-search", "--alpha", "3", "--limit", "1000000",
            "--max-omega", "6", "--jobs", "1",
        )
        assert code == 2
        assert "NON-EXHAUSTIVE" in err and ": recursion limit" in err
        assert "factorization budget" not in err

    def test_factorization_budget_hit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 0)
        # 1000003 * 1000033: both primes lie past trial division.
        code, out, err = run_cli(capsys, "classify", "1000036000099")
        assert code == 2
        assert out == ""
        assert "1000036000099" in err and "factorization budget" in err

    def test_unsettled_bound_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_PRECISION", 8)
        monkeypatch.setattr(bounds, "_MAX_PRECISION", 16)
        code, out, err = run_cli(capsys, "bounds", "--alpha", "2", "--max-r", "3")
        assert code == 3
        assert out == ""
        assert "ArithmeticError: interval evaluation did not stabilize" in err


class TestJobsResolution:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--alpha", "2", "--limit", "1000"],
            ["chain-search", "--alpha", "2", "--limit", "1000", "--max-omega", "4"],
            ["verify", "--alpha", "2", "--limit", "1000", "--max-omega", "4"],
        ],
        ids=["scan", "chain-search", "verify"],
    )
    def test_jobs_must_be_positive(self, capsys, argv, jobs):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("value", ["0", "1_0", " +3"])
    @pytest.mark.parametrize("command", ["chain-search", "verify"])
    def test_max_omega_must_be_plain_positive(self, capsys, command, value):
        code, out, err = run_cli(
            capsys, command, "--alpha", "2", "--limit", "1000", "--max-omega", value,
            "--jobs", "1",
        )
        assert code == 1
        assert out == ""
        assert "--max-omega" in err

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_env_jobs_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MPS_JOBS", value)
        code, out, err = run_cli(capsys, "scan", "--alpha", "2", "--limit", "1000")
        assert code == 1
        assert out == ""
        assert "MPS_JOBS" in err and value in err

    def test_jobs_flag_takes_precedence_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MPS_JOBS", "abc")
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "2", "--limit", "10000", "--jobs", "1",
            "--quiet",
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MPS_JOBS", "1")
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "2", "--limit", "10000", "--quiet"
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multiperfect", "classify", "28",
             "--output", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "multiperfect"
