import csv
import io
import json
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import hypharm.cli as cli_module
import hypharm.kernel as kernel_module
import hypharm.lemmas as lemmas_module
import hypharm.search as search_module
from hypharm.cli import _VERIFY_BOXES, main
from hypharm.kernel import decode_dyadic
from hypharm.report import decode_fraction, encode_value, results_bytes
from hypharm.search import SearchConfig, select_moduli
from hypharm.sums import MAX_PRECISION_BITS, epsilon


def run_cli(args, tmp_path, name="out.json", fmt="json"):
    out = tmp_path / name
    code = main(args + ["--format", fmt, "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_search_exit_zero_and_report_shape(tmp_path):
    code, text = run_cli(["search", "--max-n", "100", "--exponent", "2"], tmp_path)
    assert code == 0
    document = json.loads(text)
    assert document["manifest"]["subcommand"] == "search"
    (result,) = document["results"]
    assert result["interval_count"] == 100 * 101 // 2
    assert result["exact_collision_pairs"] == []
    assert len(result["moduli"]) == 3


def test_search_harmonic_exit_zero(tmp_path):
    code, text = run_cli(["search", "--max-n", "100", "--exponent", "1"], tmp_path)
    assert code == 0
    assert json.loads(text)["results"][0]["exact_collision_pairs"] == []


def test_search_usage_error_exit_two(tmp_path, capsys):
    assert main(["search", "--max-n", "1"]) == 2


def test_search_beyond_physical_memory_exits_two_before_any_work(monkeypatch, capsys):
    # 5e13 windows would need 400 TB of residues; the guard must fire
    # before the moduli, the prefix arrays or the key column exist
    def unreachable(*args):
        raise AssertionError("search started work past the memory guard")

    monkeypatch.setattr(search_module, "select_moduli", unreachable)
    monkeypatch.setattr(search_module, "prefix_residues", unreachable)
    assert main(["search", "--max-n", "10000000"]) == 2
    assert "physical memory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bertrand", "--n-max", "1000000"],
        ["prime-window", "--n-span", "1000000"],
        ["large-prime-window", "--n-span", "1000000"],
    ],
)
def test_prime_boxes_beyond_physical_memory_exit_two_before_sieving(monkeypatch, capsys, argv):
    # with 1 MiB of memory, neither a 2 MB prime table nor an 8 MB factor
    # table fits; the guard must refuse them before any sieve runs
    def unreachable(*args):
        raise AssertionError("a prime table was built past the memory guard")

    monkeypatch.setattr(kernel_module, "physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(kernel_module, "_sieve_table", unreachable)
    assert main(["verify", "--lemma", *argv]) == 2
    assert "physical memory" in capsys.readouterr().err


def run_capped(argv, address_space):
    """Run the CLI in a child whose soft RLIMIT_AS is `address_space` bytes."""

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (address_space, hard))

    return subprocess.run(
        [sys.executable, "-m", "hypharm", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
    )


def test_bertrand_beyond_the_address_space_limit_exits_two_before_sieving():
    # a 4 GB prime table does not fit under a 2 GiB RLIMIT_AS, which binds
    # on any machine with more physical memory than that; the guard must
    # refuse the table instead of letting the sieve raise MemoryError
    proc = run_capped(["verify", "--lemma", "bertrand", "--n-max", "2000000000"], 2 << 30)
    assert proc.returncode == 2, proc.stderr
    assert "address-space limit (RLIMIT_AS)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bertrand_beyond_the_address_space_headroom_exits_two_before_sieving():
    # the 170 MB table peaks at 255 MB while it is built: under a 256 MiB
    # RLIMIT_AS, of which about 22 MB is mapped before the sweep starts,
    # the guard must compare against what is left, not the whole limit
    proc = run_capped(["verify", "--lemma", "bertrand", "--n-max", "85000000"], 256 << 20)
    assert proc.returncode == 2, proc.stderr
    assert "left under the address-space limit (RLIMIT_AS)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_search_guard_bounds_the_moduli_before_choosing_them(monkeypatch, capsys):
    # 10^8 prefix arrays of 1001 entries need 800 GB; no modulus may be drawn
    def unreachable(*args):
        raise AssertionError("search chose moduli past the memory guard")

    monkeypatch.setattr(search_module, "select_moduli", unreachable)
    assert main(["search", "--max-n", "1000", "--moduli", "100000000"]) == 2
    assert "100000000 prefix arrays" in capsys.readouterr().err


def test_search_guard_charges_the_equality_mask(monkeypatch, capsys):
    # the sort's equality mask adds 1 B per window to the 8 B column, so
    # memory for 8.5 B per window must be refused
    count = 1000 * 1001 // 2
    monkeypatch.setattr(kernel_module, "physical_memory", lambda: 17 * count // 2)
    assert main(["search", "--max-n", "1000"]) == 2
    assert "physical memory" in capsys.readouterr().err


def test_search_stats_go_to_the_manifest_not_the_results(tmp_path):
    code, text = run_cli(["search", "--max-n", "120", "--seed", "5"], tmp_path)
    assert code == 0
    document = json.loads(text)
    stats = document["manifest"]["stats"]
    assert set(stats) == {
        "fill_s", "sort_s", "confirm_s", "duplicate_keys",
        "screen_groups", "largest_group", "exact_confirmations",
    }
    assert stats["screen_groups"] == stats["largest_group"] == stats["exact_confirmations"] == 0
    config = SearchConfig(max_n=120, seed=5)
    expected = [
        {
            "config": {"max_n": 120, "exponent": 2, "modulus_count": 3, "seed": 5},
            "moduli": list(select_moduli(config)),
            "interval_count": 120 * 121 // 2,
            "screen_collision_pairs": [],
            "exact_collision_pairs": [],
        }
    ]
    assert results_bytes(document["results"]) == results_bytes(expected)

    _, csv_text = run_cli(["search", "--max-n", "120"], tmp_path, name="out.csv", fmt="csv")
    assert any(line.startswith("# stats={") for line in csv_text.splitlines())
    _, search_text = run_cli(["search", "--max-n", "20"], tmp_path, name="s.txt", fmt="text")
    assert "  stats: {" in search_text
    _, verify_text = run_cli(
        ["verify", "--lemma", "power-sums", "--r-max", "10"], tmp_path, name="v.txt", fmt="text"
    )
    assert "stats" not in verify_text


def test_importing_the_cli_does_not_load_numpy():
    probe = "import sys, hypharm.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_lemma_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "bogus"])
    assert exc.value.code == 2


def test_positivity_chain_alias_is_gone():
    # it ran exactly the e11-search sweep under a second name
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "positivity-chain"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--max-n", "10", "--precision-bits", "64"],
        ["eta", "--a", "3", "--seed", "1"],
        ["decompose", "--a1", "1", "--r", "0", "--a2", "2", "--s", "0", "--seed", "0"],
        ["reduce", "--a1", "2", "--r", "3", "--a2", "4", "--s", "5", "--precision-bits", "8"],
    ],
    ids=["search-precision", "eta-seed", "decompose-seed", "reduce-precision"],
)
def test_flags_a_subcommand_never_reads_exit_two(argv, capsys):
    # --seed exists only on search and verify, --precision-bits only on
    # verify and eta; elsewhere they used to be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--max-n", "1"],
        ["verify", "--lemma", "bertrand", "--n-max", "1"],
        ["eta", "--a", "0"],
        ["decompose", "--a1", "2", "--r", "3", "--a2", "4", "--s", "5"],
        ["reduce", "--a1", "1", "--r", "0", "--a2", "5", "--s", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_usage_errors_exit_two_with_one_message_and_no_report(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"hypharm {argv[0]}: ") and err.count("\n") == 1, err


def test_unwritable_output_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.json"
    assert main(["verify", "--lemma", "power-sums", "--r-max", "3", "--output", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("hypharm verify: ") and str(missing) in err


def test_eta_that_cannot_bracket_exits_one_without_a_report(monkeypatch, capsys):
    def uncertified(interval, bits):
        raise ArithmeticError(f"could not certify eta for {interval}")

    monkeypatch.setattr(cli_module, "eta_band_report", uncertified)
    assert main(["eta", "--a", "3", "--r", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypharm eta: bracketing failed: could not certify eta")


@pytest.mark.parametrize("bits", [0, -3, MAX_PRECISION_BITS + 1, 5000])
def test_precision_bits_outside_the_ceiling_exit_two(bits, capsys):
    # at 0 bits the bracket identity used to "hold"; at 5000 it reported
    # inconclusive pairs and exit 1
    argv = ["verify", "--lemma", "bracket-identity", "--pairs", "2", "--precision-bits", str(bits)]
    assert main(argv) == 2
    assert "--precision-bits" in capsys.readouterr().err
    assert main(["eta", "--a", "3", "--r", "1", "--precision-bits", str(bits)]) == 2


def test_precision_bits_at_the_ceiling_is_accepted(tmp_path):
    code, text = run_cli(
        ["eta", "--a", "3", "--r", "1", "--precision-bits", str(MAX_PRECISION_BITS)], tmp_path
    )
    assert code == 0
    assert json.loads(text)["results"][0]["eta_width_bits_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["lcm-bound", "--a-max", "0"],
        ["prime-window", "--k-max", "0"],
        ["prime-window", "--n-span", "0"],
        ["eta-band", "--a-max", "-3"],
        ["bracket-identity", "--pairs", "0"],
        ["bracket-identity", "--pairs", "2", "--max-total", "1"],
        ["decompose", "--pairs", "2", "--max-total", "-5"],
        ["power-sums", "--r-max", "0"],
        ["e11-search", "--a-max", "0"],
        ["bertrand", "--n-max", "1"],
        ["large-prime-window", "--n-span", "-1"],
    ],
)
def test_empty_verify_box_exits_two(argv, capsys):
    assert main(["verify", "--lemma", *argv]) == 2
    assert "leaves nothing to check" in capsys.readouterr().err


BOX_FLAGS = ("n-max", "k-max", "n-span", "a-max", "b-max", "r-max", "w-max", "pairs", "max-total")


def test_box_flags_a_lemma_ignores_exit_two(capsys):
    # e.g. `--lemma bertrand --k-max 5` used to run bertrand and drop --k-max
    assert {flag.replace("-", "_") for flag in BOX_FLAGS} == {
        name for box in _VERIFY_BOXES.values() for name in box
    }
    for lemma, box in _VERIFY_BOXES.items():
        for flag in BOX_FLAGS:
            if flag.replace("-", "_") in box:
                continue
            assert main(["verify", "--lemma", lemma, f"--{flag}", "5"]) == 2, (lemma, flag)
            assert f"--{flag} does not apply to --lemma {lemma}" in capsys.readouterr().err


def test_smallest_verify_boxes_check_something(tmp_path):
    # the common flags are accepted by every lemma, whether it reads them or not
    for lemma, box in _VERIFY_BOXES.items():
        argv = ["verify", "--lemma", lemma, "--seed", "3", "--precision-bits", "48"]
        for name, (_, least) in box.items():
            argv += [f"--{name.replace('_', '-')}", str(least)]
        code, text = run_cli(argv, tmp_path)
        assert code in (0, 1), lemma
        assert all(result["checked"] >= 1 for result in json.loads(text)["results"]), lemma


def test_verify_power_sums_exit_zero(tmp_path):
    code, text = run_cli(["verify", "--lemma", "power-sums", "--r-max", "100"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["holds"] and result["checked"] == 300


def test_verify_lcm_bound_exit_zero(tmp_path):
    code, text = run_cli(
        ["verify", "--lemma", "lcm-bound", "--a-max", "10", "--b-max", "10", "--n-max", "8"],
        tmp_path,
    )
    assert code == 0


def test_verify_eta_band_reports_known_falsification(tmp_path):
    # the quadratic-form upper band genuinely fails at small starts; the
    # checker must exit 1 and list the instances
    code, text = run_cli(["verify", "--lemma", "eta-band", "--a-max", "2", "--r-max", "2"], tmp_path)
    assert code == 1
    results = json.loads(text)["results"]
    assert [r["claim"] for r in results] == ["eta-enclosure", "eta-band"]
    band = next(r for r in results if r["claim"] == "eta-band")
    assert any(f["a"] == 1 and f["r"] == 1 for f in band["failures"])
    enclosures = next(r for r in results if r["claim"] == "eta-enclosure")
    assert enclosures["holds"]


def test_verify_large_prime_window_reports_counterexample(tmp_path):
    code, text = run_cli(
        ["verify", "--lemma", "large-prime-window", "--k-max", "5", "--n-span", "100"],
        tmp_path,
    )
    assert code == 1
    (result,) = json.loads(text)["results"]
    assert result["failures"] == [{"n": 8, "k": 1}]


def test_eta_subcommand(tmp_path):
    code, text = run_cli(["eta", "--a", "5", "--r", "0"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["strict_inside"] is False
    assert result["eta_width_bits_ok"] is True
    assert decode_fraction(result["band"]["expr_exact"]) == 0

    code, text = run_cli(["eta", "--a", "1", "--r", "3", "--precision-bits", "128"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["strict_inside"] is True
    assert result["eta_width_bits_ok"] is True  # width <= 2^-128
    # the bracket ends are reported at the requested precision
    assert result["epsilon_low"] == encode_value(epsilon(1, 128))
    assert result["epsilon_high"] == encode_value(epsilon(4, 128))
    low = {end: decode_dyadic(text) for end, text in result["epsilon_low"].items()}
    assert low["hi"] - low["lo"] <= Fraction(1, 2**128)

    assert main(["eta", "--a", "0", "--r", "1"]) == 2


def test_decompose_subcommand(tmp_path):
    code, text = run_cli(["decompose", "--a1", "1", "--r", "0", "--a2", "2", "--s", "0"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert decode_fraction(result["difference"]) == decode_fraction("3/4")
    assert result["sum_matches_difference"] is True
    assert result["e11"] is False

    assert main(["decompose", "--a1", "2", "--r", "3", "--a2", "4", "--s", "5"]) == 2


def test_decompose_flags_identity_solutions(tmp_path):
    code, text = run_cli(["decompose", "--a1", "12", "--r", "3", "--a2", "22", "--s", "19"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["e11"] is True and result["rewrites_verified"] is True
    assert result["chain_hypothesis_failures"] == ["a2 >= 4(s+1)^3"]


def test_decompose_certifies_chain_on_eligible_quadruple(tmp_path):
    code, text = run_cli(
        ["decompose", "--a1", "14451", "--r", "0", "--a2", "59575", "--s", "16"], tmp_path
    )
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["e11"] is True
    assert result["chain_hypothesis_failures"] == []
    assert result["chain_bounds"] and all(result["chain_bounds"].values())
    assert decode_fraction(result["difference"]) > 0


@pytest.mark.parametrize(
    "quad", [(1, 0, 2, 0), (12, 3, 22, 19), (14451, 0, 59575, 16)], ids=["plain", "e11", "chain"]
)
def test_decompose_computes_its_decomposition_once(monkeypatch, tmp_path, quad):
    calls = []
    original = lemmas_module.taylor_decompose

    def counted(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(lemmas_module, "taylor_decompose", counted)
    a1, r, a2, s = map(str, quad)
    code, _ = run_cli(["decompose", "--a1", a1, "--r", r, "--a2", a2, "--s", s], tmp_path)
    assert code == 0
    assert len(calls) == 1


def test_reduce_subcommand(tmp_path):
    code, text = run_cli(["reduce", "--a1", "2", "--r", "3", "--a2", "4", "--s", "5"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert result["reduced"] == {"first": {"a": 2, "r": 1}, "second": {"a": 6, "r": 3}}
    assert result["difference_preserved"] is True

    assert main(["reduce", "--a1", "1", "--r", "0", "--a2", "5", "--s", "0"]) == 2


def test_json_report_round_trips(tmp_path):
    _, text = run_cli(["search", "--max-n", "50"], tmp_path)
    document = json.loads(text)
    assert json.loads(json.dumps(document, sort_keys=True, indent=2)) == document
    # canonical result payloads are stable under parse/re-encode
    payload = json.dumps(document["results"], sort_keys=True, separators=(",", ":")).encode()
    assert payload == json.dumps(
        json.loads(payload.decode()), sort_keys=True, separators=(",", ":")
    ).encode()


def test_csv_and_json_carry_the_same_data(tmp_path):
    _, json_text = run_cli(["verify", "--lemma", "power-sums", "--r-max", "30"], tmp_path)
    _, csv_text = run_cli(
        ["verify", "--lemma", "power-sums", "--r-max", "30"], tmp_path, name="out.csv", fmt="csv"
    )
    json_rows = json.loads(json_text)["results"]
    data_lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    csv_rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    assert len(csv_rows) == len(json_rows)
    for json_row, csv_row in zip(json_rows, csv_rows):
        assert csv_row["claim"] == json_row["claim"]
        assert int(csv_row["checked"]) == json_row["checked"]
        assert csv_row["holds"] == str(json_row["holds"])


def test_text_format_prints_outcome(tmp_path, capsys):
    code = main(["search", "--max-n", "20", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no exact collisions" in out


def test_reruns_emit_identical_result_payloads(tmp_path):
    _, first = run_cli(["search", "--max-n", "120", "--seed", "5"], tmp_path, name="a.json")
    _, second = run_cli(["search", "--max-n", "120", "--seed", "5"], tmp_path, name="b.json")
    payload = lambda text: json.dumps(json.loads(text)["results"], sort_keys=True)
    assert payload(first) == payload(second)
