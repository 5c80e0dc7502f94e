import ast
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hypharm.cli as cli_module
import hypharm.kernel as kernel_module
import hypharm.lemmas as lemmas_module
import hypharm.search as search_module
import hypharm.sums as sums_module
from hypharm.cli import _VERIFY, main
from hypharm.kernel import decode_dyadic, unlimited_digits
from hypharm.report import RunManifest, decode_fraction, encode_value, render, results_bytes
from hypharm.search import SearchConfig, select_moduli
from hypharm.sums import (
    MAX_PRECISION_BITS,
    CertificateError,
    Interval,
    IntervalPair,
    epsilon,
    eta_band_report,
    g_exact,
)

import oracles


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
    # N = 10^5 is charged 7.34 MB (a largest block of 95,635 windows at
    # 60 B each, 16 B per integer), more than a 4 MiB machine has, while
    # its prime table and the partition's per-integer 1.6 MB fit; the
    # guard must fire before the moduli, the prefix array or any block's
    # residues exist
    def unreachable(*args):
        raise AssertionError("search started work past the memory guard")

    monkeypatch.setattr(kernel_module, "physical_memory", lambda: 4 << 20)
    monkeypatch.setattr(search_module, "select_moduli", unreachable)
    monkeypatch.setattr(search_module, "prefix_residues", unreachable)
    assert main(["search", "--max-n", "100000"]) == 2
    err = capsys.readouterr().err
    assert "the largest screen block of 95635 windows needs 7338116 bytes" in err
    assert "physical memory" in err


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


def test_e11_search_beyond_the_address_space_headroom_exits_two_before_grouping():
    # 10^6 windows are charged 480 MB, more than is left under a 256 MiB
    # RLIMIT_AS; the guard must refuse the box instead of letting the
    # grouping raise MemoryError part way through
    argv = ["verify", "--lemma", "e11-search", "--a-max", "1000000", "--w-max", "0"]
    proc = run_capped(argv, 256 << 20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "the identity search over 1000000 windows needs 480000000 bytes" in proc.stderr
    assert "left under the address-space limit (RLIMIT_AS)" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--a1", "1", "--r", str(10**400), "--a2", "2", "--s", str(10**400)],
        ["eta", "--a", "1", "--r", str(10**40)],
        ["eta", "--a", "1", "--r", "9" * 4300],
    ],
    ids=["reduce", "eta", "eta-4300-digits"],
)
def test_window_too_long_to_sum_exits_two_before_summing(argv):
    # the unreduced sum of 10^40 or more terms cannot fit in memory; it
    # used to end in a RecursionError (reduce) or run without end (eta).
    # A 4,300-digit r is the longest argparse accepts; the byte count is
    # named as a power of two, not in all of its digits.
    proc = subprocess.run(
        [sys.executable, "-m", "hypharm", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert f"hypharm {argv[0]}: the unreduced sum of a window" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert all(len(line) < 200 for line in proc.stderr.splitlines()), proc.stderr


def test_search_guard_bounds_the_moduli_before_choosing_them(monkeypatch, capsys):
    # drawing a modulus scans the ones already drawn, so 10^8 of them would
    # never finish, whatever the memory; the count is refused before any
    # modulus is drawn, on any machine
    def unreachable(*args):
        raise AssertionError("search chose moduli past the count bound")

    true_select_moduli = search_module.select_moduli
    monkeypatch.setattr(search_module, "select_moduli", unreachable)
    for count in ("100000000", "65"):
        assert main(["search", "--max-n", "10", "--moduli", count]) == 2
        err = capsys.readouterr().err
        assert f"{count} moduli" in err and err.count("\n") == 1
    monkeypatch.setattr(search_module, "select_moduli", true_select_moduli)
    assert main(["search", "--max-n", "10", "--moduli", "64"]) == 0


def _largest_screen_block(n):
    # the end blocks are not screened: the largest gap block with its
    # probes, of the windows that hold no marked integer
    return max(level["gap_windows"] + level["probe_windows"] for level in oracles.screen_levels(n))


def test_search_guard_charges_the_largest_block(monkeypatch, capsys):
    # 60 B per window of the largest block that the rule keeps (its
    # residue's list slot, int object and sort scratch), plus 16 B per
    # integer up to N for the first modulus' prefix array, the marks and
    # the prime list: one byte less is refused, and the search runs at
    # exactly that much
    assert _largest_screen_block(1000) == 1464
    charge = 60 * _largest_screen_block(1000) + 16 * 1001
    assert charge == 103_856
    monkeypatch.setattr(kernel_module, "physical_memory", lambda: charge - 1)
    assert main(["search", "--max-n", "1000"]) == 2
    assert f"needs {charge} bytes" in capsys.readouterr().err
    monkeypatch.setattr(kernel_module, "physical_memory", lambda: charge)
    assert main(["search", "--max-n", "1000"]) == 0


def test_search_stats_go_to_the_manifest_not_the_results(tmp_path):
    code, text = run_cli(["search", "--max-n", "120", "--seed", "5"], tmp_path)
    assert code == 0
    document = json.loads(text)
    stats = document["manifest"]["stats"]
    assert set(stats) == {
        "prefix_s", "fill_s", "sort_s", "confirm_s", "levels", "largest_block", "gap_windows",
        "probe_windows", "dropped_windows", "level_windows", "duplicate_keys", "screen_groups",
        "largest_group", "exact_confirmations", "peak_rss_kb",
    }
    assert stats["screen_groups"] == stats["largest_group"] == stats["exact_confirmations"] == 0
    levels = oracles.screen_levels(120)
    assert stats["levels"] == len(levels) and stats["largest_block"] == _largest_screen_block(120)
    assert stats["gap_windows"] == sum(level["gap_windows"] for level in levels) > 0
    assert stats["probe_windows"] == sum(level["probe_windows"] for level in levels) > 0
    # every window by reason, level by level: the end blocks, and the gap
    # windows and probes, which the rule drops or the block screens
    accounts = [
        {
            "top": level["top"],
            "end_windows": sum(level["ends"].values()),
            "block_windows": level["gap_total"] + level["probe_total"],
            "dropped_windows": level["gap_total"] + level["probe_total"]
            - level["gap_windows"] - level["probe_windows"],
            "screened_windows": level["gap_windows"] + level["probe_windows"],
        }
        for level in levels
    ]
    assert stats["level_windows"] == accounts
    assert stats["dropped_windows"] == sum(account["dropped_windows"] for account in accounts) > 0
    gap_totals = sum(level["gap_total"] for level in levels)
    assert sum(account["end_windows"] for account in accounts) + gap_totals + 1 == 120 * 121 // 2
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


def _loaded_after(statements: str, names) -> set:
    """Those of the module `names` a fresh interpreter loads while it runs `statements`."""
    probe = (
        f"import sys; before = set(sys.modules); {statements}; "
        f"print(*(set(sys.modules) - before) & {set(names)!r})"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_does_not_load_numpy():
    # nor compile the search's block screen, which only `search` needs, nor
    # load dataclasses and the inspect it imports: every record is a named
    # tuple.  The benchmark's tracer wraps functions of search and report,
    # which only `import hypharm.cli` loads in its child; lemmas is loaded
    # by `verify` and `decompose` alone.
    names = ("numpy", "hypharm.screen", "dataclasses", "inspect", "hypharm.lemmas")
    loaded = _loaded_after("import hypharm.cli", names + ("hypharm.search", "hypharm.report"))
    assert loaded == {"hypharm.search", "hypharm.report"}
    # nor do the modules the benchmark's child imports besides the cli
    child = "import hypharm.cli, hypharm.lemmas, hypharm.report"
    assert _loaded_after(child, ("dataclasses", "inspect")) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--a", "1", "--r", "3"],
        ["reduce", "--a1", "1", "--r", "5", "--a2", "3", "--s", "6"],
        ["search", "--max-n", "10"],
    ],
    ids=["eta", "reduce", "search"],
)
def test_subcommands_without_a_lemma_do_not_load_the_lemmas(argv):
    run = f"from hypharm.cli import main; assert main({argv + ['--output', os.devnull]!r}) == 0"
    assert _loaded_after(run, ("hypharm.lemmas",)) == set()


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
        ["decompose", "--a1", "1", "--r", "5", "--a2", "2", "--s", "1"],
        ["decompose", "--a1", "3", "--r", "2", "--a2", "3", "--s", "4"],
        ["reduce", "--a1", "1", "--r", "0", "--a2", "5", "--s", "0"],
    ],
    ids=["search", "verify", "eta", "decompose", "decompose-inside", "decompose-one-start", "reduce"],
)
def test_usage_errors_exit_two_with_one_message_and_no_report(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"hypharm {argv[0]}: ") and err.count("\n") == 1, err
    if argv[0] == "decompose":
        # `hypharm reduce` is suggested only for a pair that it accepts
        assert ("hypharm reduce" in err) == (main(["reduce", *argv[1:]]) == 0), err


def test_decompose_accepts_touching_windows_and_names_an_overlap(tmp_path, capsys):
    # [1, 2] and [3, 4] touch but share no term: a disjoint pair
    code, _ = run_cli(["decompose", "--a1", "1", "--r", "1", "--a2", "3", "--s", "1"], tmp_path)
    assert code == 0
    assert main(["decompose", "--a1", "1", "--r", "2", "--a2", "3", "--s", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypharm decompose: windows overlap; ") and "touch" not in err, err


def test_search_bound_that_no_modulus_exceeds_exits_two_before_any_sieve(monkeypatch, capsys):
    # every modulus is drawn from [2^61, 2^62), so a bound of 2^61 would
    # leave select_moduli drawing without end; it is refused before the
    # search's memory guard or its sieve see it
    def unreachable(*args):
        raise AssertionError("search started work past the bound check")

    monkeypatch.setattr(cli_module, "search", unreachable)
    assert main(["search", "--max-n", str(2**61)]) == 2
    err = capsys.readouterr().err
    assert "2^61" in err and err.count("\n") == 1, err


def test_unwritable_output_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "out.json"
    assert main(["verify", "--lemma", "power-sums", "--r-max", "3", "--output", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("hypharm verify: ") and str(missing) in err


def test_eta_that_cannot_bracket_exits_one_without_a_report(monkeypatch, capsys):
    def uncertified(interval, bits):
        raise CertificateError(f"could not certify eta for {interval}")

    monkeypatch.setattr(cli_module, "eta_band_report", uncertified)
    assert main(["eta", "--a", "3", "--r", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypharm eta: could not certify eta")


def test_arithmetic_bug_in_eta_is_a_traceback_not_a_verdict(monkeypatch):
    # only CertificateError means "could not certify"; a ZeroDivisionError
    # is an ArithmeticError too, but it is a bug and must propagate
    def broken(interval):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(sums_module, "g_exact", broken)
    with pytest.raises(ZeroDivisionError):
        main(["eta", "--a", "3", "--r", "1"])


def test_verify_that_cannot_certify_exits_one_without_a_report(monkeypatch, capsys):
    # enclosures wider than the working precision, with their signs intact,
    # prove nothing either way: no falsified instance may be reported
    true_solve_eta = lemmas_module.solve_eta

    def widened(interval, precision_bits):
        solution = true_solve_eta(interval, precision_bits)
        d = 1 << (solution.k - 30)  # 2^-30 in units of the mantissas
        return solution._replace(lo=solution.lo - d, hi=solution.hi + d)

    monkeypatch.setattr(lemmas_module, "solve_eta", widened)
    assert main(["verify", "--lemma", "bracket-identity", "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypharm verify: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["eta", "--a", "3", "--r", "1"],
        ["verify", "--lemma", "eta-band", "--a-max", "2", "--r-max", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_eta_wider_than_the_precision_exits_one_without_a_report(monkeypatch, capsys, argv):
    # a square root widened by 2^12 units in the last place on each side
    # still holds the root, so every sign holds, but eta's enclosure is then
    # wider than 2^-64 and certifies nothing: not a result, not a failure
    true_sqrt = sums_module.sqrt_mantissas

    def widened(num, den, e):
        lo, hi = true_sqrt(num, den, e)
        return lo - 4096, hi + 4096

    monkeypatch.setattr(sums_module, "sqrt_mantissas", widened)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"hypharm {argv[0]}: ") and err.count("\n") == 1, err
    assert "wider than 2^-64" in err


_BROAD_EXCEPTIONS = {"Exception", "BaseException", "ArithmeticError"}


def test_no_broad_exception_handlers():
    # a broad handler turns a bug into a verdict; only named, narrow
    # failures (CertificateError, ValueError, OSError, ...) may be caught
    source = Path(cli_module.__file__).parent
    offenders = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            # the last dotted component, so `builtins.Exception` counts too
            names = {ast.unparse(c).rsplit(".", 1)[-1] for c in caught if c is not None}
            if node.type is None or names & _BROAD_EXCEPTIONS:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("bits", [0, -3, MAX_PRECISION_BITS + 1, 5000])
def test_precision_bits_outside_the_ceiling_exit_two(bits, capsys):
    # at 0 bits the bracket identity used to "hold"
    message = f"--precision-bits must lie in [1, {MAX_PRECISION_BITS}]"
    for argv in (
        ["verify", "--lemma", "bracket-identity", "--pairs", "2", "--precision-bits", str(bits)],
        ["verify", "--lemma", "eta-band", "--a-max", "2", "--precision-bits", str(bits)],
        ["eta", "--a", "3", "--r", "1", "--precision-bits", str(bits)],
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


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


BOX_FLAGS = (
    "n-max", "k-max", "n-span", "a-max", "b-max", "r-max", "w-max", "pairs", "max-total",
    "seed", "precision-bits",
)


def test_box_flags_a_lemma_ignores_exit_two(tmp_path, capsys):
    # e.g. `--lemma bertrand --k-max 5` used to run bertrand and drop --k-max, and
    # `--lemma power-sums --precision-bits 2000` was refused for its range, not
    # for a flag the lemma never reads: 2000 lies outside [1, MAX_PRECISION_BITS]
    assert {flag.replace("-", "_") for flag in BOX_FLAGS} == {
        name for flags, _ in _VERIFY.values() for name in flags
    }
    for lemma, (flags, _) in _VERIFY.items():
        for flag in BOX_FLAGS:
            if flag.replace("-", "_") in flags:
                continue
            code, text = run_cli(["verify", "--lemma", lemma, f"--{flag}", "2000"], tmp_path)
            assert (code, text) == (2, ""), (lemma, flag)
            assert f"--{flag} does not apply to --lemma {lemma}" in capsys.readouterr().err


def test_smallest_verify_boxes_check_something(tmp_path):
    # each lemma is given only the flags it reads: the least of a box flag,
    # and a seed and a precision other than their defaults
    for lemma, (flags, _) in _VERIFY.items():
        argv = ["verify", "--lemma", lemma]
        for name, (_, least) in flags.items():
            value = {"seed": 3, "precision_bits": 48}.get(name, least)
            argv += [f"--{name.replace('_', '-')}", str(value)]
        code, text = run_cli(argv, tmp_path)
        assert code in (0, 1), lemma
        document = json.loads(text)
        assert all(result["checked"] >= 1 for result in document["results"]), lemma
        # the manifest records only the seed and precision the lemma read
        manifest = document["manifest"]
        parameters = manifest["parameters"]
        assert ("seed" in parameters) == (lemma in ("bracket-identity", "decompose")), lemma
        assert ("precision_bits" in parameters) == (lemma in ("eta-band", "bracket-identity")), lemma
        assert manifest["seed"] == parameters.get("seed"), lemma
        assert parameters.get("seed", 3) == 3 and parameters.get("precision_bits", 48) == 48


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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["eta", "--a", "1", "--r", "3", "--precision-bits", "128"],
            "1903e2c3f2d57818f5c921e76e2c420b29021e844aedb77cc1908237ead1c47c",
        ),
        (
            ["eta", "--a", "40", "--r", "20"],
            "97f172a0cceca7d594a2f7dd815f046aa90d7d7fd3a2504f96a61806fdb3a004",
        ),
        (
            ["decompose", "--a1", "14451", "--r", "0", "--a2", "59575", "--s", "16"],
            "fab496311a02bf162261f74fc019368d4c40032bbfcbf1506aeea1b1e4a7555c",
        ),
        (
            ["decompose", "--a1", "1", "--r", "2", "--a2", "10", "--s", "3"],
            "3c167447b134248e05fd12cb18da6350ce48ae06aff83fafa43200451023fa51",
        ),
        (
            ["reduce", "--a1", "1", "--r", "5", "--a2", "3", "--s", "6"],
            "f090e427d05e2c97ba83904010243f75fba0c3f5c41383b1300580cc1b3b2499",
        ),
        (
            ["verify", "--lemma", "e11-search", "--a-max", "300", "--w-max", "30"],
            "a81cf7cdf80af5b81235e865d3827472376e53f2a6b217dd95927bfcef269b5f",
        ),
    ],
)
def test_eta_results_bytes_are_pinned(tmp_path, argv, digest):
    # The benchmark's golden digests cover search and verify, not eta,
    # decompose or reduce; the e11-search box is the benchmark's too, pinned
    # here so that the tests check its payload without the benchmark.  The
    # first decompose pair is the Pell image of (3,0,7,16), so all eight
    # chain bounds are certified; the second fails chain hypotheses.  The
    # reduce pair overlaps without nesting.
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    assert hashlib.sha256(results_bytes(json.loads(text)["results"])).hexdigest() == digest


def test_verify_eta_band_stats_go_to_the_manifest(tmp_path):
    argv = ["verify", "--lemma", "eta-band", "--a-max", "4", "--r-max", "3"]
    code, text = run_cli(argv, tmp_path)
    assert code == 1  # the quadratic band fails at a=1, r=1
    document = json.loads(text)
    manifest = document["manifest"]
    assert set(manifest["stats"]) == {"windows", "working_bits", "sweep_s"}
    assert manifest["stats"]["windows"] == 4 * 4 == document["results"][0]["checked"]
    assert manifest["stats"]["working_bits"] == 64 + 8 + 1  # w + 1, w = max(p + 8, ...)
    assert 0 < manifest["stats"]["sweep_s"] <= manifest["wall_time_s"]
    # at low precision the box's far corner sets w = 2*bitlen(300) + 8
    argv = ["verify", "--lemma", "eta-band", "--a-max", "300", "--r-max", "0",
            "--precision-bits", "8"]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    stats = json.loads(text)["manifest"]["stats"]
    assert stats["windows"] == 300 and stats["working_bits"] == 2 * 9 + 8 + 1


def test_eta_stats_go_to_the_manifest(tmp_path):
    # the square root's working bits, k - 1 of the solution: w + 1 with
    # w = max(p + 8, 2*bitlen(a+r) + 8); the results stay pinned above
    for argv, bits in (
        (["eta", "--a", "40", "--r", "20"], 64 + 8 + 1),
        (["eta", "--a", "1", "--r", "3", "--precision-bits", "128"], 128 + 8 + 1),
        (["eta", "--a", str(2**70), "--r", "1", "--precision-bits", "8"], 2 * 71 + 8 + 1),
    ):
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        document = json.loads(text)
        assert document["manifest"]["stats"] == {"working_bits": bits}
        ends = [decode_dyadic(end) for end in document["results"][0]["eta"].values()]
        assert all(end.denominator <= 2 ** (bits + 1) for end in ends)  # over 2^k, k = bits + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--max-n", "10", "--seed", "-3"],
        ["verify", "--lemma", "decompose", "--pairs", "3", "--seed", "-3"],
        ["verify", "--lemma", "bracket-identity", "--pairs", "3", "--seed", "-3"],
    ],
    ids=["search", "decompose", "bracket-identity"],
)
def test_negative_seed_exits_two(argv, capsys, monkeypatch):
    # random.Random(-3) draws the stream of seed 3, so a negative seed would
    # repeat another seed's moduli or pairs under its own name in the manifest
    monkeypatch.setattr(search_module, "select_moduli", None)  # refused before any draw
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hypharm {argv[0]}: seed -3 must be >= 0\n"


def test_verify_e11_search_stats_go_to_the_manifest(tmp_path):
    # of the 9,336 solutions in the lemma-mix box, 9,300 pair a window with
    # itself, 14 are disjoint and none meets the chain's hypotheses
    argv = ["verify", "--lemma", "e11-search", "--a-max", "300", "--w-max", "30"]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    document = json.loads(text)
    stats = document["manifest"]["stats"]
    assert set(stats) == {"windows", "nontrivial_solutions", "disjoint", "chain_eligible", "sweep_s"}
    (result,) = document["results"]
    assert stats["windows"] == 300 * 31 == 9300
    assert stats["nontrivial_solutions"] == result["checked"] - 9300 == 36
    assert stats["disjoint"] == len(result["notes"]["disjoint"]) == 14
    assert stats["chain_eligible"] == len(result["notes"]["chain_eligible"]) == 0
    assert 0 < stats["sweep_s"] <= document["manifest"]["wall_time_s"]
    assert set(result) == {"claim", "params", "checked", "holds", "failure_count", "failures", "notes"}


def test_records_encode_as_their_fields_alone():
    # the benchmark encodes a bare SweepResult; properties stay out
    sweep = lemmas_module.sweep_telescope(3)
    assert json.loads(results_bytes([sweep])) == [
        {
            "claim": "telescope",
            "params": {"n_max": 3, "precision_bits": 64},
            "checked": 3,
            "failures": [],
            "notes": {},
        }
    ]
    pair = IntervalPair(Interval(4, 1), Interval(1, 2))
    assert encode_value(pair) == {"first": {"a": 1, "r": 2}, "second": {"a": 4, "r": 1}}
    band = encode_value(eta_band_report(Interval(1, 1)))
    assert "all_hold" not in band and band["eta"]["interval"] == {"a": 1, "r": 1}
    assert encode_value(SearchConfig(max_n=5)) == {
        "max_n": 5,
        "exponent": 2,
        "modulus_count": 3,
        "seed": 0,
    }


def test_results_refuse_floats_while_the_manifest_keeps_its_timings(tmp_path):
    with pytest.raises(TypeError, match="float"):
        results_bytes([{"checked": 3, "share": 0.5}])
    manifest = RunManifest("verify", {}, "0", None, "", "", 0.25, "ok", {"sweep_s": 0.125})
    for fmt in ("json", "csv", "text"):
        with pytest.raises(TypeError, match="float"):
            render(manifest, [{"holds": True, "nested": [Fraction(1, 3), 1.5]}], fmt)
        assert "0.125" in render(manifest, [{"holds": True}], fmt)


def test_decompose_subcommand(tmp_path):
    code, text = run_cli(["decompose", "--a1", "1", "--r", "0", "--a2", "2", "--s", "0"], tmp_path)
    assert code == 0
    (result,) = json.loads(text)["results"]
    assert decode_fraction(result["difference"]) == decode_fraction("3/4")
    assert result["sum_matches_difference"] is True
    assert result["e11"] is False

    assert main(["decompose", "--a1", "2", "--r", "3", "--a2", "4", "--s", "5"]) == 2


# reports whose rationals have more than 4,300 digits, the interpreter's
# default limit on int/str conversion: argv and the key path of the rational
LONG_RATIONALS = {
    "eta": (["eta", "--a", "1", "--r", "8000"], ("band", "expr_exact")),
    "decompose": (
        ["decompose", "--a1", "1", "--r", "5000", "--a2", "6000", "--s", "5000"],
        ("difference",),
    ),
}


def _long_rational_expected(subcommand):
    if subcommand == "eta":
        return eta_band_report(Interval(1, 8000)).expr_exact
    return g_exact(Interval(1, 5000)) - g_exact(Interval(6000, 5000))


def _long_rational_reported(text, keys):
    value = json.loads(text)["results"][0]
    for key in keys:
        value = value[key]
    return decode_fraction(value)


def _digit_limit():
    # interpreters before CPython 3.10.7 have no limit
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("subcommand", sorted(LONG_RATIONALS))
def test_reports_hold_rationals_of_any_size(subcommand, tmp_path):
    argv, keys = LONG_RATIONALS[subcommand]
    limit = _digit_limit()
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    expected = _long_rational_expected(subcommand)
    assert abs(expected.numerator) >= 10**4300
    assert _long_rational_reported(text, keys) == expected
    assert _digit_limit() == limit


@pytest.mark.parametrize("subcommand", sorted(LONG_RATIONALS))
def test_reports_hold_rationals_of_any_size_under_a_low_digit_limit(subcommand):
    argv, keys = LONG_RATIONALS[subcommand]
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "hypharm", *argv, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert _long_rational_reported(proc.stdout, keys) == _long_rational_expected(subcommand)


def test_reports_hold_integers_of_any_size(tmp_path):
    # the reduced pair's second window starts at 10^4300, one digit past the limit
    a1, a2 = 10**4300 - 2, 10**4300 - 1
    argv = ["reduce", "--a1", str(a1), "--r", "1", "--a2", str(a2), "--s", "1"]
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    (result,) = unlimited_digits(json.loads)(text)["results"]
    assert result["reduced"] == {"first": {"a": a1, "r": 0}, "second": {"a": 10**4300, "r": 0}}


@pytest.mark.skipif(_digit_limit() is None, reason="no int/str digit limit on this interpreter")
def test_user_input_keeps_the_digit_limit(tmp_path, capsys):
    # encoding lifts the limit only while it runs, so a later parse still
    # refuses a 5,000-digit start
    assert run_cli(LONG_RATIONALS["eta"][0], tmp_path)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--a", "1" * 5000])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


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
