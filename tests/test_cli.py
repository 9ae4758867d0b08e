import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from latnaf import cli
from latnaf import digitset as dsm
from latnaf import nadscheck as ncm
from latnaf import numberfield as nfm
from latnaf.expansion import CycleReport
from latnaf.nadscheck import validate_cycle


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def base2(tmp_path):
    return write(tmp_path, "b2.json", {"base": {"minpoly": [-2, 1]}, "w": 2})


@pytest.fixture
def base3(tmp_path):
    return write(tmp_path, "b3.json", {"base": {"minpoly": [-3, 1]}, "w": 2})


@pytest.fixture
def quad(tmp_path):
    return write(tmp_path, "q.json", {"base": {"minpoly": [2, -1, 1]}, "w": 2})


def test_info_quadratic_exact_output(capsys, quad):
    code, out, _ = run(capsys, "info", "--instance", quad)
    assert code == 0
    assert out == (
        "n = 2\n"
        "char_poly = [2, -1, 1]\n"
        "det = 2\n"
        "expanding = true\n"
        "embedding_modulus_1 = [1.414213562373, 1.414213562374]\n"
        "inv_norm = [0.707106781186, 0.707106781187]\n"
        "w0 = 3\n"
        "r_sq = 1/2\n"
        "R_sq = 8/7\n"
        "r = [0.707106781186, 0.707106781187]\n"
        "R = [1.069044967649, 1.069044967650]\n"
        "tiling_w = 3\n"
    )


def test_info_not_expanding_stops_early(capsys, tmp_path):
    path = write(tmp_path, "id.json", {"base": {"matrix": [[1]]}, "w": 1})
    code, out, _ = run(capsys, "info", "--instance", path)
    assert code == 0
    assert "expanding = false" in out
    assert "w0" not in out


def test_info_linear_base(capsys, tmp_path):
    path = write(tmp_path, "l3.json", {"base": {"minpoly": [-3, 1]}, "w": 1})
    code, out, _ = run(capsys, "info", "--instance", path)
    assert code == 0
    assert "w0 = 1\n" in out
    assert "det = 3\n" in out


def test_digit_set_listing(capsys, base2):
    code, out, _ = run(capsys, "digit-set", "--instance", base2)
    assert code == 0
    assert out == "count = 3\n-1\n0\n1\n"


def test_digit_set_two_dim(capsys, tmp_path):
    path = write(tmp_path, "g.json", {"base": {"minpoly": [2, -2, 1]}, "w": 2})
    code, out, _ = run(capsys, "digit-set", "--instance", path)
    assert code == 0
    assert out == "count = 3\n-1,0\n-1,1\n0,0\n"


def test_listing_sets_compiles_no_division_kernel(capsys, tmp_path, monkeypatch, base3):
    """digit-set builds and prints a set and never divides, so neither
    the division kernel, compiled on a set's first division, nor the
    window walk, compiled on its first expansion, is ever written; nor
    for a check-nads that a certificate settles."""
    def refuse(*args):
        raise RuntimeError("the division kernel was compiled")

    monkeypatch.setattr(dsm, "_division_lines", refuse)
    monkeypatch.setattr(dsm, "_window_lines", refuse)
    for obj in (
        {"base": {"minpoly": [5, -4, 1]}, "w": 3},
        {"base": {"matrix": [[3, 1], [-1, 3]]}, "w": 2},
    ):
        code, out, _ = run(capsys, "digit-set", "--instance", write(tmp_path, "i.json", obj))
        assert code == 0
        assert out.startswith(("count = 101\n", "count = 91\n"))
    code, out, _ = run(capsys, "check-nads", "--instance", base3)
    assert code == 0
    assert out == "status = certified_by_bound\nbound_used = minimal-norm-contraction\n"
    with pytest.raises(RuntimeError, match="kernel was compiled"):
        run(capsys, "expand", "--instance", base3, "--point", "5")


def test_expand_text(capsys, base2):
    code, out, _ = run(capsys, "expand", "--instance", base2, "--point", "7")
    assert code == 0
    assert out == (
        "msd = 1 0 0 -1\n"
        "lsd = -1 0 0 1\n"
        "weight = 2\n"
        "value_check = ok\n"
    )


def test_expand_two_dim_tokens(capsys, tmp_path):
    path = write(tmp_path, "g.json", {"base": {"minpoly": [2, -2, 1]}, "w": 2})
    code, out, _ = run(capsys, "expand", "--instance", path, "--point", "5,0")
    assert code == 0
    assert "value_check = ok" in out
    assert "(-1,0)" in out


def test_expand_long_word_below_w0(capsys, tmp_path):
    """x^2 + x - 3 at w = 2 lies below w0 = 3; the default step cap still
    admits the 2,621-digit word of (2^1000, 0)."""
    path = write(tmp_path, "m3.json", {"base": {"minpoly": [-3, 1, 1]}, "w": 2})
    code, out, _ = run(capsys, "expand", "--instance", path, "--point", f"{2**1000},0")
    assert code == 0
    assert len(out.split("\n")[1].split()) == 2 + 2621  # "lsd =" and the digits
    assert out.endswith("value_check = ok\n")


def test_expand_requires_point(capsys, base2):
    code, _, err = run(capsys, "expand", "--instance", base2)
    assert code == 2
    assert "point" in err


def test_expand_counterexample_exit_code(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"base": {"minpoly": [-2, 1]}, "w": 2, "digitset": [[0], [1], [3]]},
    )
    code, out, _ = run(capsys, "expand", "--instance", path, "--point", "-1")
    assert code == 1
    assert "status = counterexample" in out
    assert "cycle = -2 -1" in out


def test_check_nads_certified(capsys, base3):
    code, out, _ = run(capsys, "check-nads", "--instance", base3)
    assert code == 0
    assert out == (
        "status = certified_by_bound\nbound_used = minimal-norm-contraction\n"
    )


def test_check_nads_search(capsys, base2):
    code, out, _ = run(capsys, "check-nads", "--instance", base2)
    assert code == 0
    assert "status =" in out


def test_check_nads_counterexample(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"base": {"minpoly": [-2, 1]}, "w": 2, "digitset": [[0], [1], [3]]},
    )
    code, out, _ = run(capsys, "check-nads", "--instance", path)
    assert code == 1
    assert "status = counterexample" in out
    assert "cycle = -2 -1" in out


def test_check_nads_search_gaussian(capsys, tmp_path):
    path = write(tmp_path, "g2.json", {"base": {"minpoly": [2, -2, 1]}, "w": 2})
    code, out, _ = run(capsys, "check-nads", "--instance", path)
    assert code == 0
    assert "status = verified_by_search" in out
    assert "search_radius = " in out


def test_check_optimality_radius_1000(capsys, base3):
    code, out, _ = run(
        capsys, "check-optimality", "--instance", base3, "--radius", "1000"
    )
    assert code == 0
    assert "verdict = certified" in out
    assert "violations = 0" in out
    assert "points_checked = 2001" in out


def test_check_optimality_certified(capsys, base3):
    code, out, _ = run(
        capsys, "check-optimality", "--instance", base3, "--radius", "50"
    )
    assert code == 0
    assert "verdict = certified" in out
    assert "violations = 0" in out
    assert "window_inequality = true" in out


def test_check_optimality_boundary_not_certified(capsys, base2):
    code, out, _ = run(
        capsys, "check-optimality", "--instance", base2, "--radius", "30"
    )
    assert code == 0  # certificate fails, but no violation found
    assert "verdict = not_certified" in out
    assert "window_inequality = false" in out
    assert "violations = 0" in out


def test_json_format_mirrors_keys(capsys, base3):
    code, out, _ = run(
        capsys, "check-nads", "--instance", base3, "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "status": "certified_by_bound",
        "bound_used": "minimal-norm-contraction",
    }


def test_json_format_digit_set(capsys, base2):
    code, out, _ = run(capsys, "digit-set", "--instance", base2, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"count": 3, "digits": ["-1", "0", "1"]}


def test_malformed_json_reports_position(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"base": {"minpoly": [2, -1, 1]\n "w": 2}\n', encoding="utf-8")
    code, _, err = run(capsys, "info", "--instance", str(p))
    assert code == 2
    assert "line 2" in err
    assert "column" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # json.load raises RecursionError long before this depth
    depth = 100_000
    p = tmp_path / "nested.json"
    p.write_text('{"base": {"minpoly": ' + "[" * depth + "]" * depth + "}}", encoding="utf-8")
    code, out, err = run(capsys, "info", "--instance", str(p))
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "info", "--instance", "/nonexistent/x.json")
    assert code == 2
    assert "error:" in err


def test_validation_errors(capsys, tmp_path):
    both = write(
        tmp_path,
        "both.json",
        {"base": {"minpoly": [-2, 1], "matrix": [[2]]}, "w": 2},
    )
    code, _, err = run(capsys, "info", "--instance", both)
    assert code == 2
    assert "exactly one" in err
    zero_w = write(tmp_path, "w0.json", {"base": {"minpoly": [-2, 1]}, "w": 0})
    code, _, _ = run(capsys, "info", "--instance", zero_w)
    assert code == 2
    bad_point = write(tmp_path, "p.json", {"base": {"minpoly": [-2, 1]}, "w": 2})
    code, _, _ = run(capsys, "expand", "--instance", bad_point, "--point", "a,b")
    assert code == 2


@pytest.mark.parametrize(
    "instance",
    [
        {"base": {"matrix": 5}},
        {"base": {"matrix": [5, 6]}},
        {"base": {"minpoly": 5}},
        {"base": {"minpoly": [-2, 1]}, "digitset": [5]},
        {"base": {"minpoly": [-2, 1]}, "digitset": [[1, 2], 3]},
    ],
)
def test_malformed_shapes_exit_2(capsys, tmp_path, instance):
    """A number where a list belongs is an input error (exit 2, one
    error line), not a crash: exit 1 means a counterexample."""
    path = write(tmp_path, "shape.json", {"w": 2, **instance})
    code, out, err = run(capsys, "info", "--instance", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expected a list" in err


def test_numbers_as_strings(capsys, tmp_path):
    path = write(
        tmp_path,
        "s.json",
        {"base": {"minpoly": ["-2", "1"]}, "w": "2"},
    )
    code, out, _ = run(capsys, "digit-set", "--instance", path)
    assert code == 0
    assert "count = 3" in out


def test_huge_string_integer(capsys, tmp_path):
    big = str(-(10**30))
    path = write(
        tmp_path, "big.json", {"base": {"minpoly": [big, "1"]}, "w": 1}
    )
    code, out, _ = run(capsys, "info", "--instance", path)
    assert code == 0
    assert f"det = {10**30}\n" in out


def test_env_precision_cap(capsys, quad, monkeypatch):
    monkeypatch.setenv("NAF_PRECISION_CAP_BITS", "512")
    code, out, _ = run(capsys, "info", "--instance", quad)
    assert code == 0
    monkeypatch.setenv("NAF_PRECISION_CAP_BITS", "nonsense")
    code, _, err = run(capsys, "info", "--instance", quad)
    assert code == 2
    assert "precision_cap" in err


@pytest.mark.parametrize(
    "base", [{"matrix": [[1, -1], [1, 1]]}, {"minpoly": [2, -1, 1]}], ids=["matrix", "minpoly"]
)
def test_precision_cap_reaches_the_geometry(capsys, tmp_path, monkeypatch, base):
    """The file's cap, then the environment's, is the cap of the digit
    set's Geometry, for matrix and minimal-polynomial bases alike."""
    monkeypatch.delenv("NAF_PRECISION_CAP_BITS", raising=False)
    path = write(tmp_path, "cap.json", {"base": base, "w": 2, "precision_cap": 77})
    assert cli._load_instance(path)[1]().geo.precision_cap_bits == 77
    monkeypatch.setenv("NAF_PRECISION_CAP_BITS", "99")
    assert cli._load_instance(path)[1]().geo.precision_cap_bits == 99
    code, out, _ = run(capsys, "check-nads", "--instance", path)
    assert code == 0 and out.startswith("status = ")


def test_byte_identical_reruns(capsys, quad, base3):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "info", "--instance", quad)
        outs.add(out)
    assert len(outs) == 1
    outs.clear()
    for _ in range(2):
        _, out, _ = run(
            capsys, "check-optimality", "--instance", base3, "--radius", "40"
        )
        outs.add(out)
    assert len(outs) == 1


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "latnaf", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "info" in proc.stdout


# x^3 + x + 3 has an enclosure Gram matrix, and R^2 / r^2 is a rational of
# about 560 digits: its square root must be enclosed, not factored.
CUBIC = [3, 1, 0, 1]


def run_module(tmp_path, command, w, fmt="text"):
    path = write(tmp_path, f"cubic{w}.json", {"base": {"minpoly": CUBIC}, "w": w})
    return subprocess.run(
        [sys.executable, "-m", "latnaf", command, "--instance", path, "--format", fmt],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_info_enclosure_cubic_finishes(tmp_path):
    proc = run_module(tmp_path, "info", 4)
    assert proc.returncode == 0, proc.stderr
    out = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
    assert out["w0"] == "4"
    # r / (r + R) <= 1/2, so the tiling bound is never below w0
    assert int(out["tiling_w"]) >= 4


# printed by the earlier sympy-based isolation; R_sq and search_radius are
# built from enclosure endpoints, so they are pinned to 2^-50 relative
CUBIC_W4_INFO = {
    "n": "3",
    "char_poly": "[3, 1, 0, 1]",
    "det": "-3",
    "expanding": "true",
    "embedding_modulus_1": "[1.213411662762, 1.213411662763]",
    "embedding_modulus_2": "[1.572376501772, 1.572376501773]",
    "inv_norm": "[0.824122621109, 0.824122621110]",
    "w0": "4",
    "r_sq": "3/4",
    "r": "[0.866025403784, 0.866025403785]",
    "R": "[4.029535710702, 4.029535710703]",
    "tiling_w": "9",
}
CUBIC_W4_R_SQ = Fraction(
    "142205076042549630269956574332451414492808218369313814570791145475213170790523476651045877782739617366834544426921178260226445286706800739047805012357419144738450717400713558565740342064074631227018351636669212505007763769931025653805486711084033948825457161490695897922725328436225/8758002826522135939799809988309698920265490040801024674860275876118509344241502869152662049656493694701814866395455623562955301974467527009363961164996301274428346893087729394980159599010460887798905493870622879664204418173965283879824133839034919851851286465129343481820873752576"
)
CUBIC_W3_SEARCH_RADIUS = Fraction(
    "948754192156741214459722258277497277993183238196396546706631363583895028367010470380799773388869815910052253586541513431033983054244764114929346106424912453390608164371/36821587573991713064236925452164849604805082765709336983226600351340006663745387284276149077706676130386185131761661735809702703504252624899074619507648615493905940480"
)
CUBIC_W3_CYCLE = "(-3,1,-1) (2,-1,1) (-3,2,-1) (3,-1,1) (-2,1,-1) (3,-2,1)"


def _close(text, want):
    return abs(Fraction(text) - want) <= want / 2**50


def test_info_enclosure_cubic_pinned(tmp_path):
    proc = run_module(tmp_path, "info", 4)
    assert proc.returncode == 0, proc.stderr
    out = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
    assert _close(out.pop("R_sq"), CUBIC_W4_R_SQ)
    assert out == CUBIC_W4_INFO


def test_check_nads_enclosure_cubic_pinned(tmp_path):
    proc = run_module(tmp_path, "check-nads", 3)
    assert proc.returncode == 1, proc.stderr
    out = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
    assert out["status"] == "counterexample"
    assert out["cycle"] == CUBIC_W3_CYCLE
    assert _close(out["search_radius"], CUBIC_W3_SEARCH_RADIUS)


def test_info_large_discriminant_quadratic_returns(tmp_path):
    # x^2 - (2^89 - 1)(2^107 - 1): trial division cannot factor the
    # discriminant, so the roots are enclosed instead of written as radicals
    path = write(
        tmp_path, "bigdisc.json", {"base": {"minpoly": [-(2**89 - 1) * (2**107 - 1), 0, 1]}, "w": 1}
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "latnaf", "info", "--instance", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    out = dict(line.split(" = ", 1) for line in proc.stdout.splitlines())
    assert out["expanding"] == "true"


def test_check_nads_enclosure_cubic_finds_a_checked_cycle(tmp_path):
    proc = run_module(tmp_path, "check-nads", 3, "json")
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert out["status"] == "counterexample"
    cycle = tuple(
        tuple(int(c) for c in tok.strip("()").split(","))
        for tok in out["cycle"].split()
    )
    ds = dsm.build_minimal_norm(nfm.build(CUBIC), 3)
    validate_cycle(ds, CycleReport(cycle[0], cycle))


@pytest.mark.parametrize(
    "base", [{"minpoly": [5, -4, 1]}, {"matrix": [[2, 1], [1, 1]]}], ids=["q541", "fib"]
)
def test_digit_set_huge_width_exits_2_quickly(tmp_path, base):
    # no base power is formed first: the residue class cap stops the
    # expanding quadratic, the expanding test stops the matrix
    path = write(tmp_path, "wide.json", {"base": base, "w": 100_000})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "latnaf", "digit-set", "--instance", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr


def test_check_optimality_ball_cap_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(ncm, "DEFAULT_BALL_CAP", 50)
    path = write(tmp_path, "q541.json", {"base": {"minpoly": [5, -4, 1]}, "w": 3})
    code, out, err = run(capsys, "check-optimality", "--instance", path, "--radius", "3000")
    assert code == 2
    assert "more than 50 points" in err


@pytest.mark.parametrize("radius", ["-5", "-1"])
def test_check_optimality_negative_radius_exits_2(capsys, base3, radius):
    # the library's empty sweep would read "certified, 0 points, 0
    # violations"; from the command line a negative radius is an error
    code, out, err = run(capsys, "check-optimality", "--instance", base3, "--radius", radius)
    assert code == 2
    assert out == ""
    assert "--radius must be at least 0" in err
