"""End-to-end command-line behavior."""

import csv
import dataclasses
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tailbound
from helpers import mean_specs
from tailbound import (
    BoundReport,
    BoundTask,
    ConditionalMeansSpec,
    ConditionalProbsSpec,
    MomentVector,
    PartitionSpec,
    SkippedMethod,
    VarianceClassSpec,
    bernstein_moments,
    binomial_core,
    cli,
    instance_io,
    mixture_bounds,
)
from tailbound.classic_bounds import make_report
from tailbound.cli import main

MEAN_8 = {"schema_version": 1, "information": "mean", "n": 10, "p": 0.5, "t": 8}
MEAN_6 = {"schema_version": 1, "information": "mean", "n": 10, "p": 0.5, "t": 6}
MEAN_SMALL = {"schema_version": 1, "information": "mean", "n": 3, "p": 0.5, "t": 2}
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_by_method(output):
    reader = csv.DictReader(io.StringIO(output))
    return {row["method"]: row for row in reader}


def test_bound_all_methods_mean_instance(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_8)
    code, out, err = run_cli(capsys, "bound", path)
    assert code == 0
    rows = rows_by_method(out)
    assert set(rows) == {
        "markov",
        "hoeffding",
        "hoeffding_exp",
        "bentkus_linear",
        "missing_factor",
        "binomial_comparison",
    }
    assert float(rows["markov"]["value"]) == pytest.approx(0.625)
    assert float(rows["hoeffding"]["value"]) == pytest.approx(0.145519, abs=1e-6)
    assert float(rows["missing_factor"]["value"]) == pytest.approx(0.0765704, abs=1e-6)
    assert float(rows["binomial_comparison"]["value"]) == pytest.approx(
        0.072917, abs=1e-6
    )
    assert rows["binomial_comparison"]["clamped"] == "false"


def test_bound_skips_inapplicable_methods(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_6)
    code, out, err = run_cli(capsys, "bound", path)
    assert code == 0
    rows = rows_by_method(out)
    assert rows["missing_factor"]["value"] == ""
    assert "missing_factor skipped" in err
    assert "7.31" in err
    # the comparison bound clamps at this threshold instead of failing
    assert float(rows["binomial_comparison"]["value"]) == 1.0
    assert rows["binomial_comparison"]["clamped"] == "true"


def test_bound_method_filter_and_table(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_8)
    code, out, _ = run_cli(capsys, "bound", path, "--methods", "markov,hoeffding")
    assert code == 0
    assert set(rows_by_method(out)) == {"markov", "hoeffding"}

    code, out, _ = run_cli(capsys, "bound", path, "--format", "table")
    assert code == 0
    lines = out.splitlines()
    values = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) >= 2 and cells[1] not in ("skipped",):
            values.append(float(cells[1]))
    assert values == sorted(values)


def test_bound_unknown_method_is_input_error(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_8)
    for methods, reason in (
        ("sorcery", "unknown method"),
        (" , ", "no method selected"),
        ("", "no method selected"),
        ("markov,markov", "markov selected more than once"),
    ):
        code, out, err = run_cli(capsys, "bound", path, "--methods", methods)
        assert code == 2, methods
        assert out == "", methods
        assert err.startswith("error:") and reason in err, (methods, err)


def test_import_parse_and_input_errors_load_no_numpy(tmp_path):
    """Importing the package, parsing every golden instance with its tasks,
    computing every method README "Install" names as stdlib-only on those
    tasks, and rejecting a bad document run on the stdlib alone; numpy loads
    when the first DiscreteDist is built."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    install = readme.split("## Install", 1)[1].split("\n## ", 1)[0]
    methods = {name for level in cli._LEVELS.values() for name in level}
    stdlib = [name for name in re.findall(r"`(\w+)`", install) if name in methods]
    assert len(stdlib) == 7
    bad = write_instance(tmp_path, {**MEAN_8, "t": 11})
    script = f"""
import sys
sys.path.insert(0, {str(Path(tailbound.__file__).parents[1])!r})
from pathlib import Path
import tailbound, tailbound.cli
for path in sorted(Path({str(GOLDEN)!r}).glob("*.json")):
    tasks = tailbound.parse_instance(path.read_text(encoding="utf-8")).tasks()
    assert tasks
    for task in tasks:
        available = {{**tailbound.cli._LEVELS["mean"], **tailbound.cli._LEVELS[task.information]}}
        tailbound.cli.compute_bounds(task, [m for m in {stdlib!r} if m in available])
assert tailbound.cli.main(["bound", {bad!r}]) == 2
assert "numpy" not in sys.modules, "numpy was imported"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_bound_malformed_file_no_partial_output(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_bound_validation_error_lists_every_violation(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        {"schema_version": 1, "information": "mean", "n": 10, "p": 1.5, "t": 20},
    )
    code, out, err = run_cli(capsys, "bound", path)
    assert code == 2
    assert out == ""
    assert err.count("error:") >= 2


def test_bound_output_is_deterministic(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "information": "variance",
        "n": 20,
        "p": 0.5,
        "t": 12,
        "sweep": {"sigma2": [0.05, 0.15, 0.25]},
    }
    path = write_instance(tmp_path, doc)
    _, first, _ = run_cli(capsys, "bound", path)
    _, second, _ = run_cli(capsys, "bound", path)
    assert first == second
    rows = first.splitlines()
    assert len(rows) == 1 + 3 * 9  # sweep points x methods (6 mean + 3 variance)


def test_verify_clean_instance(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_SMALL)
    code, out, err = run_cli(capsys, "verify", path, "--trials", "300", "--seed", "7")
    assert code == 0
    assert "markov" in out and "hoeffding" in out


def test_verify_detects_injected_corruption(tmp_path, capsys, monkeypatch):
    doc = {"schema_version": 1, "information": "mean", "n": 3, "p": 0.5, "t": 1.6}
    path = write_instance(tmp_path, doc)
    compute_bounds = cli.compute_bounds

    def halved(task, methods=None):
        return [
            dataclasses.replace(row, value=row.value / 2.0)
            if isinstance(row, BoundReport)
            else row
            for row in compute_bounds(task, methods)
        ]

    monkeypatch.setattr(cli, "compute_bounds", halved)
    code, out, err = run_cli(capsys, "verify", path, "--trials", "300", "--seed", "7")
    assert code == 1
    # members print as plain rounded floats, one line per violation
    lines = err.splitlines()
    assert len(lines) == 86 + 67 + 65 + 90
    assert all(line.startswith("counterexample: method=") for line in lines)
    assert lines[0] == (
        "counterexample: method=markov trial=3 tail=0.649623580092 > bound=0.46875 "
        "[support=(0.0, 0.520103) probs=(0.038651, 0.961349); "
        "support=(0.0, 0.626189) probs=(0.201519, 0.798481); "
        "support=(0.0, 0.590818) probs=(0.153716, 0.846284)]"
    )
    assert lines[-1] == (
        "counterexample: method=bentkus_linear trial=299 tail=0.644210931561 > bound=0.46875 "
        "[support=(0.0, 0.943888) probs=(0.470276, 0.529724); "
        "support=(0.0, 0.692783) probs=(0.278273, 0.721727); "
        "support=(0.0, 0.929416) probs=(0.462028, 0.537972)]"
    )
    assert out == (
        "method,t,sigma2,bound,max_tail,violations\n"
        "markov,1.6,,0.46875,0.708295473486,86\n"
        "hoeffding,1.6,,0.496675296033,0.735732672837,67\n"
        "hoeffding_exp,1.6,,0.496677753128,0.751495770455,65\n"
        "bentkus_linear,1.6,,0.46875,0.763591551203,90\n"
    )


def test_verify_zero_trials(tmp_path, capsys):
    path = write_instance(tmp_path, MEAN_SMALL)
    code, out, _ = run_cli(capsys, "verify", path, "--trials", "0", "--seed", "1")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split(",")[-1] == "0"


def test_verify_rejects_large_instances(tmp_path, capsys):
    doc = {"schema_version": 1, "information": "mean", "n": 9, "p": 0.5, "t": 6}
    path = write_instance(tmp_path, doc)
    code, _, err = run_cli(capsys, "verify", path, "--trials", "5", "--seed", "1")
    assert code == 2
    assert "n <= 8" in err


def test_verify_oracle_resource_limit_is_input_error(tmp_path, capsys):
    # three-cell members have six support points; 6^8 exceeds the convolution cap
    doc = {
        "schema_version": 1,
        "information": "conditional-means",
        "n": 8,
        "p": 0.4,
        "breakpoints": [0, 0.3, 0.7, 1],
        "mu": [0.1, 0.5, 0.85],
        "t": 5,
    }
    path = write_instance(tmp_path, doc)
    code, out, err = run_cli(capsys, "verify", path, "--trials", "2", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "error: convolution support would exceed" in err


def test_every_information_level_has_methods():
    assert set(cli._LEVELS) == set(instance_io.INFORMATION_LEVELS)


#: one hand-made task per information level: n = 10 variables, mean 0.5 each
LEVEL_TASKS = {
    "mean": BoundTask("mean", 8.0, mean_specs(10, 0.5)),
    "moments": BoundTask("moments", 8.0, (MomentVector((0.5, 0.3)),) * 10),
    "variance": BoundTask("variance", 8.0, (VarianceClassSpec(0.5, 0.05),) * 10),
    "conditional-means": BoundTask(
        "conditional-means",
        8.0,
        (ConditionalMeansSpec(PartitionSpec((0.0, 0.25, 0.75, 1.0)), (0.2, 0.5, 0.8), 0.5),)
        * 10,
    ),
    "conditional-probs": BoundTask(
        "conditional-probs",
        8.0,
        (ConditionalProbsSpec(PartitionSpec((0.0, 0.4, 1.0)), (0.5, 0.5), 0.5),) * 10,
    ),
}
#: every method compute_bounds offers at every level
LEVEL_METHODS = [
    (level, name)
    for level in cli._LEVELS
    for name in {**cli._LEVELS["mean"], **cli._LEVELS[level]}
]


def test_level_methods_cover_all_thirteen_bounds():
    assert set(LEVEL_TASKS) == set(cli._LEVELS)
    assert len({name for _, name in LEVEL_METHODS}) == 13


@pytest.mark.parametrize("level,name", LEVEL_METHODS)
@pytest.mark.parametrize("t", [5.0, 10.0])
def test_every_method_refuses_thresholds_outside_the_regime(level, name, t):
    task = dataclasses.replace(LEVEL_TASKS[level], t=t)
    (row,) = cli.compute_bounds(task, [name])
    if name == "markov":
        assert isinstance(row, BoundReport) and row.value == 5.0 / t
        return
    assert isinstance(row, SkippedMethod)
    assert re.fullmatch(
        r"t must exceed n\*p = 5\.0 and lie below n = 10, got (5|10)\.0", row.reason
    ), row.reason


@pytest.mark.parametrize("level,name", LEVEL_METHODS)
def test_compute_bounds_calls_the_method_bound_to_cli(level, name, monkeypatch):
    task = LEVEL_TASKS[level]
    calls = []

    def stub(*args):
        calls.append(args)
        return make_report(name, 0.25)

    monkeypatch.setattr(cli, f"{name}_bound", stub)
    (row,) = cli.compute_bounds(task, [name])
    assert (row.method, row.value, row.n, row.t) == (name, 0.25, 10, 8.0)
    (args,) = calls
    assert args[-1] == task.t
    if (level, name) not in {("variance", "bennett"), ("variance", "z_nm")}:
        assert args == (task.specs, task.t)


def test_bound_convolves_once_per_row_and_method(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (bernstein_moments, mixture_bounds):
        real = module.convolve

        def counted(dists, module=module, real=real):
            calls.append((module.__name__, len(dists)))
            return real(dists)

        monkeypatch.setattr(module, "convolve", counted)
    doc = {
        "schema_version": 1,
        "information": "variance",
        "n": 12,
        "p": 0.3,
        "sweep": {"t": [5, 6, 8], "sigma2": {"start": 0.1, "stop": 0.2, "points": 2}},
    }
    code, out, err = run_cli(capsys, "bound", write_instance(tmp_path, doc))
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 2 * 3 * 9
    assert sorted(calls) == [("tailbound.bernstein_moments", 12)] * 2 + [
        ("tailbound.mixture_bounds", 12)
    ] * 2


def _sum_cut_values(specs, t):
    task = BoundTask("variance", t, specs)
    rows = cli.compute_bounds(task, ["bentkus_linear", "z_nm", "xi_sum"])
    return [row.value for row in rows]


def test_sum_memos_give_cold_values_and_miss_on_a_changed_row():
    memos = (binomial_core.binomial_dist, bernstein_moments._lattice_sum, mixture_bounds._xi_sum)
    row_a = tuple(VarianceClassSpec(0.3, 0.1) for _ in range(12))
    row_a_copy = tuple(VarianceClassSpec(0.3, 0.1) for _ in range(12))
    row_b = row_a[:-1] + (VarianceClassSpec(0.3, 0.09),)
    calls = [(row_a, 6.0), (row_a_copy, 8.0), (row_b, 6.0), (row_a, 8.0)]
    cold = []
    for specs, t in calls:
        for memo in memos:
            memo.cache_clear()
        cold.append(_sum_cut_values(specs, t))
    for memo in memos:
        memo.cache_clear()
    assert [_sum_cut_values(specs, t) for specs, t in calls] == cold
    # row B shares row A's mean, so only the two convolution sums see it change
    assert [(memo.cache_info().hits, memo.cache_info().misses) for memo in memos] == [
        (3, 1),
        (1, 3),
        (1, 3),
    ]


def test_readme_method_table_lists_every_method():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Methods", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
    methods = {name for level in cli._LEVELS.values() for name in level}
    assert len(listed) == len(set(listed))
    assert set(listed) == methods


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fig1")
    assert main(["figure1", "--out", str(outdir)]) == 0
    return outdir


GOLDEN_FIGURE = GOLDEN / "figure1"

EXPECTED_PANELS = [
    f"fig1_p{int(p * 100)}_t{t}.csv"
    for p, ts in ((0.25, (6, 7, 8, 9)), (0.5, (11, 12, 13, 14)), (0.75, (16, 17, 18, 19)))
    for t in ts
]


def test_figure1_writes_twelve_panels(figure_dir):
    names = sorted(p.name for p in figure_dir.iterdir())
    assert names == sorted(EXPECTED_PANELS)
    for name in names:
        lines = (figure_dir / name).read_text().splitlines()
        assert lines[0] == "sigma2,bennett,momopt,xitheorem"
        assert len(lines) == 51
        assert (figure_dir / name).read_bytes() == (GOLDEN_FIGURE / name).read_bytes(), name


def test_figure1_high_variance_panel_ordering(figure_dir):
    rows = list(csv.DictReader(io.StringIO((figure_dir / "fig1_p50_t12.csv").read_text())))
    at_024 = [r for r in rows if abs(float(r["sigma2"]) - 0.24) < 1e-9]
    assert at_024, "expected a grid point at sigma2 = 0.24"
    row = at_024[0]
    assert float(row["xitheorem"]) < float(row["bennett"])


def test_figure1_grid_excludes_zero_variance(figure_dir):
    rows = list(csv.DictReader(io.StringIO((figure_dir / "fig1_p25_t6.csv").read_text())))
    sigmas = [float(r["sigma2"]) for r in rows]
    assert min(sigmas) > 0.0
    assert max(sigmas) == pytest.approx(0.25 * 0.75)


def test_figure1_skipped_method_is_input_error(tmp_path, capsys, monkeypatch):
    # t = 25 lies above n = 20, outside every method's regime
    monkeypatch.setattr(cli, "FIGURE_PANELS", ((0.25, (25,)),))
    code, out, err = run_cli(capsys, "figure1", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and "bennett skipped" in err
    assert list(tmp_path.iterdir()) == []


def test_figure1_unwritable_target(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    code, _, err = run_cli(capsys, "figure1", "--out", str(blocker))
    assert code == 2
    assert "error" in err
