"""CLI: exit codes, report shapes, determinism, flag plumbing."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import corrdet.cli as cli
from corrdet import COCO_THRESHOLDS, PipelineConfig, beta_cls, bound_report, postprocess, pr_curves, synth
from corrdet.gradcheck import GradcheckResult, GradcheckRow
from corrdet.ingest import emit_final_dets, emit_gt, load_final_dets, load_gt, load_raw_dets, load_report


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["synth", "--seed", "4", "--knob", "0.5", "--out-dir", str(out)]) == 0
    return out


def test_synth_writes_three_files(synth_dir):
    for name in ("gt.json", "raw_dets.json", "final_dets.json"):
        assert (synth_dir / name).exists()


def test_synth_is_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert cli.main(["synth", "--seed", "9", "--out-dir", str(out)]) == 0
    for name in ("gt.json", "raw_dets.json", "final_dets.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("out_dir, out", [("d", "d/s.json"), ("a/b/c", "a/b/s.json"), ("d", "s.json")])
def test_synth_summary_may_go_where_synth_makes_directories(tmp_path, out_dir, out):
    # synth makes --out-dir and the directories above it before it writes
    # the summary, so --out may lie in any of them
    code = cli.main(["synth", "--n-images", "2", "--out-dir", str(tmp_path / out_dir), "--out", str(tmp_path / out)])
    assert code == 0
    summary = json.loads((tmp_path / out).read_text())
    assert summary["files"]["gt"] == str(tmp_path / out_dir / "gt.json")


def test_eval_final_dets(synth_dir, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--dets", str(synth_dir / "final_dets.json"),
            "--out", str(out),
        ]
    )
    assert code == 0
    rep = load_report(str(out))
    assert rep["mode"] == "final"
    assert 0.0 <= rep["ap_c"] <= 1.0
    assert rep["iou_thresholds"][0] == 0.5
    assert len(rep["per_threshold_ap"]) == 10
    # class ids reported as original category ids
    assert [c["category_id"] for c in rep["per_class"]] == [1, 2, 3]


def test_eval_requires_exactly_one_det_source(synth_dir, capsys):
    code = cli.main(["eval", "--gt", str(synth_dir / "gt.json")])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("flag, reason", [("--top-k 0", "top_k"), ("--nms-iou 7", "nms_iou")])
@pytest.mark.parametrize("source", ["--dets final_dets.json", "--raw-dets raw_dets.json"])
@pytest.mark.parametrize("command", ["eval", *(f"{cmd} --level {level}" for cmd in ("corr", "bounds --direction=+1")
                                                for level in ("class", "image"))])
def test_invalid_pipeline_flags_exit_2_on_every_command(synth_dir, tmp_path, capsys, command, source, flag, reason):
    # refused even where the detections never reach the pipeline
    flag_name, path = source.split()
    out = tmp_path / "r.json"
    argv = [*command.split(), "--gt", str(synth_dir / "gt.json"), flag_name, str(synth_dir / path),
            *flag.split(), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "7", "-1", "inf"])
@pytest.mark.parametrize("flag", ["--tp-iou", "--iou-floor"])
@pytest.mark.parametrize("command", ["corr --level class", "corr --level image", "bounds --level class --direction=+1",
                                     "bounds --level image --direction=-1"])
def test_invalid_iou_flags_exit_2_before_reading_files(tmp_path, capsys, command, flag, value):
    # the input paths do not exist: the flag is refused before any is opened
    out = tmp_path / "r.json"
    argv = [*command.split(), "--gt", str(tmp_path / "no-gt.json"), "--dets", str(tmp_path / "no-dets.json"),
            f"{flag}={value}", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {flag[2:].replace('-', '_')} must lie in [0, 1], got {float(value)}"]
    assert not out.exists()


def test_eval_pipeline_and_nms_free(synth_dir, tmp_path):
    args = [
        "eval",
        "--gt", str(synth_dir / "gt.json"),
        "--raw-dets", str(synth_dir / "raw_dets.json"),
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--nms-free", "--out", str(out_b)]) == 0
    a = load_report(str(out_a))
    b = load_report(str(out_b))
    assert a["mode"] == "pipeline"
    assert b["mode"] == "pipeline-nms-free"
    # duplicates survive without NMS
    assert b["n_detections"] >= a["n_detections"]


def test_eval_pr_csv(synth_dir, tmp_path):
    csv_p = tmp_path / "pr.csv"
    code = cli.main(
        [
            "eval",
            "--gt", str(synth_dir / "gt.json"),
            "--dets", str(synth_dir / "final_dets.json"),
            "--out", str(tmp_path / "r.json"),
            "--pr-csv", str(csv_p),
        ]
    )
    assert code == 0
    lines = csv_p.read_text().splitlines()
    assert lines[0] == "category_id,iou_thr,recall,precision"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[1]), float(first[2]), float(first[3])


def test_eval_pr_csv_holds_the_curves_of_classes_with_gts(tmp_path):
    # class 2 keeps its detections but loses its GTs: it has no PR curve
    ds = synth(4, knob=0.5)
    ds = replace(ds, gts=tuple(g for g in ds.gts if g.class_id != 2))
    gt_p, dets_p, csv_p = tmp_path / "gt.json", tmp_path / "dets.json", tmp_path / "pr.csv"
    emit_gt(ds, str(gt_p))
    emit_final_dets(ds, str(dets_p))
    argv = ["eval", "--gt", str(gt_p), "--dets", str(dets_p), "--out", str(tmp_path / "r.json"), "--pr-csv", str(csv_p)]
    assert cli.main(argv) == 0

    loaded = load_final_dets(str(dets_p), load_gt(str(gt_p)))
    assert any(d.class_id == 2 for d in loaded.final_dets)
    expected = ["category_id,iou_thr,recall,precision"]
    for c in (0, 1):
        cdets = [d for d in loaded.final_dets if d.class_id == c]
        cgts = [g for g in loaded.gts if g.class_id == c]
        for t, curve in zip(COCO_THRESHOLDS, pr_curves(cdets, cgts)):
            prefix = f"{loaded.categories[c][0]},{cli._csv_value(t)}"
            expected.extend(f"{prefix},{cli._csv_value(r)},{cli._csv_value(p)}" for r, p in curve)
    assert csv_p.read_text() == "\n".join(expected) + "\n"


def test_eval_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(["eval", "--gt", str(tmp_path / "nope.json"), "--dets", str(tmp_path / "x.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_reports_are_byte_identical(synth_dir, tmp_path):
    outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for out in outs:
        assert (
            cli.main(
                [
                    "eval",
                    "--gt", str(synth_dir / "gt.json"),
                    "--raw-dets", str(synth_dir / "raw_dets.json"),
                    "--out", str(out),
                ]
            )
            == 0
        )
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_corr_levels(synth_dir, tmp_path):
    img = tmp_path / "img.json"
    cls = tmp_path / "cls.json"
    assert (
        cli.main(
            [
                "corr",
                "--gt", str(synth_dir / "gt.json"),
                "--raw-dets", str(synth_dir / "raw_dets.json"),
                "--level", "image",
                "--out", str(img),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "corr",
                "--gt", str(synth_dir / "gt.json"),
                "--dets", str(synth_dir / "final_dets.json"),
                "--level", "class",
                "--out", str(cls),
            ]
        )
        == 0
    )
    a = load_report(str(img))
    b = load_report(str(cls))
    assert a["level"] == "image" and "per_image" in a
    assert b["level"] == "class" and "per_class" in b
    assert -1.0 <= a["beta"] <= 1.0
    assert -1.0 <= b["beta"] <= 1.0


def _finals_per_image(dataset):
    finals = []
    for image_id, _, _ in dataset.images:
        finals.extend(postprocess(dataset.raw_dets.get(image_id, ()), PipelineConfig(), image_id))
    return tuple(finals)


def test_class_level_from_raw_dets_post_processes_each_image(synth_dir, tmp_path):
    dataset = load_raw_dets(str(synth_dir / "raw_dets.json"), load_gt(str(synth_dir / "gt.json")))
    dataset = replace(dataset, final_dets=_finals_per_image(dataset))
    io = ["--gt", str(synth_dir / "gt.json"), "--raw-dets", str(synth_dir / "raw_dets.json"), "--level", "class"]

    out = tmp_path / "corr.json"
    assert cli.main(["corr", *io, "--out", str(out)]) == 0
    rep = load_report(str(out))
    want = beta_cls(dataset.final_dets, dataset.gts, tp_iou=0.5)
    assert rep["beta"] == want.beta_cls
    assert [(c["category_id"], c["spearman"]) for c in rep["per_class"]] == [
        (dataset.categories[c][0], b) for c, b in want.per_class
    ]

    out = tmp_path / "bounds.json"
    assert cli.main(["bounds", *io, "--direction", "+1", "--out", str(out)]) == 0
    rep = load_report(str(out))
    want = bound_report(dataset, 1, level="class")
    assert rep["beta_before"] == want.corr_before.beta_cls
    assert rep["beta_after"] == want.corr_after.beta_cls
    assert rep["ap_before"]["ap_c"] == want.ap_before.ap_c
    assert rep["ap_after"]["per_threshold_ap"] == [v for _, v in want.ap_after.per_threshold]


def test_corr_image_level_needs_raw(synth_dir, capsys):
    code = cli.main(
        [
            "corr",
            "--gt", str(synth_dir / "gt.json"),
            "--dets", str(synth_dir / "final_dets.json"),
            "--level", "image",
        ]
    )
    assert code == 2
    assert "raw" in capsys.readouterr().err


def test_bounds_directions(synth_dir, tmp_path):
    reports = {}
    for d in ("+1", "-1"):
        out = tmp_path / f"b{d}.json"
        code = cli.main(
            [
                "bounds",
                "--gt", str(synth_dir / "gt.json"),
                "--dets", str(synth_dir / "final_dets.json"),
                "--direction", d,
                "--level", "class",
                "--out", str(out),
            ]
        )
        assert code == 0
        reports[d] = load_report(str(out))
    plus, minus = reports["+1"], reports["-1"]
    assert plus["ap_before"]["per_threshold_ap"][0] == plus["ap_after"]["per_threshold_ap"][0]
    assert plus["beta_after"] == 1.0
    assert minus["beta_after"] == -1.0
    assert minus["beta_before"] == plus["beta_before"]
    # the bounds bracket the observed value
    assert minus["beta_after"] <= plus["beta_before"] <= plus["beta_after"]


def test_bounds_warns_without_positives(tmp_path, capsys):
    gt = {
        "categories": [{"id": 1, "name": "a"}],
        "images": [{"id": 1, "width": 100, "height": 100}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0]}
        ],
    }
    dets = [{"image_id": 1, "category_id": 1, "bbox": [80.0, 80.0, 10.0, 10.0], "score": 0.9}]
    gt_p = tmp_path / "gt.json"
    det_p = tmp_path / "dets.json"
    gt_p.write_text(json.dumps(gt))
    det_p.write_text(json.dumps(dets))
    out = tmp_path / "b.json"
    code = cli.main(
        ["bounds", "--gt", str(gt_p), "--dets", str(det_p), "--direction", "+1", "--out", str(out)]
    )
    assert code == 0
    assert "warning" in capsys.readouterr().err
    rep = load_report(str(out))
    assert rep["beta_before"] is None
    assert "warning" in rep
    assert rep["ap_before"] == rep["ap_after"]


def test_gradcheck_pass_and_table(capsys):
    code = cli.main(["gradcheck", "--coef", "concordance", "--n", "8", "--trials", "5", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gradcheck concordance: PASS" in out
    assert out.count("pass") >= 5


def test_gradcheck_skips_degenerate(capsys):
    code = cli.main(["gradcheck", "--coef", "pearson", "--n", "1", "--trials", "3"])
    assert code == 0
    assert "3 skip" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_exits_2(trials, capsys):
    code = cli.main(["gradcheck", "--coef", "pearson", "--trials", trials])
    assert code == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "trials must be at least 1" in captured.err


def test_gradcheck_failure_exits_1(monkeypatch, capsys):
    rows = (GradcheckRow(0, 5, 0.5, "fail"),)
    monkeypatch.setattr(
        cli, "run_gradcheck", lambda *a, **k: GradcheckResult("pearson", 1e-6, rows, False)
    )
    code = cli.main(["gradcheck", "--coef", "pearson", "--trials", "1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_report_file(tmp_path):
    out = tmp_path / "gc.json"
    code = cli.main(
        ["gradcheck", "--coef", "spearman", "--n", "6", "--trials", "4", "--out", str(out)]
    )
    assert code == 0
    rep = load_report(str(out))
    assert rep["passed"] is True
    assert len(rep["rows"]) == 4


def test_descend_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(
        ["descend", "--coef", "spearman", "--n", "10", "--steps", "30", "--lr", "0.1",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,loss,spearman"
    assert len(lines) == 32  # header + steps + 1
    first_loss = float(lines[1].split(",")[1])
    last_loss = float(lines[-1].split(",")[1])
    assert last_loss < first_loss


def test_descend_stdout_and_flag(capsys):
    code = cli.main(["descend", "--n", "6", "--steps", "2", "--epsilon", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("step,loss,spearman")


def test_descend_lr_zero_constant(capsys):
    assert cli.main(["descend", "--n", "6", "--steps", "3", "--lr", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    losses = {line.split(",")[1] for line in lines}
    assert len(losses) == 1


# argv templates; {data} is a synth directory, {tmp} an empty scratch directory
# and {file} an existing regular file
_REFUSED_RUNS = [
    pytest.param("eval --gt {data}/gt.json --dets {data}/final_dets.json --out {tmp}/missing/r.json",
                 "No such file or directory", id="eval-out-in-missing-dir"),
    pytest.param("eval --gt {data}/gt.json --dets {data}/final_dets.json --out {tmp}/r.json --pr-csv {tmp}",
                 "Is a directory", id="eval-pr-csv-is-a-dir"),
    pytest.param("synth --out-dir {file}", "File exists", id="synth-out-dir-is-a-file"),
    pytest.param("gradcheck --coef pearson --n 4 --trials 1 --out {tmp}/missing/gc.json",
                 "No such file or directory", id="gradcheck-out-in-missing-dir"),
    pytest.param("synth --n-images -3 --out-dir {tmp}/synth", "n_images >= 0", id="synth-negative-images"),
    pytest.param("synth --n-classes 0 --out-dir {tmp}/synth", "n_classes >= 1", id="synth-no-classes"),
    pytest.param("synth --out-dir {tmp}/synth --out {tmp}/missing/s.json",
                 "No such file or directory", id="synth-out-in-missing-dir"),
    pytest.param("eval --gt {data}/gt.json --dets {data}/final_dets.json --out {tmp}/r.json --pr-csv {file}/pr.csv",
                 "Not a directory", id="eval-pr-csv-under-a-file"),
    pytest.param("eval --gt {data}/gt.json --dets {data}/final_dets.json --out {file}/x/r.json",
                 "Not a directory", id="eval-out-below-a-file"),
    pytest.param("synth --out-dir {tmp}/synth --out {tmp}/synth/sub/s.json",
                 "No such file or directory", id="synth-out-below-out-dir"),
    pytest.param("synth --out-dir {tmp}/synth --out {tmp}/synth/gt.json",
                 "--out and --out-dir/gt.json name the same file", id="synth-out-is-its-gt"),
    pytest.param("eval --gt {data}/gt.json --dets {data}/final_dets.json --out {tmp}/r.json --pr-csv {tmp}/r.json",
                 "--pr-csv and --out name the same file", id="eval-pr-csv-is-out"),
    pytest.param("eval --gt {file} --dets {data}/final_dets.json --out {tmp}/../existing.txt",
                 "--out and --gt name the same file", id="eval-out-is-its-gt"),
]


@pytest.mark.parametrize(("argv", "reason"), _REFUSED_RUNS)
def test_refused_run_exits_2_with_one_error_line(synth_dir, tmp_path, argv, reason):
    # a real process, so the exit code is the one a shell sees
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    args = [a.format(data=synth_dir, tmp=scratch, file=existing) for a in argv.split()]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "corrdet.cli", *args], env=env, capture_output=True, text=True)
    assert run.returncode == 2
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert "Traceback" not in run.stderr
    # refused before any work: no output anywhere
    assert run.stdout == ""
    assert list(scratch.iterdir()) == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats alone costs about a second per CLI process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, corrdet.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
