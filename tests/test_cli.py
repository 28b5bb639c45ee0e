"""CLI: exit codes, report shapes, determinism, flag plumbing."""

import json
import os
import subprocess
import sys

import pytest

import corrdet.cli as cli
from corrdet.gradcheck import GradcheckResult, GradcheckRow
from corrdet.ingest import load_report


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats alone costs about a second per CLI process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, corrdet.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
