import json
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest

from fcnaug import cli, errors
from fcnaug.cli import main
from fcnaug.data_io import parse_ucr, serialize_ucr
from fcnaug.pipeline import ExperimentReport
from fcnaug.report import REPORT_SCHEMA

from helpers import make_synthetic


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train = make_synthetic(n_per_class=8, length=24, seed=0)
    test = make_synthetic(n_per_class=5, length=24, seed=1)
    train_path = root / "toy_TRAIN.tsv"
    test_path = root / "toy_TEST.tsv"
    train_path.write_text(serialize_ucr(train))
    test_path.write_text(serialize_ucr(test))
    return train_path, test_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path: Path):
    return json.loads(path.read_text())


def read_report(path: Path):
    """A written report file, each of its documents held to REPORT_SCHEMA.

    A sweep file holds a list of documents, any other report file one.
    """
    doc = read_json(path)
    for each in doc if isinstance(doc, list) else [doc]:
        jsonschema.validate(each, REPORT_SCHEMA)
    return doc


def assert_clean_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def assert_out_under_a_file_exits_1(tmp_path, capsys, *argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli(*argv, "--epochs", 1, "--out", blocker / "runs")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert "Traceback" not in err


class TestBaselineCommand:
    def test_smoke_run_writes_artifacts(self, data_files, tmp_path, capsys):
        train, test = data_files
        out = tmp_path / "runs"
        code = run_cli("baseline", "--train", train, "--test", test,
                       "--seed", 7, "--epochs", 2, "--out", out)
        assert code == 0
        report = read_report(out / "baseline.report.json")
        assert report["mode"] == "baseline"
        assert report["train_size_final"] == 16
        assert (out / "baseline.ckpt.json").is_file()
        history = (out / "baseline.history.csv").read_text().strip().splitlines()
        assert len(history) == 3  # header + 2 epochs
        assert "accuracy=" in capsys.readouterr().out

    def test_missing_file_exits_2(self, data_files, tmp_path, capsys):
        _, test = data_files
        code = run_cli("baseline", "--train", tmp_path / "absent.tsv", "--test", test,
                       "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert "absent.tsv" in capsys.readouterr().err

    def test_csv_report_format(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "runs"
        run_cli("baseline", "--train", train, "--test", test,
                "--epochs", 1, "--out", out, "--format", "csv")
        lines = (out / "baseline.report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("mode,alpha_threshold,")
        assert lines[1].startswith("baseline,")
        assert read_report(out / "baseline.report.json")["mode"] == "baseline"

    def test_mixed_label_conventions_exit_2(self, data_files, tmp_path, capsys):
        _, test = data_files
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text("-1\t0.5\t1.5\n0\t1.0\t2.0\n1\t3.0\t4.0\n")
        code = run_cli("baseline", "--train", mixed, "--test", test,
                       "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "mixed.tsv" in err and "[-1, 0, 1]" in err

    def test_odd_sized_test_file_exits_2(self, data_files, tmp_path, capsys):
        train, test = data_files
        lines = Path(test).read_text().splitlines()
        odd = tmp_path / "odd.tsv"
        odd.write_text("\n".join(lines[:-1]) + "\n")
        code = run_cli("baseline", "--train", train, "--test", odd,
                       "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert "odd.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("val", ["bogus", "holdout:0.001"])
    def test_bad_validation_mode_exits_2(self, data_files, tmp_path, capsys, val):
        train, test = data_files
        code = run_cli("baseline", "--train", train, "--test", test,
                       "--val", val, "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("labels", [(1, 2), (-1, 2), (-1, 1, 3)])
    def test_other_label_convention_exits_2(self, data_files, tmp_path, capsys, labels):
        _, test = data_files
        other = tmp_path / "other.tsv"
        other.write_text("".join(f"{label}\t0.5\t1.5\n" for label in labels))
        code = run_cli("baseline", "--train", other, "--test", test,
                       "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "other.tsv" in err and "-1/1" in err and "0/1" in err
        assert f"unsupported label {max(labels)}" in err

    def test_series_length_mismatch_exits_2(self, data_files, tmp_path, capsys, no_training):
        train, _ = data_files
        short = tmp_path / "short.tsv"
        short.write_text(serialize_ucr(make_synthetic(n_per_class=2, length=16, seed=5)))
        code = run_cli("baseline", "--train", train, "--test", short,
                       "--val", "holdout:0.2", "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "short.tsv" in err and "16" in err and "24" in err
        assert not (tmp_path / "o").exists()

    def test_out_under_a_file_exits_1(self, data_files, tmp_path, capsys, no_training):
        train, test = data_files
        assert_out_under_a_file_exits_1(tmp_path, capsys,
                                        "baseline", "--train", train, "--test", test)

    def test_unknown_flag_usage_error(self, data_files):
        train, test = data_files
        with pytest.raises(SystemExit) as exc:
            run_cli("baseline", "--train", train, "--test", test, "--bogus", 1)
        assert exc.value.code == 2


class TestSelectiveCommand:
    def test_artifacts_and_arithmetic(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "runs"
        code = run_cli("selective", "--train", train, "--test", test,
                       "--alpha", 1.0, "--epochs", 2, "--seed", 3, "--out", out)
        assert code == 0
        report = read_report(out / "selective.report.json")
        assert report["mode"] == "selective"
        assert report["augmented_count"] == 2 * report["selected_count"]
        assert report["train_size_final"] == 16 + report["augmented_count"]
        expanded = parse_ucr((out / "selective.train_expanded.tsv").read_text())
        assert len(expanded) == report["train_size_final"]
        assert (out / "selective.initial.ckpt.json").is_file()
        assert (out / "selective.final.ckpt.json").is_file()

    def test_alpha_out_of_range_exits_2(self, data_files, tmp_path, capsys, no_training):
        train, test = data_files
        code = run_cli("selective", "--train", train, "--test", test,
                       "--alpha", 1.5, "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_fraction_used(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "runs"
        run_cli("selective", "--train", train, "--test", test,
                "--alpha", 0.9, "--epochs", 1, "--out", out)
        report = read_report(out / "selective.report.json")
        assert report["config"]["window_fraction"] == 0.7


class TestSweepCommand:
    def test_structure(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "runs"
        code = run_cli("sweep", "--train", train, "--test", test,
                       "--alphas", "0.4,0.9", "--epochs", 1, "--out", out)
        assert code == 0
        table = (out / "sweep.table.csv").read_text().strip().splitlines()
        assert table[0] == "model,alpha,accuracy,loss"
        assert len(table) == 4  # header + baseline + 2 models
        assert table[1].startswith("baseline,,")
        assert table[2].startswith("model_1,0.4,")
        acc_curve = (out / "sweep.accuracy.csv").read_text().strip().splitlines()
        assert acc_curve[0] == "alpha,accuracy"
        assert len(acc_curve) == 3
        assert (out / "sweep.loss.csv").is_file()
        svg = (out / "sweep.accuracy.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        reports = read_report(out / "sweep.reports.json")
        assert len(reports) == 3

    def test_colon_range_parses_inclusive(self, data_files, tmp_path):
        train, test = data_files
        out = tmp_path / "runs"
        run_cli("sweep", "--train", train, "--test", test,
                "--alphas", "0.2:0.6:0.2", "--epochs", 1, "--out", out)
        reports = read_report(out / "sweep.reports.json")
        alphas = [r["alpha_threshold"] for r in reports if r["mode"] == "selective"]
        assert alphas == [0.2, 0.4, 0.6]

    def test_byte_deterministic_reruns(self, data_files, tmp_path):
        train, test = data_files
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("sweep", "--train", train, "--test", test,
                           "--alphas", "0.5,0.9", "--epochs", 2, "--seed", 5,
                           "--out", out, "--no-timestamp")
            assert code == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("alphas", ["nope", "0:inf:0.1", "-inf:0:1"])
    def test_bad_alphas_exits_2(self, data_files, tmp_path, capsys, alphas):
        train, test = data_files
        code = run_cli("sweep", "--train", train, "--test", test,
                       f"--alphas={alphas}", "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert assert_clean_error(capsys).startswith(f"error: bad --alphas value {alphas!r}")
        assert not (tmp_path / "o").exists()

    def test_alpha_out_of_range_exits_2(self, data_files, tmp_path, capsys, no_training):
        train, test = data_files
        code = run_cli("sweep", "--train", train, "--test", test,
                       "--alphas", "0.5,1.2", "--epochs", 1, "--out", tmp_path / "o")
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_under_a_file_exits_1(self, data_files, tmp_path, capsys, no_training):
        train, test = data_files
        assert_out_under_a_file_exits_1(tmp_path, capsys, "sweep", "--train", train,
                                        "--test", test, "--alphas", "0.5")


@pytest.mark.parametrize("command", [
    ["selective", "--alpha", 0.5],
    ["sweep", "--alphas", "0.5"],
])
@pytest.mark.parametrize("flags, config, message", [
    (["--val", "bogus"], {}, "validation mode"),
    ([], {"fraction": 1.5}, "window fraction"),
    ([], {"fraction": 0.1}, "window"),
])
def test_usage_error_creates_no_out(data_files, tmp_path, capsys, no_training,
                                    command, flags, config, message):
    train, test = data_files
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = run_cli(*command, "--train", train, "--test", test, *flags, "--config", config_path,
                   "--epochs", 1, "--out", tmp_path / "o")
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def checkpoint(data_files, tmp_path_factory):
    train, test = data_files
    out = tmp_path_factory.mktemp("ckpt")
    run_cli("baseline", "--train", train, "--test", test,
            "--epochs", 2, "--seed", 1, "--out", out)
    return out / "baseline.ckpt.json"


@pytest.fixture(scope="module")
def run_dir(data_files, tmp_path_factory):
    train, test = data_files
    out = tmp_path_factory.mktemp("run")
    run_cli("baseline", "--train", train, "--test", test,
            "--epochs", 2, "--seed", 9, "--out", out)
    return out


class TestAugmentCommand:
    def test_selection_and_output_counts(self, checkpoint, data_files, tmp_path):
        _, test = data_files
        out = tmp_path / "aug"
        code = run_cli("augment", "--checkpoint", checkpoint, "--probe", test,
                       "--alpha", 1.0, "--seed", 2, "--out", out)
        assert code == 0
        selection = read_json(out / "augment.selection.json")
        assert selection["augmented_count"] == 2 * len(selection["indices"])
        emitted = parse_ucr((out / "augment.augmented.tsv").read_text())
        assert len(emitted) == selection["augmented_count"]
        assert emitted.series_len == 24
        probe_labels = parse_ucr(Path(test).read_text()).labels
        assert emitted.labels.tolist() == [
            int(probe_labels[i]) for i in selection["indices"] for _ in range(2)]

    def test_alpha_zero_writes_empty_with_warning(self, checkpoint, data_files,
                                                  tmp_path, capsys):
        _, test = data_files
        out = tmp_path / "aug0"
        code = run_cli("augment", "--checkpoint", checkpoint, "--probe", test,
                       "--alpha", 0.0, "--out", out)
        assert code == 0
        assert (out / "augment.augmented.tsv").read_text() == ""
        assert "warning" in capsys.readouterr().err.lower()

    def test_alpha_out_of_range_exits_2(self, checkpoint, data_files, tmp_path, capsys):
        _, test = data_files
        code = run_cli("augment", "--checkpoint", checkpoint, "--probe", test,
                       "--alpha", -0.5, "--out", tmp_path / "o")
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_bad_fraction_exits_2_even_if_nothing_selected(self, checkpoint, data_files,
                                                           tmp_path, capsys):
        _, test = data_files
        code = run_cli("augment", "--checkpoint", checkpoint, "--probe", test,
                       "--alpha", 0.0, "--fraction", 1.5, "--out", tmp_path / "o")
        assert code == 2
        assert "window fraction" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_exits_2(self, data_files, tmp_path):
        _, test = data_files
        code = run_cli("augment", "--checkpoint", tmp_path / "no.json",
                       "--probe", test, "--alpha", 0.5, "--out", tmp_path / "o")
        assert code == 2


class TestEvaluateCommand:
    def test_matches_report_numbers(self, run_dir, data_files, tmp_path, capsys):
        _, test = data_files
        report = read_report(run_dir / "baseline.report.json")
        # rebuild the eval half exactly as the pipeline does
        full = parse_ucr(Path(test).read_text())
        test_b_path = tmp_path / "test_b.tsv"
        test_b_path.write_text(serialize_ucr(full.subset(slice(len(full) // 2, None))))
        code = run_cli("evaluate", "--checkpoint", run_dir / "baseline.ckpt.json",
                       "--data", test_b_path, "--format", "json")
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["accuracy"] == report["accuracy"]
        assert metrics["loss"] == report["loss"]

    def test_length_mismatch_exits_1(self, run_dir, tmp_path, capsys):
        other = make_synthetic(n_per_class=3, length=16, seed=5)
        path = tmp_path / "short.tsv"
        path.write_text(serialize_ucr(other))
        code = run_cli("evaluate", "--checkpoint", run_dir / "baseline.ckpt.json",
                       "--data", path)
        assert code == 1
        assert capsys.readouterr().err

    def test_out_from_config_file_writes_metrics(self, run_dir, data_files, tmp_path):
        _, test = data_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "cfgout")}))
        code = run_cli("evaluate", "--checkpoint", run_dir / "baseline.ckpt.json",
                       "--data", test, "--config", config)
        assert code == 0
        assert set(read_json(tmp_path / "cfgout" / "evaluate.json")) == {"accuracy", "loss"}

    def test_corrupt_checkpoint_exits_1(self, run_dir, data_files, tmp_path):
        _, test = data_files
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text("{not json")
        code = run_cli("evaluate", "--checkpoint", bad, "--data", test)
        assert code == 1


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, data_files, tmp_path):
        train, test = data_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 2, "seed": 4}))
        out = tmp_path / "runs"
        code = run_cli("baseline", "--train", train, "--test", test,
                       "--config", config, "--epochs", 3, "--out", out)
        assert code == 0
        report = read_report(out / "baseline.report.json")
        assert report["config"]["epochs"] == 3  # flag wins
        assert report["config"]["seed"] == 4  # file beats default
        assert report["config"]["batch_size"] == 32  # built-in default

    def test_missing_config_exits_2(self, data_files, tmp_path, capsys):
        train, test = data_files
        code = run_cli("baseline", "--train", train, "--test", test,
                       "--config", tmp_path / "none.json", "--out", tmp_path / "o")
        assert code == 2

    @pytest.mark.parametrize("values", [
        {"seed": "abc"},
        {"fraction": "x"},
        {"format": "xml"},
        {"epochs": 2.5},
        {"batch_size": True},
        {"val": 3},
        {"out": ["runs"]},
    ])
    def test_bad_value_exits_2(self, data_files, tmp_path, capsys, values):
        train, test = data_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "out": str(tmp_path / "o"), **values}))
        code = run_cli("baseline", "--train", train, "--test", test, "--config", config)
        assert code == 2
        assert next(iter(values)) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exits_2(self, data_files, tmp_path, capsys, no_training):
        train, test = data_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epoch": 3, "out": str(tmp_path / "o")}))
        code = run_cli("baseline", "--train", train, "--test", test, "--config", config)
        assert code == 2
        assert "'epoch'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integer_fraction_accepted(self, data_files, tmp_path):
        train, test = data_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fraction": 1}))
        out = tmp_path / "runs"
        code = run_cli("selective", "--train", train, "--test", test, "--alpha", 0.5,
                       "--config", config, "--epochs", 1, "--out", out)
        assert code == 0
        assert read_report(out / "selective.report.json")["config"]["window_fraction"] == 1.0


@pytest.mark.parametrize("flag", ["--train", "--config"])
def test_non_utf8_file_exits_2(data_files, tmp_path, capsys, no_training, flag):
    train, test = data_files
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff")
    inputs = {"--train": train, "--test": test, flag: bad}
    code = run_cli("baseline", *[arg for pair in inputs.items() for arg in pair],
                   "--out", tmp_path / "o")
    assert code == 2
    assert "latin1.txt" in assert_clean_error(capsys)
    assert not (tmp_path / "o").exists()


# The InputError family exits 2; every other package error, and OSError, exits 1.
INPUT_ERRORS = {"InputError", "DataFormatError", "DataParseError", "UnsupportedLabelError",
                "SplitError", "ParameterError"}
ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, errors.FcnAugError)]


@pytest.mark.parametrize("error", [*ERROR_CLASSES, OSError], ids=lambda cls: cls.__name__)
def test_error_type_sets_exit_status(monkeypatch, capsys, error):
    def fail(args):
        raise error("it failed")

    monkeypatch.setattr(cli, "cmd_evaluate", fail)
    code = run_cli("evaluate", "--checkpoint", "model.json", "--data", "data.tsv")
    assert code == (2 if error.__name__ in INPUT_ERRORS else 1)
    assert assert_clean_error(capsys) == "error: it failed\n"


def test_report_schema_requires_every_report_field():
    # report_document adds tool_version and an optional timestamp to the
    # fields, so the schema's properties must be exactly these.
    names = [f.name for f in fields(ExperimentReport)]
    assert REPORT_SCHEMA["required"] == names + ["tool_version"]
    assert list(REPORT_SCHEMA["properties"]) == names + ["tool_version", "timestamp"]
