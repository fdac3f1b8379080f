import pytest

from revkit.config import (
    DEFAULT_SENTENCE_THRESHOLDS,
    RunConfig,
    load_config,
    parse_config_text,
)
from revkit.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.tau1 == 0.28
    assert cfg.method == "simple"
    assert cfg.jobs == 1


def test_effective_threshold_tracks_metric():
    for metric, want in DEFAULT_SENTENCE_THRESHOLDS.items():
        assert RunConfig(sentence_metric=metric).effective_sentence_threshold() == want
    explicit = RunConfig(sentence_metric="jaccard", sentence_threshold=0.6)
    assert explicit.effective_sentence_threshold() == 0.6


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"tau1": 1.5}, "tau1"),
        ({"tau3": -0.1}, "tau3"),
        ({"sentence_metric": "cosine"}, "unknown sentence_metric"),
        ({"sentence_threshold": 2.0}, "sentence_threshold"),
        ({"max_level": -1}, "max_level"),
        ({"method": "magic"}, "unknown method"),
        ({"kept_definition": "all"}, "kept_definition"),
        ({"bins": 0}, "bins"),
        ({"jobs": 0}, "jobs"),
        ({"tau4": -0.1}, "tau4"),
    ],
)
def test_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**kwargs)


def test_parse_config_text():
    text = """
    # comment line
    tau1 = 0.5
    max_level = 3       # trailing comment
    sentence_threshold = none
    method = diff
    """
    got = parse_config_text(text)
    assert got == {
        "tau1": 0.5,
        "max_level": 3,
        "sentence_threshold": None,
        "method": "diff",
    }


@pytest.mark.parametrize(
    "line,message",
    [
        ("tau9 = 0.5", "unknown key 'tau9'"),
        ("just words", "expected key = value"),
        ("= 0.5", "expected key = value"),
        ("jobs = plenty", "bad value for jobs"),
        ("tau1 = 0.1\ntau1 = 0.2", "duplicate key 'tau1'"),
    ],
)
def test_parse_config_errors(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line)


def test_parse_config_reports_location():
    with pytest.raises(ConfigError, match=r"my\.cfg:2"):
        parse_config_text("tau1 = 0.1\nwhat\n", where="my.cfg")


def test_load_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau1 = 0.5\nbins = 4\n")
    cfg = load_config(str(path), {"bins": 7, "jobs": None})
    # the flag beats the file; None overrides are ignored
    assert cfg.tau1 == 0.5
    assert cfg.bins == 7
    assert cfg.jobs == 1


def test_load_config_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("method = caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=r"run\.cfg: not valid UTF-8"):
        load_config(str(path), {})


def test_load_config_without_file():
    cfg = load_config(None, {"method": "parse"})
    assert cfg.method == "parse"

