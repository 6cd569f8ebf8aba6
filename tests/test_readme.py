"""The README's manifest example and key table, checked against the config
dataclasses: a field or a count rule that changes without the README
changing fails here."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from lexigauge.errors import ConfigError
from lexigauge.report import (
    AnalysisConfig,
    CorpusConfig,
    OutputConfig,
    RunConfig,
    load_run_config,
)
from lexigauge.textproc import TokenPolicy

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

SECTIONS = {
    "top level": RunConfig,
    "corpus": CorpusConfig,
    "analysis": AnalysisConfig,
    "token_policy": TokenPolicy,
    "output": OutputConfig,
}

# (section, key, JSON kind) of each row of the key table.
ROWS = re.findall(r"^\| ([a-z_ ]+) \| `(\w+)` \| ([^|]+) \|", README, re.MULTILINE)


def test_manifest_example_loads(tmp_path):
    example = README.split("A manifest looks like:", 1)[1]
    manifest = tmp_path / "run.json"
    manifest.write_text(example.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    config = load_run_config(manifest)
    assert [c.label for c in config.corpora] == ["Journal A", "Journal B"]
    assert (config.corpora[0].sample_size, config.corpora[0].seed) == (650, 42)


def test_key_table_lists_every_config_field():
    listed = {section: [] for section in SECTIONS}
    for section, key, _ in ROWS:
        listed[section].append(key)
    assert listed == {
        section: [f.name for f in fields(cls)] for section, cls in SECTIONS.items()
    }


def _config(section: str, key: str, value):
    if section == "corpus":
        return CorpusConfig("a.csv", "A", **{"seed": 0, key: value})
    return AnalysisConfig(**{key: value})


# The integer rows and the range their JSON kind states.
_COUNT_ROWS = [row for row in ROWS if row[2].startswith("integer")]


@pytest.mark.parametrize("section,key,kind", _COUNT_ROWS, ids=[row[1] for row in _COUNT_ROWS])
def test_a_python_config_keeps_each_integer_rule_of_the_table(section, key, kind):
    bound = re.match(r"integer (?:≥ (\d+)|> (\d+)|from ([\d,]+) to ([\d,]+))", kind)
    assert bound, f"{key}: the table states no range for {kind!r}"
    at_least, above, low, high = bound.groups()
    minimum = int(at_least or low.replace(",", "")) if above is None else int(above) + 1
    assert getattr(_config(section, key, minimum), key) == minimum
    refused = [minimum - 1, True, float(minimum)]
    if high:
        maximum = int(high.replace(",", ""))
        assert getattr(_config(section, key, maximum), key) == maximum
        refused.append(maximum + 1)
    for value in refused:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            _config(section, key, value)
