"""The report format: ``bench_report.schema.json`` beside this file is
the one definition of the JSON reports that ``make_report``,
``run_ablation`` and the ``probe``, ``bench``, ``ablate`` and ``demo``
commands write.  The package builds every report itself and does not
check it at run time; tier-1 checks every writer against the schema.

Tests import it as ``from report_schema import validate_report``; pytest
puts this directory on ``sys.path``.
"""

import json
from pathlib import Path

import jsonschema

SCHEMA = json.loads(Path(__file__).with_name("bench_report.schema.json")
                    .read_text("ascii"))


def validate_report(report: dict) -> None:
    """Raises ``jsonschema.ValidationError`` unless ``report`` fits."""
    jsonschema.validate(report, SCHEMA)
