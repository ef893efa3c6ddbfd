from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_terminal_summary(terminalreporter):
    """How test_output_corpus compared stdout: entries byte for byte, or,
    where the environment differs from the recorded one, by their text between
    floats and each float within a tolerance."""
    counts = Counter()
    for report in terminalreporter.stats.get("passed", []):
        for name, value in report.user_properties:
            counts[name] += value
    if counts:
        terminalreporter.write_line(f"stdout corpus: {counts['bytes']} entries compared byte for byte, "
                                    f"{counts['text']} by text and {counts['floats']} floats within tolerance")
