from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def pytest_terminal_summary(terminalreporter):
    """How test_output_corpus compared stdout: every entry by its text between
    floats and each float within a tolerance, and, where the environment
    matches the recorded one (for a help text, its Python), byte for byte as
    well."""
    counts = Counter()
    for report in terminalreporter.stats.get("passed", []):
        for name, value in report.user_properties:
            counts[name] += value
    if counts:
        terminalreporter.write_line(f"stdout corpus: {counts['text']} entries compared by text and "
                                    f"{counts['floats']} floats within tolerance, {counts['bytes']} of them "
                                    f"also byte for byte")
