"""Anchors this directory on sys.path so tests can import the shared oracles."""


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this checkout's src ahead of PYTHONPATH; name what was imported.
    import lucaskit

    return f"lucaskit: {lucaskit.__file__}"
