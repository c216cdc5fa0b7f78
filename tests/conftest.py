import pytest
from hypothesis import settings

from apfam import construction, family as family_module

settings.register_profile("det", derandomize=True, max_examples=200)
settings.load_profile("det")


@pytest.fixture
def table_builds(monkeypatch):
    """Counts of the two ways a family's factor table is built: calls of
    factor_table made through Family.factors, and of the construction's
    _tree_table, patched before any construction is built."""
    builds = {"factor_table": 0, "tree": 0}

    def counted(name, real):
        def call(*args):
            builds[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(family_module, "factor_table", counted("factor_table", family_module.factor_table))
    monkeypatch.setattr(construction, "_tree_table", counted("tree", construction._tree_table))
    return builds
