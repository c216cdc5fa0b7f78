import apfam


def test_star_import_names_exist():
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec("from apfam import *", namespace)
    assert set(apfam.__all__) <= set(namespace)
