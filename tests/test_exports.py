"""The package's public names all exist, each listed once."""

import paretoreg


def test_every_export_resolves_once():
    names = paretoreg.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(paretoreg, name)
