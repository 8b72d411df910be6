"""Dict-building reference for the `model --format json` document.

`cli.model_document` renders the JSON text directly.  This is the earlier
route, kept so that tests can compare the two: build the whole document as
dicts and lists, then encode it with `json.dumps(indent=2, sort_keys=True)`.
"""

import json
from itertools import groupby


def poly_json(stage, poly) -> list:
    gens = stage.gens
    out = []
    for mono in sorted(poly.terms):
        coeff = poly.terms[mono]
        out.append(
            {
                "coeff": str(coeff),
                "monomial": [[gens[i].name, len(list(run))] for i, run in groupby(mono)],
            }
        )
    return out


def model_document(stage, table, meta: dict) -> dict:
    return {
        "generators": [
            {
                "name": g.name,
                "degree": g.degree,
                "differential": poly_json(stage, stage.diff.image(i)),
            }
            for i, g in enumerate(stage.gens)
        ],
        "ranks": {str(r): v for r, v in table.ranks.items()},
        "meta": meta,
    }


def model_text(stage, table, meta: dict) -> str:
    return json.dumps(model_document(stage, table, meta), indent=2, sort_keys=True)
