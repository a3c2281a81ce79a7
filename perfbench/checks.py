"""Correctness checks: verdicts against known answers, countermodels by
evaluation.

A False verdict is only as good as its countermodel, so every distinct
countermodel the program returns is re-checked with the public evaluators
(``satisfies_tbox``, ``satisfies_union``): it must be a model of the schema,
match the left-hand side and avoid the right-hand side.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

ANSWERS = Path(__file__).resolve().parent / "answers.json"


def load_answers() -> dict:
    """Item id → ``{"contained": bool, "source": str}``."""
    return json.loads(ANSWERS.read_text())["answers"]


def countermodel_error(model, lhs: str, rhs: str, tbox) -> Optional[str]:
    """Why ``model`` fails to witness ``lhs ⊄_tbox rhs``, or ``None``."""
    from repro import parse_query, satisfies_tbox, satisfies_union

    if tbox is not None and not satisfies_tbox(model, tbox):
        return "countermodel violates the schema"
    if not satisfies_union(model, parse_query(lhs)):
        return "countermodel does not match the lhs"
    if satisfies_union(model, parse_query(rhs)):
        return "countermodel matches the rhs"
    return None


class VerdictChecker:
    """Compares verdicts with the answer file; checks each distinct
    countermodel once."""

    def __init__(self, items: dict, schemas: dict, answers: dict) -> None:
        self.items = items
        self.schemas = schemas
        self.answers = answers
        self._seen: dict = {}
        self.failures: list[str] = []

    def check(self, item_id: str, contained: bool, countermodel=None) -> bool:
        """``countermodel`` is a ``Graph`` or a wire dict (or ``None``)."""
        expected = self.answers[item_id]["contained"]
        if contained != expected:
            self.failures.append(f"{item_id}: verdict {contained}, expected {expected}")
            return False
        if contained or countermodel is None:
            return True
        if isinstance(countermodel, dict):
            from repro.io import graph_from_dict

            fingerprint = json.dumps(countermodel, sort_keys=True)
            model = None
        else:
            fingerprint = countermodel.describe()
            model = countermodel
        key = (item_id, fingerprint)
        if key not in self._seen:
            if model is None:
                model = graph_from_dict(countermodel)
            item = self.items[item_id]
            error = countermodel_error(model, item.lhs, item.rhs, self.schemas.get(item.schema))
            self._seen[key] = error
            if error is not None:
                self.failures.append(f"{item_id}: {error}")
        return self._seen[key] is None
