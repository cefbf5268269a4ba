"""RPR007 — tape discipline in serving/eval/conformal code.

The autograd engine builds a reverse-mode tape for every ``Tensor`` op
executed while gradients are enabled. Training wants that; serving,
evaluation, and conformal calibration never backpropagate, so a
grad-building call on those paths is a silent performance and memory
leak — every query grows a graph nobody will ever traverse. The PR 2
no-grad work moved all inference to either the ndarray-only
``EmbeddingSnapshot`` forward or ``with no_grad():`` blocks; this rule
keeps it that way.

Flagged, unless lexically inside a ``with no_grad():`` block:

* calls to any name imported from the ``repro.nn`` autograd package
  (``Tensor``, functional ops, layer constructors — everything except
  ``no_grad`` / ``is_grad_enabled`` themselves);
* calls through an ``nn``-module alias (``nn.Tensor(...)``);
* the model's tape-building entry points ``compute_embeddings`` /
  ``compute_embeddings_sparse`` on any receiver.

The ndarray snapshot forward (``EmbeddingSnapshot.forward``) and the
model's own ``predict_*`` wrappers (which guard internally) stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import LintRule, SourceModule, Violation, register

#: repro.nn names that are grad-*control*, not grad-building.
_SAFE_NN_NAMES = frozenset({"no_grad", "is_grad_enabled"})

#: Method names that build the autograd tape on the model or trainer.
_TAPE_METHODS = frozenset(
    {
        "compute_embeddings",
        "compute_embeddings_sparse",
        "_fused_step",
    }
)


def _is_nn_module(module_text: str | None, level: int) -> bool:
    """True for ``from ..nn import ...`` / ``from repro.nn import ...``."""
    if module_text is None:
        return False
    parts = module_text.split(".")
    return "nn" in parts if level else parts[:2] == ["repro", "nn"] or (
        len(parts) >= 1 and parts[0] == "nn"
    )


@register
class TapeDisciplineRule(LintRule):
    code = "RPR007"
    name = "tape-discipline"
    description = (
        "serving/eval/conformal code must not run grad-building Tensor "
        "paths outside no_grad()"
    )
    default_globs = (
        "*serving/*.py",
        "*eval/*.py",
        "*conformal/*.py",
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        tape_names, nn_aliases = self._nn_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._tape_target(node, tape_names, nn_aliases)
            if target is None:
                continue
            if self._in_no_grad(module, node):
                continue
            yield self.violation(
                module,
                node,
                f"grad-building call {target}(...) outside no_grad(): "
                f"inference paths must not grow the autograd tape (wrap "
                f"the block in `with no_grad():` or go through the "
                f"ndarray snapshot forward)",
            )

    # ------------------------------------------------------------------
    def _nn_imports(
        self, tree: ast.Module
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Names imported from repro.nn, and aliases of the nn module."""
        names: set[str] = set()
        modules: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if _is_nn_module(node.module, node.level):
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if alias.name not in _SAFE_NN_NAMES:
                            names.add(local)
                elif node.module is not None and any(
                    alias.name == "nn" for alias in node.names
                ):
                    # "from repro import nn" / "from .. import nn"
                    for alias in node.names:
                        if alias.name == "nn":
                            modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[-1] == "nn" or alias.name in (
                        "repro.nn",
                    ):
                        modules.add(alias.asname or alias.name.split(".")[0])
        return frozenset(names), frozenset(modules)

    def _tape_target(
        self,
        node: ast.Call,
        tape_names: frozenset[str],
        nn_aliases: frozenset[str],
    ) -> str | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in tape_names:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in _TAPE_METHODS:
                return func.attr
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in nn_aliases
                and func.attr not in _SAFE_NN_NAMES
            ):
                return f"{func.value.id}.{func.attr}"
        return None

    @staticmethod
    def _in_no_grad(module: SourceModule, node: ast.AST) -> bool:
        for parent in module.ancestors(node):
            if not isinstance(parent, (ast.With, ast.AsyncWith)):
                continue
            for item in parent.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    expr = expr.func
                name = (
                    expr.id
                    if isinstance(expr, ast.Name)
                    else expr.attr
                    if isinstance(expr, ast.Attribute)
                    else None
                )
                if name == "no_grad":
                    return True
        return False
