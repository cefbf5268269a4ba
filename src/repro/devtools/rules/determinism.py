"""RPR001 — seeded randomness only.

The pipeline's content-addressed cache keys (``spec_hash``) promise that
equal specs reproduce bit-identical artifacts. That promise dies the
moment any code inside ``src/repro`` draws entropy the spec does not
control: an unseeded ``np.random.default_rng()`` or any legacy
module-level ``np.random.*`` draw (``rand``, ``normal``, ``seed``, …)
pulls from hidden global state, so a "warm" cache hit would no longer
mean "this exact computation already ran".

The rule flags:

* ``np.random.default_rng()`` with no argument (or an explicit ``None``);
* calls through ``np.random.<draw>`` for any legacy global-state
  function (everything except ``default_rng`` / ``Generator`` /
  ``SeedSequence`` used as types or constructors);
* unseeded entropy-pulling constructors — ``SeedSequence()`` /
  ``PCG64()`` / ``PCG64(None)`` — the route a bootstrap resampler
  would take around the ``default_rng`` check;
* importing those legacy draws directly (``from numpy.random import
  rand``) — the import is the entry point.

RNG must flow in as a ``numpy.random.Generator`` argument or derive
from spec seeds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import LintRule, SourceModule, Violation, register
from .common import build_aliases, dotted_name

#: numpy.random attributes that are legitimate without a hidden global
#: stream: the seeded-generator constructor and the types themselves.
_ALLOWED_ATTRS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Constructors that pull OS entropy when called with no seed argument.
#: ``default_rng`` is handled separately (older message kept verbatim);
#: these are the bit-generator-level escape hatches a bootstrap
#: resampler might reach for.
_SEEDED_CTORS = frozenset({"SeedSequence", "PCG64"})


@register
class SeededRandomnessRule(LintRule):
    code = "RPR001"
    name = "seeded-randomness"
    description = (
        "no unseeded default_rng() or module-level np.random draws; "
        "RNG must derive from spec seeds or arrive as a Generator"
    )
    default_globs = ("*.py",)

    def check(self, module: SourceModule) -> Iterator[Violation]:
        aliases = build_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)

    # ------------------------------------------------------------------
    def _check_import(
        self, module: SourceModule, node: ast.ImportFrom
    ) -> Iterator[Violation]:
        if node.level or node.module != "numpy.random":
            return
        for alias in node.names:
            if alias.name != "*" and alias.name not in _ALLOWED_ATTRS:
                yield self.violation(
                    module,
                    node,
                    f"import of numpy.random.{alias.name} draws from the "
                    f"hidden global stream; thread a seeded "
                    f"np.random.Generator instead",
                )

    def _check_call(
        self, module: SourceModule, node: ast.Call, aliases: dict[str, str]
    ) -> Iterator[Violation]:
        name = dotted_name(node.func, aliases)
        if name is None:
            return
        if name == "numpy.random.default_rng":
            if not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                yield self.violation(
                    module,
                    node,
                    "np.random.default_rng() without a seed draws OS "
                    "entropy, so equal specs stop reproducing equal "
                    "artifacts; derive the seed from the spec "
                    "(e.g. default_rng(spec.seeds.train))",
                )
            return
        if name.startswith("numpy.random."):
            attr = name.split(".")[2]
            if attr in _SEEDED_CTORS:
                # A keyword (entropy=/seed=) counts as seeding; only a
                # bare call or an explicit leading None is entropy.
                if (not node.args and not node.keywords) or (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    yield self.violation(
                        module,
                        node,
                        f"np.random.{attr}() without a seed pulls OS "
                        f"entropy, so resampled draws (and everything "
                        f"computed from them) stop reproducing; derive the "
                        f"seed from the spec or the data content",
                    )
                return
            if attr not in _ALLOWED_ATTRS:
                yield self.violation(
                    module,
                    node,
                    f"np.random.{attr}(...) draws from the hidden global "
                    f"stream and breaks spec_hash cache honesty; use a "
                    f"seeded Generator passed in by the caller",
                )
