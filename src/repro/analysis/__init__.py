"""``repro.analysis`` — machine checks for the serving stack's invariants.

* ``repro lint`` (:mod:`~repro.analysis.linter`): per-module rules
  (:mod:`~repro.analysis.rules`, KSP002–KSP007) and whole-program rules
  (:mod:`~repro.analysis.project_rules`, KSP008, KSP009, KSP011) over a
  symbol table (:mod:`~repro.analysis.symbols`) and an approximate call
  graph (:mod:`~repro.analysis.callgraph`).  Stdlib-only.
* ``REPRO_LOCK_DEBUG=1`` (:mod:`~repro.analysis.lockdebug`): the runtime
  lock-order graph and the write guards over each class's
  ``_guarded_by`` declaration.

Nothing is imported here: every server, worker and CLI start imports
``lockdebug`` and must not pay for the linter.  See
``docs/static-analysis.md`` for the rule catalogue.
"""
