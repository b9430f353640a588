"""silo-analyze: the Silo repo's static analyzer.

Five passes over one lexer, one suppression syntax and one rule catalog:

  lint          per-line determinism and hot-path rules over src/, bench/,
                tests/ and examples/
  layers        module layer-DAG enforcement against layers.json
  shared-state  mutable-shared-state census (emits shared_state.json)
  dispatch      enum/struct dispatch- and serializer-exhaustiveness
  docs          metric catalog, relative markdown links, and the rule
                catalog against DESIGN.md

Run `python3 scripts/silo_analyze --help` for the CLI.
"""
