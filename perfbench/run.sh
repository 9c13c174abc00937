#!/bin/sh
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed on to perf.exe (see README.md).  Build output
# goes to stderr, so the last stdout line is the run's result.
set -eu
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perf.exe >&2
exec ./_build/default/perfbench/perf.exe "$@"
