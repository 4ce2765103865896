#!/usr/bin/env bash
# Build the CLI and the benchmark from source, then run the benchmark:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled ./bin/main.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --cli ./_build/default/bin/main.exe "$@"
