#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (--workload, --seed, --seconds, --trace).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build local.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
