#!/usr/bin/env bash
# Build the benchmark and the dynmos CLI from source, then run one
# workload:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  See perfbench/README.md.
set -u
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/perfbench.exe ./bin/dynmos_cli.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
PERFBENCH_NPROC=$(nproc 2>/dev/null || echo unknown)
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  PERFBENCH_COMMIT=$(git rev-parse HEAD)
  if [ -n "$(git status --porcelain --untracked-files=no)" ]; then PERFBENCH_DIRTY=true; else PERFBENCH_DIRTY=false; fi
else
  PERFBENCH_COMMIT=unknown
  PERFBENCH_DIRTY=unknown
fi
export PERFBENCH_NPROC PERFBENCH_COMMIT PERFBENCH_DIRTY
exec ./_build/default/perfbench/perfbench.exe "$@"
