#!/bin/sh
# Runs one product invocation (epmctl, an experiment or an example) and
# compares its exit code, stdout and stderr with a golden transcript.
#
#   tests/cli/run_case.sh BINARY GOLDEN [ARGS...]
#
# With EPM_UPDATE_GOLDENS=1 it writes the transcript to GOLDEN instead.
# `epmctl telemetry` reports wall-clock timings; those lines are left out.
set -u
binary=$1
golden=$2
shift 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

EPM_BENCH_REPORT=- "$binary" "$@" >"$tmp/stdout" 2>"$tmp/stderr"
code=$?
if [ "${1:-}" = telemetry ]; then
  grep -v -E '^  (ingest|flush \(seal\)|trailing-hour query|gates:) ' \
    "$tmp/stdout" >"$tmp/kept"
  mv "$tmp/kept" "$tmp/stdout"
fi
{
  echo "exit $code"
  echo "--- stdout"
  cat "$tmp/stdout"
  echo "--- stderr"
  cat "$tmp/stderr"
} >"$tmp/transcript"

if [ "${EPM_UPDATE_GOLDENS:-0}" = 1 ]; then
  cp "$tmp/transcript" "$golden"
  exit 0
fi
if ! diff -u "$golden" "$tmp/transcript"; then
  echo "$binary $* does not match $golden" >&2
  exit 1
fi
