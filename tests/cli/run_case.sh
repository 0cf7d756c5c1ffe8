#!/bin/sh
# Runs one epmctl invocation and compares its exit code, stdout and stderr
# with a golden transcript.
#
#   tests/cli/run_case.sh EPMCTL GOLDEN [ARGS...]
#
# With EPM_UPDATE_GOLDENS=1 it writes the transcript to GOLDEN instead.
# `epmctl telemetry` reports wall-clock timings; those lines are left out.
set -u
epmctl=$1
golden=$2
shift 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

EPM_BENCH_REPORT=- "$epmctl" "$@" >"$tmp/stdout" 2>"$tmp/stderr"
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
  echo "epmctl $* does not match $golden" >&2
  exit 1
fi
