#!/usr/bin/env bash
# Lists the functions defined in src/ that no product binary reaches, and
# fails when there are more of them than CEILING.
#
#   tools/unreached.sh
#
# The products are what regenerates the repo's figures and claims: the
# fig*/exp_* binaries in bench/, epmctl, the examples and benchmark/'s
# epm_bench. The script builds all of them in build-unreached/ with
# -O0 -fno-inline -ffunction-sections and links with --gc-sections, so a
# function survives in a binary only if some call path from main keeps it.
# A strong (nm type T) function of a src/ object that no product keeps is
# unreached: only tests call it. Inline and template functions (weak, W)
# and file-local ones (t) are not counted.
#
# Exits 1 when the unreached count is above CEILING. When it falls below,
# lower CEILING to the new count in the same change, so the count only
# goes down. The ceiling was taken with GCC 12.2.
set -euo pipefail
export LC_ALL=C

CEILING=108

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-unreached"
jobs=$(nproc)
flags="-O0 -fno-inline -ffunction-sections"

# Debug with its flags replaced by the probe's, in both projects:
# benchmark/ defaults an empty build type to Release.
configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "${@:3}" >/dev/null
}
configure "$root" "$out/repo" -DEPM_BUILD_TESTS=OFF
configure "$root/benchmark" "$out/bench"
cmake --build "$out/repo" -j "$jobs" >/dev/null
cmake --build "$out/bench" --target epm_bench -j "$jobs" >/dev/null

products=()
while IFS= read -r bin; do products+=("$bin"); done < <(
  find "$out/repo/bench" "$out/repo/tools" "$out/repo/examples" \
    -maxdepth 1 -type f -perm -u+x)
products+=("$out/bench/epm_bench")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every function symbol any product kept.
for bin in "${products[@]}"; do
  nm --defined-only "$bin" | awk '$2 == "T" || $2 == "t" { print $3 }'
done | sort -u > "$tmp/kept"

# Every strong function symbol a src/ object defines, with its source file:
# src/<dir>/CMakeFiles/<lib>.dir/<file>.cpp.o names src/<dir>/<file>.cpp.
while IFS= read -r obj; do
  src=${obj#"$out/repo/"}
  src=$(sed -e 's#/CMakeFiles/[^/]*\.dir/#/#' -e 's#\.o$##' <<< "$src")
  nm --defined-only "$obj" | awk -v src="$src" '$2 == "T" { print src "\t" $3 }'
done < <(find "$out/repo/src" -name '*.cpp.o') | sort -u > "$tmp/symbols"

if [ ! -s "$tmp/symbols" ]; then
  echo "unreached.sh: found no functions in the src/ objects" >&2
  exit 2
fi

# One line per function: file, demangled name, 1 if reached. The
# complete- and base-object variants of a constructor or destructor are
# separate symbols of one function, reached if any of them is kept.
cut -f2 "$tmp/symbols" | c++filt > "$tmp/names"
paste "$tmp/symbols" "$tmp/names" |
  awk -F'\t' 'NR == FNR { kept[$1]; next }
              { fn = $1 "\t" $3; all[fn]; if ($2 in kept) reached[fn] }
              END { for (fn in all) print fn "\t" (fn in reached) }' \
    "$tmp/kept" - | sort > "$tmp/functions"

awk -F'\t' '
  function flush(  i) {
    if (n == 0) return
    printf "%s (%d of %d unreached)\n", file, n, total
    for (i = 1; i <= n; ++i) print "  " names[i]
  }
  $1 != file { flush(); file = $1; total = 0; n = 0 }
  { ++total; if (!$3) names[++n] = $2 }
  END { flush() }' "$tmp/functions"

total=$(wc -l < "$tmp/functions")
unreached=$(awk -F'\t' '!$3' "$tmp/functions" | wc -l)
reached=$((total - unreached))

echo "unreached: $unreached of $total strong src/ functions" \
     "($reached reached by ${#products[@]} products); ceiling $CEILING"
if [ "$unreached" -gt "$CEILING" ]; then
  echo "unreached.sh: $unreached unreached functions, above the ceiling of" \
       "$CEILING. Call the new code from a product, or delete it." >&2
  exit 1
fi
if [ "$unreached" -lt "$CEILING" ]; then
  echo "unreached.sh: below the ceiling; lower CEILING in" \
       "tools/unreached.sh to $unreached."
fi
