#!/usr/bin/env bash
# Lists the library functions that no shipped binary reaches and checks the
# list against tools/dead_code_keep.txt.
#
#   tools/dead_code.sh [BUILD_DIR]        # default BUILD_DIR: build-deadcode
#
# Builds every bench/ and examples/ binary (BUILD_TESTING=OFF) and perf_bench
# (perfbench/CMakeLists.txt) at -O0 with one section per function, and links
# them with --gc-sections. A strong green:: text symbol that is defined in a
# libgreen_*.a archive but present in no binary is unreached. -O0 matters: an
# optimized build inlines a function into its only caller, so the function
# would look unreached when it is not.
#
# Exits 1 and prints a diff when the unreached list differs from the keep
# list: a new line (+) is a function to delete or to justify in the keep
# list; a removed line (-) is a keep-list entry that is no longer unreached.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build-deadcode}
mkdir -p "$out"
out=$(cd "$out" && pwd)
flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Build output goes to build.log; it is printed only when a step fails.
run() { "$@" >>"$out/build.log" 2>&1 || { cat "$out/build.log"; exit 1; }; }
: >"$out/build.log"
run cmake -S "$root" -B "$out/main" -DBUILD_TESTING=OFF "${flags[@]}"
run cmake --build "$out/main" -j"$(nproc)"
run cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}"
run cmake --build "$out/perfbench" -j"$(nproc)" --target perf_bench

binaries=$(find "$out/main/bench" "$out/main/examples" -maxdepth 1 \
             -type f -perm -u+x; echo "$out/perfbench/perf_bench")

# Mangled names: strong text symbols of the archives, and everything the
# binaries define.
nm --defined-only "$out"/main/src/libgreen_*.a |
  awk '$2 == "T" { print $3 }' | sort -u > "$out/library.txt"
for b in $binaries; do nm --defined-only "$b"; done |
  awk '{ print $3 }' | sort -u > "$out/linked.txt"

comm -23 "$out/library.txt" "$out/linked.txt" | c++filt |
  { grep '^green::' || true; } | sort -u > "$out/unreached.txt"
sed -e 's/[[:space:]]*#.*//' -e '/^$/d' "$root/tools/dead_code_keep.txt" |
  sort -u > "$out/keep.txt"

if ! diff -u "$out/keep.txt" "$out/unreached.txt"; then
  echo "dead-code: unreached functions differ from tools/dead_code_keep.txt" >&2
  exit 1
fi
echo "dead-code: $(wc -l < "$out/unreached.txt") unreached functions, all in the keep list"
