#!/usr/bin/env sh
# Runs clang-tidy (config: .clang-tidy at the repo root) over the library
# sources using the compile database of an existing build directory.
#
# Usage: tools/run_clang_tidy.sh [BUILD_DIR] [PATH_FILTER...]
#   BUILD_DIR    build tree with compile_commands.json (default: build)
#   PATH_FILTER  only lint files whose path contains one of these substrings
#                (default: src/analysis src/rewrite src/checker src/support
#                src/models src/abv src/tlm tools)
#
# Exits 0 with a notice when clang-tidy is not installed, so CI images
# without the tool skip the lint instead of failing.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
[ $# -gt 0 ] && shift
filters=${*:-"src/analysis src/rewrite src/checker src/support src/models src/abv src/tlm tools"}

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_clang_tidy.sh: clang-tidy not found in PATH; skipping lint" >&2
  exit 0
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_clang_tidy.sh: $build_dir/compile_commands.json missing;" >&2
  echo "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first" >&2
  exit 1
fi

status=0
for filter in $filters; do
  for f in "$repo_root"/$filter/*.cc; do
    [ -e "$f" ] || continue
    echo "== clang-tidy $f"
    clang-tidy -p "$build_dir" "$f" || status=1
  done
done
exit $status
