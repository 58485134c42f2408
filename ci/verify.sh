#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the test suite,
# record the hot-path perf trajectory (BENCH_core.json), and check that the
# public face (README, DESIGN anchors) stays in sync with the code.
#
# One entry point for every CI leg (.github/workflows/ci.yml):
#   --build-type=<Release|Debug>   default Release
#   --sanitize=<asan|tsan>         sanitizer build (own build dir)
#   --no-bench                     skip the perf smoke (Debug/sanitizer legs)
#   --quick-tests                  run `ctest -L quick` only (sanitizer legs
#                                  skip the socket/fork-heavy `slow` label)
#   --test-label=<label>           run only tests carrying a ctest label
#                                  (the lossy-link leg passes `lossy`:
#                                  fault-injection, reliability and registry
#                                  tests, including the 20%-loss parity pins)
#   --native-pins                  also build the trajectory pins and the
#                                  kernel tests with -march=native in
#                                  build-native/ and require the unchanged
#                                  default-flag digests (DESIGN.md §5); it
#                                  bites only on a host with FMA
set -euo pipefail

cd "$(dirname "$0")/.."

build_type=Release
sanitize=""
run_bench=1
native_pins=0
test_label_args=()
for arg in "$@"; do
  case "$arg" in
    --build-type=*) build_type="${arg#*=}" ;;
    --sanitize=*)   sanitize="${arg#*=}" ;;
    --no-bench)     run_bench=0 ;;
    --quick-tests)  test_label_args=(-L quick) ;;
    --test-label=*) test_label_args=(-L "${arg#*=}") ;;
    --native-pins)  native_pins=1 ;;
    *) echo "usage: ci/verify.sh [--build-type=T] [--sanitize=asan|tsan]" \
            "[--no-bench] [--quick-tests] [--test-label=L] [--native-pins]" >&2
       exit 2 ;;
  esac
done

# ---------------------------------------------------------------- docs ----
# The docs checks run first: they are cheap and a missing README should fail
# fast, before a long build.  Every failure is reported — the check never
# stops at the first missing item.
docs_failures=()

if [[ ! -f README.md ]]; then
  docs_failures+=("README.md is missing")
fi

# Every example must be discoverable from the README.
if [[ -f README.md ]]; then
  for example in examples/*.cpp; do
    name=$(basename "$example")
    if ! grep -q "$name" README.md; then
      docs_failures+=("$example is not mentioned in README.md")
    fi
  done
fi

# The tracked perf record must carry every scenario and summary scalar the
# docs promise and pass every pin the multicore-bench CI leg holds a fresh
# record to — one script, ci/check_bench_record.py, checks both, so the
# tracked record and the CI assertions cannot drift apart.
if [[ ! -f BENCH_core.json ]]; then
  docs_failures+=("BENCH_core.json (the tracked perf record) is missing")
elif ! python3 ci/check_bench_record.py BENCH_core.json >/dev/null; then
  docs_failures+=("BENCH_core.json fails ci/check_bench_record.py — regenerate with bench_bench_core (or ci/promote_bench.sh)")
fi

# Every --flag the README shows must be accepted somewhere: a flag name
# quoted in the shared flag parser, an example or a bench binary, a
# verify.sh option, or a perfbench/run.py argument.  Deleting a flag then
# cannot strand the prose that documents it.  The README also quotes the
# build tools' own --build, --output-on-failure and --help.
if [[ -f README.md ]]; then
  for flag in $(grep -oE -- '--[a-z][a-z0-9-]*' README.md | sort -u); do
    case "$flag" in
      --build|--output-on-failure|--help) continue ;;
    esac
    if grep -qE "\"(--)?${flag#--}[\"=]" src/common/flags.cpp examples/*.cpp \
         bench/*.cpp perfbench/run.py ||
       grep -qE -- "^ *${flag}[=)]" ci/verify.sh; then
      continue
    fi
    docs_failures+=("README.md shows $flag, which nothing accepts")
  done
fi

# The ANN query plane (DESIGN.md §16) is opt-in through --index on the peer
# selection demo; the README must keep the flag discoverable.
if [[ -f README.md ]] && ! grep -q -- '--index' README.md; then
  docs_failures+=("README.md does not document the --index flag")
fi

# The fault/reliability demo flags (DESIGN.md §15) gate the multi-host story;
# the README must keep the lossy-link and rendezvous modes discoverable.
if [[ -f README.md ]]; then
  for flag in '--drop' '--reliable' '--registry' '--kill-after'; do
    if ! grep -q -- "$flag" README.md; then
      docs_failures+=("README.md does not document the $flag flag")
    fi
  done
fi

# Every "DESIGN.md §N" a source comment (or workflow file) cites must resolve
# to a real section header, so renumbering DESIGN.md can't silently strand
# references.  The first grep captures the whole citation span — including
# list forms like "DESIGN.md §6, §8, §9" — so every listed section is checked.
for section in $(grep -rhoE "DESIGN\.md §[0-9]+((, ?| and )§[0-9]+)*" \
                   src bench examples tests ci .github 2>/dev/null \
                   | grep -oE "[0-9]+" | sort -un); do
  if ! grep -qE "^## §${section}[^0-9]" DESIGN.md; then
    docs_failures+=("a code comment cites DESIGN.md §${section}, which does not exist")
  fi
done

# Every backticked test binary name (`<dir>_<name>_test`) the docs or a code
# comment cites must be a real test, tests/<dir>/<name>_test.cpp, so deleting
# or renaming a test can't strand the prose that points at it.
for cited in $(grep -rhoE '`[a-z0-9]+_[a-z0-9_]+_test`' \
                 DESIGN.md README.md .claude/skills/verify/SKILL.md src tests \
                 2>/dev/null | tr -d '`' | sort -u); do
  source_file="tests/${cited%%_*}/${cited#*_}.cpp"
  if [[ ! -f "$source_file" ]]; then
    docs_failures+=("the docs cite \`$cited\`, but $source_file does not exist")
  fi
done

# Every identifier the docs backtick — qualified (`ann::PeerIndex`) or
# PascalCase, with or without `()` — must be spelled by the code, so deleting
# or renaming a type, function or test cannot strand the prose that names
# it.  The code is the C++ and Python sources under src, bench, examples,
# perfbench and tests with their comments stripped: a comment that still
# spells a deleted name (a removal note, say) must not keep the prose that
# names it alive.  String and character literals are kept whole, so a "//"
# inside one starts no comment.  A PascalCase name must occur as a whole
# word.  A qualified name `...Q::M` is checked whole: the code must spell
# `Q::M`, or a file that defines `class Q` or `struct Q` (an `enum class`
# too), or opens `namespace ...Q`, must spell `M` as a whole word.  So a
# member named under the wrong class fails even where another class has it.
doc_files=(DESIGN.md README.md .claude/skills/verify/SKILL.md)
stripped_code=$(mktemp -d)
trap 'rm -rf "$stripped_code"' EXIT
while IFS= read -r -d '' file; do
  mkdir -p "$stripped_code/$(dirname "$file")"
  case "$file" in
    *.py) perl -pe 's/#.*//' "$file" > "$stripped_code/$file" ;;
    *) perl -0777 -pe 's{("(?:[^"\\\n]|\\.)*"|\x27(?:[^\x27\\\n]|\\.)*\x27)|//[^\n]*|/\*.*?\*/}{defined $1 ? $1 : " "}gse' \
         "$file" > "$stripped_code/$file" ;;
  esac
done < <(find src bench examples perfbench tests \
           \( -name '*.cpp' -o -name '*.hpp' -o -name '*.py' \) -print0)
code_words=$(cat -- $(find "$stripped_code" -type f) |
             grep -oE '[A-Za-z_~][A-Za-z0-9_]*' | sort -u)
while IFS= read -r name; do
  if [[ "$name" != *::* ]]; then
    if ! grep -qxF -- "$name" <<<"$code_words"; then
      docs_failures+=("the docs name \`$name\`, which no code under src, bench, examples, perfbench or tests spells")
    fi
    continue
  fi
  member=${name##*::}
  scope=${name%::*}
  scope=${scope##*::}
  if grep -rqP -- "(?<![A-Za-z0-9_])\Q${scope}::${member}\E(?![A-Za-z0-9_])" \
       "$stripped_code"; then
    continue
  fi
  found=0
  while IFS= read -r -d '' declaring; do
    if grep -qP -- "(?<![A-Za-z0-9_])\Q${member}\E(?![A-Za-z0-9_])" "$declaring"; then
      found=1
      break
    fi
  done < <(grep -rlZP -- "\b(class|struct)\s+\Q${scope}\E\b(?!\s*;)|\bnamespace\s+(\w+::)*\Q${scope}\E\b" \
             "$stripped_code")
  if [[ $found -eq 0 ]]; then
    docs_failures+=("the docs name \`$name\`, but no code spells \`${scope}::${member}\` and no file declaring \`${scope}\` spells \`${member}\`")
  fi
done < <(grep -hoE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)*(\(\))?`' \
           "${doc_files[@]}" 2>/dev/null | tr -d '`' | sed 's/()$//' |
         grep -E '::|^[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*$' | sort -u)

if [[ ${#docs_failures[@]} -ne 0 ]]; then
  for failure in "${docs_failures[@]}"; do
    echo "docs check: $failure" >&2
  done
  echo "docs check failed (${#docs_failures[@]} problem(s))" >&2
  exit 1
fi
echo "docs check passed"

# ---------------------------------------------------------------- build ----
# Sanitizer builds get their own directory so a plain rebuild never links
# against instrumented objects; the default build dir stays `build`.
build_dir=build
if [[ -n "$sanitize" ]]; then
  build_dir="build-$sanitize"
fi

cmake_args=(-B "$build_dir" -S . -DCMAKE_BUILD_TYPE="$build_type"
            -DDMFSGD_SANITIZE="$sanitize")
# ccache keeps the CI matrix warm; harmless to omit locally.
launcher_args=()
if command -v ccache >/dev/null 2>&1; then
  launcher_args=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
cmake_args+=(${launcher_args[@]+"${launcher_args[@]}"})
cmake "${cmake_args[@]}"
cmake --build "$build_dir" -j"$(nproc)"
# (The empty-array guard keeps `set -u` happy on bash < 4.4.)
(cd "$build_dir" && ctest --output-on-failure -j"$(nproc)" \
   ${test_label_args[@]+"${test_label_args[@]}"})

# Perf smoke (quick tier): fused SGD kernels vs the frozen seed baseline,
# parallel full-matrix sweep, end-to-end round throughput.  Catches perf-path
# build breaks in CI.  Writes into the build dir — the tracked
# BENCH_core.json is the curated full-run trajectory record and must only be
# replaced by a deliberate full `bench_bench_core BENCH_core.json` run on a
# multi-core host, never by CI (the dedicated multi-core CI leg uploads its
# run as an artifact instead of committing it).
if [[ $run_bench -eq 1 ]]; then
  if [[ "$build_type" != Release ]]; then
    echo "note: skipping bench — build type $build_type would misrecord it" >&2
  else
    "./$build_dir/bench_bench_core" "$build_dir/BENCH_core_quick.json" --quick
    cat "$build_dir/BENCH_core_quick.json"
  fi
fi

# ---------------------------------------------------------- native pins ----
# One arithmetic on every build (DESIGN.md §5): with every instruction the
# host has, the trajectory digests recorded at the default flags and the
# bit-exact kernel tests must still pass.  The library compiles with
# -ffp-contract=off, so an FMA host cannot fuse a multiply-add; on a host
# without FMA this check cannot fail.
if [[ $native_pins -eq 1 ]]; then
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE="$build_type" \
        -DCMAKE_CXX_FLAGS=-march=native -DDMFSGD_BUILD_BENCH=OFF \
        -DDMFSGD_BUILD_EXAMPLES=OFF \
        ${launcher_args[@]+"${launcher_args[@]}"}
  cmake --build build-native -j"$(nproc)" \
        --target core_trajectory_pin_test linalg_kernels_test
  ./build-native/core_trajectory_pin_test
  ./build-native/linalg_kernels_test
fi
