#!/usr/bin/env bash
# The mutant catalogue. Each scripts/mutants/<name>.patch is one small
# deliberate defect; the `Check:` lines of its header name the tests that
# must catch it, as `cargo test` arguments. For every patch this script
#
#   1. runs the named checks on a clean copy of the working tree (once
#      per distinct check): each must pass and run at least one test;
#   2. applies the patch to the copy with `git apply` and builds the
#      checks (--offline; a mutant that does not build is an error);
#   3. runs the checks again: the mutant is caught when every one fails,
#      and missed otherwise;
#   4. reverts the patch.
#
# It prints caught or missed per mutant and exits non-zero when any
# mutant is missed or cannot be run.
#
#   scripts/mutants/run.sh                     # the whole catalogue
#   scripts/mutants/run.sh logmu_log2 ...      # the named mutants
#
# The copy lives under ${TMPDIR:-/tmp}/corrfuse-mutants and all mutants
# build into one target directory there (or CARGO_TARGET_DIR, if set),
# so each rebuild recompiles only what a patch touches. Needs the Rust
# toolchain and git, nothing else.
set -euo pipefail

repo=$(cd "$(dirname "$0")/../.." && pwd)
work=${TMPDIR:-/tmp}/corrfuse-mutants
tree=$work/tree
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

names=("$@")
if [ ${#names[@]} -eq 0 ]; then
  for patch in "$repo"/scripts/mutants/*.patch; do
    names+=("$(basename "$patch" .patch)")
  done
fi

# A fresh copy of the working tree (tracked and untracked files, not
# ignored ones), as its own git repository so patch paths resolve
# against its root. Extracted files get fresh mtimes, so nothing built
# from an earlier run's mutant is mistaken for up to date.
rm -rf "$tree"
mkdir -p "$tree"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) | tar -xmf - -C "$tree"
git -C "$tree" init -q

# `cargo test <args>` in the copy; its output goes to $log.
log=$work/check.log
check() {
  # shellcheck disable=SC2086 # the check's arguments split on spaces
  (cd "$tree" && cargo test --offline -q $1) >"$log" 2>&1
}

# Every check must pass on the clean tree and run at least one test,
# or a mutant would count as caught by a check that never held.
status=0
declare -A checks_of
verified=$'\n'
for name in "${names[@]}"; do
  patch=$repo/scripts/mutants/$name.patch
  checks_of[$name]=$([ -f "$patch" ] && sed -n 's/^Check: //p' "$patch" || true)
  if [ -z "${checks_of[$name]}" ]; then
    echo "$name: ERROR, no such patch or no Check: line in its header"
    status=1
    continue
  fi
  while IFS= read -r c; do
    case $verified in *$'\n'"$c"$'\n'*) continue ;; esac
    if check "$c" && grep -qE 'test result: ok\. [1-9]' "$log"; then
      verified+="$c"$'\n'
    else
      echo "$name: ERROR, check fails or runs no test on the clean tree: $c"
      tail -n 20 "$log"
      status=1
    fi
  done <<<"${checks_of[$name]}"
done
[ "$status" = 0 ] || exit "$status"

for name in "${names[@]}"; do
  patch=$repo/scripts/mutants/$name.patch
  start=$SECONDS
  if ! git -C "$tree" apply "$patch"; then
    echo "$name: ERROR, the patch does not apply"
    status=1
    continue
  fi
  verdict=caught
  while IFS= read -r c; do
    # shellcheck disable=SC2086 # the check's arguments split on spaces
    if ! (cd "$tree" && cargo test --offline -q --no-run $c) >"$log" 2>&1; then
      tail -n 20 "$log"
      verdict="ERROR, the mutant does not build"
      break
    fi
    if check "$c"; then
      echo "$name: passes $c"
      verdict=MISSED
    fi
  done <<<"${checks_of[$name]}"
  git -C "$tree" apply -R "$patch"
  echo "$name: $verdict ($((SECONDS - start)) s)"
  [ "$verdict" = caught ] || status=1
done
exit "$status"
