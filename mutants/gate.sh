#!/usr/bin/env bash
# The mutant gate: every checked-in mutant must make its named test fail.
#
# Each `mutants/*.patch` is a small `git apply` patch that breaks one
# guarded behaviour, with a header line naming the one test that must
# catch it:
#
#   # test: <package> <test target, or "lib"> <exact test name>
#
# The gate copies the tracked (and untracked, not ignored) files of the
# repository into a throwaway directory, checks that every named test
# passes there unmutated, then for each patch: applies it, builds, runs
# only the named test under `timeout`, and reverts it. It fails when a
# patch no longer applies, a mutant does not compile, or a named test
# passes on its mutant. A test that times out on its mutant counts as
# failing (a hang is caught).
#
# Usage: mutants/gate.sh [patch ...]   (default: every mutants/*.patch)
# The copy goes under $TMPDIR (default /tmp) and is removed on exit.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
# Seconds per run of a named test: a hang counts as caught after this.
timeout_s=120
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ "$#" -gt 0 ]; then
    patches=()
    for p in "$@"; do patches+=("$(realpath "$p")"); done
else
    patches=("$root"/mutants/*.patch)
fi

(
    cd "$root"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
        tar --null -T - -cf -
) | tar -xf - -C "$work"
cd "$work"
export CARGO_TARGET_DIR="$work/target"

# The named test of a patch, as cargo arguments.
test_args() {
    local spec pkg target name
    spec=$(grep -m1 '^# test: ' "$1" | sed 's/^# test: //')
    read -r pkg target name <<<"$spec"
    if [ -z "$name" ]; then
        echo "$1: no '# test: <package> <target> <name>' header" >&2
        return 1
    fi
    if [ "$target" = lib ]; then
        echo "-p $pkg --lib -- --exact $name"
    else
        echo "-p $pkg --test $target -- --exact $name"
    fi
}

failed=0
for patch in "${patches[@]}"; do
    args=$(test_args "$patch")
    # shellcheck disable=SC2086
    out=$(cargo test -q $args 2>&1) || true
    if ! grep -q '^test result: ok. 1 passed' <<<"$out"; then
        echo "FAIL $(basename "$patch"): its test does not pass unmutated: $args"
        failed=1
    fi
done
[ "$failed" -eq 0 ] || exit 1

for patch in "${patches[@]}"; do
    name=$(basename "$patch")
    args=$(test_args "$patch")
    if ! git apply "$patch"; then
        echo "FAIL $name: the patch no longer applies"
        failed=1
        continue
    fi
    # shellcheck disable=SC2086
    if ! cargo test -q --no-run ${args%% -- *} >/dev/null 2>&1; then
        echo "FAIL $name: the mutant does not compile"
        failed=1
    else
        set +e
        # shellcheck disable=SC2086
        timeout "$timeout_s" cargo test -q $args >/dev/null 2>&1
        status=$?
        set -e
        case $status in
            0)
                echo "FAIL $name: survived ($args passed)"
                failed=1
                ;;
            124) echo "ok   $name: killed by timeout ($args)" ;;
            *) echo "ok   $name: killed ($args)" ;;
        esac
    fi
    git apply -R "$patch"
done
exit "$failed"
