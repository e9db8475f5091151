#!/usr/bin/env bash
# Fixture guard: every corpus file the CLI exit-code check
# (tools/check_cli_codes.sh) or the fuzz corpus replay
# (tools/fuzz/run_regression.sh) depends on must exist and be tracked by git,
# and nothing under a replayed corpus directory may be left untracked or
# ignored. A .gitignore rule once silently dropped every container seed;
# this check turns that into a red test instead of a missing fixture.
#
#   usage: check_fixtures_tracked.sh REPO_ROOT
#
# Exits 0 when all hold, 1 on any violation, 77 (ctest SKIP) outside a git
# work tree, where "tracked" has no meaning.
set -euo pipefail

cd "$1"
if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "check_fixtures_tracked: not a git work tree; skipped"
  exit 77
fi

fails=0
fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

tracked() { git ls-files --error-unmatch -- "$1" >/dev/null 2>&1; }

# Corpus files check_cli_codes.sh names (paths relative to tools/).
for rel in $(grep -o 'fuzz/corpus/[A-Za-z0-9_./-]*' tools/check_cli_codes.sh | sort -u); do
  f="tools/$rel"
  [ -f "$f" ] || { fail "$f is named by check_cli_codes.sh but missing"; continue; }
  tracked "$f" || fail "$f is named by check_cli_codes.sh but not tracked by git"
done

# Corpus directories run_regression.sh replays: each needs tracked files,
# and every file on disk there must be tracked (an ignored or forgotten
# seed would be replayed here and silently absent everywhere else).
targets=$(sed -n 's/^for t in \(.*\); do$/\1/p' tools/fuzz/run_regression.sh)
[ -n "$targets" ] || fail "no corpus targets found in run_regression.sh"
for t in $targets; do
  dir="tools/fuzz/corpus/$t"
  [ -n "$(git ls-files -- "$dir")" ] || fail "$dir has no tracked corpus files"
  [ -d "$dir" ] || continue
  while IFS= read -r f; do
    tracked "$f" || fail "$f is replayed by run_regression.sh but not tracked by git"
  done < <(find "$dir" -type f | sort)
done

if [ "$fails" -ne 0 ]; then
  echo "check_fixtures_tracked: $fails violation(s)" >&2
  exit 1
fi
echo "check_fixtures_tracked: all corpus fixtures tracked"
