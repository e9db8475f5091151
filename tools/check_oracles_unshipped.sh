#!/usr/bin/env bash
# One-engine guard: the test oracles live only in the sperr_oracles library.
# The shipped libraries must define none of them — the recursive SPECK coder
# (speck::encode_reference / decode_reference), the per-line DWT drivers
# (*dwt_reference), the raw_bitplane ablation coder and the single-stream
# lossless codec (lossless::encode_reference / decode_reference, with its
# lz77_tokenize / lz77_reconstruct token API) — so no second engine or
# reference fallback creeps back into the product path. The
# oracle library itself must define every one of them, which proves the
# patterns still match what nm prints.
#
#   usage: check_oracles_unshipped.sh ORACLES_LIB SHIPPED_LIB...
#
# Exits 0 when all hold, 1 on any violation, 77 (ctest SKIP) without nm.
set -euo pipefail

if ! command -v nm >/dev/null 2>&1; then
  echo "check_oracles_unshipped: nm not found; skipped"
  exit 77
fi

patterns=(
  'sperr::speck::encode_reference'
  'sperr::speck::decode_reference'
  'sperr::wavelet::(forward|inverse)_dwt_reference'
  'sperr::speck::raw_bitplane_(encode|decode)'
  'sperr::lossless::(encode|decode)_reference'
  'sperr::lossless::lz77_(tokenize|reconstruct)'
)
any="$(IFS='|'; echo "${patterns[*]}")"

fails=0
fail() {
  echo "FAIL: $*" >&2
  fails=$((fails + 1))
}

defined() { nm -C --defined-only "$1" 2>/dev/null; }

oracles="$1"
shift
oracle_syms="$(defined "$oracles")"
for p in "${patterns[@]}"; do
  grep -Eq "$p" <<<"$oracle_syms" || fail "$oracles defines no symbol matching $p"
done

for lib in "$@"; do
  if [ ! -f "$lib" ]; then
    fail "missing library $lib"
    continue
  fi
  hits="$(defined "$lib" | grep -E "$any" || true)"
  [ -z "$hits" ] || fail "$lib defines oracle symbols:"$'\n'"$hits"
done

if [ "$fails" -ne 0 ]; then
  exit 1
fi
echo "check_oracles_unshipped: $# shipped libraries define no oracle symbol"
