#!/usr/bin/env bash
# Dead-code audit: finds the glint:: functions under src/ that no product
# binary keeps. The product binaries are the `glint` CLI, the benches under
# bench/, the examples and perfbench; tests do not count, so a function only
# a test calls is reported too.
#
# Link half: an -O0 -fno-inline -ffunction-sections build linked with
# --gc-sections (in build-deadcode/, perfbench through its own
# CMakeLists.txt). Every glint:: function `nm` finds in a src/ object but in
# no product binary is reported.
#
# Grep half: a function defined inline in a src/ header is emitted only
# where it is called, so `nm` cannot see one that nothing calls. Such a
# definition is reported when its name appears nowhere else in the product
# sources. Names are compared, not symbols: a dead member that shares its
# name with a live one is missed.
#
# Each finding is flagged unless tools/dead_code.allow lists it with a
# reason. An allow entry that matches no finding is an error too, so the
# list only names functions that are still there and still unshipped.
# Exits 0 when nothing is flagged. Usage: tools/dead_code.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
BUILD=build-deadcode
ALLOW=tools/dead_code.allow
AUDIT_FLAGS=(-DCMAKE_BUILD_TYPE=Audit
  "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

benches=()
for src in bench/bench_*.cc; do benches+=("$(basename "${src}" .cc)"); done
mapfile -t examples < <(sed -n 's/^glint_example(\([a-z_]*\) .*/\1/p' \
  examples/CMakeLists.txt)

cmake -B "${BUILD}/main" -S . "${AUDIT_FLAGS[@]}" >/dev/null
cmake --build "${BUILD}/main" -j"${JOBS}" --target glint_cli \
  "${benches[@]}" "${examples[@]}" >/dev/null
cmake -B "${BUILD}/perfbench" -S perfbench "${AUDIT_FLAGS[@]}" >/dev/null
cmake --build "${BUILD}/perfbench" -j"${JOBS}" --target perfbench >/dev/null

bins=("${BUILD}/main/tools/glint" "${BUILD}/perfbench/perfbench")
for b in "${benches[@]}"; do bins+=("${BUILD}/main/bench/${b}"); done
for e in "${examples[@]}"; do bins+=("${BUILD}/main/examples/${e}"); done
mapfile -t objs < <(find "${BUILD}/main/src" -name '*.o' | sort)

# Demangled names of the functions (text symbols, weak ones included) that
# the given files define.
functions() {
  nm --defined-only "$@" | awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' |
    c++filt | sort -u
}

# Prints `<key> TAB <signature>` for each demangled signature whose function
# is in namespace glint. The key is the qualified name alone: the return
# type of a template instance and the parameter list are cut off
# (`glint::a::B::f(int) const` -> `glint::a::B::f`). Lambda bodies and
# local classes share their enclosing function's key.
glint_keys() {
  awk '{
    s = $0
    gsub(/\(anonymous namespace\)/, "@N", s)
    gsub(/operator\(\)/, "operator@P", s)
    gsub(/operator->/, "operator@A", s)
    gsub(/operator<</, "operator@L@L", s)
    gsub(/operator>>/, "operator@G@G", s)
    gsub(/operator</, "operator@L", s)
    gsub(/operator>/, "operator@G", s)
    gsub(/operator /, "operator@S", s)
    depth = 0
    start = 1
    for (i = 1; i <= length(s); ++i) {
      c = substr(s, i, 1)
      if (c == "<") ++depth
      else if (c == ">") --depth
      else if (c == " " && depth == 0) start = i + 1
      else if (c == "(" && depth == 0) break
    }
    key = substr(s, start, i - start)
    gsub(/\[abi:[A-Za-z0-9]+\]/, "", key)
    gsub(/@N/, "(anonymous namespace)", key)
    gsub(/@P/, "()", key)
    gsub(/@A/, "->", key)
    gsub(/@L/, "<", key)
    gsub(/@G/, ">", key)
    gsub(/@S/, " ", key)
    if (key ~ /^glint::/) printf "%s\t%s\n", key, $0
  }'
}

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# ---- Link half ----------------------------------------------------------
functions "${objs[@]}" >"${tmp}/defined"
functions "${bins[@]}" >"${tmp}/kept"
comm -23 "${tmp}/defined" "${tmp}/kept" | glint_keys >"${tmp}/findings"

# ---- Grep half ----------------------------------------------------------
# One-line inline definitions in src/ headers: a return type, a name, a
# parameter list, qualifiers, then the body's opening brace. Constructors,
# operators and control statements do not match.
def_re='^[[:space:]]*([A-Za-z_][A-Za-z0-9_:<>,*&[:space:]]*[*&[:space:]])([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*\([^;{]*\)[[:space:]a-z]*\{'
grep -rnE --include='*.h' "${def_re}" src |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*((return|else|if|for|while|switch|case|using|typedef|explicit)\b|#|//)' |
  grep -v 'operator' |
  sed -E "s/^([^:]+):([0-9]+):${def_re#^}.*/\1 \2 \4/" >"${tmp}/defs" || true
# Counts each defined name's occurrences in the product sources, skipping
# comment lines and the definitions' own bodies (a body that forwards to a
# member of the same name does not make the name used).
mapfile -t product_sources < <(find src bench examples perfbench/src \
  \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) | sort)
awk 'FNR == NR { start[$1 ":" $2] = $3; defined[$3] = $1; next }
     FNR == 1 { cur = "" }
     {
       if ((FILENAME ":" FNR) in start) { cur = start[FILENAME ":" FNR]; depth = 0 }
       text = $0
       if (text ~ /^[ \t]*\/\//) text = ""
       if (cur != "") {
         depth += gsub(/\{/, "{", $0) - gsub(/\}/, "}", $0)
         gsub("(^|[^A-Za-z0-9_])" cur "([^A-Za-z0-9_]|$)", " ", text)
         if (depth <= 0) cur = ""
       }
       while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
         uses[substr(text, RSTART, RLENGTH)]++
         text = substr(text, RSTART + RLENGTH)
       }
     }
     END { for (n in defined) if (!(n in uses)) print n }' \
  "${tmp}/defs" "${product_sources[@]}" tools/glint_cli.cc |
  sort >"${tmp}/uncalled"
awk 'FNR == NR { dead[$1] = 1; next }
     ($3 in dead) { printf "%s:%s\tinline %s in %s\n", $1, $3, $3, $1 }' \
  "${tmp}/uncalled" "${tmp}/defs" >>"${tmp}/findings"

# ---- Allow list -----------------------------------------------------------
# Lines are `<key>  # <reason>`; the key is a finding's qualified name
# without parameters, or `<header>:<name>` for a grep-half finding.
status=0
: >"${tmp}/allowed"
while IFS= read -r line; do
  case "${line}" in '' | '#'*) continue ;; esac
  key="$(printf '%s\n' "${line}" | sed -E 's/[[:space:]]*#.*//')"
  reason="$(printf '%s\n' "${line}" | sed -nE 's/^[^#]*#[[:space:]]*//p')"
  if [ -z "${reason}" ]; then
    echo "dead_code: allow entry without a reason: ${line}" >&2
    status=1
  fi
  if ! cut -f1 "${tmp}/findings" | grep -qxF -- "${key}"; then
    echo "dead_code: stale allow entry (no such finding): ${key}" >&2
    status=1
  fi
  printf '%s\n' "${key}" >>"${tmp}/allowed"
done <"${ALLOW}"

flagged=0
allowed=0
while IFS=$'\t' read -r key what; do
  if grep -qxF -- "${key}" "${tmp}/allowed"; then
    allowed=$((allowed + 1))
  else
    echo "dead_code: no product binary uses ${what}"
    flagged=$((flagged + 1))
  fi
done < <(sort -t"$(printf '\t')" -u -k1,1 "${tmp}/findings")
echo "dead_code: ${flagged} flagged, ${allowed} allowed (${ALLOW})"
[ "${flagged}" -eq 0 ] || status=1
exit "${status}"
