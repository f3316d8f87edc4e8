#!/usr/bin/env bash
# End-to-end checks of the command line, in the order CI runs them.
#
#   bash tests/cli_smoke.sh CREDAL PYTHON
#
# CREDAL is the command that runs the CLI and PYTHON an interpreter that
# imports the same credal package.  For an installed package:
#
#   bash tests/cli_smoke.sh bare/bin/credal bare/bin/python
#
# and in a checkout, without installing:
#
#   PYTHONPATH=src bash tests/cli_smoke.sh "python -m credal.cli" python
#
# CREDAL and PYTHON are split on spaces.  Scratch files go to a temporary
# directory that is removed on exit; any failed check exits non-zero.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 CREDAL PYTHON" >&2
  exit 2
fi
read -r -a credal <<< "$1"
read -r -a python <<< "$2"
data="$(cd "$(dirname "$0")" && pwd)/data"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"${python[@]}" -c "from credal.bench import gen_reach_ba; from credal.syntax import render_program; print(render_program(gen_reach_ba(6, 0).program), end='')" > "$work/reach.pasp"
# the package's statistics and residual, byte for byte
"${credal[@]}" stats "$work/reach.pasp" | diff - "$data/reach6_stats.txt"
"${credal[@]}" residual "$work/reach.pasp" --query 'path(0,5)' | diff - "$data/reach6_residual.txt"
"${credal[@]}" solve "$work/reach.pasp" --query 'path(0,5)' | tee "$work/enum.txt"
# the engines differ in algorithm, so their answers must still agree
"${credal[@]}" solve "$work/reach.pasp" --query 'path(0,5)' --engine twoamc | tee "$work/twoamc.txt"
cmp "$work/enum.txt" "$work/twoamc.txt"
# worlds that reduce to the same program share one leaf result (about half
# of smokersBA's worlds); every engine and mode must still print the same
# bounds
"${python[@]}" -c "from credal.bench import gen_smokers_ba; from credal.syntax import render_program; print(render_program(gen_smokers_ba(5, 0).program), end='')" > "$work/smokers.pasp"
for engine in enum twoamc; do
  for mode in direct residual; do
    "${credal[@]}" solve "$work/smokers.pasp" --query 'smokes(4)' --engine "$engine" --mode "$mode" > "$work/smokers-$engine-$mode.txt"
    cmp "$work/smokers-$engine-$mode.txt" "$work/smokers-enum-direct.txt"
  done
done
# the printed six decimals hide float drift: the bounds themselves, exact
# decimal sums rounded once, must be one float in both modes, both engines
# and with the facts in reverse order
"${python[@]}" - "$work/smokers.pasp" <<'PY'
import sys
from credal import parse_program, parse_query, solve_query
from credal.syntax import Program
program = parse_program(open(sys.argv[1]).read())
flipped = Program(program.prob_facts[::-1], program.rules)
query = parse_query("smokes(4)")
found = {repr(solve_query(p, query, mode=mode, engine=engine)[0])
         for p in (program, flipped) for mode in ("direct", "residual")
         for engine in ("enum", "twoamc")}
print(*found)
assert len(found) == 1, found
PY
# a printed residual, solved again as it stands, answers its query as the
# original program does (certain-true here, then undefined)
printf 'q.\n0.5::a.\n' > "$work/certain.pasp"
"${credal[@]}" solve "$work/certain.pasp" --query q > "$work/certain.txt"
# the WFM decides q in every world, so twoamc answers without a search
for mode in direct residual; do
  "${credal[@]}" solve "$work/certain.pasp" --query q --engine twoamc --mode "$mode" | cmp - "$work/certain.txt"
done
"${credal[@]}" residual "$work/certain.pasp" --query q --out "$work/certain.res"
"${credal[@]}" solve "$work/certain.res" --query q --mode direct | cmp - "$work/certain.txt"
"${credal[@]}" residual "$work/reach.pasp" --query 'path(0,5)' --out "$work/reach.res"
"${credal[@]}" solve "$work/reach.res" --query 'path(0,5)' --mode direct | cmp - "$work/enum.txt"
# a failure is one error line with its documented exit code
code=0; "${credal[@]}" solve "$data/malformed.pasp" --query a 2> "$work/err.txt" || code=$?
test "$code" = 2
diff "$work/err.txt" "$data/malformed.err"
code=0; "${credal[@]}" solve "$data/not_utf8.pasp" --query a 2> "$work/err.txt" || code=$?
test "$code" = 1
test "$(wc -l < "$work/err.txt")" = 1
grep -q '^error\[io\]: .*not_utf8\.pasp: ' "$work/err.txt"
# a leading byte-order mark is skipped
"${credal[@]}" solve "$data/bom.pasp" --query q
# the README's own examples, read from the README so that they cannot drift:
# its reachability program as reach.pasp, its Library block run beside it,
# and its `credal solve` line, which must print the line the README shows
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
fenced_after() {  # the first fenced block after the line that starts with $1
  awk -v anchor="$1" 'found && /^```/ {if (inside) exit; inside = 1; next}
                      inside {print}
                      index($0, anchor) == 1 {found = 1}' "$readme"
}
mkdir "$work/readme"
fenced_after 'Example, a probabilistic reachability program:' > "$work/readme/reach.pasp"
fenced_after '## Library' > "$work/readme/library.py"
test -s "$work/readme/reach.pasp" && test -s "$work/readme/library.py"
# the interpreter changes directory after start-up, so a relative PYTHON or
# PYTHONPATH still finds the package
"${python[@]}" -c 'import os, sys; os.chdir(sys.argv[1]); exec(open("library.py").read())' \
  "$work/readme" > "$work/readme/library.txt"
printf '%s\n' '0.0 0.03' "undefined ['e(a,b)', 'e(b,d)']" | diff - "$work/readme/library.txt"
shown="$(grep -A1 -Fx "\$ credal solve reach.pasp --query 'path(a,d)'" "$readme" | sed -n 2p)"
test "$shown" = 'P(path(a,d)) = [0.000000, 0.030000]'
"${credal[@]}" solve "$work/readme/reach.pasp" --query 'path(a,d)' | diff - <(printf '%s\n' "$shown")
