#!/usr/bin/env bash
# End-to-end checks of the plif command: the README reproduction, a
# 10,000-step chain sweep, and four byte-for-byte or structural checks
# on generated networks. It runs whichever `plif` and `python` come
# first on PATH, so it checks an installed console script as well as a
# `python -m plif` shim; `python` must import the same plif.
#
#   bash tests/cli_checks.sh    # exits non-zero at the first failed check
set -euo pipefail

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

echo "== README reproduction"
plif sweep --hmm --depth 10 --window 10 --format csv | python -c '
import csv, sys
rows = list(csv.DictReader(sys.stdin))
assert len(rows) == 10, f"expected 10 rows, got {len(rows)}"
first = next(r["threshold"] for r in rows if float(r["lower"]) > 0.5)
assert first == "-3", f"lower bound first exceeds 0.5 at {first}, expected -3"
print("reproduction check: 10 rows, lower bound first above 0.5 at threshold -3")
'

echo "== 10,000-step chain sweep"
plif sweep --hmm --depth 10000 --window 10000 --format csv | python -c '
import csv, sys
rows = list(csv.DictReader(sys.stdin))
assert len(rows) == 10000, f"expected 10000 rows, got {len(rows)}"
width = [float(r["upper"]) - float(r["lower"]) for r in (rows[0], rows[-1])]
assert width[1] <= width[0], f"last bracket {width[1]} is wider than the first {width[0]}"
print(f"deep sweep check: 10000 rows, bracket width {width[0]:.9f} -> {width[1]:.9f}")
'

echo "== sweep of a materialized chain fragment matches the lazy chain sweep"
plif gen-hmm --depth 5 --window 10 --out "$d/fragment.json"
obs=()
for k in "" -1 -2 -3 -4 -5 -6 -7 -8 -9; do obs+=(--obs "y_t$k=1"); done
plif sweep "$d/fragment.json" --target x_t+1=1 "${obs[@]}" --format csv > "$d/fragment.csv"
plif sweep --hmm --depth 5 --window 10 --format csv > "$d/lazy.csv"
cmp "$d/fragment.csv" "$d/lazy.csv"
echo "fragment sweep check: $(($(wc -l < "$d/lazy.csv") - 1)) rows, byte-identical to the lazy chain sweep"

plif gen-random --seed 7 --nodes 10 --out "$d/random.json"
flags=(--target n09=1 --obs n02=0)

echo "== query --exact prints the full-past row of a full sweep"
exact=$(plif query "$d/random.json" "${flags[@]}" --exact --format csv | tail -n 1)
swept=$(plif sweep "$d/random.json" "${flags[@]}" --full-sweep --depth 20 --format csv | awk -F, '$1 == "-inf" {print $2}')
test -n "$exact"
test "$exact" = "$swept"
echo "exact check: query --exact and the -inf sweep row both print $exact"

echo "== a sweep that reads its own levels matches one over default_schedule"
plif sweep "$d/random.json" "${flags[@]}" --full-sweep --depth 20 --format csv > "$d/walk.csv"
python -c '
import sys
from plif import Query, anytime_sweep, default_schedule, load_network, sweep_csv
net = load_network(open(sys.argv[1], encoding="utf-8").read())
q = Query({"n09": "1"}, {"n02": "0"})
rows = anytime_sweep(net, q, default_schedule(net, q, max_steps=20), stop_on_exact=False)
sys.stdout.write(sweep_csv(rows))
' "$d/random.json" > "$d/schedule.csv"
cmp "$d/walk.csv" "$d/schedule.csv"
echo "level check: $(($(wc -l < "$d/walk.csv") - 1)) rows, byte-identical to the sweep over default_schedule"

echo "== a dumped submodel validates and lists its stubs as its frontier; an unwritable dump exits 2"
plif query "$d/random.json" "${flags[@]}" --threshold 5 --dump-submodel "$d/d.json"
plif validate "$d/d.json"
python -c '
import json, sys
doc = json.load(open(sys.argv[1], encoding="utf-8"))
stubs = sorted(n["name"] for n in doc["nodes"] if n["cpt"] is None)
assert doc["frontier"] == stubs, (doc["frontier"], stubs)
print(f"dump check: frontier {stubs} equals the nodes with a null CPT")
' "$d/d.json"
code=0
plif query "$d/random.json" "${flags[@]}" --threshold 5 --dump-submodel "$d/missing/d.json" || code=$?
test "$code" -eq 2
echo "unwritable dump check: exit $code"
