#!/usr/bin/env bash
# End-to-end checks of the plif command: the README reproduction, a
# 10,000-step chain sweep, a 400-step query of a chain fragment, whose
# hidden nodes are reduced pairwise, six byte-for-byte or structural checks on
# generated networks (two of them that a generator flag left out is its
# record's default), and the exit codes of malformed documents, of a
# threshold above the critical level, of zero-probability evidence and of
# the PLIF_MAX_FRONTIER cap, also where a sweep meets the cap after a
# row, and of a sweep whose reader closes the pipe early. It runs whichever `plif` and `python` come first on PATH, so it
# checks an installed console script as well as a `python -m plif` shim;
# `python` must import the same plif.
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
plif gen-hmm --depth 40 --window 40 --out "$d/fragment.json"
plif validate "$d/fragment.json"
obs=(--obs "y_t=1")
for k in $(seq 1 39); do obs+=(--obs "y_t-$k=1"); done
plif sweep "$d/fragment.json" --target x_t+1=1 "${obs[@]}" --depth 40 --full-sweep --format csv > "$d/fragment.csv"
plif sweep --hmm --depth 40 --window 40 --format csv > "$d/lazy.csv"
cmp "$d/fragment.csv" "$d/lazy.csv"
echo "fragment sweep check: $(($(wc -l < "$d/lazy.csv") - 1)) rows, byte-identical to the lazy chain sweep"

echo "== a deep query of a materialized chain fragment matches bounds_at on the lazy chain"
plif gen-hmm --depth 400 --window 400 --out "$d/fragment400.json"
obs=(--obs "y_t=1")
for k in $(seq 1 399); do obs+=(--obs "y_t-$k=1"); done
plif query "$d/fragment400.json" --target x_t+1=1 "${obs[@]}" --threshold -400 --format csv | tail -n 1 | cut -d, -f1,2 > "$d/deep-query.txt"
python -c '
from plif import HmmParams, Threshold, bounds_at, hmm_model, hmm_query
p = HmmParams(window=400)
qb = bounds_at(hmm_model(p), hmm_query(p), Threshold(-400.0))
print("%.9f,%.9f" % (qb.lower, qb.upper))
' > "$d/deep-lazy.txt"
cmp "$d/deep-query.txt" "$d/deep-lazy.txt"
echo "deep query check: bracket $(cat "$d/deep-query.txt") at -400, the same as bounds_at on the lazy chain"

echo "== a generator flag left out is its record's default"
plif gen-hmm --depth 3 > "$d/hmm-bare.json"
plif gen-hmm --depth 3 --window 10 --stay 0.9 --emit 0.8 > "$d/hmm-spelled.json"
cmp "$d/hmm-bare.json" "$d/hmm-spelled.json"
plif gen-random --seed 7 > "$d/random-bare.json"
plif gen-random --seed 7 --nodes 10 --max-parents 3 --states 3 --cpt-floor 0.05 > "$d/random-spelled.json"
cmp "$d/random-bare.json" "$d/random-spelled.json"
echo "default check: gen-hmm --depth 3 and gen-random --seed 7 byte-identical with their defaults spelled out"

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

echo "== malformed documents exit with their documented code and no traceback"
printf '\xff\xfe{}' > "$d/not-utf8.json"
python -c 'print("[" * 100000 + "]" * 100000)' > "$d/deep.json"
printf '{"t0": 0.0, "open_past": true, "nodes": [{"name": "a", "states": ["0", "1"], "pl": %s, "parents": [], "cpt": [[0.5, 0.5]]}]}' \
    "$(printf '1%.0s' {1..400})" > "$d/huge-pl.json"
for check in not-utf8:1 deep:1 huge-pl:2; do
    code=0
    plif validate "$d/${check%:*}.json" 2> "$d/stderr" || code=$?
    test "$code" -eq "${check#*:}"
    if grep -q Traceback "$d/stderr"; then cat "$d/stderr" >&2; exit 1; fi
done
echo "malformed document check: not UTF-8 exit 1, deep nesting exit 1, 400-digit pl exit 2, no traceback"

echo "== a threshold above the critical potential level exits 3 with no traceback"
code=0
plif query "$d/random.json" "${flags[@]}" --threshold 10 > "$d/stdout" 2> "$d/stderr" || code=$?
test "$code" -eq 3
test ! -s "$d/stdout"
grep -q "above the critical potential level 9" "$d/stderr"
if grep -q Traceback "$d/stderr"; then cat "$d/stderr" >&2; exit 1; fi
echo "threshold check: --threshold 10 above n09's level 9 exit 3, no traceback"

echo "== evidence of probability zero exits 4 with no traceback"
printf '{"t0": 0.0, "open_past": false, "nodes": [%s, %s]}' \
    '{"name": "s", "states": ["0", "1"], "pl": 0.0, "parents": [], "cpt": [[1.0, 0.0]]}' \
    '{"name": "k", "states": ["0", "1"], "pl": 1.0, "parents": ["s"], "cpt": [[1.0, 0.0], [0.0, 1.0]]}' \
    > "$d/zero.json"
code=0
plif query "$d/zero.json" --target s=0 --obs k=1 --exact > "$d/stdout" 2> "$d/stderr" || code=$?
test "$code" -eq 4
test ! -s "$d/stdout"
grep -q "has probability zero" "$d/stderr"
if grep -q Traceback "$d/stderr"; then cat "$d/stderr" >&2; exit 1; fi
echo "zero evidence check: k=1 under P(k=1) = 0 exit 4, no traceback"

echo "== PLIF_MAX_FRONTIER caps the console script's bounds and a bad value is a usage error"
code=0
PLIF_MAX_FRONTIER=1 plif sweep --hmm --depth 3 > "$d/stdout" 2> "$d/stderr" || code=$?
test "$code" -eq 5
test ! -s "$d/stdout"
grep -q "frontier too wide" "$d/stderr"
if grep -q Traceback "$d/stderr"; then cat "$d/stderr" >&2; exit 1; fi
code=0
PLIF_MAX_FRONTIER=abc plif query "$d/random.json" "${flags[@]}" --threshold 5 2> /dev/null || code=$?
test "$code" -eq 2
echo "frontier cap check: PLIF_MAX_FRONTIER=1 exit 5, PLIF_MAX_FRONTIER=abc exit 2"

echo "== a sweep capped at a later step keeps the rows it printed and exits 5"
plif gen-random --seed 113 --nodes 10 --out "$d/r113.json"
code=0
PLIF_MAX_FRONTIER=2 plif sweep "$d/r113.json" --target n08=0 --full-sweep --format csv > "$d/stdout" 2> "$d/stderr" || code=$?
test "$code" -eq 5
test "$(head -n 1 "$d/stdout")" = "threshold,lower,upper,frontier_size,interior_size,exactness"
test "$(wc -l < "$d/stdout")" -eq 2
grep -q "frontier too wide: 6 clamp assignments exceed the cap of 2" "$d/stderr"
if grep -q Traceback "$d/stderr"; then cat "$d/stderr" >&2; exit 1; fi
echo "capped sweep check: header and the row at threshold $(tail -n 1 "$d/stdout" | cut -d, -f1) kept, exit 5, no traceback"

echo "== a sweep whose reader closes the pipe early ends with 141 and no traceback"
code=0
plif sweep --hmm --depth 5000 --window 5000 --format csv 2> "$d/stderr" | head -n 1 > "$d/stdout" || code=${PIPESTATUS[0]}
test "$code" -eq 141
test "$(cat "$d/stdout")" = "threshold,lower,upper,frontier_size,interior_size,exactness"
if [ -s "$d/stderr" ]; then cat "$d/stderr" >&2; exit 1; fi
echo "closed pipe check: header read, exit 141, stderr empty"

echo "== a truncation stub is a clamp wherever it sits; a stub objective exits 5"
printf '{"t0": 0.0, "open_past": true, "nodes": [%s, %s, %s]}' \
    '{"name": "o", "states": ["0", "1"], "pl": 3.0, "parents": [], "cpt": [[0.4, 0.6]]}' \
    '{"name": "s", "states": ["0", "1"], "pl": 4.5, "parents": [], "cpt": null}' \
    '{"name": "e", "states": ["0", "1"], "pl": 5.0, "parents": ["o", "s"], "cpt": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8], [0.6, 0.4]]}' \
    > "$d/stub.json"
plif sweep "$d/stub.json" --target o=1 --obs e=1 --format csv > "$d/stub.csv"
test "$(wc -l < "$d/stub.csv")" -eq 2
for run in "query --threshold 4.5" sweep; do
    code=0
    plif $run "$d/stub.json" --target s=1 > "$d/stdout" 2> "$d/stderr" || code=$?
    test "$code" -eq 5
    test ! -s "$d/stdout"
    grep -q "objective node 's' is a truncation stub" "$d/stderr"
done
echo "stub check: sweep past the stub s prints $(($(wc -l < "$d/stub.csv") - 1)) row, a stub objective exits 5 from query and sweep"

echo "== a dumped submodel validates and is the materialized fragment; an unwritable dump exits 2"
plif query "$d/random.json" "${flags[@]}" --threshold 5 --dump-submodel "$d/d.json"
plif validate "$d/d.json"
python -c '
import sys
from plif import Query, load_network, materialize, serialize
net = load_network(open(sys.argv[1], encoding="utf-8").read())
print(serialize(materialize(net, Query({"n09": "1"}, {"n02": "0"}), 5)))
' "$d/random.json" > "$d/materialized.json"
cmp "$d/d.json" "$d/materialized.json"
echo "dump check: byte-identical to serialize(materialize(net, query, 5))"
code=0
plif query "$d/random.json" "${flags[@]}" --threshold 5 --dump-submodel "$d/missing/d.json" || code=$?
test "$code" -eq 2
echo "unwritable dump check: exit $code"
