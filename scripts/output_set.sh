#!/usr/bin/env bash
# Write the output set of every subcommand and demo into OUTDIR.
#
#   scripts/output_set.sh OUTDIR
#
# 23 runs: the seven subcommands in both unit modes, efg-mesh --which
# ground and difference in both modes, and the five demos.  Each run
# leaves <name>.out, <name>.err and <name>.code (its exit status) in
# OUTDIR, 69 files in all.  The runs use whichever onersim python3
# imports (the installed package, or src/ on PYTHONPATH), so two trees
# compare by running the script once against each and diffing the
# directories.  A failing run is recorded, not fatal.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
demos="$(cd "$(dirname "$0")/../demos" && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"

record() {  # record NAME COMMAND...
    local name="$1"
    shift
    "$@" > "$out/$name.out" 2> "$out/$name.err"
    echo $? > "$out/$name.code"
}

for mode in physical scaled; do
    for cmd in steady-state pulse spectrum rabi-map coupled efg-mesh ingest-check; do
        record "$cmd-$mode" python3 -m onersim.cli "$cmd" --unit-mode "$mode"
    done
    for which in ground difference; do
        record "efg-mesh-$which-$mode" python3 -m onersim.cli efg-mesh --which "$which" --unit-mode "$mode"
    done
done
for demo in "$demos"/*.py; do
    record "demo-$(basename "$demo" .py)" python3 "$demo"
done
