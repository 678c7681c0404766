#!/usr/bin/env bash
# The perf gate's inputs: runs cac_ab over each, prints its tables on
# stderr and its JSON summaries on stdout as one JSON array.
#
#   tools/ab/ci.sh build-ab/cac_ab > perf-gate.json
#
# Exit status: 3 when any input fails the verdict, else 2 when any
# stats digest differs, else 0; 1 when cac_ab itself fails.
set -u
ab=${1:?usage: tools/ab/ci.sh CAC_AB_BINARY}
mix=mix:swim+tomcatv+gcc+wave5@q=50k,n=1m,seed=1
coherent=2lvl:a2-Hp-Sk/a4,mc:1xa2-Hp-Sk/a4,mc:2xa2-Hp-Sk/a4,mc:4xa2-Hp-Sk/a4
# a2-Hp-Sk alone prices 2lvl's L1; the victim and column-poly L1s replay
# through access() one reference at a time.
coherent=$coherent,a2-Hp-Sk,mc:2xvictim/a4,mc:4xcolumn-poly/a4
orgs=a2-Hp-Sk,dm,a2,a4,a2-Hx-Sk,a2-Hp,victim,hash-rehash,column-poly,full
status=0
sep='['
for args in "swim $orgs,2lvl:a2/a4,2lvl:a2-Hp-Sk/a4" "$mix $coherent" \
            "$mix,flush a2-Hp-Sk,2lvl:a2-Hp-Sk/a4"; do
    set -- $args
    rc=0
    out=$("$ab" --input "$1" --targets "$2" --pairs 10) || rc=$?
    printf '%s\n' "$out" | sed '$d' >&2
    echo >&2
    case $rc in
        0) ;;
        2) [ "$status" -eq 0 ] && status=2 ;;
        3) status=3 ;;
        *) echo "cac_ab failed ($rc) on $1" >&2; exit 1 ;;
    esac
    printf '%s\n%s' "$sep" "$(printf '%s\n' "$out" | tail -n 1)"
    sep=','
done
printf '\n]\n'
exit "$status"
