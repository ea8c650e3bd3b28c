# Shared helpers of the bench-smoke gate steps in workflows/ci.yml. Each
# step sources this file from the repository root:
#
#   . .github/bench-gate.sh
#
# extract FILE BENCH METRIC prints the value of METRIC on the result line
# of benchmark BENCH in FILE, a `go test -bench -json` record. BENCH is
# the full name without the -GOMAXPROCS suffix, which is optional on the
# line.
#
# fail MSG reports MSG as a workflow error and ends the step.

extract() {
  jq -rj 'select(.Action=="output") | .Output' "$1" \
    | awk -v b="$2" -v m="$3" '$0 ~ "^"b"(-[0-9]+)?[ \t]" { for (i = 2; i <= NF; i++) if ($i == m) print $(i-1) }'
}

fail() { echo "::error::$1"; exit 1; }
