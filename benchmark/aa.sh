#!/usr/bin/env bash
# A/A check: measures every workload twice on the same build and prints, per
# end-to-end metric, how much worse the second run read than the first
# against the metric's bound; exits non-zero on any breach.
#
#   benchmark/aa.sh [--seed N] [--workload NAME] [--quick]
#
# --quick runs a tenth of the work without bounds: a smoke test of the paths.
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$@"
