package heuristics

import "tradeoff/internal/sched"

// NaiveMinMin is the O(n²·M) two-stage Min-Min that rescans every
// unmapped task at every step: the oracle BuildMinMin must match.
func NaiveMinMin(e *sched.Evaluator) *sched.Allocation { return buildTwoStage(e, true) }
