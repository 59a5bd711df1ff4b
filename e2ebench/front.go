package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"tradeoff/internal/analysis"
	"tradeoff/internal/core"
	"tradeoff/internal/moea"
)

// frontCSV formats a front exactly as `tradeoff -csv` writes it.
func frontCSV(front []analysis.FrontPoint) string {
	var b strings.Builder
	b.WriteString("utility,energy_joules,energy_mj,upe_per_mj\n")
	for _, p := range front {
		fmt.Fprintf(&b, "%.6f,%.6f,%.6f,%.6f\n", p.Utility, p.Energy, p.Energy/1e6, p.UPE()*1e6)
	}
	return b.String()
}

// frontHash is the SHA-256 of the front's CSV, hex encoded.
func frontHash(front []analysis.FrontPoint) string {
	sum := sha256.Sum256([]byte(frontCSV(front)))
	return hex.EncodeToString(sum[:])
}

// hypervolumeRatio is core's hypervolume of a front as a share of the box
// between the front's ideal point (its highest utility, lowest energy) and
// core's reference point (the front's own extent padded by 5%). Unlike the
// raw hypervolume, whose scale follows the instance, it compares across
// seeds. The front must be sorted by increasing energy.
func hypervolumeRatio(res *core.Result) float64 {
	ref := moea.UtilityEnergySpace().ReferenceFrom(0.05, analysis.ToObjectives(res.Front))
	box := (res.Front[len(res.Front)-1].Utility - ref[0]) * (ref[1] - res.Front[0].Energy)
	return res.Hypervolume / box
}

// checkFront verifies a result without trusting the engine's bookkeeping:
// the front is non-empty, sorted by increasing energy and mutually
// nondominated, its hypervolume is positive and finite, and every front
// allocation re-simulated from scratch by Framework.Evaluate lands exactly
// on its front point.
func checkFront(fw *core.Framework, res *core.Result) error {
	if len(res.Front) == 0 || len(res.Front) != len(res.Allocations) {
		return fmt.Errorf("front has %d points and %d allocations", len(res.Front), len(res.Allocations))
	}
	if !(res.Hypervolume > 0) || math.IsInf(res.Hypervolume, 0) {
		return fmt.Errorf("hypervolume %v, want positive and finite", res.Hypervolume)
	}
	for i, p := range res.Front {
		if i > 0 {
			q := res.Front[i-1]
			if !(p.Energy > q.Energy && p.Utility > q.Utility) {
				return fmt.Errorf("front points %d and %d are not strictly increasing in energy and utility: %+v, %+v", i-1, i, q, p)
			}
		}
		ev, err := fw.Evaluate(res.Allocations[i])
		if err != nil {
			return fmt.Errorf("front point %d: %w", i, err)
		}
		if ev.Utility != p.Utility || ev.Energy != p.Energy {
			return fmt.Errorf("front point %d is (%v, %v) but its allocation evaluates to (%v, %v)",
				i, p.Utility, p.Energy, ev.Utility, ev.Energy)
		}
	}
	return nil
}

// expectation is the recorded outcome of one instance of a workload.
type expectation struct {
	Hash        string  `json:"hash"`
	Hypervolume float64 `json:"hypervolume"`
	Points      int     `json:"points"`
}

// expectedFile is the recorded correctness table: for each workload, the
// front of every instance of the baseline seed and of a held-out seed, at
// the workload's generation count. Regenerate it with -record after a
// deliberate change to the fronts, and say so in the change.
type expectedFile struct {
	BaselineSeed uint64                              `json:"baseline_seed"`
	HeldOutSeed  uint64                              `json:"held_out_seed"`
	Fronts       map[string]map[string][]expectation `json:"fronts"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// lookup returns the recorded expectation of each instance of a workload
// and seed.
func (e expectedFile) lookup(workload string, seed uint64) ([]expectation, bool) {
	x, ok := e.Fronts[workload][strconv.FormatUint(seed, 10)]
	return x, ok && len(x) == instances
}
