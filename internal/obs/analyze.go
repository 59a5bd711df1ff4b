package obs

import (
	"io"
	"sort"
)

// AnalyzeOptions tunes the offline trace analytics.
type AnalyzeOptions struct {
	// StallWindow is the plateau length that flags a convergence stall:
	// a label stalls when StallWindow consecutive generation records
	// pass without a hypervolume improvement. Default 50.
	StallWindow int
	// StallTol is the relative hypervolume gain below which a
	// generation does not count as an improvement (measured against
	// max(|best so far|, 1)). Default 1e-4.
	StallTol float64
}

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.StallWindow <= 0 {
		o.StallWindow = 50
	}
	if o.StallTol <= 0 {
		o.StallTol = 1e-4
	}
	return o
}

// TraceAnalysis is the offline rollup of one JSONL trace (any schema
// version v1–v4): record counts, the cross-trace phase-time rollup,
// per-label convergence and cache trends, and the island migration
// summary. Produced by AnalyzeTrace, rendered by cmd/tracestat.
type TraceAnalysis struct {
	Records TraceSummary    `json:"records"`
	Phases  []PhaseStat     `json:"phases,omitempty"`
	Labels  []LabelAnalysis `json:"labels,omitempty"`
	Islands *IslandSummary  `json:"islands,omitempty"`
	// ProfiledGenerations counts the generation records carrying a
	// nonzero phase profile (v4 traces from a -phase-profile run).
	ProfiledGenerations int `json:"profiled_generations"`
	// Stalled reports whether any label hit a hypervolume plateau of at
	// least StallWindow generations.
	Stalled bool `json:"stalled"`
}

// PhaseStat is one phase's share of the trace's recorded phase time.
type PhaseStat struct {
	Phase      string  `json:"phase"`
	TotalNanos int64   `json:"total_ns"`
	Share      float64 `json:"share"`
}

// LabelAnalysis summarizes one label's generation records: counter
// range, hypervolume trajectory with plateau detection, and the fitness-
// cache hit-rate trend (mean over the first vs last quartile of its
// records, -1 when the trace predates cache telemetry).
type LabelAnalysis struct {
	Label       string `json:"label"`
	Generations int    `json:"generations"`
	FirstGen    int    `json:"first_gen"`
	LastGen     int    `json:"last_gen"`

	HVFirst float64 `json:"hv_first"`
	HVBest  float64 `json:"hv_best"`
	HVLast  float64 `json:"hv_last"`
	// BestGen is the generation of the last hypervolume improvement.
	BestGen int `json:"best_gen"`
	// MaxPlateau is the longest run of consecutive generation records
	// without a hypervolume improvement; Stalled flags MaxPlateau >=
	// StallWindow. EndPlateau is the plateau still open when the trace
	// ends (how stale the best front is).
	MaxPlateau int  `json:"max_plateau"`
	EndPlateau int  `json:"end_plateau"`
	Stalled    bool `json:"stalled"`

	// CacheHitEarly and CacheHitLate are the mean fitness-cache hit
	// rates over the label's first and last quartile of records (-1
	// when no record carried cache telemetry).
	CacheHitEarly float64 `json:"cache_hit_early"`
	CacheHitLate  float64 `json:"cache_hit_late"`
}

// IslandSummary aggregates a trace's migration records.
type IslandSummary struct {
	// Islands is the ring size implied by the largest island index.
	Islands int `json:"islands"`
	// Ticks is the number of distinct migration generations.
	Ticks int `json:"ticks"`
	// Migrants is the total migrant count across all edges.
	Migrants int `json:"migrants"`
	// PerIsland summarizes each island's outbound edges.
	PerIsland []IslandStat `json:"per_island"`
	// TickSkew is the spread (max - min) of the islands' last migration
	// generations: 0 when every island reached the same logical tick.
	TickSkew int `json:"tick_skew"`
}

// IslandStat is one island's outbound migration summary.
type IslandStat struct {
	Island   int `json:"island"`
	Migrants int `json:"migrants"`
	LastGen  int `json:"last_gen"`
}

// labelState accumulates one label's streaming analysis.
type labelState struct {
	out      LabelAnalysis
	hitRates []float64 // per-record hit rate, -1 when the record has none
}

// traceAnalyzer accumulates the streaming analysis across one or more
// traces.
type traceAnalyzer struct {
	opts        AnalyzeOptions
	an          *TraceAnalysis
	phaseTotals PhaseTotals
	labels      map[string]*labelState
	labelOrder  []string
	islands     map[int]*IslandStat
	migTicks    map[int]bool
}

func newTraceAnalyzer(opts AnalyzeOptions) *traceAnalyzer {
	return &traceAnalyzer{
		opts:     opts.withDefaults(),
		an:       &TraceAnalysis{},
		labels:   make(map[string]*labelState),
		islands:  make(map[int]*IslandStat),
		migTicks: make(map[int]bool),
	}
}

func (a *traceAnalyzer) consume(rec *traceRecord) {
	switch rec.Type {
	case "generation":
		label := ""
		if rec.Label != nil {
			label = *rec.Label
		}
		st := a.labels[label]
		if st == nil {
			st = &labelState{}
			st.out.Label = label
			st.out.FirstGen = *rec.Gen
			st.out.HVFirst = *rec.HV
			st.out.HVBest = *rec.HV
			st.out.BestGen = *rec.Gen
			a.labels[label] = st
			a.labelOrder = append(a.labelOrder, label)
		}
		st.out.Generations++
		st.out.LastGen = *rec.Gen
		st.out.HVLast = *rec.HV
		if *rec.HV-st.out.HVBest > a.opts.StallTol*maxf(absf(st.out.HVBest), 1) {
			st.out.HVBest = *rec.HV
			st.out.BestGen = *rec.Gen
			st.out.EndPlateau = 0
		} else if st.out.Generations > 1 {
			st.out.EndPlateau++
			if st.out.EndPlateau > st.out.MaxPlateau {
				st.out.MaxPlateau = st.out.EndPlateau
			}
		}
		if rec.CacheHitRate != nil {
			st.hitRates = append(st.hitRates, *rec.CacheHitRate)
		} else {
			st.hitRates = append(st.hitRates, -1)
		}
		if rec.PhaseNS != nil {
			nonzero := false
			for p, ns := range rec.PhaseNS {
				if p < NumPhases {
					a.phaseTotals[p] += ns
				}
				if ns != 0 {
					nonzero = true
				}
			}
			if nonzero {
				a.an.ProfiledGenerations++
			}
		}
	case "migration":
		from, to, gen := *rec.From, *rec.To, *rec.Gen
		a.migTicks[gen] = true
		for _, i := range []int{from, to} {
			if a.islands[i] == nil {
				a.islands[i] = &IslandStat{Island: i}
			}
		}
		st := a.islands[from]
		st.Migrants += *rec.Count
		if gen > st.LastGen {
			st.LastGen = gen
		}
	}
}

func (a *traceAnalyzer) finish() *TraceAnalysis {
	an := a.an
	var phaseSum int64
	for _, ns := range a.phaseTotals {
		phaseSum += ns
	}
	if phaseSum > 0 {
		for p := Phase(0); int(p) < NumPhases; p++ {
			an.Phases = append(an.Phases, PhaseStat{
				Phase:      p.String(),
				TotalNanos: a.phaseTotals[p],
				Share:      float64(a.phaseTotals[p]) / float64(phaseSum),
			})
		}
	}

	for _, label := range a.labelOrder {
		st := a.labels[label]
		st.out.Stalled = st.out.MaxPlateau >= a.opts.StallWindow
		if st.out.Stalled {
			an.Stalled = true
		}
		st.out.CacheHitEarly, st.out.CacheHitLate = hitRateTrend(st.hitRates)
		an.Labels = append(an.Labels, st.out)
	}

	if len(a.islands) > 0 {
		is := &IslandSummary{Ticks: len(a.migTicks)}
		minLast, maxLast := 0, 0
		var idx []int
		for i := range a.islands {
			idx = append(idx, i)
			if i+1 > is.Islands {
				is.Islands = i + 1
			}
		}
		sort.Ints(idx)
		for k, i := range idx {
			st := a.islands[i]
			is.Migrants += st.Migrants
			is.PerIsland = append(is.PerIsland, *st)
			if k == 0 || st.LastGen < minLast {
				minLast = st.LastGen
			}
			if k == 0 || st.LastGen > maxLast {
				maxLast = st.LastGen
			}
		}
		is.TickSkew = maxLast - minLast
		an.Islands = is
	}
	return an
}

// AnalyzeTrace validates and analyzes a JSONL trace in one pass. The
// trace must satisfy the same schema rules as ValidateTrace (the first
// violation is returned as a *TraceError); v1–v3 records simply lack
// the fields later analytics use, so phase rollups and cache trends
// degrade gracefully on old traces.
func AnalyzeTrace(r io.Reader, opts AnalyzeOptions) (*TraceAnalysis, error) {
	a := newTraceAnalyzer(opts)
	sum, err := scanTrace(r, func(_ int, rec *traceRecord) { a.consume(rec) })
	if err != nil {
		return nil, err
	}
	a.an.Records = sum
	return a.finish(), nil
}

// hitRateTrend returns the mean cache hit rate over the first and last
// quartile of the per-record rates (at least one record each), ignoring
// records without cache telemetry. Either mean is -1 when its quartile
// holds no rated record.
func hitRateTrend(rates []float64) (early, late float64) {
	q := len(rates) / 4
	if q < 1 {
		q = 1
	}
	mean := func(part []float64) float64 {
		sum, n := 0.0, 0
		for _, r := range part {
			if r >= 0 {
				sum += r
				n++
			}
		}
		if n == 0 {
			return -1
		}
		return sum / float64(n)
	}
	if len(rates) == 0 {
		return -1, -1
	}
	return mean(rates[:q]), mean(rates[len(rates)-q:])
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
