package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one workload run share Run; Parent
// is -1 for the run's root span.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans collects spans in memory; with on false every call is a no-op,
// so the untraced runs that give the end-to-end numbers record nothing.
type spans struct {
	on   bool
	run  int
	list []span
}

func (s *spans) begin(name string, parent int) int {
	if !s.on {
		return -1
	}
	s.list = append(s.list, span{Run: s.run, ID: len(s.list), Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s.on {
		s.list[id].End = time.Now().UnixNano()
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover. The
// benchmark's spans nest without overlap among siblings, so the covered
// part is the sum of the children's durations.
func selfTimes(list []span) map[string]time.Duration {
	child := make(map[int]int64, len(list))
	for _, s := range list {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range list {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// spanTotals returns, per span name, the summed duration and count.
func spanTotals(list []span) (map[string]time.Duration, map[string]int) {
	dur := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range list {
		dur[s.Name] += time.Duration(s.End - s.Start)
		n[s.Name]++
	}
	return dur, n
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
