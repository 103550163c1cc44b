package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aggify/internal/trace"
)

// spanRing is the capacity of the tracer's span ring. The benchmark folds
// the ring into its totals whenever half of it is new (see afterProgram), so
// no span is evicted unread unless one program records more than this half.
const spanRing = 1 << 16

// spans records a traced run with the repository's tracer
// (internal/trace): the benchmark's own spans and, on rubis-tcp-rw, the
// client library's. Every span also goes as a JSON line to an in-memory
// buffer that is written to disk at the end.
type spans struct {
	tr      *trace.Tracer
	jsonl   bytes.Buffer
	folded  int64                            // spans folded into the totals so far
	dropped int64                            // spans evicted before they were folded
	all     map[string]*layerTime            // per span name
	byMode  map[string]map[string]*layerTime // per program mode, then span name
}

func newSpans() *spans {
	s := &spans{all: map[string]*layerTime{}, byMode: map[string]map[string]*layerTime{}}
	s.tr = trace.New(trace.Config{Sample: 1, RingSpans: spanRing, Out: &s.jsonl})
	return s
}

// layerTime aggregates the spans of one name: call count, total time and
// self time (duration minus the time of the spans under it).
type layerTime struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (l *layerTime) meanUS() float64 { return us(l.Total) / float64(l.Calls) }

// startProgram roots a new trace at a span named for the benchmark's unit of
// work (a program, a write, the setup). A nil tracer returns a disabled span,
// so untraced runs pay one branch per call.
func startProgram(tr *trace.Tracer, name, program, mode string) trace.Span {
	sp := tr.StartTrace(name)
	sp.SetAttr("program", program)
	sp.SetAttr("mode", mode)
	return sp
}

// afterProgram folds the ring once half of it is new. Call it between
// programs, so each fold holds whole traces.
func (s *spans) afterProgram() {
	if s != nil && s.tr.Counters().SpansRecorded-s.folded >= spanRing/2 {
		s.fold()
	}
}

// fold adds the spans recorded since the last fold to the totals.
func (s *spans) fold() {
	recorded := s.tr.Counters().SpansRecorded
	n := int(recorded - s.folded)
	ring := s.tr.Spans()
	if n > len(ring) {
		s.dropped += int64(n - len(ring))
		n = len(ring)
	}
	s.folded = recorded
	recs := ring[len(ring)-n:]

	// A span's parent is the span its Parent names or, for a trace the
	// benchmark did not root (a client call), the benchmark span open around
	// it: the benchmark is one goroutine, so that span is the latest-started
	// benchmark root that covers the call.
	idx := make(map[trace.ID]int, len(recs))
	var roots []int
	for i, r := range recs {
		idx[r.Span] = i
		if r.Parent == 0 && strings.HasPrefix(r.Name, "bench.") {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return recs[roots[a]].Start.Before(recs[roots[b]].Start) })
	parent := make([]int, len(recs))
	for i, r := range recs {
		parent[i] = -1
		if p, ok := idx[r.Parent]; ok {
			parent[i] = p
		} else if r.Parent == 0 && !strings.HasPrefix(r.Name, "bench.") {
			k := sort.Search(len(roots), func(k int) bool { return recs[roots[k]].Start.After(r.Start) }) - 1
			if k >= 0 && !end(recs[roots[k]]).Before(end(r)) {
				parent[i] = roots[k]
			}
		}
	}
	child := make([]time.Duration, len(recs))
	for i, p := range parent {
		if p >= 0 {
			child[p] += recs[i].Dur
		}
	}
	for i, r := range recs {
		root := i
		for parent[root] >= 0 {
			root = parent[root]
		}
		self := r.Dur - child[i]
		add(s.all, r.Name, r.Dur, self)
		if mode := attr(recs[root], "mode"); mode != "" {
			if s.byMode[mode] == nil {
				s.byMode[mode] = map[string]*layerTime{}
			}
			add(s.byMode[mode], r.Name, r.Dur, self)
		}
	}
}

func end(r trace.SpanRecord) time.Time { return r.Start.Add(r.Dur) }

func attr(r trace.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func add(m map[string]*layerTime, name string, total, self time.Duration) {
	l := m[name]
	if l == nil {
		l = &layerTime{}
		m[name] = l
	}
	l.Calls++
	l.Total += total
	l.Self += self
}

// finish folds the last spans, reports the span count and any spans lost
// to the ring, and writes the JSON lines.
func (s *spans) finish(rep *report, got map[string]float64, path string) error {
	s.fold()
	got["trace.spans"] = float64(s.folded)
	if s.dropped > 0 {
		rep.fail("%d spans were evicted from the trace ring before they were read", s.dropped)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, s.jsonl.Bytes(), 0o644)
}

// printSelfTimes appends the per-name self-time table, largest first.
func (s *spans) printSelfTimes(rep *report) {
	names := make([]string, 0, len(s.all))
	for n := range s.all {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.all[names[i]].Self > s.all[names[j]].Self })
	rep.linef("span self time over the traced passes:")
	rep.linef("  %-28s %8s %12s %12s", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		l := s.all[n]
		rep.linef("  %-28s %8d %12.3f %12.3f", n, l.Calls, ms(l.Total), ms(l.Self))
	}
}
