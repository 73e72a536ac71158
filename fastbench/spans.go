package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call fastbench made: the layer it entered (the name's
// prefix before the first dot), its interval, the span that caused it (-1 at
// the root) and the op it belongs to.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Job    int
}

// spanLog keeps spans in memory for the whole run; write emits them once at
// exit. A nil *spanLog records nothing, so untraced runs pay one nil check
// per call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span starting at t and returns its id (-1 when disabled).
func (l *spanLog) begin(name string, parent, job int, t time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: t, Parent: parent, Job: job})
	return len(l.spans) - 1
}

// end closes span id at t.
func (l *spanLog) end(id int, t time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = t
	l.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (l *spanLog) timed(name string, parent, job int, f func()) time.Duration {
	t0 := time.Now()
	id := l.begin(name, parent, job, t0)
	f()
	t1 := time.Now()
	l.end(id, t1)
	return t1.Sub(t0)
}

// layerOf maps a span name onto its layer: the prefix before the first dot,
// with fastbench's own per-op root spans ("op") counted as "client".
func layerOf(name string) string {
	if name == "op" {
		return "client"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover, over the spans keep selects.
func (l *spanLog) selfTimes(keep func(span) bool) map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for id, s := range l.spans {
		if s.End.IsZero() || !keep(s) {
			continue
		}
		out[layerOf(s.Name)] += s.End.Sub(s.Start) - covered(s, children[id])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var cur time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if s.Before(cur) {
			s = cur
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// write emits the spans as a Chrome trace (one complete event per span).
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for id, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": id, "parent": s.Parent, "job": s.Job},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
