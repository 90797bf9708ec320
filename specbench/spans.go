package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function. Spans of one operation (a
// round of the paper or sweep, one serve request) share Op; Parent is
// the Span number of the enclosing span, 0 at the root.
type span struct {
	Op     int64  `json:"op"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its number (0 on a nil recorder).
func (r *recorder) begin(op, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(processStart))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Span: int64(len(r.spans) + 1), Parent: parent, Name: name, Start: now})
	return int64(len(r.spans))
}

// end closes span n.
func (r *recorder) end(n int64) {
	if r == nil || n == 0 {
		return
	}
	now := int64(time.Since(processStart))
	r.mu.Lock()
	r.spans[n-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the serve
// middleware knows a request's key only after it has read the body).
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Span = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.Span
}

// do runs f inside a span.
func (r *recorder) do(op, parent int64, name string, f func() error) error {
	n := r.begin(op, parent, name)
	err := f()
	r.end(n)
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTimes sums, for each root span (one per round), the time of its
// direct children by name, and returns the per-round median of each
// name's total in milliseconds. Children of a round run one after
// another, so their totals never double-count.
func layerTimes(spans []span, root string) map[string]float64 {
	rounds := map[int64]bool{}
	perRound := map[string]map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == root {
			rounds[s.Span] = true
		}
	}
	for _, s := range spans {
		if !rounds[s.Parent] {
			continue
		}
		if perRound[s.Name] == nil {
			perRound[s.Name] = map[int64]time.Duration{}
		}
		perRound[s.Name][s.Parent] += s.dur()
	}
	out := map[string]float64{}
	for name, byRound := range perRound {
		var vs []float64
		for id := range rounds {
			vs = append(vs, ms(byRound[id]))
		}
		out[name] = median(vs)
	}
	return out
}

// roundLayerSums returns, for each root span in the order the rounds
// ran, the total time in milliseconds of its direct children named in
// layers.
func roundLayerSums(spans []span, root string, layers []string) []float64 {
	want := map[string]bool{}
	for _, l := range layers {
		want[l] = true
	}
	index := map[int64]int{}
	var sums []float64
	for _, s := range spans {
		if s.Name == root {
			index[s.Span] = len(sums)
			sums = append(sums, 0)
		}
	}
	for _, s := range spans {
		if i, ok := index[s.Parent]; ok && want[s.Name] {
			sums[i] += ms(s.dur())
		}
	}
	return sums
}

// againstProgram sets each traced round's layer-span total beside the
// time of the program's own round that ran after it, and returns the
// medians of the difference (the program's time outside the timed
// layers, in milliseconds; below 0 when the traced calls ran slower than
// the program's own) and of the share the layers account for.
func againstProgram(layerMS, programMS []float64) (otherMS, share float64) {
	var others, shares []float64
	for i := range layerMS {
		others = append(others, programMS[i]-layerMS[i])
		shares = append(shares, layerMS[i]/programMS[i])
	}
	return median(others), median(shares)
}
