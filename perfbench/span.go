package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call in the traced replay: a name, an interval on the
// recorder's clock, and the span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one goroutine in memory. Spans nest: begin
// parents the new span to the innermost open one.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	r.end(id)
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (spans recorded on another goroutine); covered time is counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		var covered int64
		cur := s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines, each with its self time, into
// dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, f.Close()
}
