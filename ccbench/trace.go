package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Times are nanoseconds
// since the recorder started; parent 0 means a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the recorder's memory; spans past it are counted as
// dropped instead of kept.
const maxSpans = 4 << 20

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so measured code paths can
// call it unconditionally.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: parent, Name: name, Start: now})
	return int32(len(r.spans))
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil || id <= 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time in
// milliseconds: its duration minus the part covered by its children.
// Children of one span run on the parent's goroutine, so they never
// overlap and their durations add.
func (r *recorder) selfTimes() map[string][]float64 {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write stores the spans and the run metadata as JSON under dir.
func (r *recorder) write(dir, name string, meta map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Meta    map[string]any `json:"meta"`
		Dropped int            `json:"dropped_spans"`
		Spans   []span         `json:"spans"`
	}{meta, r.dropped, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// quantile is the linear-interpolation q-quantile of xs (0 when empty).
// The input is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows splits samples into n equal time windows over [from, to) by
// their offsets at (seconds) and returns each window's samples. Medians
// over windows keep a stall of the shared machine that spans fewer than
// half of them from moving a run's figures.
func windows(at, vals []float64, from, to float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, t := range at {
		if t < from || t >= to {
			continue
		}
		w := int(float64(n) * (t - from) / (to - from))
		out[w] = append(out[w], vals[i])
	}
	return out
}

// windowQuantile is the median over windows of each window's q-quantile.
func windowQuantile(ws [][]float64, q float64) float64 {
	var per []float64
	for _, w := range ws {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
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
