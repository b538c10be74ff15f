package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
)

// The traced run records spans from the benchmark's own code: around
// each call it makes into a layer's public functions, and from the
// events the program already reports through its obs.Tracer hook
// (plan operators, task drivers, hold-table builds and maintenance,
// counting passes). Spans stay in memory and are written out as JSON
// when the run ends.

// span is one recorded interval. Start and End are offsets from the
// recorder's start.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"` // 0 = root
	Run      string            `json:"run"`
	Name     string            `json:"name"`
	Start    time.Duration     `json:"start_ns"`
	End      time.Duration     `json:"end_ns"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// recorder owns the spans of one run.
type recorder struct {
	run string
	t0  time.Time
	mu  sync.Mutex
	all []*span
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: time.Now()} }

func (r *recorder) open(name string, parent int) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.all) + 1, Parent: parent, Run: r.run, Name: name, Start: time.Since(r.t0)}
	r.all = append(r.all, s)
	return s
}

func (r *recorder) close(s *span) {
	r.mu.Lock()
	s.End = time.Since(r.t0)
	r.mu.Unlock()
}

// tracer is one goroutine's view of a recorder: a stack of open spans,
// so spans opened through do and through the obs.Tracer hook nest
// under whatever that goroutine has open. It implements obs.Tracer.
type tracer struct {
	rec   *recorder
	mu    sync.Mutex
	stack []*span
}

func (r *recorder) tracer() *tracer { return &tracer{rec: r} }

func (t *tracer) push(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].ID
	}
	s := t.rec.open(name, parent)
	t.stack = append(t.stack, s)
	return s
}

func (t *tracer) pop() *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 {
		return nil
	}
	s := t.stack[n-1]
	t.stack = t.stack[:n-1]
	t.rec.close(s)
	return s
}

// do records fn as a span named name. A nil tracer runs fn untraced.
func (t *tracer) do(name string, fn func()) *span {
	if t == nil {
		fn()
		return nil
	}
	s := t.push(name)
	fn()
	t.pop()
	return s
}

func (t *tracer) Enabled() bool         { return true }
func (t *tracer) StartTask(name string) { t.push(name) }
func (t *tracer) EndTask()              { t.pop() }
func (t *tracer) StartPass(level int)   { t.push(passName(level)) }

func (t *tracer) EndPass(ps obs.PassStats) {
	if s := t.pop(); s != nil {
		s.Attrs = map[string]string{"backend": ps.Backend}
	}
}

// Counter attaches counter events (cache outcomes above all) to the
// innermost open span.
func (t *tracer) Counter(name string, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		s := t.stack[n-1]
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += delta
	}
}

func (t *tracer) Gauge(string, float64) {}

func passName(level int) string { return fmt.Sprintf("pass:L%d", level) }

// module names the layer a span belongs to, for the self-time split.
func module(name string) string {
	switch {
	case strings.HasPrefix(name, "pass:"), strings.HasPrefix(name, "apriori."):
		return "apriori"
	case strings.HasPrefix(name, "tdb."):
		return "tdb"
	case strings.HasPrefix(name, "core."), strings.HasPrefix(name, "task:"),
		strings.HasPrefix(name, "op:mine:"), name == "op:build-hold", name == "op:cached-hold":
		return "core"
	default: // tml.*, the executor's statement span, op:scan/render/limit
		return "tml"
	}
}

// tree indexes the recorded spans for self times and subtree walks.
type tree struct {
	spans    []*span
	children map[int][]*span
	self     map[int]time.Duration
}

// analyse computes every span's self time: its duration minus the part
// of it its children cover.
func (r *recorder) analyse() *tree {
	r.mu.Lock()
	spans := append([]*span(nil), r.all...)
	r.mu.Unlock()
	t := &tree{spans: spans, children: make(map[int][]*span), self: make(map[int]time.Duration)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	for _, s := range spans {
		kids := append([]*span(nil), t.children[s.ID]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		end := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		t.self[s.ID] = s.dur() - covered
	}
	return t
}

// walk visits s and every descendant.
func (t *tree) walk(s *span, fn func(*span)) {
	fn(s)
	for _, k := range t.children[s.ID] {
		t.walk(k, fn)
	}
}

// named returns the spans called name.
func (t *tree) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations of spans in milliseconds.
func durationsMS(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
