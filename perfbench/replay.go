package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// The traced replay of a read workload runs the same statement
// sequences in process, with the same cache budget and one goroutine
// per client. Each client has its own
// executor over the shared cache, so the executor's tracer hook
// reports each statement's operators, builds and passes to the
// goroutine that ran it.

// replayStatement runs one statement through the public calls the
// executor makes, in its order: tml.Parse, then at plan time
// TxTable.CountStats and apriori.Predict, then the executor itself
// (plan, cache, counting, task mining, render).
func replayStatement(ctx context.Context, e *tml.Executor, db *tdb.DB, tr *tracer, text string) (answer, error) {
	var (
		res answer
		err error
	)
	tr.do("tml.exec", func() {
		var stmt *tml.MineStmt
		tr.do("tml.parse", func() { stmt, err = tml.Parse(text) })
		if err != nil {
			return
		}
		tbl, ok := db.TxTable(stmt.Table)
		if !ok {
			err = fmt.Errorf("no table %q", stmt.Table)
			return
		}
		var cs apriori.CountStats
		tr.do("tdb.count_stats", func() { cs = tbl.CountStats() })
		if span, ok := tbl.Span(stmt.Granularity); ok {
			cs.Granules = int(span.Len())
		}
		tr.do("apriori.predict", func() { apriori.Predict(cs) })
		out, xerr := e.ExecStmtContext(ctx, stmt)
		if xerr != nil {
			err = xerr
			return
		}
		res = render(out)
	})
	return res, err
}

// readReplay is one in-process replay of a read workload.
type readReplay struct {
	collects []*obs.CollectTracer
	cache    *core.HoldCache
	before   core.CacheStats
	latMS    []float64 // per statement, timed around the spans
}

// replay runs the workload's statement sequences in process for half
// the measured phase's length, with spans recorded into rec (nil:
// untraced).
func (r *readRun) replay(rep *report, db *tdb.DB, rec *recorder) (*readReplay, error) {
	ctx := context.Background()
	out := &readReplay{}
	if r.clients == 1 {
		out.cache = core.NewHoldCache(1 << 20) // as tarmd -cache 1
	} else {
		out.cache = core.NewHoldCache(core.DefaultCacheBytes)
	}
	// Warm-up runs untraced, as it is set-up, not the measured mix.
	warm := tml.NewExecutor(db)
	warm.Cache = out.cache
	for _, s := range r.warmUp {
		if _, err := warm.Exec(s); err != nil {
			return nil, err
		}
	}
	out.before = out.cache.Stats()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	deadline := r.o.replayDeadline()
	for c := 0; c < r.clients; c++ {
		e := tml.NewExecutor(db)
		e.Cache = out.cache
		var tr *tracer
		if rec != nil {
			tr = rec.tracer()
			collect := obs.NewCollectTracer()
			out.collects = append(out.collects, collect)
			e.Tracer = obs.Multi(collect, tr)
		}
		next := r.next(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				stmt := next()
				t0 := time.Now()
				a, err := replayStatement(ctx, e, db, tr, stmt)
				lat := ms(time.Since(t0))
				mu.Lock()
				switch {
				case err != nil:
					rep.fail("in-process %q: %v", stmt, err)
				case !sameRows(a.rows, r.refs[stmt].rows):
					rep.fail("in-process answer differs from reference: %q", stmt)
				default:
					rep.ok()
					out.latMS = append(out.latMS, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(out.latMS) == 0 {
		return nil, fmt.Errorf("in-process replay completed no statement")
	}
	return out, nil
}

// traced replays the read workload in process twice, untraced and
// then traced, and reports the per-layer metrics.
func (r *readRun) traced(rep *report, phase *phaseResult) error {
	rec := newRecorder(fmt.Sprintf("%s-%d", r.o.workload, r.o.seed))
	var db *tdb.DB
	var err error
	load := rec.tracer().do("tdb.load", func() { db, err = tdb.Open(r.dataDir) })
	if err != nil {
		return err
	}
	rep.set("tdb.load_ms", ms(load.dur()))
	base, err := r.replay(rep, db, nil)
	if err != nil {
		return err
	}
	// Only the untraced latencies are kept: the rest of that replay's
	// heap (its cache above all) must not slow the traced one.
	baseN, baseMS := len(base.latMS), median(base.latMS)
	base = nil
	runtime.GC()
	traced, err := r.replay(rep, db, rec)
	if err != nil {
		return err
	}
	t := rec.analyse()
	st := traced.cache.Stats()
	rep.set("core.cache_hit_ratio", fromCore(st).hitRatio(fromCore(traced.before)))
	statementMetrics(rep, t, "tml.exec")
	passMetrics(rep, traced.collects, len(traced.latMS))
	holdMB, err := holdMegabytes(db, r.sh)
	if err != nil {
		return err
	}
	rep.set("core.hold_mb", holdMB)
	rep.set("bench.trace_overhead_ratio", median(traced.latMS)/baseMS)
	rep.note("in-process replay: untraced %d statements p50 %.3f ms, traced %d statements p50 %.3f ms, %d spans; tarmd wall p50 %.3f ms",
		baseN, baseMS, len(traced.latMS), median(traced.latMS), len(t.spans), median(phase.wallMS))
	largestSelf(rep, t, "tml.exec")
	return rec.write(r.o.path("spans.json"))
}

// fromCore converts the cache's own counters.
func fromCore(s core.CacheStats) cacheStats {
	return cacheStats{Hits: s.Hits, Rethresholds: s.Rethresholds, Misses: s.Misses, Dedups: s.Dedups, Deltas: s.Deltas}
}

// statementMetrics reports the per-statement layer metrics over every
// root span called root (tml.exec: one per statement).
func statementMetrics(rep *report, t *tree, root string) {
	roots := t.named(root)
	var unattributed []float64
	selfBy := map[string][]float64{}
	for _, s := range roots {
		sums := map[string]time.Duration{}
		var un time.Duration
		t.walk(s, func(d *span) {
			m := module(d.Name)
			sums[m] += t.self[d.ID]
			if m == "tml" && d.Name != "tml.parse" {
				un += t.self[d.ID]
			}
		})
		unattributed = append(unattributed, ms(un))
		for _, m := range []string{"tml", "core", "apriori", "tdb"} {
			selfBy[m] = append(selfBy[m], ms(sums[m]))
		}
	}
	rep.set("tml.exec_ms", median(durationsMS(t.named("tml.exec"))))
	rep.set("tml.unattributed_ms", median(unattributed))
	for m, v := range selfBy {
		rep.set("self."+m+"_ms", mean(v))
	}
	rep.set("tml.parse_us", 1000*median(durationsMS(t.named("tml.parse"))))
	rep.set("tdb.count_stats_us", 1000*median(durationsMS(t.named("tdb.count_stats"))))
	rep.set("apriori.predict_us", 1000*median(durationsMS(t.named("apriori.predict"))))

	// The hold operator is HoldCache.GetContext; its cache counters say
	// which path served it.
	var build, hit, rethreshold []float64
	for _, name := range []string{"op:build-hold", "op:cached-hold"} {
		for _, s := range t.named(name) {
			d := ms(s.dur())
			var c map[string]int64
			t.walk(s, func(x *span) {
				for k, v := range x.Counters {
					if c == nil {
						c = map[string]int64{}
					}
					c[k] += v
				}
			})
			switch {
			case c[obs.MetricCacheMisses] > 0 || c[obs.MetricCacheDeltas] > 0:
				build = append(build, d)
			case c[obs.MetricCacheRethresholds] > 0:
				rethreshold = append(rethreshold, d)
			case c[obs.MetricCacheHits] > 0:
				hit = append(hit, d)
			}
		}
	}
	rep.set("core.build_hold_ms", median(build))
	rep.set("core.cache_hit_us", 1000*median(hit))
	rep.set("core.rethreshold_ms", median(rethreshold))
	for _, task := range []string{obs.TaskPeriods, obs.TaskCycles, obs.TaskCalendars, obs.TaskDuring, obs.TaskHistory} {
		rep.set("core.mine_"+task+"_ms", median(durationsMS(t.named(obs.OpSpan("mine:"+task)))))
	}

	// Passes, per hold-table build: L1 and L2 once each, Lk summed.
	rep.set("apriori.l1_ms", median(durationsMS(t.named(passName(1)))))
	rep.set("apriori.l2_ms", median(durationsMS(t.named(passName(2)))))
	var lk []float64
	for _, b := range t.named("core.BuildHoldTable") {
		var sum time.Duration
		for _, k := range t.children[b.ID] {
			if k.Name != passName(1) && k.Name != passName(2) {
				sum += k.dur()
			}
		}
		lk = append(lk, ms(sum))
	}
	rep.set("apriori.lk_ms", median(lk))
}

// passMetrics reports the counting-pass counts the executors'
// CollectTracers saw, per statement.
func passMetrics(rep *report, collects []*obs.CollectTracer, stmts int) {
	var counted, frequent, passes, roaring int
	for _, c := range collects {
		for _, l := range c.Stats().Levels {
			if l.Level < 2 {
				continue
			}
			passes++
			if l.Backend == apriori.BackendRoaring.String() {
				roaring++
			}
			if l.Level == 2 {
				counted += l.Counted
				frequent += l.Frequent
			}
		}
	}
	rep.set("apriori.l2_counted", float64(counted)/float64(stmts))
	rep.set("apriori.l2_frequent", float64(frequent)/float64(stmts))
	if counted > 0 {
		rep.set("apriori.l2_useful_ratio", float64(frequent)/float64(counted))
	}
	if passes > 0 {
		rep.set("apriori.roaring_pass_share", float64(roaring)/float64(passes))
	}
}

// holdMegabytes sums HoldTable.MemBytes over one base-support build of
// every table: the working set the read workloads cycle through.
func holdMegabytes(db *tdb.DB, sh shape) (float64, error) {
	var total int64
	for _, t := range sh.tables {
		tbl, _ := db.TxTable(t.name)
		h, err := core.BuildHoldTable(tbl, core.Config{
			Granularity: timegran.Day, MinSupport: baseSupport, MinConfidence: confidence, MinFreq: 1,
		})
		if err != nil {
			return 0, err
		}
		total += h.MemBytes()
	}
	return float64(total) / (1 << 20), nil
}

// largestSelf notes which span name has the largest mean self time per
// root span: the layer an optimisation of this workload should target.
func largestSelf(rep *report, t *tree, root string) {
	roots := t.named(root)
	sums := map[string]time.Duration{}
	for _, s := range roots {
		t.walk(s, func(d *span) { sums[d.Name] += t.self[d.ID] })
	}
	best, bestD := "", time.Duration(-1)
	for n, d := range sums {
		if d > bestD {
			best, bestD = n, d
		}
	}
	if len(roots) > 0 {
		rep.note("sanity largest self time per %s: %s (%.3f ms)", root, best, ms(bestD)/float64(len(roots)))
	}
}
