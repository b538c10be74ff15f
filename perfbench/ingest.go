package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// ingest-subscribe: tarmd -wal -fsync interval restarted over a
// checkpoint of s1 plus a WAL tail; one open-loop appender continues
// s1 past its last day while one long-poll subscriber holds a standing
// SUBSCRIBE MINE PERIODS statement.

var ingestArgs = []string{"-wal", "-fsync", "interval"}

// batch is one append request of the stream.
type batch struct {
	txs   []streamTx
	maxAt time.Time // newest timestamp, the stream clock after it lands
}

// makeBatches cuts the stream into one batch per generated day, as a
// day-batching feeder posts it: the batch of day d closes day d-1.
func makeBatches(stream []streamTx) []batch {
	var out []batch
	for lo := 0; lo < len(stream); {
		hi := lo
		for hi < len(stream) && stream[hi].Day == stream[lo].Day {
			hi++
		}
		b := batch{txs: stream[lo:hi]}
		for _, tx := range b.txs {
			if tx.At.After(b.maxAt) {
				b.maxAt = tx.At
			}
		}
		out = append(out, b)
		lo = hi
	}
	return out
}

type appendAnswer struct {
	Epoch  int64   `json:"epoch"`
	WallMS float64 `json:"wall_ms"`
}

func postAppend(c *http.Client, url string, txs []streamTx) (*appendAnswer, error) {
	body := struct {
		Table        string     `json:"table"`
		Transactions []streamTx `json:"transactions"`
	}{"s1", txs}
	var a appendAnswer
	err := doJSON(c, http.MethodPost, url+"/v1/append", body, &a)
	return &a, err
}

// event is one subscription event as served by tarmd.
type event struct {
	Seq int64     `json:"seq"`
	At  time.Time `json:"at"`
	tml.SubUpdate
	arrived time.Time
}

type eventsAnswer struct {
	Events []event `json:"events"`
}

func pollEvents(ctx context.Context, c *http.Client, url, id string, after int64, wait time.Duration) (*eventsAnswer, error) {
	u := fmt.Sprintf("%s/v1/subscriptions/%s/events?after=%d&wait_ms=%d", url, id, after, wait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var a eventsAnswer
	if err := decodeOK(resp, &a); err != nil {
		return nil, err
	}
	now := time.Now()
	for i := range a.Events {
		a.Events[i].arrived = now
	}
	return &a, nil
}

// subscriber folds a subscription's events and checks their sequence.
type subscriber struct {
	id     string
	fold   tml.RuleSet
	events []event
	next   int64 // the seq expected next
}

// take checks and folds newly received events. tarmd retains a
// bounded ring of events, so an event the reader missed shows as a gap
// in the sequence numbers.
func (s *subscriber) take(rep *report, evs []event) {
	for _, ev := range evs {
		if ev.Seq != s.next {
			rep.fail("event seq gap: got %d, want %d", ev.Seq, s.next)
		}
		s.next = ev.Seq + 1
		if err := s.fold.Apply(ev.Deltas); err != nil {
			rep.fail("event %d does not fold: %v", ev.Seq, err)
		} else if len(s.fold.Rows) != ev.Rules {
			rep.fail("event %d: fold holds %d rules, event says %d", ev.Seq, len(s.fold.Rows), ev.Rules)
		}
		s.events = append(s.events, ev)
	}
}

// closeAt is one day closed by the stream: the day and when the append
// that closed it was due.
type closeAt struct {
	day timegran.Granule
	due time.Time
}

// closes lists the days each batch closes under the stream clock, in
// order, given the clock the base leaves.
func closes(batches []batch, dues []time.Time, clock time.Time) []closeAt {
	var out []closeAt
	closed := timegran.ClosedThrough(clock, timegran.Day)
	for i, b := range batches {
		if b.maxAt.After(clock) {
			clock = b.maxAt
		}
		ct := timegran.ClosedThrough(clock, timegran.Day)
		for d := closed + 1; d <= ct; d++ {
			out = append(out, closeAt{d, dues[i]})
		}
		if ct > closed {
			closed = ct
		}
	}
	return out
}

func runIngest(o options, rep *report) error {
	sh := shapes[o.size]
	t0 := time.Now()
	d, err := makeIngestData(sh, o.seed)
	if err != nil {
		return err
	}
	pristine := o.path("pristine")
	if err := prepareDurableDir(pristine, sh, d); err != nil {
		return fmt.Errorf("prepare durable dir: %w", err)
	}
	batches := makeBatches(d.stream)
	rep.note("prepare data+durable dir %.2fs (outside timing); base %d tx, stream %d day batches, one every %s",
		time.Since(t0).Seconds(), len(d.base), len(batches), sh.batchEvery)

	c := newClient()
	args := append([]string{"-db", "<copy of the prepared directory>"}, ingestArgs...)
	rep.note("%s fsync=interval", hostNote(args))
	sub := &subscriber{}
	srv, err := startRepeated(rep, func(i int) (*server, error) {
		dir := o.path(fmt.Sprintf("db-%d", i))
		if err := copyDir(pristine, dir); err != nil {
			return nil, err
		}
		s, err := startServer(o.tarmd, o.path(fmt.Sprintf("tarmd-%d.log", i)), append([]string{"-db", dir}, ingestArgs...)...)
		if err != nil {
			return nil, err
		}
		if err := s.waitHealthy(c, 60*time.Second); err != nil {
			s.kill()
			return nil, err
		}
		var view struct {
			ID string `json:"id"`
		}
		if err := doJSON(c, http.MethodPost, s.url+"/v1/subscriptions", map[string]string{"statement": ingestStmt()}, &view); err != nil {
			s.kill()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		a, err := pollEvents(context.Background(), c, s.url, view.ID, -1, 60*time.Second)
		if err != nil || len(a.Events) == 0 || !a.Events[0].Initial {
			s.kill()
			return nil, fmt.Errorf("no initial snapshot event (%v)", err)
		}
		*sub = subscriber{id: view.ID}
		sub.take(rep, a.Events)
		return s, nil
	})
	if err != nil {
		return err
	}
	defer srv.kill()

	fsyncs0, err := metricValue(c, srv.url, tdb.MetricWALFsyncs)
	if err != nil {
		return err
	}
	cache0, err := getCacheStats(c, srv.url)
	if err != nil {
		return err
	}

	// The subscriber long-polls beside the appender until stopped.
	ctx, cancel := context.WithCancel(context.Background())
	var (
		subMu   sync.Mutex
		subWG   sync.WaitGroup
		pollErr error
	)
	subWG.Add(1)
	go func() {
		defer subWG.Done()
		for ctx.Err() == nil {
			a, err := pollEvents(ctx, c, srv.url, sub.id, sub.next-1, time.Second)
			subMu.Lock()
			if err != nil {
				if ctx.Err() == nil {
					pollErr = err
				}
				subMu.Unlock()
				return
			}
			sub.take(rep, a.Events)
			subMu.Unlock()
		}
	}()

	// The open-loop appender: batch j is due at start + j*batchEvery and
	// is timed from then, however late the generator sends it.
	var (
		dues, lates, lats, overheads []float64
		dueAt                        []time.Time
		acked                        []batch
		lastAck                      time.Time
	)
	baseClock := d.base[len(d.base)-1].At
	runtime.GC()
	cpu0 := readCPU()
	srvCPU0, err := srv.cpuSeconds()
	if err != nil {
		cancel()
		subWG.Wait()
		return err
	}
	start := time.Now()
	deadline := o.deadline()
	for j := 0; j < len(batches); j++ {
		due := start.Add(time.Duration(j) * sh.batchEvery)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		a, err := postAppend(c, srv.url, batches[j].txs)
		done := time.Now()
		if err != nil {
			rep.fail("append %d: %v", j, err)
			continue
		}
		rep.ok()
		acked = append(acked, batches[j])
		dueAt = append(dueAt, due)
		dues = append(dues, ms(done.Sub(due)))
		lates = append(lates, ms(sent.Sub(due)))
		lats = append(lats, ms(done.Sub(sent)))
		overheads = append(overheads, ms(done.Sub(sent))-a.WallMS)
		lastAck = done
	}
	rep.note("host cpu_steal_share=%.3f over the measured phase", stealShare(cpu0, readCPU()))
	if len(acked) == 0 {
		cancel()
		subWG.Wait()
		return fmt.Errorf("no append was acknowledged")
	}
	fsyncs1, err := metricValue(c, srv.url, tdb.MetricWALFsyncs)
	if err != nil {
		cancel()
		subWG.Wait()
		return err
	}

	// Settle: one append past the next day boundary closes the open day,
	// and the stream has settled once an event is current through its
	// epoch.
	final := finalBatch(acked[len(acked)-1].maxAt)
	fa, err := postAppend(c, srv.url, final.txs)
	if err != nil {
		cancel()
		subWG.Wait()
		return fmt.Errorf("closing append: %w", err)
	}
	settled := false
	for wait := time.Now().Add(60 * time.Second); time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		subMu.Lock()
		n := len(sub.events)
		settled = n > 0 && sub.events[n-1].Epoch >= fa.Epoch
		failed := pollErr != nil
		subMu.Unlock()
		if settled || failed {
			break
		}
	}
	cancel()
	subWG.Wait()
	if pollErr != nil {
		return fmt.Errorf("subscriber: %w", pollErr)
	}
	rep.check(settled, "subscription did not settle within 60s of the last append")
	// Every append's refresh has run once the stream settled: the CPU
	// from the first append to here is what ingesting those days cost.
	srvCPU1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	cache1, err := getCacheStats(c, srv.url)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	// Close-to-delta: each closed day against the first event whose
	// closed_through covers it.
	cl := closes(acked, dueAt, baseClock)
	var c2d []float64
	var pending []window
	for _, x := range cl {
		delivered := false
		for _, ev := range sub.events {
			if !ev.Initial && ev.ClosedThrough >= x.day {
				c2d = append(c2d, ms(ev.arrived.Sub(x.due)))
				pending = append(pending, window{x.due, ev.arrived})
				delivered = true
				break
			}
		}
		rep.check(delivered, "day %s closed but no event covers it", timegran.FormatGranule(x.day, timegran.Day))
	}
	var delivery []float64
	for _, ev := range sub.events {
		if !ev.Initial {
			delivery = append(delivery, ms(ev.arrived.Sub(ev.At)))
		}
	}

	// Output checks: the fold against a from-scratch MINE of the final
	// table, and the row count tarmd reports.
	ref, rows, err := ingestReference(sh, d, acked, final)
	if err != nil {
		return err
	}
	got := sub.fold.Sorted()
	want := ref.Sorted()
	rep.check(sameRows(got, want), "delta fold (%d rules) differs from a from-scratch MINE of the final table (%d rules)%s", len(got), len(want), firstDiff(got, want))
	var tables []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := doJSON(c, http.MethodGet, srv.url+"/v1/tables", nil, &tables); err != nil {
		return err
	}
	for _, t := range tables {
		if t.Name == "s1" {
			rep.check(t.Rows == rows, "GET /v1/tables says s1 has %d rows, want %d", t.Rows, rows)
		}
	}

	rep.set("append_p50_ms", quantile(dues, 0.5))
	rep.set("append_p90_ms", quantile(dues, 0.9))
	rep.set("append_p95_ms", quantile(dues, 0.95))
	rep.set("append_per_s", float64(len(acked))/lastAck.Sub(start).Seconds())
	rep.set("append_cpu_ms", 1000*(srvCPU1-srvCPU0)/float64(len(acked)+1))
	rep.set("close_to_delta_p50_ms", quantile(c2d, 0.5))
	rep.set("close_to_delta_p90_ms", quantile(c2d, 0.9))
	rep.set("rss_mb", rss)
	rep.set("server.append_overhead_ms", median(overheads))
	rep.set("server.delivery_ms", median(delivery))
	rep.set("bench.gen_late_p95_ms", quantile(lates, 0.95))
	rep.set("bench.close_backlog", float64(maxOverlap(pending)))
	rep.set("tdb.fsyncs_per_append", (fsyncs1-fsyncs0)/float64(len(acked)))
	rep.set("core.cache_hit_ratio", cache1.hitRatio(cache0))
	rep.note("appends %d acked, closes %d, events %d, server append wall p50 %.3f ms",
		len(acked), len(cl), len(sub.events), median(lats))
	rep.note("validity bench.gen_late_p95_ms=%.3f (valid while near 0) bench.close_backlog=%d (days closed, not yet emitted; valid while ≤ 1) core.cache_hit_ratio=%.4f",
		quantile(lates, 0.95), maxOverlap(pending), cache1.hitRatio(cache0))
	if !o.trace {
		return nil
	}
	return tracedIngest(o, rep, sh, pristine, batches)
}

// window is the time from a day's close to its delivery.
type window struct{ lo, hi time.Time }

// maxOverlap is the largest number of windows open at one instant.
func maxOverlap(iv []window) int {
	type edge struct {
		t time.Time
		d int
	}
	var es []edge
	for _, x := range iv {
		es = append(es, edge{x.lo, 1}, edge{x.hi, -1})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].t.Equal(es[j].t) {
			return es[i].d < es[j].d
		}
		return es[i].t.Before(es[j].t)
	})
	best, cur := 0, 0
	for _, e := range es {
		cur += e.d
		best = max(best, cur)
	}
	return best
}

// finalBatch is the settling append: one transaction a day after the
// stream's last one, closing the day that was open.
func finalBatch(last time.Time) batch {
	day := timegran.GranuleOf(last, timegran.Day)
	at := timegran.Start(day+1, timegran.Day).Add(time.Minute)
	return batch{txs: []streamTx{{At: at, Items: []string{"item0000", plantItemA}}}, maxAt: at}
}

// ingestReference mines the standing statement from scratch, cache
// disabled, over the base plus every acknowledged batch, and returns
// the result keyed as the delta fold is, with the table's row count.
// The dictionary is filled in tarmd's order first, so item ids match.
func ingestReference(sh shape, d *ingestData, acked []batch, final batch) (*tml.RuleSet, int, error) {
	db := tdb.NewMemDB()
	internNames(db.Dict(), sh.maxItems())
	tbl, err := db.CreateTxTable("s1")
	if err != nil {
		return nil, 0, err
	}
	for _, tx := range d.base {
		tbl.Append(tx.At, db.Dict().InternAll(names(d.dict, tx.Items)...))
	}
	for _, b := range append(acked, final) {
		for _, tx := range b.txs {
			tbl.Append(tx.At, db.Dict().InternAll(tx.Items...))
		}
	}
	res, err := referenceExecutor(db).Exec(periodsStmt("s1", baseSupport))
	if err != nil {
		return nil, 0, err
	}
	return keyed(res), tbl.Len(), nil
}

func keyed(res *minisql.Result) *tml.RuleSet {
	return &tml.RuleSet{Cols: res.Cols, Rows: tml.KeyRows(res.Cols, tml.DisplayCells(res))}
}

// stepper replays tml.Standing.Step through the public calls it makes,
// in its order, so each gets a span: TxTable.MaxAt and the close
// tracker, TxTable.DirtySince, HoldCache.Premaintain, the executor, and
// tml.DiffRows. DirtySince runs on every step (Step skips it when a
// day closed) so every refresh reports its dirty-granule count.
type stepper struct {
	e       *tml.Executor
	stmt    *tml.MineStmt
	tbl     *tdb.TxTable
	tr      *tracer
	tracker *core.CloseTracker
	cur     map[string][]string
	epoch   int64
	started bool
	fold    tml.RuleSet

	refreshes, deltas, rules int
	dirty                    []float64
	settled                  atomic.Int64 // epoch of the last refresh, for other goroutines
}

func (s *stepper) step(ctx context.Context) error {
	var err error
	s.tr.do("tml.step", func() {
		clock, ok := s.tbl.MaxAt()
		if !ok {
			return
		}
		_, closedAny := s.tracker.Advance(clock)
		refresh := !s.started || closedAny
		var (
			dirty []timegran.Granule
			logOK bool
		)
		s.tr.do("tdb.dirty_since", func() { dirty, _, logOK = s.tbl.DirtySince(timegran.Day, s.epoch) })
		if !refresh {
			ct, _ := s.tracker.ClosedThrough()
			refresh = !logOK
			for _, g := range dirty {
				refresh = refresh || g <= ct
			}
		}
		if !refresh {
			return
		}
		epoch := s.tbl.Epoch()
		s.tr.do("core.premaintain", func() { _, err = s.e.Cache.Premaintain(ctx, s.tbl, s.e.Tracer) })
		if err != nil {
			return
		}
		var res *minisql.Result
		s.tr.do("tml.exec", func() { res, err = s.e.ExecStmtContext(ctx, s.stmt) })
		if err != nil {
			return
		}
		cur := tml.KeyRows(res.Cols, tml.DisplayCells(res))
		var ds []tml.RuleDelta
		s.tr.do("tml.diff", func() { ds = tml.DiffRows(s.cur, cur) })
		if err = s.fold.Apply(ds); err != nil {
			return
		}
		if s.started && logOK {
			s.dirty = append(s.dirty, float64(len(dirty)))
		}
		if s.started {
			s.refreshes++
			s.deltas += len(ds)
			s.rules += len(cur)
		}
		s.cur, s.epoch, s.started = cur, epoch, true
		s.settled.Store(epoch)
	})
	return err
}

// ingestReplay is one in-process replay of the ingest stream.
type ingestReplay struct {
	st       *stepper
	collect  *obs.CollectTracer
	cache    *core.HoldCache
	recover  *span
	recTx    int
	appendMS []float64 // per append, timed around the spans
	txs      int
	walBytes int64
}

// replayIngest replays the stream in process on a fresh copy of the
// prepared directory: recovery and the registration snapshot, then an
// appender on the same open-loop schedule beside a stepper woken after
// each append, as tarmd's subscription worker is. Spans go to rec (nil:
// untraced); the snapshot is set-up and never traced.
func replayIngest(o options, rep *report, sh shape, pristine, dir string, batches []batch, rec *recorder) (*ingestReplay, error) {
	if err := copyDir(pristine, o.path(dir)); err != nil {
		return nil, err
	}
	out := &ingestReplay{}
	var tr, apTr *tracer
	if rec != nil {
		tr, apTr = rec.tracer(), rec.tracer()
	}
	var (
		db  *tdb.DB
		err error
	)
	out.recover = tr.do("tdb.recover", func() {
		db, err = tdb.OpenDurable(o.path(dir), tdb.Durability{Fsync: tdb.FsyncInterval})
	})
	if err != nil {
		return nil, err
	}
	defer db.Kill()
	out.recTx = db.Recovery().AppendedTx
	tbl, ok := db.TxTable("s1")
	if !ok {
		return nil, fmt.Errorf("recovered database has no s1")
	}
	stmt, err := tml.Parse(ingestStmt())
	if err != nil {
		return nil, err
	}
	e := tml.NewExecutor(db)
	out.cache = e.Cache
	st := &stepper{e: e, stmt: stmt, tbl: tbl, tracker: core.NewCloseTracker(timegran.Day)}
	out.st = st
	ctx := context.Background()
	if err := st.step(ctx); err != nil {
		return nil, err
	}
	if rec != nil {
		out.collect = obs.NewCollectTracer()
		st.tr = tr
		e.Tracer = obs.Multi(out.collect, tr)
	}

	notify := make(chan struct{}, 1)
	stop := make(chan struct{})
	stepDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				stepDone <- nil
				return
			case <-notify:
			}
			if err := st.step(ctx); err != nil {
				stepDone <- err
				return
			}
		}
	}()
	appendOne := func(b batch) error {
		txs := make([]tdb.Tx, len(b.txs))
		var aerr error
		t0 := time.Now()
		apTr.do("tdb.append", func() {
			for i, tx := range b.txs {
				txs[i] = tdb.Tx{At: tx.At, Items: db.Dict().InternAll(tx.Items...)}
			}
			_, _, aerr = tbl.AppendBatchDurable(txs)
		})
		out.appendMS = append(out.appendMS, ms(time.Since(t0)))
		select {
		case notify <- struct{}{}:
		default:
		}
		return aerr
	}
	wal0 := db.WALSize()
	var acked []batch
	start := time.Now()
	deadline := o.replayDeadline()
	for j := 0; j < len(batches); j++ {
		due := start.Add(time.Duration(j) * sh.batchEvery)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		if err := appendOne(batches[j]); err != nil {
			rep.fail("in-process append %d: %v", j, err)
			continue
		}
		rep.ok()
		acked = append(acked, batches[j])
		out.txs += len(batches[j].txs)
	}
	out.walBytes = db.WALSize() - wal0
	if len(acked) == 0 {
		close(stop)
		<-stepDone
		return nil, fmt.Errorf("no in-process append succeeded")
	}
	if err := appendOne(finalBatch(acked[len(acked)-1].maxAt)); err != nil {
		close(stop)
		<-stepDone
		return nil, err
	}
	// Wait for the stepper to catch up with the final epoch.
	settled := false
	for wait := time.Now().Add(60 * time.Second); time.Now().Before(wait) && !settled; time.Sleep(5 * time.Millisecond) {
		settled = st.settled.Load() == tbl.Epoch()
	}
	close(stop)
	if err := <-stepDone; err != nil {
		return nil, err
	}
	rep.check(settled, "in-process subscription did not settle")
	ref, err := referenceExecutor(db).Exec(periodsStmt("s1", baseSupport))
	if err != nil {
		return nil, err
	}
	rep.check(sameRows(st.fold.Sorted(), keyed(ref).Sorted()), "in-process delta fold differs from a from-scratch MINE")
	return out, nil
}

// tracedIngest replays the stream in process, untraced and then
// traced, and reports the per-layer metrics.
func tracedIngest(o options, rep *report, sh shape, pristine string, batches []batch) error {
	base, err := replayIngest(o, rep, sh, pristine, "db-replay-0", batches, nil)
	if err != nil {
		return err
	}
	// Only the untraced latencies are kept: the rest of that replay's
	// heap must not slow the traced one.
	baseMS := median(base.appendMS)
	base = nil
	runtime.GC()
	rec := newRecorder(fmt.Sprintf("%s-%d", o.workload, o.seed))
	r, err := replayIngest(o, rep, sh, pristine, "db-replay-1", batches, rec)
	if err != nil {
		return err
	}
	t := rec.analyse()
	st := r.st
	rep.set("tdb.recover_ms", ms(r.recover.dur()))
	rep.set("tdb.recover_tx", float64(r.recTx))
	statementMetrics(rep, t, "tml.step")
	passMetrics(rep, []*obs.CollectTracer{r.collect}, max(st.refreshes, 1))
	rep.set("core.cache_hit_ratio", fromCore(r.cache.Stats()).hitRatio(cacheStats{}))
	rep.set("tdb.append_us", 1000*median(durationsMS(t.named("tdb.append"))))
	rep.set("tdb.wal_bytes_per_tx", float64(r.walBytes)/float64(r.txs))
	rep.set("tdb.dirty_granules_per_refresh", mean(st.dirty))
	rep.set("core.premaintain_ms", median(durationsMS(t.named("core.premaintain"))))
	rep.set("core.maintain_ms", median(durationsMS(t.named("core.MaintainHoldTable"))))
	rep.set("tml.diff_us", 1000*median(durationsMS(t.named("tml.diff"))))
	if st.refreshes > 0 {
		rep.set("tml.deltas_per_refresh", float64(st.deltas)/float64(st.refreshes))
	}
	if st.rules > 0 {
		rep.set("tml.delta_useful_ratio", float64(st.deltas)/float64(st.rules))
	}
	rep.set("bench.trace_overhead_ratio", median(r.appendMS)/baseMS)
	rep.note("in-process replay: untraced append p50 %.3f ms, traced append p50 %.3f ms, %d refreshes, %d spans",
		baseMS, median(r.appendMS), st.refreshes, len(t.spans))
	largestSelf(rep, t, "tml.step")
	return rec.write(o.path("spans.json"))
}

// copyDir copies a database directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
