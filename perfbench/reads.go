package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/tdb"
)

// setupReps is how many times a run starts tarmd to measure its
// set-up; the medians are reported and the last instance serves the
// measured phase.
const setupReps = 3

// startRepeated starts a server setupReps times through start, which
// returns once the server is ready for the measured phase, and keeps
// the last one. It reports setup_s, the CPU time tarmd spent from exec
// to ready, and setup_wall_s, the wall time, both as medians.
func startRepeated(rep *report, start func(i int) (*server, error)) (*server, error) {
	var cpu, wall []float64
	for i := 0; ; i++ {
		s, err := start(i)
		if err != nil {
			return nil, err
		}
		wall = append(wall, time.Since(s.started).Seconds())
		c, err := s.cpuSeconds()
		if err != nil {
			s.kill()
			return nil, err
		}
		cpu = append(cpu, c)
		if i == setupReps-1 {
			rep.set("setup_s", median(cpu))
			rep.set("setup_wall_s", median(wall))
			return s, nil
		}
		s.kill()
	}
}

// readRun is what the read workloads share: the generated data, the
// reference answers and the statement source of each client.
type readRun struct {
	o       options
	sh      shape
	dataDir string
	refs    map[string]answer
	clients int
	cycle   int                            // statements per rotation; 0 = no rotation
	args    []string                       // tarmd flags
	warmUp  []string                       // statements run before the measured phase
	next    func(client int) func() string // statement sequence per client
}

func runColdMine(o options, rep *report) error {
	sh := shapes[o.size]
	cycle := coldCycle(sh, o.seed)
	r := &readRun{o: o, sh: sh, clients: 1, cycle: len(cycle), args: []string{"-cache", "1"}}
	r.next = func(int) func() string {
		i := 0
		return func() string {
			s := cycle[i%len(cycle)]
			i++
			return s
		}
	}
	if err := r.prepare(rep, cycle); err != nil {
		return err
	}
	phase, err := r.measure(rep)
	if err != nil {
		return err
	}
	rep.note("validity core.cache_hit_ratio=%.4f (cold-mine expects 0: every statement builds)", phase.hitRatio)
	if !o.trace {
		return nil
	}
	return r.traced(rep, phase)
}

func runWarmSession(o options, rep *report) error {
	sh := shapes[o.size]
	set := warmSet(sh)
	r := &readRun{o: o, sh: sh, clients: 2}
	for _, t := range sh.tables {
		r.warmUp = append(r.warmUp, warmUp(t.name))
	}
	r.next = func(c int) func() string {
		rng := rand.New(rand.NewSource(o.seed*31 + int64(c) + 17))
		return func() string { return set[rng.Intn(len(set))] }
	}
	if err := r.prepare(rep, set); err != nil {
		return err
	}
	phase, err := r.measure(rep)
	if err != nil {
		return err
	}
	rep.note("validity core.cache_hit_ratio=%.4f (warm-session expects 1: no statement builds)", phase.hitRatio)
	if !o.trace {
		return nil
	}
	return r.traced(rep, phase)
}

// prepare generates the data and computes the reference answers, both
// outside timing.
func (r *readRun) prepare(rep *report, stmts []string) error {
	r.dataDir = r.o.path("data")
	t0 := time.Now()
	if err := writeDataDir(r.dataDir, r.sh, r.o.seed); err != nil {
		return fmt.Errorf("generate data: %w", err)
	}
	db, err := tdb.Open(r.dataDir)
	if err != nil {
		return err
	}
	r.refs, err = references(db, append(append([]string(nil), r.warmUp...), stmts...))
	if err != nil {
		return err
	}
	checkPlanted(rep, r.sh, r.refs)
	rep.note("prepare data+references %.2fs (outside timing)", time.Since(t0).Seconds())
	r.args = append([]string{"-db", r.dataDir}, r.args...)
	return nil
}

// phaseResult is what the measured HTTP phase hands to the traced run.
type phaseResult struct {
	hitRatio  float64
	wallMS    []float64 // server-side statement wall times
	overhead  []float64 // client latency minus server wall time
	latencyMS []float64
}

// measure starts tarmd (setupReps times, for setup_s), runs the
// closed-loop clients for the measured phase and checks every answer.
func (r *readRun) measure(rep *report) (*phaseResult, error) {
	c := newClient()
	rep.note("%s", hostNote(r.args))
	srv, err := startRepeated(rep, func(i int) (*server, error) {
		s, err := startServer(r.o.tarmd, r.o.path(fmt.Sprintf("tarmd-%d.log", i)), r.args...)
		if err != nil {
			return nil, err
		}
		if err := s.waitHealthy(c, 60*time.Second); err != nil {
			s.kill()
			return nil, err
		}
		for _, stmt := range r.warmUp {
			a, err := postStatement(c, s.url, stmt)
			if err != nil {
				s.kill()
				return nil, fmt.Errorf("warm-up %q: %w", stmt, err)
			}
			rep.check(sameRows(a.Rows, r.refs[stmt].rows), "warm-up answer differs from reference: %q", stmt)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	before, err := getCacheStats(c, srv.url)
	if err != nil {
		return nil, err
	}
	var (
		mu  sync.Mutex
		res phaseResult
		wg  sync.WaitGroup
	)
	runtime.GC()
	cpu0 := readCPU()
	srvCPU0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := r.o.deadline()
	var last time.Time
	done := 0
	// tarmd's CPU time is read at the end of each whole rotation, so the
	// CPU per statement weighs every statement of a rotation alike.
	cpuAt, cpuN := 0.0, 0
	for cl := 0; cl < r.clients; cl++ {
		next := r.next(cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				stmt := next()
				t0 := time.Now()
				a, err := postStatement(c, srv.url, stmt)
				t1 := time.Now()
				lat := ms(t1.Sub(t0))
				mu.Lock()
				switch {
				case err != nil:
					rep.fail("statement %q: %v", stmt, err)
				case !sameRows(a.Rows, r.refs[stmt].rows):
					rep.fail("answer differs from reference (%d rows, want %d): %q", len(a.Rows), len(r.refs[stmt].rows), stmt)
				default:
					rep.ok()
					done++
					res.latencyMS = append(res.latencyMS, lat)
					res.wallMS = append(res.wallMS, a.WallMS)
					res.overhead = append(res.overhead, lat-a.WallMS)
					if t1.After(last) {
						last = t1
					}
					if r.cycle > 0 && done%r.cycle == 0 {
						if c, err := srv.cpuSeconds(); err == nil {
							cpuAt, cpuN = c, done
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.note("host cpu_steal_share=%.3f over the measured phase", stealShare(cpu0, readCPU()))
	if cpuN == 0 {
		if cpuAt, err = srv.cpuSeconds(); err != nil {
			return nil, err
		}
		cpuN = done
	}
	after, err := getCacheStats(c, srv.url)
	if err != nil {
		return nil, err
	}
	res.hitRatio = after.hitRatio(before)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if done == 0 {
		return nil, fmt.Errorf("no statement completed in the measured phase")
	}
	// A rotation's statements differ in cost, so latency percentiles
	// count whole rotations only: a trailing partial one would shift the
	// mix from run to run.
	if n := len(res.latencyMS); r.cycle > 0 && n >= r.cycle {
		n -= n % r.cycle
		res.latencyMS, res.wallMS, res.overhead = res.latencyMS[:n], res.wallMS[:n], res.overhead[:n]
	}
	rep.set("stmt_p50_ms", quantile(res.latencyMS, 0.5))
	rep.set("stmt_p90_ms", quantile(res.latencyMS, 0.9))
	rep.set("stmt_p95_ms", quantile(res.latencyMS, 0.95))
	rep.set("stmt_per_s", float64(done)/last.Sub(start).Seconds())
	rep.set("stmt_cpu_ms", 1000*(cpuAt-srvCPU0)/float64(cpuN))
	rep.set("rss_mb", rss)
	rep.set("core.cache_hit_ratio", res.hitRatio)
	rep.set("server.overhead_ms", median(res.overhead))
	rep.note("statements %d completed, %d latency samples", done, len(res.latencyMS))
	return &res, nil
}
